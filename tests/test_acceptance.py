"""Acceptance suite: one test per release criterion, each printing a
"ACCEPT <name>: PASS" line on success so the full bar is visible in the
pytest -s / verbose output.

Criteria:
  1 closed formulas for complete graphs and paths vs brute enumeration
  2 grid closed formulas vs cut method vs brute, with frozen anchors
  3 cut-method values equal distance-matrix / brute values on a corpus
  4 identity suites (derivative link, moment identity, median link, k = 2)
  5 classification fixtures
  6 cut method at least 100x faster than brute on a 20 x 20 grid, and
    a 100 x 100 grid in under 5 seconds
"""

import time
from itertools import combinations
from math import comb

from helpers import (
    complete,
    complete_bipartite,
    cycle,
    enumerated_indices,
    grid,
    hypercube,
    naive_sum_cross,
    paper_moments,
    paper_sw3_sww3,
    path,
    quadrant_histogram,
    small_corpus,
    tree_corpus,
)
from steiner_indices import (
    GeneratorDescriptor,
    all_pairs_distances,
    complete_formulas,
    count_medians,
    cut_report,
    distance_moments,
    family_classification,
    generate,
    grid_sw3,
    grid_sww3,
    hyper_wiener,
    indices_from_hosoya,
    is_partial_cube,
    median_classification,
    modular_indices_3,
    pair_counts,
    path_formulas,
    steiner_distance,
    steiner_hosoya,
    steiner_k_indices_brute,
    sww3_cut,
    theta_classes,
)


def _accept(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPT {name}: PASS{suffix}")


def _cut_pipeline(g, d):
    tc = theta_classes(g, d)
    pc = pair_counts(tc)
    assert (pc == quadrant_histogram(tc)).all()
    return tc, pc


def test_criterion_1_closed_formulas():
    """Complete-graph and path formulas match brute enumeration, n <= 10."""
    start = time.perf_counter()
    checked = 0
    for n in range(2, 11):
        for builder, formulas in ((complete, complete_formulas), (path, path_formulas)):
            g = builder(n)
            d = all_pairs_distances(g)
            for k in range(2, min(n, 5) + 1):
                sh, sw, sww = formulas(n, k)
                assert sh.coeffs == steiner_hosoya(g, d, k).coeffs
                assert (sw, sww) == steiner_k_indices_brute(g, d, k)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    _accept("closed-formulas", f"{checked} (family, n, k) cases in {elapsed:.2f}s")


def test_criterion_2_grid_formulas():
    """Grid closed forms match both the cut method and brute, with anchors."""
    start = time.perf_counter()
    assert grid_sw3(3, 3) == 252
    anchors = {3: 90, 4: 352, 5: 1004, 6: 2364}
    for n, expected in anchors.items():
        assert grid_sww3(2, n) == expected
    checked = 0
    for m in range(2, 6):
        for n in range(2, 6):
            g = grid(m, n)
            d = all_pairs_distances(g)
            sw_b, sww_b = steiner_k_indices_brute(g, d, 3)
            tc, pc = _cut_pipeline(g, d)
            cls = median_classification(g, d)
            sw_c, sww_c = cut_report(tc, pc, 3, cls)
            assert grid_sw3(m, n) == sw_b == sw_c
            assert sww_b == sww_c == sww3_cut(tc, pc, g.n, cls)
            assert (sw_c, sww_c) == paper_sw3_sww3(tc)
            if (m, n) != (2, 2):  # the 2 x 2 strip is outside the formula
                assert grid_sww3(m, n) == sww_b
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    _accept("grid-formulas", f"5 anchors + {checked} grids in {elapsed:.2f}s")


def test_criterion_3_cut_oracle_equivalence():
    """Cut-method W, WW, SW_3, SWW_3 and the paper's cut moments equal
    matrix/brute values."""
    start = time.perf_counter()
    corpus = [grid(m, n) for m in range(2, 6) for n in range(2, 6)]
    corpus += [hypercube(k) for k in (2, 3, 4)]
    corpus += tree_corpus(count=50, max_n=14)
    for g in corpus:
        d = all_pairs_distances(g)
        mom = distance_moments(d)
        tc, pc = _cut_pipeline(g, d)
        cls = median_classification(g, d)
        w, sum_sq, sum_cross = paper_moments(tc)
        assert (w, sum_sq) == (mom.wiener, mom.sum_sq)
        assert cut_report(tc, pc, 2, cls) == (mom.wiener, hyper_wiener(mom))
        if g.n >= 3:
            assert sum_cross == mom.sum_cross
            got = cut_report(tc, pc, 3, cls)
            assert got == steiner_k_indices_brute(g, d, 3) == paper_sw3_sww3(tc)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _accept("cut-oracle-equivalence", f"{len(corpus)} graphs in {elapsed:.2f}s")


def test_criterion_4_identity_suites():
    """Derivative, ordered-triple, median-link, and k = 2 identities."""
    start = time.perf_counter()
    corpus = small_corpus(count=30, max_n=9)
    # (a) indices from polynomial derivatives vs brute, k in {2, 3, 4}
    for g in corpus:
        d = all_pairs_distances(g)
        for k in (2, 3, 4):
            if k > g.n:
                continue
            p = steiner_hosoya(g, d, k)
            assert indices_from_hosoya(p) == steiner_k_indices_brute(g, d, k) == enumerated_indices(g, d, k)
    # (b) cross moment per-vertex identity vs the O(n^3) triple loop
    for g in corpus[:12]:
        d = all_pairs_distances(g)
        assert distance_moments(d).sum_cross == naive_sum_cross(d)
    # (c) a triple has a median iff 2 d(S) equals the pairwise distance sum,
    # including the C_6 triple where the no-median direction must fire
    for g in corpus[:10] + [cycle(6)]:
        d = all_pairs_distances(g)
        for u, v, w in combinations(range(g.n), 3):
            has_median = count_medians(d, u, v, w) >= 1
            assert has_median == (
                2 * steiner_distance(g, d, (u, v, w)) == d(u, v) + d(u, w) + d(v, w)
            )
    d6 = all_pairs_distances(cycle(6))
    assert count_medians(d6, 0, 2, 4) == 0
    # (d) k = 2 reduces to the classical Wiener and hyper-Wiener indices
    for g in corpus:
        d = all_pairs_distances(g)
        mom = distance_moments(d)
        assert indices_from_hosoya(steiner_hosoya(g, d, 2)) == (
            mom.wiener,
            hyper_wiener(mom),
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _accept("identity-suites", f"4 suites over {len(corpus)} graphs in {elapsed:.2f}s")


def test_criterion_5_classification_fixtures():
    """Median / modular / partial-cube fixtures behave as classified."""
    assert median_classification(hypercube(3)).median_status == "median"
    for g in tree_corpus(count=20):
        assert median_classification(g).median_status == "median"

    g = complete_bipartite(2, 3)
    d = all_pairs_distances(g)
    cls = median_classification(g, d)
    assert cls.median_status == "modular_not_median"
    sw3, sww3 = modular_indices_3(d, distance_moments(d), cls)
    assert sww3 == 33
    assert (sw3, sww3) == steiner_k_indices_brute(g, d, 3)

    c6 = median_classification(cycle(6))
    assert c6.median_status == "not_modular" and c6.witness == (0, 2, 4)

    for bad in (cycle(5), complete(3)):
        dd = all_pairs_distances(bad)
        tc = theta_classes(bad, dd)
        assert not is_partial_cube(bad, dd, tc).is_partial_cube
    _accept("classification-fixtures", "Q3, 20 trees, K23, C6, C5, K3")


def test_criterion_6_performance():
    """Cut method >= 100x faster than brute on a 20 x 20 grid; a 100 x 100
    grid completes in under 5 seconds."""
    desc = GeneratorDescriptor("grid", (20, 20))
    g = generate(desc)
    cls = family_classification(desc)

    def cut_once():
        tc = theta_classes(g, method="crossing")
        pc = pair_counts(tc)
        return sww3_cut(tc, pc, g.n, cls)

    cut_once()  # first call outside the timed runs, so they time a warm process
    cut_elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        cut_value = cut_once()
        cut_elapsed = min(cut_elapsed, time.perf_counter() - start)

    start = time.perf_counter()
    d = all_pairs_distances(g)
    _, brute_value = steiner_k_indices_brute(g, d, 3)
    brute_elapsed = time.perf_counter() - start

    assert cut_value == brute_value
    ratio = brute_elapsed / cut_elapsed
    assert ratio >= 100, (
        f"cut {cut_elapsed:.4f}s vs brute {brute_elapsed:.2f}s over "
        f"{comb(g.n, 3)} triples: only {ratio:.0f}x"
    )

    big_desc = GeneratorDescriptor("grid", (100, 100))
    big = generate(big_desc)
    big_cls = family_classification(big_desc)
    start = time.perf_counter()
    tc = theta_classes(big, method="crossing")
    big_value = sww3_cut(tc, pair_counts(tc), big.n, big_cls)
    big_elapsed = time.perf_counter() - start
    assert big_elapsed < 5
    assert big_value > 0
    _accept(
        "performance",
        f"20x20 speedup {ratio:.0f}x equal values; 100x100 in {big_elapsed:.2f}s",
    )
