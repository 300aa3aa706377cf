"""Cut (Theta-class) evaluation of SW_k and SWW_k against brute force and the
paper's per-pair formulas."""

from math import comb
from operator import mul
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    classification_corpus,
    complete,
    complete_bipartite,
    cycle,
    grid,
    hypercube,
    paper_cut_sums,
    paper_f1,
    paper_moments,
    paper_sw3_sww3,
    path,
    prism,
    quadrant_histogram,
    quadrants,
    split_count_sums,
    tree,
    tree_corpus,
)
from steiner_indices import (
    PreconditionError,
    all_pairs_distances,
    cut_report,
    cutmethod,
    distance_moments,
    errors,
    hyper_wiener,
    median_classification,
    pair_counts,
    steiner_k_indices_brute,
    sww3_cut,
    theta_classes,
)
from steiner_indices.errors import exact_dot
from steiner_indices.theta import MEDIAN


def cut_setup(g):
    d = all_pairs_distances(g)
    tc = theta_classes(g, d)
    return d, tc, pair_counts(tc), median_classification(g, d)


class TestAnchors:
    def test_p4_components(self):
        g = path(4)
        d, tc, pc, cls = cut_setup(g)
        assert paper_cut_sums(tc) == (10, 20, 5, 22)
        assert paper_moments(tc) == (10, 20, 64)
        assert cut_report(tc, pc, 2, cls) == (10, 15)  # W, WW
        assert cut_report(tc, pc, 3, cls) == (10, 18)
        assert sww3_cut(tc, pc, cls) == 18

    def test_c4(self):
        g = cycle(4)
        d, tc, pc, cls = cut_setup(g)
        assert paper_moments(tc) == (8, 12, 40)
        assert cut_report(tc, pc, 2, cls) == (8, 10)
        assert cut_report(tc, pc, 3, cls) == (8, 12)
        assert sww3_cut(tc, pc, cls) == 12

    def test_grid_2x3(self):
        g = grid(2, 3)
        d, tc, pc, cls = cut_setup(g)
        assert paper_moments(tc) == (25, 49, 324)
        assert cut_report(tc, pc, 2, cls) == (25, 37)
        assert cut_report(tc, pc, 3, cls) == (50, 90)
        assert sww3_cut(tc, pc, cls) == 90


class TestRefusals:
    def test_non_partial_cube_sides(self):
        g = complete(3)
        d = all_pairs_distances(g)
        tc = theta_classes(g, d)
        assert tc.sides is None
        with pytest.raises(PreconditionError, match="side partitions"):
            pair_counts(tc)
        with pytest.raises(PreconditionError, match="partial cube"):
            cut_report(tc, None, 2, median_classification(g, d))
        # a classification that wrongly claims a partial cube still meets the
        # missing sides
        with pytest.raises(PreconditionError, match="partial-cube"):
            cut_report(tc, None, 2, median_classification(path(3)))

    def test_steiner_formulas_refuse_non_modular(self):
        g = cycle(6)  # partial cube but not modular
        d, tc, pc, cls = cut_setup(g)
        mom = distance_moments(d)
        assert cut_report(tc, pc, 2, cls) == (mom.wiener, hyper_wiener(mom))
        with pytest.raises(PreconditionError, match="not modular") as exc:
            cut_report(tc, pc, 3, cls)
        assert "witness triple 0,2,4" in str(exc.value)
        with pytest.raises(PreconditionError, match="not modular"):
            sww3_cut(tc, pc, cls)

    def test_steiner_formulas_refuse_non_partial_cube(self):
        g = complete_bipartite(2, 3)  # modular but not a partial cube
        d = all_pairs_distances(g)
        tc = theta_classes(g, d)
        cls = median_classification(g, d)
        assert cls.modular and not cls.partial_cube
        for k in (2, 3):
            with pytest.raises(PreconditionError, match="partial cube"):
                cut_report(tc, None, k, cls)

    def test_k_above_3_only_on_trees(self):
        g = grid(3, 3)
        d, tc, pc, cls = cut_setup(g)
        with pytest.raises(PreconditionError, match="only on trees"):
            cut_report(tc, pc, 4, cls)

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_outside_brute_range(self, k):
        g = path(3)
        d, tc, pc, cls = cut_setup(g)
        with pytest.raises(PreconditionError, match="k must satisfy"):
            cut_report(tc, pc, k, cls)
        with pytest.raises(PreconditionError, match="k must satisfy"):
            steiner_k_indices_brute(g, d, k)


def _grid_cut_split(g, tc, m, n):
    """Split the classes of an m x n grid into column cuts and row cuts."""
    col, row = [], []
    for ci, c in enumerate(tc.classes):
        u, v = c[0]
        (col if v == u + 1 else row).append(ci)
    assert len(col) == n - 1 and len(row) == m - 1
    return col, row


class TestGridClassSums:
    """Closed-form sums of the per-class cut contributions on grids."""

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_f_sums_split_by_orientation(self, m, n):
        g = grid(m, n)
        d, tc, pc, cls = cut_setup(g)
        f1 = [paper_f1(n0, n1) for n0, n1 in tc.side_counts]
        col, row = _grid_cut_split(g, tc, m, n)
        # column cut j has sides of size m(j+1) and m(n-j-1)
        col_f1 = sum(f1[c] for c in col)
        assert col_f1 == (m * m * n**3 - m * m * n) // 6
        row_f1 = sum(f1[r] for r in row)
        assert row_f1 == (n * n * m**3 - n * n * m) // 6
        assert cut_report(tc, pc, 2, cls)[0] == col_f1 + row_f1 == distance_moments(d).wiener

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (3, 4), (4, 5)])
    def test_pair_sums_match_quadrant_definitions(self, m, n):
        g = grid(m, n)
        tc = theta_classes(g)
        col, row = _grid_cut_split(g, tc, m, n)
        # parallel cuts never separate the same pair twice in opposite order:
        # for two column cuts the mixed quadrants n01 or n10 vanish
        for a in col:
            for b in col:
                if a < b:
                    assert 0 in quadrants(tc, a, b)
        # a column and a row cut always give four non-empty quadrants
        for a in col:
            for b in row:
                i, j = min(a, b), max(a, b)
                assert all(q > 0 for q in quadrants(tc, i, j))
        assert (pair_counts(tc) == quadrant_histogram(tc)).all()


class TestMomentIdentities:
    @pytest.mark.parametrize("builder", [
        lambda: path(7),
        lambda: cycle(8),
        lambda: grid(3, 5),
        lambda: hypercube(4),
        lambda: prism(4),
        lambda: prism(6),
    ])
    def test_cut_moments_equal_matrix_moments(self, builder):
        g = builder()
        d, tc, pc, cls = cut_setup(g)
        mom = distance_moments(d)
        assert paper_moments(tc) == (mom.wiener, mom.sum_sq, mom.sum_cross)
        assert cut_report(tc, pc, 2, cls) == (mom.wiener, hyper_wiener(mom))

    def test_cut_moments_on_tree_corpus(self):
        for g in tree_corpus(count=25):
            d, tc, pc, cls = cut_setup(g)
            mom = distance_moments(d)
            assert paper_moments(tc) == (mom.wiener, mom.sum_sq, mom.sum_cross)
            assert cut_report(tc, pc, 2, cls) == (mom.wiener, hyper_wiener(mom))


class TestSteinerViaCuts:
    def test_matches_brute_on_modular_partial_cubes(self):
        graphs = [grid(m, n) for m in (2, 3, 4) for n in (2, 3, 4)]
        graphs += [hypercube(2), hypercube(3), hypercube(4), path(9)]
        graphs += tree_corpus(count=15)
        for g in graphs:
            if g.n < 3:
                continue
            d, tc, pc, cls = cut_setup(g)
            got = cut_report(tc, pc, 3, cls)
            assert got == steiner_k_indices_brute(g, d, 3) == paper_sw3_sww3(tc)

    def test_monotone_in_grid_width(self):
        prev = (0, 0)
        for n in range(2, 7):
            g = grid(3, n)
            d, tc, pc, cls = cut_setup(g)
            cur = cut_report(tc, pc, 3, cls)
            assert cur > prev
            prev = cur


class TestDifferential:
    """cut_report against brute force, the paper's formulas, and the
    per-subset split counts, in every case where it is exact."""

    def test_trees_and_paths_every_k(self):
        for g in tree_corpus() + [path(n) for n in range(1, 10)]:
            d, tc, pc, cls = cut_setup(g)
            for k in range(1, min(5, g.n) + 1):
                want = steiner_k_indices_brute(g, d, k)
                assert cut_report(tc, pc, k, cls) == want == split_count_sums(tc, k)

    def test_partial_cubes_k_up_to_2(self):
        checked = 0
        for g in classification_corpus():
            d = all_pairs_distances(g)
            cls = median_classification(g, d)
            if not cls.partial_cube:
                continue
            tc = theta_classes(g, d)
            pc = pair_counts(tc)
            assert (pc == quadrant_histogram(tc)).all()
            w, sum_sq, _ = paper_moments(tc)
            assert cut_report(tc, pc, 1, cls) == (0, 0) == steiner_k_indices_brute(g, d, 1)
            sw2, sww2 = cut_report(tc, pc, 2, cls)
            assert (sw2, sww2) == steiner_k_indices_brute(g, d, 2)
            assert (sw2, 2 * sww2) == (w, w + sum_sq)
            checked += not cls.modular
        assert checked > 0  # non-modular partial cubes such as C6 are among them

    def test_modular_partial_cubes_k3(self):
        checked = 0
        for g in classification_corpus():
            d = all_pairs_distances(g)
            cls = median_classification(g, d)
            if not (cls.partial_cube and cls.modular) or g.n < 3:
                continue
            tc = theta_classes(g, d)
            got = cut_report(tc, pair_counts(tc), 3, cls)
            assert got == steiner_k_indices_brute(g, d, 3) == paper_sw3_sww3(tc)
            checked += 1
        assert checked > 100

    @pytest.mark.parametrize("g,k,sums,true_sw", [
        (grid(3, 3), 4, (444, 1024), 494),
        (cycle(6), 3, (54, 102), 56),
    ])
    def test_inexact_sums_are_lower_bounds_and_refused(self, monkeypatch, g, k, sums, true_sw):
        d, tc, pc, cls = cut_setup(g)
        brute = steiner_k_indices_brute(g, d, k)
        assert brute[0] == true_sw
        with pytest.raises(PreconditionError):
            cut_report(tc, pc, k, cls)
        monkeypatch.setattr(cutmethod, "check_exact", lambda *args: None)
        raw = cut_report(tc, pc, k, cls)
        assert raw == sums == split_count_sums(tc, k)
        assert raw[0] < brute[0] and raw[1] < brute[1]

    def test_tree_k4_equals_brute(self):
        g = tree(3, 12)
        d, tc, pc, cls = cut_setup(g)
        assert cut_report(tc, pc, 4, cls) == steiner_k_indices_brute(g, d, 4)


def test_product_cut_equals_the_grid_formulas():
    # the classes of each path are built once and lifted to every grid
    from steiner_indices import generate, grid_sw3, grid_sww3, parse_descriptor, theta

    paths = {p: theta_classes(generate(parse_descriptor(f"path:{p}")), method="crossing") for p in range(2, 61)}
    for m in range(2, 61):
        for n in range(2, 61):
            tc = theta.ProductClasses((paths[m], paths[n]))
            sw, sww = cut_report(tc, pair_counts(tc), 3, theta.MEDIAN)
            assert sw == grid_sw3(m, n), (m, n)
            if (m, n) != (2, 2):  # the formula refuses 2 x 2
                assert sww == grid_sww3(m, n), (m, n)


def _int64_bound(k):
    """The largest v with v^k < 2^63: past it ``_comb_sum`` leaves int64."""
    v = round(2 ** (63 / k))
    while v**k >= 1 << 63:
        v -= 1
    while (v + 1) ** k < 1 << 63:
        v += 1
    return v


class TestExactSums:
    @pytest.mark.parametrize("length", [2, 7])
    def test_exact_dot_is_exact_at_and_past_the_int64_bound(self, length, monkeypatch):
        # len(a) max(a) and sum(a) max(b) reach 2^63 - 1 (rounded down), then
        # pass it, where the int64 dot would wrap
        top = ((1 << 63) - 1) // length
        for a, b, at in (
            ([top] * length, [1] * length, True),
            ([top + 1] * length, [1] * length, False),
            ([1] * length, [top] * length, True),
            ([1] * length, [top + 1] * length, False),
            ([1 << 62] * 4, [1] * 4, False),  # sum(a) alone wraps to 0 in int64
        ):
            if at:
                monkeypatch.setattr(errors, "mul", None)  # at the bound the dot stays in int64
            got = exact_dot(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
            monkeypatch.undo()
            assert got == sum(map(mul, a, b)), (a, b)
            assert type(got) is int
        assert exact_dot(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)) == 0

    @pytest.mark.parametrize("k", range(1, 7))
    def test_comb_sum_forms_each_binomial_exactly_at_and_past_the_int64_bound(self, k, monkeypatch):
        b = _int64_bound(k)
        for values in (list(range(k + 3)), [0, b - 1, b], [3, b, b + 1, 2 * b]):
            values = [v for v in values if v < 1 << 63]  # in int64
            counts = list(range(1, len(values) + 1))
            if max(values) <= b:  # up to the bound the binomials are formed in int64
                monkeypatch.setattr(cutmethod, "comb", None)
            got = cutmethod._comb_sum(np.array(counts, dtype=np.int64), np.array(values, dtype=np.int64), k)
            monkeypatch.undo()
            assert got == sum(c * comb(v, k) for c, v in zip(counts, values)), (k, values)
            assert type(got) is int
        empty = np.zeros(0, dtype=np.int64)
        assert cutmethod._comb_sum(empty, empty, k) == 0
        # 21! > 2^63: small values at a large k take math.comb, not an int64 k!
        assert cutmethod._comb_sum(np.ones(8, dtype=np.int64), np.arange(8), 20 + k) == 0

    @pytest.mark.parametrize("k", range(1, 7))
    def test_comb_sum_dot_is_exact_at_and_past_the_int64_bound(self, k, monkeypatch):
        # sum(counts) C(v, k) for the top bin v is the largest below 2^63,
        # then past it, where one bin's product alone leaves int64
        v = min(_int64_bound(k), 5000)  # C(v, k) itself is formed in int64
        at = ((1 << 63) - 1) // comb(v, k)
        for total in (at, at + 1):
            for bins in ([v], [0, k, v]):
                pc = np.zeros(v + 1, dtype=np.int64)
                pc[bins] = 1
                pc[v] = total - len(bins) + 1
                if total == at:
                    monkeypatch.setattr(errors, "mul", None)  # at the bound the dot stays in int64
                (nz,) = pc.nonzero()
                got = cutmethod._comb_sum(pc[nz], nz, k)
                monkeypatch.undo()
                assert got == sum(map(mul, pc[nz].tolist(), [comb(x, k) for x in nz.tolist()])), (k, total, bins)
                assert type(got) is int

    @pytest.mark.parametrize("k", range(1, 7))
    def test_cut_report_equals_the_per_bin_sums(self, k):
        # a tree-shaped class structure (m = n - 1 admits every k) whose sides
        # and quadrant sizes reach the int64 bound and pass it where an
        # array of that length is small enough to build
        b = min(_int64_bound(k), 1 << 21)
        n = b + 3
        side_sizes = np.array([1, 2, n // 2, n - b, n - b - 1], dtype=np.int64)
        pc = np.zeros(b + 2, dtype=np.int64)
        pc[[0, 1, k, b // 3, b - 1, b, b + 1]] = [5, 4, 3, 2, 1, 7, 9]
        tc = SimpleNamespace(n=n, m=n - 1, class_count=side_sizes.size, side_sizes=side_sizes)
        d, total = tc.class_count, comb(n, k)
        unsplit = sum(comb(n - s, k) + comb(s, k) for s in side_sizes.tolist())
        (bins,) = pc.nonzero()
        in_quadrant = sum(count * comb(v, k) for v, count in zip(bins.tolist(), pc[bins].tolist()))
        sw = d * total - unsplit
        assert cut_report(tc, pc, k, MEDIAN) == (sw, sw + comb(d, 2) * total - (d - 1) * unsplit + in_quadrant)
        assert cut_report(tc, None, k, MEDIAN) == (sw, None)
