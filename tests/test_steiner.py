"""Steiner distances, the k-Hosoya polynomial, and the k-index computations."""

import inspect
import random
import sys
import time
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_steiner_by_subtrees,
    chain_graph,
    complete,
    complete_bipartite,
    cycle,
    enumerated_hosoya,
    enumerated_indices,
    grid,
    path,
    random_bipartite_graph,
    random_connected_graph,
    small_corpus,
    star,
    tree,
)
from steiner_indices import (
    DistanceMatrix,
    Graph,
    PreconditionError,
    all_pairs_distances,
    count_medians,
    distance_moments,
    hyper_wiener,
    indices_from_hosoya,
    median_classification,
    modular_indices_3,
    steiner_distance,
    steiner_hosoya,
    steiner_k_indices_brute,
)
from steiner_indices import steiner as steiner_module
from steiner_indices.steiner import K_MAX, _steiner_dw


class TestSteinerDistance:
    def test_singleton_is_zero(self):
        g = cycle(5)
        d = all_pairs_distances(g)
        assert steiner_distance(g, d, [3]) == 0

    def test_pair_is_distance(self):
        g = path(6)
        d = all_pairs_distances(g)
        assert steiner_distance(g, d, [0, 4]) == 4

    def test_c6_alternating_triple(self):
        g = cycle(6)
        d = all_pairs_distances(g)
        assert steiner_distance(g, d, [0, 2, 4]) == 4

    def test_star_leaves(self):
        g = star(3)
        d = all_pairs_distances(g)
        assert steiner_distance(g, d, [1, 2, 3]) == 3

    def test_path_spread_triple(self):
        g = path(6)
        d = all_pairs_distances(g)
        assert steiner_distance(g, d, [0, 2, 5]) == 5

    def test_too_large_terminal_set(self):
        g = path(20)
        d = all_pairs_distances(g)
        with pytest.raises(PreconditionError, match="too large"):
            steiner_distance(g, d, list(range(K_MAX + 1)))

    def test_repeated_terminals_rejected(self):
        g = path(4)
        d = all_pairs_distances(g)
        with pytest.raises(PreconditionError):
            steiner_distance(g, d, [1, 1, 2])

    def test_branch_vertex_equals_dynamic_program(self):
        for g in small_corpus(count=10, max_n=8, seed=21):
            d = all_pairs_distances(g)
            for s in combinations(range(g.n), 3):
                assert steiner_distance(g, d, s) == _steiner_dw(d, list(s))

    def test_dynamic_program_against_subtree_enumeration(self):
        for g in small_corpus(count=5, max_n=7, seed=31):
            d = all_pairs_distances(g)
            for s in combinations(range(g.n), 4):
                assert steiner_distance(g, d, s) == brute_steiner_by_subtrees(g, d, s)


class TestSteinerHosoya:
    def test_p4_k3(self):
        g = path(4)
        p = steiner_hosoya(g, all_pairs_distances(g), 3)
        assert p.coeffs == {2: 2, 3: 2}

    def test_k5_k3(self):
        g = complete(5)
        p = steiner_hosoya(g, all_pairs_distances(g), 3)
        assert p.coeffs == {2: 10}

    def test_k1_all_singletons(self):
        g = cycle(7)
        p = steiner_hosoya(g, all_pairs_distances(g), 1)
        assert p.coeffs == {0: 7}

    def test_coefficients_sum_and_support(self):
        for g in small_corpus(count=6, max_n=8, seed=41):
            d = all_pairs_distances(g)
            for k in (2, 3, 4):
                if k > g.n:
                    continue
                p = steiner_hosoya(g, d, k)
                assert p.total() == comb(g.n, k)
                assert all(k - 1 <= m <= g.n - 1 for m in p.coeffs)


class TestIndicesFromHosoya:
    def test_examples(self):
        from steiner_indices import SteinerHosoya

        assert indices_from_hosoya(SteinerHosoya(3, {2: 2, 3: 2})) == (10, 18)
        assert indices_from_hosoya(SteinerHosoya(3, {2: 10})) == (20, 30)
        assert indices_from_hosoya(SteinerHosoya(1, {0: 9})) == (0, 0)

    def test_derivative_identity_vs_brute(self):
        # the hyper-Wiener index from polynomial derivatives equals the
        # subset-enumeration definition
        for g in small_corpus(count=8, max_n=8, seed=51):
            d = all_pairs_distances(g)
            for k in (2, 3, 4):
                if k > g.n:
                    continue
                from_poly = indices_from_hosoya(steiner_hosoya(g, d, k))
                assert from_poly == steiner_k_indices_brute(g, d, k) == enumerated_indices(g, d, k)

    def test_k2_reduces_to_classical_indices(self):
        for g in small_corpus(count=8, max_n=8, seed=61):
            d = all_pairs_distances(g)
            m = distance_moments(d)
            sw2, sww2 = indices_from_hosoya(steiner_hosoya(g, d, 2))
            assert sw2 == m.wiener
            assert sww2 == hyper_wiener(m)


class TestBruteIndices:
    def test_examples(self):
        cases = [(path(4), (10, 18)), (cycle(4), (8, 12)), (complete(5), (20, 30))]
        for g, expected in cases:
            d = all_pairs_distances(g)
            assert steiner_k_indices_brute(g, d, 3) == expected

    def test_guard(self):
        g = complete(12)
        d = all_pairs_distances(g)
        with pytest.raises(PreconditionError, match="guard"):
            steiner_k_indices_brute(g, d, 5, guard=100)

    def test_fast_k3_kernel_matches_plain_enumeration(self):
        for g in [grid(3, 4), cycle(9), complete_bipartite(3, 4)]:
            d = all_pairs_distances(g)
            slow = indices_from_hosoya(enumerated_hosoya(g, d, 3))
            fast = steiner_k_indices_brute(g, d, 3)
            assert slow == fast


def _kernel_corpus():
    """Cycles C3-C15, K_{2,m}, and seeded random connected and bipartite
    graphs with n from 3 to 70, across the old n = 64 kernel boundary."""
    rng = random.Random(97)
    graphs = [cycle(k) for k in range(3, 16)]
    graphs += [complete_bipartite(2, m) for m in range(1, 9)]
    for n in (*range(3, 13), 17, 25, 40, 63, 64, 70):
        graphs.append(random_connected_graph(rng, n, rng.randrange(0, n + 1)))
        graphs.append(random_bipartite_graph(rng, n, rng.randrange(0, n + 1)))
    return graphs


def _spiders():
    """K_{1,3} with legs of 1 to 4 edges: the three leg ends' optimum is the centre."""
    legs = [(a, b, c) for a in range(1, 5) for b in range(a, 5) for c in range(b, 5)]
    return [chain_graph([(0, None, leg) for leg in spider]) for spider in legs]


def _pruning_corpus():
    """Graphs whose branch vertices the pruned kernel must find or may skip:
    spiders, stars, paths, seeded trees, cycles with pendant paths, and theta
    graphs (long degree-2 chains between two hubs)."""
    graphs = _spiders() + [star(m) for m in range(2, 9)] + [path(n) for n in range(3, 13)]
    graphs += [tree(s, n) for s, n in ((1, 6), (2, 9), (3, 14), (4, 22), (5, 40))]
    graphs += [chain_graph([(0, 0, k), (0, None, p)]) for k in (3, 4, 7) for p in (1, 3)]
    graphs += [chain_graph([(0, 1, 3), (1, 0, 3), (0, None, 2), (1, None, 3)])]
    thetas = ((1, 2, 2), (1, 3, 5), (2, 2, 3), (2, 4, 6), (3, 3, 3))
    graphs += [chain_graph([(0, 1, p), (0, 1, q), (0, 1, r)]) for p, q, r in thetas]
    return graphs


def _all_x_hosoya(d):
    """The k = 3 polynomial's coefficients as the minimum over every branch vertex x."""
    a = d.a.astype(np.int64)
    best = np.full((d.n,) * 3, np.iinfo(np.int64).max)
    for x in a:  # best[u, v, w] = min over x of d(x,u) + d(x,v) + d(x,w)
        np.minimum(best, x[:, None, None] + x[:, None] + x, out=best)
    u, v, w = np.array(list(combinations(range(d.n), 3))).T
    return {m: c for m, c in enumerate(np.bincount(best[u, v, w]).tolist()) if c}


def _kernel_lines(g, d):
    """steiner_hosoya at k = 3, and how often the kernel executes each of its
    source lines, keyed by the line's text."""
    code = steiner_module._triple_histogram.__code__
    source, first = inspect.getsourcelines(steiner_module._triple_histogram)
    lines = Counter()

    def trace(frame, event, arg):
        if frame.f_code is code and event == "line":
            lines[source[frame.f_lineno - first].strip()] += 1
        return trace if frame.f_code is code else None

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        p = steiner_hosoya(g, d, 3)
    finally:
        sys.settrace(old)
    return p, lines


def _runs(lines, fragment):
    """Executions of the kernel's lines that contain ``fragment``."""
    return sum(c for text, c in lines.items() if fragment in text)


def _spur_path(n, every):
    """A path on n vertices with a pendant vertex at every ``every``-th one."""
    hubs = range(1, n - 1, every)
    return Graph.from_edges(n + len(hubs), [(v, v + 1) for v in range(n - 1)] + [(h, n + i) for i, h in enumerate(hubs)])


@st.composite
def connected_graphs(draw, max_n=12):
    """A random labelled tree on 3..max_n vertices plus random chords."""
    n = draw(st.integers(3, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges |= {(min(u, v), max(u, v)) for u, v in chords if u != v}
    return Graph.from_edges(n, sorted(edges))


class TestTripleKernel:
    def test_kernel_equals_per_triple_enumeration(self):
        for g in _kernel_corpus() + _pruning_corpus():
            d = all_pairs_distances(g)
            expected = enumerated_hosoya(g, d, 3)
            got = steiner_hosoya(g, d, 3)
            assert got.coeffs == expected.coeffs
            assert steiner_k_indices_brute(g, d, 3) == indices_from_hosoya(expected)

    def test_kernel_equals_subtree_enumeration_on_small_graphs(self):
        for g in _kernel_corpus() + _pruning_corpus():
            if g.n > 9:
                continue
            d = all_pairs_distances(g)
            expected = {}
            for s in combinations(range(g.n), 3):
                m = brute_steiner_by_subtrees(g, d, s)
                expected[m] = expected.get(m, 0) + 1
            assert steiner_hosoya(g, d, 3).coeffs == expected

    @staticmethod
    def _fabricated(rng, n, low, high):
        a = np.zeros((n, n), dtype=np.int64)
        for u, v in combinations(range(n), 2):
            a[u, v] = a[v, u] = rng.randint(low, high)  # high <= 2 low: a metric
        return a

    def test_distances_beyond_int16_stay_exact(self):
        # 3 max d exceeds int16, where the sums would wrap
        rng = random.Random(11)
        for n in (3, 4):
            a = self._fabricated(rng, n, 11_000, 21_999)
            d = DistanceMatrix(a)
            rows = a.tolist()
            expected = {}
            for u, v, w in combinations(range(n), 3):
                m = min(rows[u][x] + rows[v][x] + rows[w][x] for x in range(n))
                expected[m] = expected.get(m, 0) + 1
            assert steiner_hosoya(path(n), d, 3).coeffs == expected

    def test_block_splits_leave_histograms_unchanged(self, monkeypatch):
        spurs = _spur_path(64, 4)  # distances past 42: int16 sums, 16 branch vertices
        graphs = _kernel_corpus() + _pruning_corpus() + [spurs]
        degrees = [np.diff(g.indptr) for g in graphs]
        assert any(deg.max() <= 2 for deg in degrees) and any(deg.max() >= 3 for deg in degrees)
        ds = [all_pairs_distances(g) for g in graphs]
        assert 3 * ds[-1].a.max() > np.iinfo(np.int8).max
        expected = [steiner_hosoya(g, d, 3).coeffs for g, d in zip(graphs, ds)]
        assert expected[-1] == _all_x_hosoya(ds[-1])
        for g, d, coeffs in zip(graphs, ds, expected):
            x = int((np.diff(g.indptr) >= 3).sum())
            # one x per slab and one u per slab sum and per first-term or count
            # step; then three x per slab and three u rows per step; then twelve
            # of each; then one slab of every x, with sums of two or more u rows
            for block in (1, 3 * g.n * g.n, 12 * g.n * g.n, 2 * max(1, x) * g.n * g.n):
                monkeypatch.setattr(steiner_module, "_BLOCK_ELEMENTS", block)
                p, lines = _kernel_lines(g, d)
                assert p.coeffs == coeffs, (g.edges, block)
                if g is spurs:  # the splits happened
                    blocks, slabs = _runs(lines, "best = buf["), _runs(lines, "q = xs[")
                    sums, steps = _runs(lines, ".min(axis=0)"), _runs(lines, "au = a[")
                    assert sums > slabs  # u in several sub-blocks
                    assert steps > blocks if block <= 3 * g.n * g.n else steps == blocks
                    if block <= 12 * g.n * g.n:  # x in several chunks
                        assert slabs > blocks
                    else:  # one slab per block, and some sums serve several u
                        assert slabs == blocks and sums < g.n - 2

    def test_kernel_memory_stays_within_its_stated_bound(self, monkeypatch):
        g = random_connected_graph(random.Random(5), 200, 100)
        d, branch = all_pairs_distances(g), np.diff(g.indptr) >= 3
        top = 3 * int(d.a.max())
        assert top <= np.iinfo(np.int8).max and branch.sum() > 20  # int8 sums: b = 1
        for block in (steiner_module._BLOCK_ELEMENTS, 1 << 12):
            monkeypatch.setattr(steiner_module, "_BLOCK_ELEMENTS", block)
            m = max(block, g.n * g.n)
            # the docstring's bound, the histogram and bincount's counts, and
            # numpy's buffers for three int64 operands
            bound = (10 * g.n * g.n + 4 * m) + 6 * m + 16 * (top + 1) + 3 * 8192 * 8
            tracemalloc.start()
            try:
                steiner_module._triple_histogram(d, branch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (block, peak, bound)

    def test_spider_centres_beat_every_terminal(self):
        # the leg ends' optimum is the degree-3 centre alone; terminals cost more
        for g in _spiders():
            d = all_pairs_distances(g)
            ends = [u for u in range(g.n) if g.degree(u) == 1]
            assert steiner_distance(g, d, ends) == g.n - 1
            pair_sum = sum(d(u, v) for u, v in combinations(ends, 2))
            assert pair_sum - max(d(u, v) for u, v in combinations(ends, 2)) > g.n - 1

    def test_pruning_needs_the_graph_of_the_distances(self):
        # seed 6 is one of 7 in 200 where path(5)'s degrees (no branch vertex)
        # miss the all-x minimum: the 1s of d are not path(5)'s edges, so every
        # vertex stays a candidate
        a = self._fabricated(random.Random(6), 5, 11_000, 21_999)
        d = DistanceMatrix(a)
        pruned = steiner_module._triple_histogram(d, np.zeros(5, dtype=bool)).tolist()
        assert {m: c for m, c in enumerate(pruned) if c} != _all_x_hosoya(d)
        assert steiner_hosoya(path(5), d, 3).coeffs == _all_x_hosoya(d)

    def test_maximum_degree_two_skips_the_per_u_loop(self):
        ring = cycle(80)
        chorded = Graph.from_edges(80, ring.edges + ((0, 40),))  # two degree-3 vertices
        for g, few in ((ring, True), (chorded, False)):
            d = all_pairs_distances(g)
            p, lines = _kernel_lines(g, d)
            assert p.coeffs == _all_x_hosoya(d)
            if few:  # a handful of lines per [u, v, w] block, no slab
                assert sum(lines.values()) < 80 and _runs(lines, "q = xs[") == 0
            else:  # the branch step ran: a slab per block and its sums
                assert _runs(lines, "q = xs[") > 0 and _runs(lines, ".min(axis=0)") > 0

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(connected_graphs())
    def test_pruned_kernel_equals_the_all_x_minimum(self, g):
        d = all_pairs_distances(g)
        assert steiner_hosoya(g, d, 3).coeffs == _all_x_hosoya(d)

    @pytest.mark.parametrize("top", [42, 43, 10_922, 10_923])
    def test_dtype_switches_do_not_wrap(self, top):
        # 3 top sits at 126/129 (int8 -> int16) and 32766/32769 (int16 ->
        # int32); the last vertex lies at top from every other, so the sum
        # 3 top is formed at that branch vertex
        rng = random.Random(top)
        for n in (4, 5):
            a = self._fabricated(rng, n, (top + 1) // 2, top)
            a[n - 1, : n - 1] = a[: n - 1, n - 1] = top
            rows = a.tolist()
            expected = {}
            for u, v, w in combinations(range(n), 3):
                m = min(rows[u][x] + rows[v][x] + rows[w][x] for x in range(n))
                expected[m] = expected.get(m, 0) + 1
            assert steiner_hosoya(path(n), DistanceMatrix(a), 3).coeffs == expected

    def test_distances_beyond_int32_are_refused(self):
        d = DistanceMatrix(self._fabricated(random.Random(1), 4, 2**30 - 10, 2**30))
        with pytest.raises(PreconditionError, match="overflow"):
            steiner_hosoya(path(4), d, 3)

    def test_histograms_above_the_bin_budget_are_refused_before_allocating(self):
        # 3 max d = 2^31 - 2 fits int32, but its histogram would take 16 GB
        a = self._fabricated(random.Random(2), 4, 357_913_941, 715_827_882)
        a[3, :3] = a[:3, 3] = 715_827_882
        start = time.perf_counter()
        with pytest.raises(PreconditionError, match="2147483647 histogram bins"):
            steiner_hosoya(path(4), DistanceMatrix(a), 3)
        assert time.perf_counter() - start < 0.5


class TestModularIndices3:
    def test_c4(self):
        g = cycle(4)
        d = all_pairs_distances(g)
        got = modular_indices_3(d, distance_moments(d), median_classification(g, d))
        assert got == (8, 12)

    def test_k23(self):
        g = complete_bipartite(2, 3)
        d = all_pairs_distances(g)
        m = distance_moments(d)
        assert (m.wiener, m.sum_sq, m.sum_cross) == (14, 22, 114)
        got = modular_indices_3(d, m, median_classification(g, d))
        assert got == (21, 33)

    def test_grid_2x3(self):
        g = grid(2, 3)
        d = all_pairs_distances(g)
        got = modular_indices_3(d, distance_moments(d), median_classification(g, d))
        assert got == (50, 90)

    def test_refuses_non_modular(self):
        g = cycle(6)
        d = all_pairs_distances(g)
        cls = median_classification(g, d)
        with pytest.raises(PreconditionError, match="not modular") as exc:
            modular_indices_3(d, distance_moments(d), cls)
        assert "witness triple 0,2,4" in str(exc.value)

    def test_agrees_with_brute_on_modular_corpus(self):
        graphs = [tree(s, 4 + s) for s in range(6)]
        graphs += [grid(2, 4), grid(3, 3), complete_bipartite(2, 3), complete_bipartite(2, 4)]
        for g in graphs:
            d = all_pairs_distances(g)
            cls = median_classification(g, d)
            assert cls.modular
            got = modular_indices_3(d, distance_moments(d), cls)
            assert got == steiner_k_indices_brute(g, d, 3)


class TestMedianSteinerLink:
    def test_biconditional_on_corpus(self):
        # a triple has a median iff twice its Steiner distance equals the sum
        # of its three pairwise distances
        graphs = small_corpus(count=8, max_n=8, seed=71) + [cycle(6), complete_bipartite(2, 3)]
        for g in graphs:
            d = all_pairs_distances(g)
            for u, v, w in combinations(range(g.n), 3):
                has_median = count_medians(d, u, v, w) >= 1
                two_ds = 2 * steiner_distance(g, d, (u, v, w))
                pair_sum = d(u, v) + d(u, w) + d(v, w)
                assert has_median == (two_ds == pair_sum)
                assert two_ds >= pair_sum  # spanning the three pairs is never cheaper

    def test_c6_witness_triple_violates_median_form(self):
        g = cycle(6)
        d = all_pairs_distances(g)
        assert count_medians(d, 0, 2, 4) == 0
        assert 2 * steiner_distance(g, d, (0, 2, 4)) == 8
        assert d(0, 2) + d(0, 4) + d(2, 4) == 6
