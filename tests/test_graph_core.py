"""Parsing, BFS distances, and the three distance moments."""

import random
from itertools import combinations
from math import comb

import numpy as np
import pytest

from helpers import (
    classification_corpus,
    complete,
    cycle,
    grid,
    hypercube,
    naive_sum_cross,
    naive_ordered_square_sum,
    path,
    queue_bfs_distances,
    queue_two_colouring,
    small_corpus,
)
from steiner_indices import graph as graph_module
from steiner_indices import (
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    GraphFormatError,
    all_pairs_distances,
    distance_moments,
    hyper_wiener,
    is_bipartite,
    modular_indices_3,
    parse_edge_list,
)
from steiner_indices.graph import bfs_distances
from steiner_indices.theta import MEDIAN


class TestParseEdgeList:
    def test_path4(self):
        g = parse_edge_list("4 3\n0 1\n1 2\n2 3")
        assert g.n == 4
        assert g.edges == ((0, 1), (1, 2), (2, 3))
        assert g.adjacency[1] == (0, 2)

    def test_triangle(self):
        g = parse_edge_list("3 3\n0 1\n1 2\n0 2")
        assert g.n == 3
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 2.*self-loop"):
            parse_edge_list("2 1\n0 0")

    def test_out_of_range_endpoint(self):
        with pytest.raises(GraphFormatError, match="line 3"):
            parse_edge_list("3 2\n0 1\n1 3")

    def test_duplicate_edge(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_edge_list("3 2\n0 1\n1 0")

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("3 2\n0 1 2\n1 2")

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# a path\n\n4 3\n0 1\n# middle\n1 2\n2 3\n")
        assert g.size == 3

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="declares 3"):
            parse_edge_list("4 3\n0 1\n1 2")

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            parse_edge_list("# nothing\n")

    def test_isolated_vertices_parse_fine(self):
        # connectivity is not the parser's business
        g = parse_edge_list("4 1\n0 1")
        assert g.n == 4 and g.size == 1


    @pytest.mark.parametrize(
        "text,message",
        [
            ("3 3\n0 1\n1 0\n0 5", "line 4: endpoint out of range [0, 3): 0 5"),
            ("3 3\n0 1\n1 0\n2 2", "line 4: self-loop at vertex 2"),
            ("3 3\n2 2\n0 1\n1 0", "line 2: self-loop at vertex 2"),
            ("3 4\n0 1\n1 2\n2 1\n1 0", "line 4: duplicate edge (1, 2)"),
            ("4 4\n0 1\n2 3\n1 0\n3 2", "line 4: duplicate edge (0, 1)"),
            ("3 3\n0 1\n0 1\n0 x", "line 4: non-integer field in '0 x'"),
        ],
    )
    def test_two_faults_name_the_first_line(self, text, message):
        with pytest.raises(GraphFormatError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "edges,message",
    [
        ([(0, 1), (2, 2), (0, 9)], "self-loop at vertex 2"),
        ([(0, 9), (2, 2)], "edge endpoint out of range [0, 3): (0, 9)"),
        ([(9, 9)], "edge endpoint out of range [0, 3): (9, 9)"),
        ([(0, -1), (1, 1)], "edge endpoint out of range [0, 3): (0, -1)"),
        ([(1, 0), (3, 1), (0, 1), (-1, 2)], "edge endpoint out of range [0, 3): (3, 1)"),
        ([(0, 1), (1, 0), (2, 2)], "duplicate edge (0, 1)"),
        ([(2, 2), (0, 1), (1, 0)], "self-loop at vertex 2"),
        ([(1, 2), (2, 1), (0, 1), (1, 0)], "duplicate edge (1, 2)"),
        ([(0, 10**30)], f"edge endpoint out of range [0, 3): (0, {10**30})"),
    ],
)
def test_construction_names_the_first_faulty_edge(edges, message):
    forms = [edges] + ([np.array(edges)] if max(map(max, edges)) < 2**63 else [])  # pairs, and an array
    for form in forms:
        with pytest.raises(ValueError) as exc:
            Graph.from_edges(3, form)
        assert str(exc.value) == message


def test_graph_arrays_are_read_only():
    for g in [grid(3, 4), hypercube(3), parse_edge_list("4 3\n3 2\n0 1\n2 0"), Graph.from_edges(2, [])]:
        for name in ("eu", "ev", "indptr", "nbr"):
            a = getattr(g, name)
            assert a.dtype == np.int64 and not a.flags.writeable, name
            with pytest.raises(ValueError):
                a[:1] = 0


def bfs_corpus():
    """classification_corpus, 300 seeded random graphs (most of them disconnected,
    with isolated vertices), and the empty, one-vertex and isolated-vertex cases."""
    rng = random.Random(23)
    graphs = classification_corpus()
    for _ in range(300):
        n = rng.randrange(0, 25)
        pairs = list(combinations(range(n), 2))
        graphs.append(Graph.from_edges(n, rng.sample(pairs, rng.randrange(min(len(pairs), 2 * n) + 1))))
    graphs += [Graph.from_edges(0, []), Graph.from_edges(1, []), Graph.from_edges(5, [(1, 3)])]
    return graphs + [Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])]


class TestBfs:
    def test_every_source_matches_the_queue_oracle(self):
        for g in bfs_corpus():
            expected = [queue_bfs_distances(g, s) for s in range(g.n)]
            for s in range(g.n):
                got = bfs_distances(g, s)
                assert got.dtype == np.int32 and got.tolist() == expected[s], (g.n, g.edges, s)

    @pytest.mark.parametrize("block", [1, 40, 1 << 18])
    def test_all_pairs_in_source_blocks(self, monkeypatch, block):
        monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", block)
        disconnected = 0
        for g in bfs_corpus():
            expected = [queue_bfs_distances(g, s) for s in range(g.n)]
            if g.n and min(expected[0]) < 0:
                with pytest.raises(DisconnectedGraphError) as exc:
                    all_pairs_distances(g)
                assert exc.value.pair == (0, expected[0].index(-1))
                disconnected += 1
            else:
                assert all_pairs_distances(g).a.tolist() == expected, g.edges
        assert disconnected >= 100

    def test_two_colouring_matches_the_queue_oracle(self):
        flags = set()
        for g in bfs_corpus():
            expected = queue_two_colouring(g)
            assert is_bipartite(g) == expected, (g.n, g.edges)
            if g.n and min(queue_bfs_distances(g, 0)) >= 0:  # connected: the levels of row 0 decide alike
                assert is_bipartite(g, bfs_distances(g, 0)) == expected
            flags.add(expected[0])
        assert flags == {True, False}


def test_adjacency_rows_strictly_increase_from_shuffled_edges():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 30)
        pairs = list(combinations(range(n), 2))
        pairs = rng.sample(pairs, rng.randrange(len(pairs) + 1))  # a random subset in shuffled order
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        g = Graph.from_edges(n, edges)
        for x, row in enumerate(g.adjacency):
            assert all(a < b for a, b in zip(row, row[1:])), (x, row)
            assert set(row) == {v for e in g.edges if x in e for v in e if v != x}


class TestAllPairsDistances:
    def test_path_end_to_end(self):
        d = all_pairs_distances(path(4))
        assert d(0, 3) == 3

    def test_cycle_opposite(self):
        d = all_pairs_distances(cycle(4))
        assert d(0, 2) == 2
        assert d(1, 3) == 2

    def test_disconnected_names_pair(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError) as exc:
            all_pairs_distances(g)
        u, v = exc.value.pair
        assert {u, v} <= {0, 1, 2, 3}

    def test_matrix_invariants_on_corpus(self):
        for g in small_corpus(count=10):
            d = all_pairs_distances(g)
            edge_set = set(g.edges)
            for u in range(g.n):
                assert d(u, u) == 0
                for v in range(u + 1, g.n):
                    assert d(u, v) == d(v, u) >= 1
                    # d = 1 exactly on edges
                    assert (d(u, v) == 1) == ((u, v) in edge_set)

    def test_triangle_inequality(self):
        rng = random.Random(3)
        for g in small_corpus(count=5, seed=99):
            d = all_pairs_distances(g)
            for _ in range(50):
                u, v, w = (rng.randrange(g.n) for _ in range(3))
                assert d(u, w) <= d(u, v) + d(v, w)


class TestDistanceMoments:
    def test_cycle4(self):
        m = distance_moments(all_pairs_distances(cycle(4)))
        assert (m.wiener, m.sum_sq, m.sum_cross) == (8, 12, 40)

    def test_grid_2x3(self):
        m = distance_moments(all_pairs_distances(grid(2, 3)))
        assert (m.wiener, m.sum_sq, m.sum_cross) == (25, 49, 324)

    def test_k2(self):
        m = distance_moments(all_pairs_distances(complete(2)))
        assert (m.wiener, m.sum_sq, m.sum_cross) == (1, 1, 0)

    def test_single_vertex(self):
        m = distance_moments(all_pairs_distances(complete(1)))
        assert (m.wiener, m.sum_sq, m.sum_cross) == (0, 0, 0)

    def test_cross_moment_matches_triple_loop(self):
        for g in small_corpus(count=12, max_n=8):
            d = all_pairs_distances(g)
            m = distance_moments(d)
            assert m.sum_cross == naive_sum_cross(d)

    def test_ordered_square_identity(self):
        # sum over ordered distinct triples of d(u,v)^2 = 2(n-2) * sum_sq
        for g in small_corpus(count=8, max_n=8, seed=5):
            if g.n < 3:
                continue
            d = all_pairs_distances(g)
            m = distance_moments(d)
            assert naive_ordered_square_sum(d) == 2 * (g.n - 2) * m.sum_sq

    def test_wiener_at_most_sum_sq(self):
        for g in small_corpus(count=8):
            m = distance_moments(all_pairs_distances(g))
            assert 0 <= m.wiener <= m.sum_sq

    @pytest.mark.parametrize("block", [1, 130, 1 << 18])
    def test_row_blocks_give_the_whole_matrix_sums(self, monkeypatch, block):
        monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", block)
        for g in small_corpus(count=12, max_n=8, seed=3) + [grid(7, 9), hypercube(6)]:
            rows = all_pairs_distances(g).a.tolist()
            row_sums = [sum(r) for r in rows]
            row_sq = [sum(x * x for x in r) for r in rows]
            m = distance_moments(all_pairs_distances(g))
            assert m.wiener == sum(row_sums) // 2 and m.sum_sq == sum(row_sq) // 2, g.edges
            if g.n >= 3:
                assert m.sum_cross == sum(s * s - q for s, q in zip(row_sums, row_sq)), g.edges

    def test_row_blocks_form_no_n_by_n_int64_copy(self):
        import tracemalloc

        n = 2000
        r = np.arange(n)
        d = DistanceMatrix(np.abs(r[:, None] - r))  # the path P_n
        tracemalloc.start()
        try:
            m = distance_moments(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (m.wiener, m.sum_sq) == (comb(n + 1, 3), n * n * (n * n - 1) // 12)
        assert peak < 8 * n * n // 4  # a quarter of one int64 copy

    def test_cross_moment_past_int64_is_exact(self):
        # 64 |i - j| on n = 2000: the cross moment is about 1.7 * 2^63, where an
        # int64 sum wraps; the row sums come from closed forms in Python ints
        n, scale = 2000, 64
        r = np.arange(n)
        d = DistanceMatrix(scale * np.abs(r[:, None] - r))
        row_sums = [scale * (i * (i + 1) + (n - 1 - i) * (n - i)) // 2 for i in range(n)]
        row_sq = [scale**2 * (i * (i + 1) * (2 * i + 1) + (n - 1 - i) * (n - i) * (2 * n - 2 * i - 1)) // 6 for i in range(n)]
        wiener, sum_sq = sum(row_sums) // 2, sum(row_sq) // 2
        sum_cross = sum(s * s - q for s, q in zip(row_sums, row_sq))
        assert sum_cross == 15280802477398425600 > 1 << 63
        m = distance_moments(d)
        assert (m.wiener, m.sum_sq, m.sum_cross) == (wiener, sum_sq, sum_cross)
        sw3 = (n - 2) * wiener // 2
        sww3 = (2 * (n - 2) * wiener + (n - 2) * sum_sq + sum_cross) // 8
        assert modular_indices_3(d, m, MEDIAN) == (sw3, sww3)


class TestHyperWiener:
    @pytest.mark.parametrize(
        "builder,expected",
        [(lambda: cycle(4), 10), (lambda: path(4), 15), (lambda: complete(2), 1)],
    )
    def test_examples(self, builder, expected):
        ww = hyper_wiener(distance_moments(all_pairs_distances(builder())))
        assert ww == expected

    def test_always_integral_on_corpus(self):
        for g in small_corpus(count=10, seed=44):
            ww = hyper_wiener(distance_moments(all_pairs_distances(g)))
            assert ww.denominator == 1
