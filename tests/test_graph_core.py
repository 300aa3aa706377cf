"""Parsing, BFS distances, and the three distance moments."""

import random
from itertools import combinations

import pytest

from helpers import (
    complete,
    cycle,
    grid,
    naive_sum_cross,
    naive_ordered_square_sum,
    path,
    small_corpus,
)
from steiner_indices import (
    DisconnectedGraphError,
    Graph,
    GraphFormatError,
    all_pairs_distances,
    distance_moments,
    hyper_wiener,
    parse_edge_list,
)


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
