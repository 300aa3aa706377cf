"""Theta relation, Theta*-classes, side structure, and classification."""

import random
import tracemalloc
from functools import cache
from itertools import combinations
from math import comb

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_parent_labels,
    cartesian_product,
    classification_corpus,
    complete,
    complete_bipartite,
    cycle,
    gram_quadrant_histogram,
    grid,
    hypercube,
    induced_subgraph,
    median_count_classification,
    path,
    prism,
    quadrant_histogram,
    random_bipartite_graph,
    quadrants,
    small_corpus,
    star,
    theta_star_oracle,
    tree,
    triple_scan_classification,
    wedge_pairs_per_vertex,
)
from steiner_indices import graph as graph_module
from steiner_indices import theta as theta_module
from steiner_indices.graph import bfs_distances
from steiner_indices import (
    Graph,
    IntegralityError,
    PreconditionError,
    ThetaClasses,
    all_pairs_distances,
    count_medians,
    is_bipartite,
    is_partial_cube,
    median_classification,
    pair_counts,
    theta_classes,
    theta_related,
)


def analyzed(g):
    d = all_pairs_distances(g)
    return d, theta_classes(g, d)


class TestThetaRelated:
    def test_c4_opposite_edges(self):
        g = cycle(4)
        d = all_pairs_distances(g)
        assert theta_related(d, (0, 1), (2, 3))

    def test_c4_adjacent_edges(self):
        g = cycle(4)
        d = all_pairs_distances(g)
        assert not theta_related(d, (0, 1), (1, 2))

    def test_reflexive(self):
        g = path(5)
        d = all_pairs_distances(g)
        for e in g.edges:
            assert theta_related(d, e, e)

    def test_labeling_independent(self):
        g = cycle(6)
        d = all_pairs_distances(g)
        assert theta_related(d, (0, 1), (3, 4)) == theta_related(d, (1, 0), (4, 3))


class TestThetaClasses:
    def test_path_singletons(self):
        _, tc = analyzed(path(4))
        assert tc.class_count == 3
        assert all(len(c) == 1 for c in tc.classes)

    def test_k3_single_class(self):
        _, tc = analyzed(complete(3))
        assert tc.class_count == 1
        assert len(tc.classes[0]) == 3

    def test_c6_antipodal_pairs(self):
        _, tc = analyzed(cycle(6))
        assert tc.class_count == 3
        expected = {
            ((0, 1), (3, 4)),
            ((1, 2), (4, 5)),
            ((0, 5), (2, 3)),
        }
        assert set(tc.classes) == expected

    def test_classes_partition_edges(self):
        for g in small_corpus(count=8, seed=11):
            _, tc = analyzed(g)
            seen = [e for c in tc.classes for e in c]
            assert sorted(seen) == sorted(g.edges)

    def test_deterministic_ordering(self):
        _, tc = analyzed(grid(3, 3))
        firsts = [c[0] for c in tc.classes]
        assert firsts == sorted(firsts)

    def test_crossing_agrees_with_pairwise_on_partial_cubes(self):
        graphs = [grid(3, 4), grid(2, 2), hypercube(3), path(6), tree(3, 11), cycle(8), prism(4)]
        graphs += classification_corpus()
        checked = 0
        for g in graphs:
            d = all_pairs_distances(g)
            a = theta_classes(g, d)
            if not is_partial_cube(g, d, a).is_partial_cube:
                continue
            b = theta_classes(g, method="crossing")
            assert a.classes == b.classes
            assert np.array_equal(a.sides, b.sides)
            for tc in (a, b):
                assert tc.sides.dtype == bool
                assert tc.sides.shape == (tc.class_count, g.n)
                assert not tc.sides[:, 0].any()
                assert not tc.sides.flags.writeable
            checked += 1
        assert checked >= 200

    def test_crossing_refuses_non_partial_cube(self):
        with pytest.raises(PreconditionError):
            theta_classes(complete(3), method="crossing")
        with pytest.raises(PreconditionError):
            theta_classes(complete_bipartite(2, 3), method="crossing")

    def test_crossing_off_partial_cubes_raises_or_returns_a_one_bfs_labelling(self):
        # crossing is for graphs known to be partial cubes; on others the cut
        # pass refuses, and only a one-BFS labelling comes back unchecked
        g = complete_bipartite(3, 2)
        assert theta_classes(g, method="crossing").class_count == 2 and theta_classes(g).class_count == 1
        returned = refused = 0
        for g in bipartite_corpus() + small_corpus(300, 12, seed=9):
            d = all_pairs_distances(g)
            if is_partial_cube(g, d, theta_classes(g, d)).is_partial_cube:
                continue
            try:
                tc = theta_classes(g, d, method="crossing")
            except PreconditionError:
                refused += 1
                continue
            assert tc.gates is not None, g.edges
            returned += 1
        assert returned >= 30 and refused >= 30

    def test_crossing_refuses_odd_cycles_with_deep_ties(self):
        # the ends of edge (0, 1) of C5 and C7 first tie at the antipodal
        # vertex, deeper than BFS level 1
        for n in (5, 7):
            g = cycle(n)
            d = all_pairs_distances(g)
            tie = (n + 1) // 2
            assert d(0, tie) == d(1, tie) == (n - 1) // 2 > 1
            with pytest.raises(PreconditionError):
                theta_classes(g, method="crossing")


def one_bfs_labels(g, labeller=None):
    return (labeller or theta_module._one_bfs_labels)(g, bfs_distances(g, 0))


def bipartite_corpus():
    rng = random.Random(41)
    graphs = classification_corpus()
    return graphs + [random_bipartite_graph(rng, rng.randrange(4, 25), rng.randrange(0, 8)) for _ in range(300)]


class TestOneBfsLabels:
    def test_equals_pairwise_on_partial_cubes(self):
        graphs = bipartite_corpus()
        checked = 0
        for g in graphs:
            d = all_pairs_distances(g)
            pairwise = theta_classes(g, d)
            if not is_partial_cube(g, d, pairwise).is_partial_cube:
                continue
            labelled = one_bfs_labels(g)
            if median_classification(g, d).median_status == "median":
                assert labelled is not None, g.edges  # every median graph takes it
            if labelled is None:
                continue
            edge_class, sides, _, _ = labelled
            assert np.array_equal(edge_class, pairwise.edge_class)
            assert ThetaClasses(g.n, g.eu, g.ev, edge_class, None).classes == pairwise.classes
            assert np.array_equal(sides, pairwise.sides)
            assert sides.flags.c_contiguous
            checked += 1
        assert checked >= 200

    def test_two_parents_equal_the_all_parent_oracle_on_partial_cubes(self):
        kept = 0
        for g in bipartite_corpus():
            d = all_pairs_distances(g)
            if not is_partial_cube(g, d, theta_classes(g, d)).is_partial_cube:
                continue
            got, expected = one_bfs_labels(g), one_bfs_labels(g, all_parent_labels)
            assert (got is None) == (expected is None), g.edges
            if got is not None:
                assert np.array_equal(got[0], expected[0])
                assert np.array_equal(got[1], expected[1])
                kept += 1
        assert kept >= 280

    def test_labellings_kept_off_partial_cubes_fail_the_isometry_check(self):
        # the flip check alone can keep a labelling of a graph that is no
        # partial cube; is_partial_cube must then refuse it
        graphs = bipartite_corpus() + small_corpus(300, 12, seed=9)
        kept = 0
        for g in graphs:
            d = all_pairs_distances(g)
            if is_partial_cube(g, d, theta_classes(g, d)).is_partial_cube:
                continue
            labelled = one_bfs_labels(g)
            if labelled is not None:
                assert not is_partial_cube(g, d, ThetaClasses(g.n, g.eu, g.ev, *labelled)).is_partial_cube, g.edges
                kept += 1
        assert kept >= 20

    @pytest.mark.parametrize("g", [grid(10, 10), tree(7, 60), hypercube(6)], ids=["grid", "tree", "Q6"])
    def test_median_graphs_take_one_bfs(self, monkeypatch, g):
        expected = theta_classes(g, all_pairs_distances(g))
        bfs_sources = []

        def refuse(*args):
            raise AssertionError("all-pairs distances for per-class cuts ran on a median graph")

        def counted_bfs(graph, source):
            bfs_sources.append(source)
            return bfs_distances(graph, source)

        monkeypatch.setattr(theta_module, "all_pairs_distances", refuse)
        monkeypatch.setattr(theta_module, "bfs_distances", counted_bfs)
        tc = theta_classes(g, method="crossing")
        assert bfs_sources == ([] if g.size == g.n - 1 else [0])  # a tree is labelled by its Euler tour
        assert tc.classes == expected.classes
        assert np.array_equal(tc.sides, expected.sides)

    @pytest.mark.parametrize("coords", [0, 1, 63, 64, 65, 128, 129])
    def test_word_boundaries_equal_the_all_parent_oracle(self, coords):
        # a tree on c + 1 vertices has c coordinates, 64 to a packed word
        for g in (path(coords + 1), tree(coords + 3, coords + 1)):
            edge_class, sides, _, _ = one_bfs_labels(g)
            expected_class, expected_sides = one_bfs_labels(g, all_parent_labels)
            assert np.array_equal(edge_class, expected_class)
            assert sides.shape == (coords, g.n)
            assert sides.dtype == bool and sides.flags.c_contiguous
            assert np.array_equal(sides, expected_sides)

    def test_tree_label_memory_is_near_the_side_matrix(self):
        # the (d, n) bool side matrix it returns is 2999 x 3000 bytes, 9 MB,
        # and the bound is 1.5x that: the labels are far smaller than it
        g = tree(7, 3000)
        dist = bfs_distances(g, 0)
        tracemalloc.start()
        try:
            theta_module._one_bfs_labels(g, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14e6

    @pytest.mark.parametrize("method", ["crossing", "pairwise"])
    def test_disconnected_graph_is_refused(self, method):
        for g in (Graph.from_edges(2, []), Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])):
            with pytest.raises(PreconditionError, match="^theta_classes requires a connected graph$"):
                theta_classes(g, method=method)

    def test_non_median_partial_cubes_fall_back(self):
        # C6 and C8 have four and six single-parent vertices but three and
        # four classes; the corpus graph is C6 with a pendant vertex 0 at 6
        corpus_graph = classification_corpus()[27]
        assert corpus_graph.edges == ((0, 6), (1, 2), (1, 3), (2, 4), (3, 6), (4, 5), (5, 6))
        for g in (cycle(6), cycle(8), corpus_graph):
            d = all_pairs_distances(g)
            expected = theta_classes(g, d)
            assert is_partial_cube(g, d, expected).is_partial_cube
            assert median_classification(g, d).median_status != "median"
            assert one_bfs_labels(g) is None
            for tc in (theta_classes(g, method="crossing"), theta_classes(g, d, method="crossing")):
                assert tc.classes == expected.classes  # per-class cuts from computed or given distances
                assert np.array_equal(tc.sides, expected.sides)

    def test_single_vertex(self):
        tc = theta_classes(complete(1), method="crossing")
        assert tc.classes == ()
        assert tc.sides.shape == (0, 1)
        for method in ("crossing", "pairwise"):
            tc = theta_classes(Graph.from_edges(0, []), method=method)
            assert tc.classes == ()
            assert tc.sides.shape == (0, 0)


def random_tree(rng, n):
    """A tree on n vertices: each vertex joins an earlier one, labels shuffled."""
    label = list(range(n))
    rng.shuffle(label)
    return Graph.from_edges(n, [(label[rng.randrange(v)], label[v]) for v in range(1, n)])


# disconnected graphs with m = n - 1: a triangle and an isolated vertex (last
# or vertex 0), C4 and one, and two triangles at vertex 0 and two isolated
# vertices, whose rows interleave so that its Euler tour takes all 2m arcs;
# a triangle or C4 with a disjoint edge has no isolated vertex, and its tour
# is cut short
DISCONNECTED_N_MINUS_ONE = {
    "triangle": (4, [(0, 1), (1, 2), (0, 2)]),
    "triangle-isolated-0": (4, [(1, 2), (2, 3), (1, 3)]),
    "c4": (5, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "figure-eight": (7, [(0, 1), (1, 3), (0, 3), (0, 2), (2, 4), (0, 4)]),
    "triangle-edge": (5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
    "c4-edge": (6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)]),
}


class TestTreeLabels:
    def test_equals_the_one_bfs_labels(self):
        rng = random.Random(26)
        graphs = [random_tree(rng, n) for n in range(1, 301)]
        graphs += [star(leaves) for leaves in range(40)]
        graphs += [path(m + 1) for m in (64, 65, 129)]  # the word boundaries of the packed labels
        graphs.append(tree(7, 3000))
        for g in graphs:
            got, expected = theta_module._tree_labels(g), one_bfs_labels(g)
            for a, b in zip(got, expected, strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape, g.edges
                assert np.array_equal(a, b), g.edges
            assert got[1].flags.c_contiguous

    def test_memory_is_near_the_side_matrix(self):
        # the (d, n) bool side matrix is 2999 x 3000 bytes, 9 MB; it is
        # filled in blocks of rows, so no temporary comes near its size
        g = tree(7, 3000)
        tracemalloc.start()
        try:
            theta_module._tree_labels(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * g.size * g.n
        # what median_certificate charges a tree against its byte budget
        assert peak <= (g.size + theta_module._TOUR_BYTES) * g.n

    @pytest.mark.parametrize("name", DISCONNECTED_N_MINUS_ONE)
    def test_disconnected_graphs_are_refused(self, name):
        g = Graph.from_edges(*DISCONNECTED_N_MINUS_ONE[name])
        assert theta_module._tree_labels(g) is None
        with pytest.raises(PreconditionError, match="^theta_classes requires a connected graph$"):
            theta_classes(g, method="crossing")
        assert theta_module.median_certificate(g) == theta_module.MedianCertificate(None)


class TestSidePartition:
    def test_c4_sides(self):
        g = cycle(4)
        _, tc = analyzed(g)
        assert tc.sides.dtype == bool and tc.sides.shape == (2, g.n)
        for row in tc.sides:
            assert row.sum() == 2
            assert not row[0]

    def test_grid_9x4_side_sizes(self):
        # column cuts split as 9i vs 9(4-i); row cuts as 4i vs 4(9-i)
        g = grid(9, 4)
        _, tc = analyzed(g)
        sizes = sorted(tuple(sorted((int((~row).sum()), int(row.sum())))) for row in tc.sides)
        expected = sorted(
            [tuple(sorted((9 * i, 9 * (4 - i)))) for i in range(1, 4)]
            + [tuple(sorted((4 * i, 4 * (9 - i)))) for i in range(1, 9)]
        )
        assert sizes == expected

    def test_k3_class_removal_fails(self):
        _, tc = analyzed(complete(3))  # one class, whose removal leaves 3 components
        assert tc.class_count == 1 and tc.sides is None

    def test_side_counts_sum_to_n(self):
        g = grid(4, 5)
        _, tc = analyzed(g)
        for n0, n1 in tc.side_counts:
            assert n0 + n1 == g.n

    def test_side_sizes_are_counted_once(self):
        _, tc = analyzed(grid(4, 5))
        assert "side_sizes" not in vars(tc)
        pair_counts(tc)
        sizes = vars(tc)["side_sizes"]  # cached by pair_counts, then read by side_counts
        assert tc.side_sizes is sizes and not sizes.flags.writeable
        assert sizes.tolist() == tc.sides.sum(axis=1).tolist() == [s1 for _, s1 in tc.side_counts]
        k3 = complete(3)
        with pytest.raises(PreconditionError, match="side partitions unavailable"):
            ThetaClasses(3, k3.eu, k3.ev, np.zeros(3, dtype=np.int64), None).side_counts


class TestPairCounts:
    def test_c4_quadrants(self):
        g = cycle(4)
        _, tc = analyzed(g)
        assert quadrants(tc, 0, 1) == (1, 1, 1, 1)
        assert pair_counts(tc).tolist() == [0, 4, 0, 0, 0]

    def test_inconsistent_sides_raise(self):
        # the side matrix is wider than n, so side 1 of both classes holds
        # three vertices of a 2-vertex graph, |S_i| + |S_j| - |S_i & S_j|
        # exceeds n and n00 comes out negative
        bad = np.array([[False, True, True, True]] * 2)
        eu, ev = np.zeros(2, dtype=np.int64), np.ones(2, dtype=np.int64)
        tc = ThetaClasses(n=2, eu=eu, ev=ev, edge_class=np.arange(2), sides=bad)
        with pytest.raises(IntegralityError):
            pair_counts(tc)

    def test_grid_cut_pair_quadrants(self):
        # a column cut i and a row cut j split a grid into blocks
        # of sizes {ij, i(m-j), (n-i)j, (n-i)(m-j)}
        m, n = 4, 5
        g = grid(m, n)
        _, tc = analyzed(g)
        col = {}
        row = {}
        for ci, cls in enumerate(tc.classes):
            u, v = cls[0]
            if v == u + 1:
                col[u % n] = ci
            else:
                row[u // n] = ci
        for j in range(n - 1):
            for i in range(m - 1):
                a, b = sorted((col[j], row[i]))
                got = sorted(quadrants(tc, a, b))
                cols_left, rows_top = j + 1, i + 1
                expect = sorted(
                    [
                        cols_left * rows_top,
                        cols_left * (m - rows_top),
                        (n - cols_left) * rows_top,
                        (n - cols_left) * (m - rows_top),
                    ]
                )
                assert got == expect
        assert (pair_counts(tc) == quadrant_histogram(tc)).all()

    def test_marginals_reproduce_side_counts(self):
        for g in [grid(3, 4), hypercube(3), tree(1, 9)]:
            _, tc = analyzed(g)
            counts = tc.side_counts
            for i, j in combinations(range(tc.class_count), 2):
                n00, n01, n10, n11 = quadrants(tc, i, j)
                assert n00 + n01 + n10 + n11 == g.n
                assert n00 + n01 == counts[i][0]
                assert n10 + n11 == counts[i][1]
            hist = pair_counts(tc)
            pairs = comb(tc.class_count, 2)
            assert hist.sum() == 4 * pairs
            assert (np.arange(g.n + 1) * hist).sum() == g.n * pairs

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_row_blocks_match_the_oracle(self, monkeypatch, block):
        monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", block)
        for g in [grid(3, 4), hypercube(4), tree(2, 11), prism(6)]:
            _, tc = analyzed(g)
            assert (pair_counts(tc) == quadrant_histogram(tc)).all()


WORD_BOUNDARIES = (0, 1, 63, 64, 65, 128, 129)


@cache
def labelled_corpus():
    """(graph, classes) for every kept one-BFS labelling among the
    classification corpus, 300 random bipartite graphs, grids 1 x 1 to 6 x 6,
    Q1 to Q7, 300 seeded trees, paths and trees with a word-boundary number
    of coordinates, two products whose colourings mix lone classes with
    laminar colours, and three larger trees and grids. A labelling kept off
    a partial cube counts too: the facts of pair_counts need only the flip
    check."""
    rng = random.Random(43)
    graphs = classification_corpus()
    graphs += [random_bipartite_graph(rng, rng.randrange(4, 25), rng.randrange(0, 8)) for _ in range(300)]
    graphs += [grid(m, n) for m in range(1, 7) for n in range(1, 7)]
    graphs += [hypercube(k) for k in range(1, 8)]
    graphs += [tree(seed, 2 + seed % 40) for seed in range(300)]
    graphs += [f(c) for c in WORD_BOUNDARIES for f in (lambda c: path(c + 1), lambda c: tree(c + 3, c + 1))]
    graphs += [cartesian_product(grid(3, 3), path(2)), cartesian_product(grid(2, 4), grid(2, 3))]
    graphs += [tree(7, 300), grid(12, 9), path(200)]
    out = []
    for g in graphs:
        labels = one_bfs_labels(g)
        if labels is not None:
            out.append((g, ThetaClasses(g.n, g.eu, g.ev, *labels)))
    return out


@pytest.fixture
def labelled_path(monkeypatch):
    """pair_counts takes the labelled path at every size; the calls it makes."""
    calls = []
    labelled = theta_module._labelled_pair_counts
    monkeypatch.setattr(theta_module, "_GRAM_SMALL", -1)
    monkeypatch.setattr(theta_module, "_labelled_pair_counts", lambda tc: calls.append(tc) or labelled(tc))
    return calls


def colours(tc):
    """The crossing classes of tc and their colours, as _crossing_counts takes them."""
    crossing = np.unique(tc.crossings)
    return crossing, theta_module._colour_crossings(crossing.size, *np.searchsorted(crossing, tc.crossings))


class TestLabelledPairCounts:
    def test_facts_against_the_quadrants(self):
        # (a) H_i lies in H_j iff z_i does; (b) the crossing pairs are the
        # columns of tc.crossings; (c) every other pair is disjoint
        checked = crossing = 0
        for g, tc in labelled_corpus():
            if tc.class_count > 40:
                continue
            columns = list(zip(*tc.crossings.tolist()))
            assert columns == sorted(set(columns)) and all(i < j for i, j in columns)
            pairs = set(columns)
            for i, j in combinations(range(tc.class_count), 2):
                n00, n01, n10, n11 = quadrants(tc, i, j)
                assert n00 > 0  # vertex 0
                assert (n10 == 0) == bool(tc.sides[j, tc.gates[i]]), g.edges
                assert (n01 == 0) == bool(tc.sides[i, tc.gates[j]]), g.edges
                assert (min(n01, n10, n11) > 0) == ((i, j) in pairs), g.edges
                if (i, j) not in pairs and n10 and n01:
                    assert n11 == 0
            checked += 1
            crossing += bool(pairs)
        assert checked >= 650 and crossing >= 190

    def test_gates_open_their_classes(self):
        for g, tc in labelled_corpus():
            assert tc.gates.shape == (tc.class_count,) and not tc.gates.flags.writeable
            assert not tc.crossings.flags.writeable
            if tc.class_count:
                assert tc.sides[np.arange(tc.class_count), tc.gates].all()
                assert np.array_equal(np.sort(tc.gates), np.unique(tc.gates))

    def test_equals_the_gram_oracle(self, labelled_path):
        kinds = set()
        for g, tc in labelled_corpus():
            assert (pair_counts(tc) == gram_quadrant_histogram(tc)).all(), g.edges
            if tc.crossings.size:
                sizes = np.bincount(colours(tc)[1])
                kinds.update(("lone" if s == 1 else "laminar") for s in sizes.tolist())
        assert kinds == {"lone", "laminar"}
        assert len(labelled_path) == len(labelled_corpus())

    def test_products_mix_lone_and_laminar_colours(self, labelled_path):
        g = cartesian_product(grid(3, 3), path(2))
        tc = theta_classes(g, method="crossing")
        sizes = np.bincount(colours(tc)[1])
        assert sorted(sizes.tolist()) == [1, 2, 2]  # two laminar colours and one lone class
        x = tc.sides.astype(np.int64)
        assert theta_module._crossing_counts(tc).tolist() == [int(x[i] @ x[j]) for i, j in zip(*tc.crossings)]
        assert (pair_counts(tc) == quadrant_histogram(tc)).all()

    def test_colouring_is_first_fit(self):
        for g, tc in labelled_corpus():
            if not tc.crossings.size:
                continue
            crossing, colour = colours(tc)
            local = np.searchsorted(crossing, tc.crossings)
            assert (colour[local[0]] != colour[local[1]]).all()  # no crossing pair shares a colour
            crosses = np.zeros((crossing.size,) * 2, dtype=bool)
            crosses[local[0], local[1]] = crosses[local[1], local[0]] = True
            for x in range(crossing.size):  # each class crosses an earlier class of every lower colour
                earlier = crosses[x, :x]
                assert {int(c) for c in colour[:x][earlier]} >= set(range(colour[x]))

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_row_blocks_match_the_oracle(self, monkeypatch, labelled_path, block):
        monkeypatch.setattr(graph_module, "_BLOCK_ENTRIES", block)
        for g in [grid(3, 4), hypercube(4), tree(2, 11), cartesian_product(grid(3, 3), path(2))]:
            tc = theta_classes(g, method="crossing")
            assert (pair_counts(tc) == quadrant_histogram(tc)).all()
        assert len(labelled_path) == 4

    def test_the_gram_serves_small_inputs(self, monkeypatch):
        # d * d * n up to 2^22 takes the Gram; above it the labelled path
        calls = []
        monkeypatch.setattr(theta_module, "_labelled_pair_counts", calls.append)
        small, large = theta_classes(grid(20, 20), method="crossing"), theta_classes(tree(7, 300), method="crossing")
        assert 38 * 38 * 400 <= theta_module._GRAM_SMALL < 299 * 299 * 300
        assert (pair_counts(small) == gram_quadrant_histogram(small)).all()
        assert calls == []
        pair_counts(large)
        assert calls == [large]

    def test_a_labelling_that_contradicts_its_sides_raises(self, labelled_path):
        # the sides of path 0-1-2 with the gates swapped: class 1 would hold
        # class 0, and the nested pair's n01 = a_1 - a_0 comes out negative
        g = path(3)
        good = theta_classes(g, method="crossing")
        assert good.gates.tolist() == [1, 2] and good.side_sizes.tolist() == [2, 1]
        bad = ThetaClasses(g.n, g.eu, g.ev, good.edge_class, good.sides, good.gates[::-1].copy(), good.crossings)
        with pytest.raises(IntegralityError):
            pair_counts(bad)


class TestIsPartialCube:
    def test_hypercube(self):
        g = hypercube(3)
        d, tc = analyzed(g)
        res = is_partial_cube(g, d, tc)
        assert res.is_partial_cube
        assert len(res.coordinates[0]) == 3
        assert np.array_equal(res.coordinates, tc.sides.T)

    def test_c5_non_bipartite(self):
        g = cycle(5)
        d, tc = analyzed(g)
        res = is_partial_cube(g, d, tc)
        assert not res.is_partial_cube
        assert res.reason == "non-bipartite"

    def test_k3_bad_class(self):
        g = complete(3)
        d, tc = analyzed(g)
        res = is_partial_cube(g, d, tc)
        assert not res.is_partial_cube

    def test_c6_embeds(self):
        g = cycle(6)
        d, tc = analyzed(g)
        res = is_partial_cube(g, d, tc)
        assert res.is_partial_cube
        assert tc.class_count == 3

    def test_k23_not_partial_cube(self):
        g = complete_bipartite(2, 3)
        d, tc = analyzed(g)
        res = is_partial_cube(g, d, tc)
        assert not res.is_partial_cube

    def test_distance_is_sum_of_class_indicators(self):
        # d(u,v) = number of classes separating u from v, on partial cubes
        for g in [grid(2, 4), hypercube(3), cycle(6), path(7), tree(2, 10)]:
            d, tc = analyzed(g)
            assert is_partial_cube(g, d, tc).is_partial_cube
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    crossings = sum(1 for row in tc.sides if row[u] != row[v])
                    assert crossings == d(u, v)

    def test_every_class_edge_crosses_its_sides(self):
        for g in [grid(3, 3), hypercube(4), cycle(8)]:
            d, tc = analyzed(g)
            assert is_partial_cube(g, d, tc).is_partial_cube
            for cls, row in zip(tc.classes, tc.sides):
                for u, v in cls:
                    assert row[u] != row[v]


class TestCountMedians:
    def test_hypercube_majority(self):
        g = hypercube(3)
        d = all_pairs_distances(g)
        assert count_medians(d, 0b001, 0b010, 0b100) == 1

    def test_k3_no_median(self):
        d = all_pairs_distances(complete(3))
        assert count_medians(d, 0, 1, 2) == 0

    def test_k23_two_medians(self):
        g = complete_bipartite(2, 3)  # hubs 0,1; leaves 2,3,4
        d = all_pairs_distances(g)
        assert count_medians(d, 2, 3, 4) == 2

    def test_distinctness_required(self):
        d = all_pairs_distances(path(4))
        with pytest.raises(PreconditionError):
            count_medians(d, 1, 1, 2)


class TestMedianClassification:
    def test_hypercube_is_median(self):
        cls = median_classification(hypercube(3))
        assert cls.median_status == "median"
        assert cls.partial_cube and cls.bipartite

    def test_k23_modular_not_median(self):
        cls = median_classification(complete_bipartite(2, 3))
        assert cls.median_status == "modular_not_median"
        assert cls.witness == (2, 3, 4)
        assert not cls.partial_cube

    def test_c6_not_modular(self):
        cls = median_classification(cycle(6))
        assert cls.median_status == "not_modular"
        assert cls.witness == (0, 2, 4)
        assert cls.partial_cube

    def test_small_graphs_vacuously_median(self):
        for g in (complete(2), complete(1), Graph.from_edges(0, [])):
            cls = median_classification(g)
            assert cls.median_status == "median" and cls.partial_cube  # median implies partial cube

    def test_median_implies_partial_cube_on_corpus(self):
        graphs = [tree(s, 4 + s % 8) for s in range(10)]
        graphs += [grid(2, 3), hypercube(2), star(4)]
        graphs += small_corpus(count=10, max_n=7, seed=77)
        for g in graphs:
            cls = median_classification(g)
            if cls.median_status == "median":
                assert cls.partial_cube

    def test_partial_cube_decided_without_pairwise_scan(self, monkeypatch):
        graphs = classification_corpus()
        ds = [all_pairs_distances(g) for g in graphs]
        pairwise = [theta_classes(g, d) for g, d in zip(graphs, ds)]
        expected = [(is_partial_cube(g, d, tc).is_partial_cube, tc) for g, d, tc in zip(graphs, ds, pairwise)]
        assert {partial for partial, _ in expected} == {True, False}

        def refuse(*args):
            raise AssertionError("pairwise Theta scan ran during classification")

        monkeypatch.setattr(theta_module, "_theta_classes_pairwise", refuse)
        for g, d, (partial, tc) in zip(graphs, ds, expected):
            cls = median_classification(g, d)
            assert cls.partial_cube == partial, g.edges
            if cls.partial_cube:  # the classes that confirm the partial cube
                assert theta_classes(g, d, method="crossing").classes == tc.classes

    def test_trees_are_median(self):
        for s in range(8):
            assert median_classification(tree(s, 5 + s)).median_status == "median"

    def test_local_tests_match_triple_scan_oracle(self):
        seen = set()
        for g in classification_corpus():
            d = all_pairs_distances(g)
            cls = median_classification(g, d)
            assert (cls.median_status, cls.witness) == triple_scan_classification(d), g.edges
            seen.add(cls.median_status)
        assert seen == {"median", "modular_not_median", "not_modular"}

    def test_one_root_per_block_gives_same_result(self, monkeypatch):
        graphs = classification_corpus()[::7]
        expected = [median_classification(g) for g in graphs]
        monkeypatch.setattr(theta_module, "_BLOCK_ELEMENTS", 1)
        assert [median_classification(g) for g in graphs] == expected

    def test_late_quadrangle_failure_witness(self):
        # Q3 minus vertex 7: (3, 5, 6) is the only zero-median triple, so the
        # quadrangle condition first fails at root 3 and the search starts there
        g = induced_subgraph(hypercube(3), range(7))
        d = all_pairs_distances(g)
        cls = median_classification(g, d)
        assert (cls.median_status, cls.witness) == ("not_modular", (3, 5, 6))
        assert triple_scan_classification(d) == ("not_modular", (3, 5, 6))


@cache
def theorem_corpus():
    """(g, d) over ``classification_corpus`` and 1500 seeded random bipartite graphs."""
    rng = random.Random(1301)
    graphs = classification_corpus()
    graphs += [random_bipartite_graph(rng, rng.randrange(3, 14), rng.randrange(0, 14)) for _ in range(1500)]
    return [(g, all_pairs_distances(g)) for g in graphs]


def bipartite_theorem_corpus():
    return [(g, d) for g, d in theorem_corpus() if g.n >= 3 and is_bipartite(g)[0]]


class TestClassificationShortcuts:
    def test_dominated_pairs_are_dropped_and_never_fail(self, monkeypatch):
        real, tested = theta_module._first_quadrangle_failure, []
        monkeypatch.setattr(theta_module, "_first_quadrangle_failure", lambda a, *pairs: tested.append(pairs) or real(a, *pairs))
        dropped = failing = 0
        for g, d in bipartite_theorem_corpus():
            tested.clear()
            median_classification(g, d)
            (pv, pw, count, centre), = tested
            pairs = theta_module._common_neighbour_pairs(g)
            nb = [set(row) for row in g.adjacency]
            nested = [(v, w) for v, w in zip(*pairs[:2]) if nb[v] <= nb[w] or nb[w] <= nb[v]]
            assert set(zip(pv.tolist(), pw.tolist())) == set(zip(*pairs[:2])) - set(nested), g.edges
            kept_centres = np.split(centre, np.cumsum(count)[:-1]) if count.size else []
            assert [sorted(c.tolist()) for c in kept_centres] == [sorted(nb[v] & nb[w]) for v, w in zip(pv, pw)]
            for v, w in nested:  # the theorem itself, at every root
                closer = (d.a[:, sorted(nb[v] & nb[w])] < d.a[:, [v]]).any(axis=1)
                assert not ((d.a[:, v] == d.a[:, w]) & ~closer).any(), (g.edges, v, w)
            root = real(d.a, *pairs)
            assert real(d.a, pv, pw, count, centre) == root, g.edges
            dropped += len(nested)
            failing += root is not None
        assert dropped > 0 and failing > 0

    def test_complete_bipartite_graphs_test_no_pair(self, monkeypatch):
        tested = []
        monkeypatch.setattr(theta_module, "_first_quadrangle_failure", lambda a, pv, *rest: tested.append(pv.size))
        for a, m in [(1, 5), (2, 2), (2, 7), (3, 3), (3, 6)]:
            median_classification(complete_bipartite(a, m))
        assert tested == [0] * 5

    def test_three_common_neighbours_rule_out_a_partial_cube(self, monkeypatch):
        k23 = [(g, d) for g, d in bipartite_theorem_corpus() if (theta_module._common_neighbour_pairs(g)[2] >= 3).any()]
        assert len(k23) > 100
        for g, d in k23:
            assert not is_partial_cube(g, d, theta_classes(g, d)).is_partial_cube, g.edges
        statuses = [median_count_classification(d) for _, d in k23]
        assert {status for status, _ in statuses} == {"modular_not_median", "not_modular"}

        def refuse(*args):
            raise AssertionError("a partial-cube check ran on a graph with an induced K_{2,3}")

        for name in ("_theta_classes_crossing", "_cut_classes", "is_partial_cube"):
            monkeypatch.setattr(theta_module, name, refuse)
        for (g, d), expected in zip(k23, statuses):
            cls = median_classification(g, d)
            assert not cls.partial_cube
            assert (cls.median_status, cls.witness) == expected

    def test_status_and_witness_equal_the_median_count_oracle(self):
        seen = set()
        for g, d in theorem_corpus():
            cls = median_classification(g, d)
            assert (cls.median_status, cls.witness) == median_count_classification(d), g.edges
            seen.add(cls.median_status)
            if cls.median_status == "median":  # a partial cube by theorem, labelled by one BFS
                assert cls is theta_module.MEDIAN
                tc, pairwise = theta_classes(g, d, method="crossing"), theta_classes(g, d)
                assert tc.gates is not None and is_partial_cube(g, d, tc).is_partial_cube, g.edges
                assert np.array_equal(tc.edge_class, pairwise.edge_class), g.edges
                assert np.array_equal(tc.sides, pairwise.sides), g.edges
        assert seen == {"median", "modular_not_median", "not_modular"}

    def test_median_count_oracle_equals_the_triple_scan(self):
        for g in classification_corpus()[::5]:
            d = all_pairs_distances(g)
            assert median_count_classification(d) == triple_scan_classification(d), g.edges

    def test_witness_and_verdict_are_computed_on_first_read(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("computed before it was read")

        graphs = (cycle(8), complete(4), complete_bipartite(2, 5), grid(3, 4))
        expected = [median_classification(g) for g in graphs]
        for name in ("_first_triple", "_theta_classes_crossing", "_cut_classes", "is_partial_cube"):
            monkeypatch.setattr(theta_module, name, refuse)
        c8, k4, k25, g34 = (median_classification(g) for g in graphs)
        c6_pendant = median_classification(classification_corpus()[27])
        assert (c8.median_status, k4.median_status, k25.median_status) == ("not_modular", "not_modular", "modular_not_median")
        assert not k4.partial_cube and not k25.partial_cube
        assert g34 is theta_module.MEDIAN and g34.partial_cube and g34.witness is None  # a median graph runs neither check
        monkeypatch.undo()
        cut_passes, real = [], theta_module._cut_classes
        monkeypatch.setattr(theta_module, "_cut_classes", lambda *args: cut_passes.append(args) or real(*args))
        monkeypatch.setattr(theta_module, "_one_bfs_labels", refuse)
        monkeypatch.setattr(theta_module, "is_partial_cube", refuse)  # the verdict runs no Hamming check
        for cls in (c8, c6_pendant):
            cut_passes.clear()
            assert cls.partial_cube
            assert len(cut_passes) == 1
        monkeypatch.undo()
        assert [c8, k4, k25, g34] == expected
        assert c8.partial_cube and c8.witness == (0, 2, 5)
        assert theta_classes(cycle(8), method="crossing").class_count == 4


def certificate_corpus():
    """Connected atlas graphs with n <= 7, ``classification_corpus``, 2000
    seeded random bipartite graphs and connected induced subgraphs of Q3-Q6."""
    rng = random.Random(2207)
    atlas = [h for h in nx.graph_atlas_g() if 0 < h.number_of_nodes() <= 7 and nx.is_connected(h)]
    graphs = [Graph.from_edges(h.number_of_nodes(), h.edges) for h in atlas] + classification_corpus()
    graphs += [random_bipartite_graph(rng, rng.randrange(3, 25), rng.randrange(0, 25)) for _ in range(2000)]
    for k in (3, 4, 5, 6):
        q, found = hypercube(k), 0
        while found < 150:
            h = induced_subgraph(q, rng.sample(range(2**k), rng.randrange(3, min(2**k, 40) + 1)))
            if (bfs_distances(h, 0) >= 0).all():
                graphs.append(h)
                found += 1
    return graphs


def test_median_certificate_equals_the_classifier():
    median = 0
    for g in certificate_corpus():
        d = all_pairs_distances(g)
        cert = theta_module.median_certificate(g)
        tc = cert.classes
        assert cert.bipartite in (None, is_bipartite(g)[0]), g.edges  # handed to the classifier when tc is None
        if cert.pairs is not None:
            assert all(map(np.array_equal, cert.pairs, theta_module._common_neighbour_pairs(g))), g.edges
        assert (tc is not None) == (median_classification(g, d) is theta_module.MEDIAN), g.edges
        if tc is not None:
            crossing = theta_classes(g, d, method="crossing")
            for name in ("edge_class", "sides", "gates", "crossings"):
                assert np.array_equal(getattr(tc, name), getattr(crossing, name)), (name, g.edges)
            median += 1
    assert median >= 700


def test_certificate_charges_the_side_matrix():
    # grid(6, 6) has 148 wedges at 64 bytes, 9472 bytes, and 10 classes of
    # 36 side entries at 3 bytes, 1080 more: 10000 bytes refuse it at the
    # side check, after the wedge pass has run, and 11000 certify it
    g = grid(6, 6)
    refused = theta_module.median_certificate(g, 10000)
    assert refused.classes is None and refused.bipartite is True
    assert all(map(np.array_equal, refused.pairs, theta_module._common_neighbour_pairs(g)))
    assert theta_module.median_certificate(g, 11000).classes is not None


def test_isometry_check_refuses_a_kept_labelling_with_equal_labels():
    # K_{3,2} from a vertex of its three: the other two share a label, and
    # the ends of each class still equal their hull
    k32 = complete_bipartite(3, 2)
    edge_class, sides = theta_module._one_bfs_labels(k32, bfs_distances(k32, 0))[:2]
    assert theta_module._boundaries_are_hulls(k32, theta_module._common_neighbour_pairs(k32), edge_class, sides)
    assert not theta_module._isometric(k32, edge_class, sides)
    g = grid(3, 4)
    assert theta_module._isometric(g, *theta_module._one_bfs_labels(g, bfs_distances(g, 0))[:2])


@st.composite
def connected_bipartite_graphs(draw, max_n=12):
    """A random labelled tree on 3..max_n vertices plus chords joining its two colours."""
    n = draw(st.integers(3, max_n))
    parent = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    depth = [0]
    for p in parent:
        depth.append(depth[p] + 1)
    edges = {(p, v) for v, p in enumerate(parent, start=1)}
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges |= {(min(u, v), max(u, v)) for u, v in chords if (depth[u] - depth[v]) % 2}
    return Graph.from_edges(n, sorted(edges))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(connected_bipartite_graphs())
def test_classification_equals_the_triple_scan_and_the_pairwise_partial_cube_check(g):
    d = all_pairs_distances(g)
    cls = median_classification(g, d)
    assert (cls.median_status, cls.witness) == triple_scan_classification(d)
    assert cls.partial_cube == is_partial_cube(g, d, theta_classes(g, d)).is_partial_cube


def test_classes_and_sides_equal_the_theta_star_oracle():
    # the scan and the cut pass share the distance rows, so the oracle is
    # the definition: components of the Theta relation, and of G - C
    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes() and nx.is_connected(h)]
    graphs = [Graph.from_edges(h.number_of_nodes(), h.edges) for h in atlas] + classification_corpus()
    partial = 0
    for g in graphs:
        d = all_pairs_distances(g)
        tc = theta_classes(g, d)
        edge_class, sides = theta_star_oracle(g, d)
        assert np.array_equal(tc.edge_class, edge_class), g.edges
        assert (tc.sides is None) == (sides is None), g.edges
        if sides is not None:
            assert np.array_equal(tc.sides, sides), g.edges
        oracle = ThetaClasses(g.n, g.eu, g.ev, edge_class, sides)
        assert (tc.sides is not None) == is_partial_cube(g, d, oracle).is_partial_cube, g.edges
        partial += tc.sides is not None
    assert partial >= 250 and len(graphs) - partial >= 1000


class TestWedgeEnumeration:
    def test_equals_per_vertex_oracle(self):
        hub = tree(5, 40)  # a random tree with a 30-leaf hub attached at vertex 0
        hub = Graph.from_edges(70, sorted(hub.edges + tuple((0, v) for v in range(40, 70))))
        graphs = classification_corpus()
        graphs += [complete_bipartite(a, m) for a in (2, 3) for m in range(1, 12)]
        graphs += [hub, star(25)]
        for g in graphs:
            if max(map(len, g.adjacency)) < 2:
                continue  # no wedge: the next test
            got = theta_module._common_neighbour_pairs(g)
            expected = wedge_pairs_per_vertex(g.adjacency)
            for x, y in zip(got, expected):
                assert x.dtype == y.dtype
                assert np.array_equal(x, y), g.edges

    def test_no_wedge_gives_empty_arrays_and_no_failure(self):
        for g in [Graph.from_edges(0, []), Graph.from_edges(1, []), path(2), Graph.from_edges(4, [(0, 1), (2, 3)])]:
            pv, pw, count, centre = theta_module._common_neighbour_pairs(g)
            assert pv.size == pw.size == count.size == centre.size == 0
            a = np.zeros((g.n, g.n), dtype=np.int64)
            assert theta_module._first_quadrangle_failure(a, pv, pw, count, centre) is None


def product_classes(spec):
    """The classes ``compute`` uses for a generated product family."""
    from steiner_indices import cli, generate, parse_descriptor

    desc = parse_descriptor(spec)
    return cli.Analysis(generate(desc), desc).theta


class TestProductClasses:
    def test_composed_sides_and_histogram_equal_the_built_product(self):
        from steiner_indices import generate, parse_descriptor

        specs = [f"grid:{m},{n}" for m in range(1, 13) for n in range(1, 13)] + [f"hypercube:{k}" for k in range(9)]
        for spec in specs:
            g = generate(parse_descriptor(spec))
            built, composed = theta_classes(g, method="crossing"), product_classes(spec)
            assert isinstance(composed, theta_module.ProductClasses), spec
            assert (composed.n, composed.m, composed.class_count) == (g.n, g.size, built.class_count), spec
            assert sorted(composed.side_counts) == sorted(built.side_counts), spec
            assert np.array_equal(pair_counts(composed), pair_counts(built)), spec

    def test_any_partial_cube_factors_compose(self):
        # the lifting holds for every pair of connected factors with sides:
        # a tree, C6 and C8 (partial cubes that are not median), a grid
        factors = [tree(3, 9), cycle(6), cycle(8), grid(2, 3), path(1)]
        classes = [theta_classes(f) for f in factors]
        for (f, fc), (h, hc) in combinations(zip(factors, classes), 2):
            built, composed = theta_classes(cartesian_product(f, h)), theta_module.ProductClasses((fc, hc))
            assert sorted(composed.side_counts) == sorted(built.side_counts)
            assert np.array_equal(pair_counts(composed), quadrant_histogram(built))

    def test_histogram_that_does_not_sum_to_the_pair_count_is_refused(self, monkeypatch):
        counted = theta_module._side_pair_counts

        def short(tc):  # one quadrant of one pair goes missing
            hist = counted(tc).copy()
            hist[hist.nonzero()[0][0]] -= 1
            return hist

        composed = product_classes("grid:4,5")
        monkeypatch.setattr(theta_module, "_side_pair_counts", short)
        with pytest.raises(IntegralityError, match="do not sum to 4 C"):
            pair_counts(composed)


def test_float32_grams_refuse_beyond_their_exact_range(monkeypatch):
    # grid 3x3: n = 9 vertices, d = 4 classes, so 2d = 8
    g = grid(3, 3)
    d, tc = analyzed(g)
    monkeypatch.setattr(theta_module, "_FLOAT32_EXACT", 10)
    assert pair_counts(tc).sum() == 4 * comb(4, 2)
    assert is_partial_cube(g, d, tc).is_partial_cube
    monkeypatch.setattr(theta_module, "_FLOAT32_EXACT", 9)
    with pytest.raises(PreconditionError, match="2\\^24"):
        pair_counts(tc)
    assert is_partial_cube(g, d, tc).is_partial_cube
    monkeypatch.setattr(theta_module, "_FLOAT32_EXACT", 8)
    with pytest.raises(PreconditionError, match="2\\^24"):
        is_partial_cube(g, d, tc)


def test_bipartite_detection():
    assert is_bipartite(grid(3, 5))[0]
    assert is_bipartite(cycle(6))[0]
    assert not is_bipartite(cycle(5))[0]
    assert not is_bipartite(complete(4))[0]
