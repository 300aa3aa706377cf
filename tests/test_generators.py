"""Generator descriptors, generated families, and the closed formulas."""

from math import comb

import pytest

from helpers import complete, cycle, grid, hypercube, path, tree
from steiner_indices import (
    GeneratorDescriptor,
    PreconditionError,
    all_pairs_distances,
    complete_formulas,
    family_classification,
    generate,
    grid_sw3,
    grid_sww3,
    order_size,
    parse_descriptor,
    path_formulas,
    steiner_hosoya,
    steiner_k_indices_brute,
)


class TestParseDescriptor:
    def test_round_trip(self):
        for text in ["path:4", "cycle:6", "complete:5", "hypercube:3", "grid:3,3", "tree:7,10"]:
            desc = parse_descriptor(text)
            assert str(desc) == text

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator"):
            parse_descriptor("torus:3,3")

    def test_missing_colon(self):
        with pytest.raises(ValueError):
            parse_descriptor("path")

    def test_non_integer_param(self):
        with pytest.raises(ValueError, match="non-integer"):
            parse_descriptor("grid:3,x")

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="parameter"):
            parse_descriptor("grid:3")
        with pytest.raises(ValueError, match="parameter"):
            parse_descriptor("path:3,4")


class TestGenerate:
    def test_path_structure(self):
        g = path(5)
        assert g.n == 5 and g.size == 4
        assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_cycle_structure(self):
        g = cycle(5)
        assert g.n == 5 and g.size == 5
        assert all(len(g.adjacency[v]) == 2 for v in range(5))

    def test_complete_structure(self):
        g = complete(6)
        assert g.size == comb(6, 2)

    def test_hypercube_structure(self):
        g = hypercube(4)
        assert g.n == 16 and g.size == 4 * 8
        assert all(len(g.adjacency[v]) == 4 for v in range(16))

    def test_grid_structure(self):
        g = grid(3, 4)
        assert g.n == 12 and g.size == 3 * 3 + 2 * 4

    def test_grid_2x2_is_four_cycle(self):
        assert grid(2, 2).edges == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_hypercube_1_is_edge(self):
        g = hypercube(1)
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_tree_deterministic_per_seed(self):
        assert tree(7, 10).edges == tree(7, 10).edges
        assert tree(7, 10).edges != tree(8, 10).edges

    def test_tree_is_tree(self):
        for s in range(5):
            g = tree(s, 9)
            assert g.size == g.n - 1
            all_pairs_distances(g)  # connected, else this raises

    def test_bad_parameters(self):
        with pytest.raises(PreconditionError):
            generate(GeneratorDescriptor("cycle", (2,)))
        with pytest.raises(PreconditionError):
            generate(GeneratorDescriptor("grid", (0, 3)))
        with pytest.raises(PreconditionError):
            generate(GeneratorDescriptor("hypercube", (20,)))


class TestOrderSize:
    def test_equals_the_generated_graph(self):
        specs = (
            [f"{kind}:{n}" for kind in ("path", "complete") for n in range(1, 13)]
            + [f"cycle:{n}" for n in range(3, 13)]
            + [f"hypercube:{k}" for k in range(11)]
            + [f"grid:{m},{n}" for m in range(1, 9) for n in range(1, 9)]
            + [f"tree:{seed},{n}" for seed in range(3) for n in range(1, 13)]
        )
        for spec in specs:
            desc = parse_descriptor(spec)
            g = generate(desc)
            assert order_size(desc) == (g.n, g.size), spec

    @pytest.mark.parametrize("spec", [
        "path:0", "path:-3", "cycle:2", "complete:0", "hypercube:-1", "hypercube:17",
        "grid:0,5", "grid:5,0", "grid:-1,-1", "tree:3,0",
    ])
    def test_refuses_with_the_generator_text(self, spec):
        desc = parse_descriptor(spec)
        with pytest.raises(PreconditionError) as lazy:
            order_size(desc)
        with pytest.raises(PreconditionError) as built:
            generate(desc)
        assert str(lazy.value) == str(built.value)


class TestFamilyClassification:
    def test_median_families(self):
        for text in ["path:6", "tree:3,9", "grid:4,4", "hypercube:3", "complete:2"]:
            cls = family_classification(parse_descriptor(text))
            assert cls is not None and cls.median_status == "median" and cls.modular

    def test_unknown_families(self):
        for text in ["cycle:6", "complete:4"]:
            assert family_classification(parse_descriptor(text)) is None


class TestCompleteFormulas:
    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_vs_brute(self, n, k):
        if k > n:
            return
        g = complete(n)
        d = all_pairs_distances(g)
        sh, sw, sww = complete_formulas(n, k)
        assert sh.coeffs == steiner_hosoya(g, d, k).coeffs
        assert (sw, sww) == steiner_k_indices_brute(g, d, k)

    def test_range_check(self):
        with pytest.raises(PreconditionError):
            complete_formulas(3, 4)


class TestPathFormulas:
    @pytest.mark.parametrize("n", [2, 4, 7, 10])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_vs_brute(self, n, k):
        if k > n:
            return
        g = path(n)
        d = all_pairs_distances(g)
        sh, sw, sww = path_formulas(n, k)
        assert sh.coeffs == steiner_hosoya(g, d, k).coeffs
        assert (sw, sww) == steiner_k_indices_brute(g, d, k)

    def test_range_check(self):
        with pytest.raises(PreconditionError):
            path_formulas(3, 1)


class TestGridFormulas:
    def test_anchor_values(self):
        assert grid_sw3(3, 3) == 252
        assert grid_sww3(3, 3) == 526
        assert [grid_sww3(2, n) for n in (3, 4, 5, 6)] == [90, 352, 1004, 2364]

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sw3_vs_brute(self, m, n):
        g = grid(m, n)
        d = all_pairs_distances(g)
        sw, _ = steiner_k_indices_brute(g, d, 3)
        assert grid_sw3(m, n) == sw

    @pytest.mark.parametrize("m,n", [(2, 3), (2, 6), (3, 3), (3, 5), (4, 4), (5, 5)])
    def test_sww3_vs_brute(self, m, n):
        g = grid(m, n)
        d = all_pairs_distances(g)
        _, sww = steiner_k_indices_brute(g, d, 3)
        assert grid_sww3(m, n) == sww

    def test_symmetry(self):
        assert grid_sw3(3, 5) == grid_sw3(5, 3)
        assert grid_sww3(2, 7) == grid_sww3(7, 2)
        assert grid_sww3(3, 4) == grid_sww3(4, 3)

    def test_unsupported_shapes(self):
        with pytest.raises(PreconditionError):
            grid_sww3(2, 2)
        with pytest.raises(PreconditionError):
            grid_sww3(1, 5)
        with pytest.raises(PreconditionError):
            grid_sw3(1, 4)
