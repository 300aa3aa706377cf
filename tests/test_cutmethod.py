"""Cut (Theta-class) formulas for distance moments, SW_3, and SWW_3."""

import pytest

from helpers import (
    complete,
    complete_bipartite,
    cycle,
    grid,
    hypercube,
    path,
    prism,
    tree_corpus,
)
from steiner_indices import (
    PreconditionError,
    all_pairs_distances,
    cut_report,
    distance_moments,
    median_classification,
    pair_counts,
    steiner_k_indices_brute,
    sw3_cut,
    sww3_cut,
    theta_classes,
    wiener_cut,
    wwbar_cut,
    wwhat_cut,
)


def cut_setup(g):
    d = all_pairs_distances(g)
    tc = theta_classes(g, d)
    return d, tc, pair_counts(tc), median_classification(g, d)


class TestAnchors:
    def test_p4_components(self):
        g = path(4)
        d, tc, pc, cls = cut_setup(g)
        rep = cut_report(tc, pc)
        assert rep.s1 == 10  # W
        assert rep.s2 == 20
        assert rep.s3 == 5
        assert rep.s4 == 22
        assert wiener_cut(tc) == 10
        assert wwbar_cut(tc, pc) == 20
        assert wwhat_cut(tc, pc) == 64
        assert sw3_cut(tc, g.n, cls) == 10
        assert sww3_cut(tc, pc, g.n, cls) == 18

    def test_c4(self):
        g = cycle(4)
        d, tc, pc, cls = cut_setup(g)
        assert wiener_cut(tc) == 8
        assert wwbar_cut(tc, pc) == 12
        assert wwhat_cut(tc, pc) == 40
        assert sw3_cut(tc, g.n, cls) == 8
        assert sww3_cut(tc, pc, g.n, cls) == 12

    def test_grid_2x3(self):
        g = grid(2, 3)
        d, tc, pc, cls = cut_setup(g)
        assert wiener_cut(tc) == 25
        assert wwbar_cut(tc, pc) == 49
        assert wwhat_cut(tc, pc) == 324
        assert sw3_cut(tc, g.n, cls) == 50
        assert sww3_cut(tc, pc, g.n, cls) == 90


class TestRefusals:
    def test_non_partial_cube_sides(self):
        g = complete(3)
        d = all_pairs_distances(g)
        tc = theta_classes(g, d)
        assert tc.sides is None
        with pytest.raises(PreconditionError, match="partial cube"):
            wiener_cut(tc)

    def test_steiner_formulas_refuse_non_modular(self):
        g = cycle(6)  # partial cube but not modular
        d, tc, pc, cls = cut_setup(g)
        assert wiener_cut(tc) == distance_moments(d).wiener
        with pytest.raises(PreconditionError, match="not modular") as exc:
            sw3_cut(tc, g.n, cls)
        assert "witness triple 0,2,4" in str(exc.value)
        with pytest.raises(PreconditionError, match="not modular"):
            sww3_cut(tc, pc, g.n, cls)

    def test_steiner_formulas_refuse_non_partial_cube(self):
        g = complete_bipartite(2, 3)  # modular but not a partial cube
        d = all_pairs_distances(g)
        tc = theta_classes(g, d)
        cls = median_classification(g, d)
        assert cls.modular and not cls.partial_cube
        with pytest.raises(PreconditionError, match="partial cube"):
            sw3_cut(tc, g.n, cls)


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
        d = all_pairs_distances(g)
        tc = theta_classes(g, d)
        rep = cut_report(tc, pair_counts(tc))
        col, row = _grid_cut_split(g, tc, m, n)
        # column cut j has sides of size m(j+1) and m(n-j-1)
        col_f1 = sum(rep.f1[c] for c in col)
        assert col_f1 == (m * m * n**3 - m * m * n) // 6
        row_f1 = sum(rep.f1[r] for r in row)
        assert row_f1 == (n * n * m**3 - n * n * m) // 6
        assert rep.s1 == col_f1 + row_f1 == distance_moments(d).wiener

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (3, 4), (4, 5)])
    def test_pair_sums_match_quadrant_definitions(self, m, n):
        g = grid(m, n)
        tc = theta_classes(g)
        pc = pair_counts(tc)
        rep = cut_report(tc, pc)
        col, row = _grid_cut_split(g, tc, m, n)
        # parallel cuts never separate the same pair twice in opposite order:
        # for two column cuts the mixed quadrants n01 or n10 vanish
        for a in col:
            for b in col:
                if a < b:
                    counts = pc.get(a, b)
                    assert 0 in counts
        # a column and a row cut always give four non-empty quadrants
        for a in col:
            for b in row:
                i, j = min(a, b), max(a, b)
                assert all(q > 0 for q in pc.get(i, j))
        assert rep.s3 == sum(rep.g1.values())
        assert rep.s4 == sum(rep.g2.values())


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
        d = all_pairs_distances(g)
        tc = theta_classes(g, d)
        pc = pair_counts(tc)
        mom = distance_moments(d)
        assert wiener_cut(tc) == mom.wiener
        assert wwbar_cut(tc, pc) == mom.sum_sq
        assert wwhat_cut(tc, pc) == mom.sum_cross

    def test_cut_moments_on_tree_corpus(self):
        for g in tree_corpus(count=25):
            d = all_pairs_distances(g)
            tc = theta_classes(g, d)
            pc = pair_counts(tc)
            mom = distance_moments(d)
            assert wiener_cut(tc) == mom.wiener
            assert wwbar_cut(tc, pc) == mom.sum_sq
            assert wwhat_cut(tc, pc) == mom.sum_cross


class TestSteinerViaCuts:
    def test_matches_brute_on_modular_partial_cubes(self):
        graphs = [grid(m, n) for m in (2, 3, 4) for n in (2, 3, 4)]
        graphs += [hypercube(2), hypercube(3), hypercube(4), path(9)]
        graphs += tree_corpus(count=15)
        for g in graphs:
            if g.n < 3:
                continue
            d = all_pairs_distances(g)
            tc = theta_classes(g, d)
            pc = pair_counts(tc)
            cls = median_classification(g, d)
            got = (sw3_cut(tc, g.n, cls), sww3_cut(tc, pc, g.n, cls))
            assert got == steiner_k_indices_brute(g, d, 3)

    def test_monotone_in_grid_width(self):
        prev = (0, 0)
        for n in range(2, 7):
            g = grid(3, n)
            d, tc, pc, cls = cut_setup(g)
            cur = (sw3_cut(tc, g.n, cls), sww3_cut(tc, pc, g.n, cls))
            assert cur > prev
            prev = cur
