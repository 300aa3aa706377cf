"""Theta-class (cut) formulas for W, the distance moments, SW_3, and SWW_3.

All of these read only the side sizes (n_i^0, n_i^1) of each class and the
quadrant counts (n_ij^00, n_ij^01, n_ij^10, n_ij^11) of each class pair, so
they run over d classes instead of all vertex subsets.
"""

from dataclasses import dataclass

from .errors import PreconditionError, not_modular_error
from .steiner import exact_div


def _require_sides(tc):
    if tc.sides is None:
        raise PreconditionError(
            "cut formulas need a valid side partition for every Theta-class "
            "(graph is not a partial cube)"
        )


def _require_modular_partial_cube(classification):
    if not classification.partial_cube:
        raise PreconditionError("graph is not a verified partial cube")
    if not classification.modular:
        raise not_modular_error(classification.witness)


def _f1(n0, n1):
    return n0 * n1


def _f2(n0, n1):
    return n0 * n1 * (n1 - 1) + n1 * n0 * (n0 - 1)


def _g1(n00, n01, n10, n11):
    return n00 * n11 + n01 * n10


def _g2(n00, n01, n10, n11):
    return (
        3 * n00 * n01 * n10
        + 3 * n00 * n01 * n11
        + 3 * n00 * n10 * n11
        + 3 * n01 * n10 * n11
        + n00 * n11 * (n11 - 1)
        + n01 * n10 * (n10 - 1)
        + n10 * n01 * (n01 - 1)
        + n11 * n00 * (n00 - 1)
    )


@dataclass(frozen=True)
class CutReport:
    """Per-class and per-pair cut contributions with their aggregate sums."""

    class_count: int
    f1: tuple
    f2: tuple
    g1: dict
    g2: dict
    s1: int
    s2: int
    s3: int
    s4: int


def cut_report(tc, pc):
    _require_sides(tc)
    f1 = []
    f2 = []
    for n0, n1 in tc.side_counts:
        f1.append(_f1(n0, n1))
        f2.append(_f2(n0, n1))
    g1 = {}
    g2 = {}
    for (i, j), counts in pc.pairs():
        g1[(i, j)] = _g1(*counts)
        g2[(i, j)] = _g2(*counts)
    return CutReport(
        class_count=tc.class_count,
        f1=tuple(f1),
        f2=tuple(f2),
        g1=g1,
        g2=g2,
        s1=sum(f1),
        s2=sum(f2),
        s3=sum(g1.values()),
        s4=sum(g2.values()),
    )


def wiener_cut(tc):
    """W(G) = sum over classes of n_i^0 * n_i^1."""
    _require_sides(tc)
    return sum(_f1(n0, n1) for n0, n1 in tc.side_counts)


def wwbar_cut(tc, pc):
    """Sum of squared distances from class and class-pair counts."""
    _require_sides(tc)
    return wiener_cut(tc) + 2 * sum(_g1(*counts) for _, counts in pc.pairs())


def wwhat_cut(tc, pc):
    """Sum of d(u,v)*d(u,w) over ordered distinct triples, from cut counts."""
    _require_sides(tc)
    if tc.n < 3:
        raise PreconditionError("triple moment needs at least three vertices")
    same = sum(_f2(n0, n1) for n0, n1 in tc.side_counts)
    cross = sum(_g2(*counts) for _, counts in pc.pairs())
    return same + 2 * cross


def sw3_cut(tc, n, classification):
    """SW_3 of a modular partial cube: (n-2)/2 times the cut Wiener index."""
    _require_modular_partial_cube(classification)
    if n < 3:
        raise PreconditionError("SW_3 needs at least three vertices")
    return exact_div((n - 2) * wiener_cut(tc), 2)


def sww3_cut(tc, pc, n, classification):
    """SWW_3 of a modular partial cube from the four aggregate cut sums.

    (3n-6)/8 * S1 + (n-2)/4 * S3 + 1/8 * S2 + 1/4 * S4, combined over the
    common denominator 8 and divided once, exactly.
    """
    _require_modular_partial_cube(classification)
    if n < 3:
        raise PreconditionError("SWW_3 needs at least three vertices")
    rep = cut_report(tc, pc)
    numerator = (
        (3 * n - 6) * rep.s1 + 2 * (n - 2) * rep.s3 + rep.s2 + 2 * rep.s4
    )
    return exact_div(numerator, 8)
