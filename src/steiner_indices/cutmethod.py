"""Theta-class (cut) evaluation of SW_k and SWW_k.

A Steiner tree of a vertex set S crosses every Theta-class that splits S, so
d(S) is at least the number c(S) of such classes. Summing c(S) and C(c(S), 2)
over all k-subsets needs only the side sizes of each class and the quadrant
sizes of each class pair, so it runs over d classes instead of all subsets.
The sums equal SW_k and SWW_k exactly when d(S) = c(S) for every S, which
holds in three cases: k <= 2 on a partial cube (its distance is the number of
separating classes), k = 3 on a modular partial cube (a triple has a median),
and every k on a tree (each edge is a class).
"""

from math import comb, factorial

import numpy as np

from .errors import DeferredPreconditionError, PreconditionError, exact_dot, not_modular_error
from .steiner import check_k

NOT_PARTIAL_CUBE = "graph is not a verified partial cube"


def check_exact(n, m, k, classification):
    """Raise PreconditionError, naming the reason, unless the cut sums of a
    connected graph with n vertices and m edges are SW_k and SWW_k. At k = 3 a
    non-modular graph is refused before ``partial_cube`` is read; the text,
    built when read, names the first of the two checks that fails."""
    check_k(n, k)
    if k == 3 and m != n - 1 and not classification.modular:
        raise DeferredPreconditionError(
            lambda: str(not_modular_error(classification)) if classification.partial_cube else NOT_PARTIAL_CUBE
        )
    if not classification.partial_cube:
        raise PreconditionError(NOT_PARTIAL_CUBE)
    if k <= 3 or m == n - 1:
        return
    raise PreconditionError(
        f"the cut sums are exact at k = {k} only on trees: a Steiner tree may "
        "cross more classes than split its terminal set"
    )


def _comb_sum(counts, values, k):
    """sum_i counts[i] C(values[i], k) as a Python int, for nonnegative int
    arrays. C(v, k) is the falling factorial v (v-1) ... (v-k+1) over k!,
    formed in int64 while the largest v has max(v, k)^k < 2^63 (v < 2^21 at
    k = 3), which bounds both, and by ``math.comb`` past that; ``exact_dot``
    takes the sum."""
    if max(int(values.max(initial=0)), k) ** k < 1 << 63:
        c = values.astype(np.int64)
        for j in range(1, k):
            c *= values - j
        c //= factorial(k)
    else:
        c = np.array([comb(v, k) for v in values.tolist()], dtype=object)
    return exact_dot(counts, c)


def cut_report(tc, pc, k, classification):
    """(SW_k, SWW_k) from the class sides of ``tc`` and the quadrant-size
    histogram ``pc`` of ``theta.pair_counts``, in Python ints. SW_k needs no
    histogram: with ``pc`` None, SWW_k comes back None.

    With a_i, b_i the side sizes of class i and hist[v] the number of
    class-pair quadrants of size v:
      SW_k  = sum_i [C(n,k) - C(a_i,k) - C(b_i,k)]
      SWW_k = SW_k + C(d,2) C(n,k) - (d-1) sum_i [C(a_i,k) + C(b_i,k)]
                   + sum_v hist[v] C(v,k)
    """
    n = tc.n
    check_exact(n, tc.m, k, classification)
    d = tc.class_count
    total = comb(n, k)
    sides = np.concatenate((n - tc.side_sizes, tc.side_sizes)).astype(np.int64)
    unsplit = _comb_sum(np.ones_like(sides), sides, k)
    sw = d * total - unsplit
    if pc is None:
        return sw, None
    (bins,) = pc.nonzero()
    return sw, sw + comb(d, 2) * total - (d - 1) * unsplit + _comb_sum(pc[bins], bins, k)


def sww3_cut(tc, pc, classification):
    """SWW_3 of a modular partial cube."""
    return cut_report(tc, pc, 3, classification)[1]
