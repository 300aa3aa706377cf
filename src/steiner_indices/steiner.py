"""Exact Steiner distances, the Steiner k-Hosoya polynomial, and k-indices.

Steiner distance of a terminal set S is the minimum edge count of a connected
subgraph containing S. For k = 3 it is the minimum over branch vertices m of
d(u,m) + d(v,m) + d(w,m), where m need only run over u, v, w and the degree
>= 3 vertices: a minimum Steiner tree has at most 3 leaves, all terminals, so
it is a path through its middle terminal or a spider whose centre has degree
3 (Hakimi 1971). For larger k an exact subset dynamic program over
(terminal subset, attachment vertex) states is used.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import PreconditionError, exact_div, not_modular_error

# state space of the subset DP is 2^(k-1) * n; beyond this we refuse
K_MAX = 12

_INF = np.int64(1) << 40


def _validate_terminals(n, s):
    terms = sorted(set(s))
    if len(terms) != len(list(s)):
        raise PreconditionError("terminal set contains repeated vertices")
    if not terms:
        raise PreconditionError("terminal set must be non-empty")
    if terms[0] < 0 or terms[-1] >= n:
        raise PreconditionError(f"terminal out of range [0, {n})")
    return terms


def _steiner_dw(d, terms):
    """Dreyfus-Wagner over the metric closure. Exact for any terminal count."""
    a = d.a.astype(np.int64)
    n = a.shape[0]
    base = terms[:-1]
    root = terms[-1]
    kk = len(base)
    full = (1 << kk) - 1
    dp = np.full((full + 1, n), _INF, dtype=np.int64)
    for i, t in enumerate(base):
        dp[1 << i] = a[t]
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        low = mask & (-mask)
        best = np.full(n, _INF, dtype=np.int64)
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                np.minimum(best, dp[sub] + dp[mask ^ sub], out=best)
            sub = (sub - 1) & mask
        dp[mask] = (best[:, None] + a).min(axis=0)
    return int(dp[full][root])


def steiner_distance(g, d, s):
    """Exact Steiner distance of terminal set s in a connected graph."""
    terms = _validate_terminals(g.n, list(s))
    k = len(terms)
    if k > K_MAX:
        raise PreconditionError(
            f"terminal set too large for exact computation (k={k} > {K_MAX})"
        )
    if k == 1:
        return 0
    if k == 2:
        return d(terms[0], terms[1])
    if k == 3:
        u, v, w = terms  # every m, not the kernel's pruned set: this is the kernel's test oracle
        return int((d.row(u).astype(np.int64) + d.row(v) + d.row(w)).min())
    return _steiner_dw(d, terms)


@dataclass(frozen=True)
class SteinerHosoya:
    """Coefficients of the Steiner k-Hosoya polynomial: m -> number of
    k-subsets with Steiner distance m."""

    k: int
    coeffs: dict

    def total(self):
        return sum(self.coeffs.values())

    def as_pairs(self):
        return sorted(self.coeffs.items())


def check_k(n, k, guard=None):
    """Refuse k outside 1..min(n, K_MAX) and, with a ``guard``, more than
    ``guard`` k-subsets of n vertices: from n and k alone, before any
    distance is computed."""
    if not 1 <= k <= min(n, K_MAX):
        raise PreconditionError(f"k must satisfy 1 <= k <= min(n, {K_MAX}), got {k}")
    if guard is not None and comb(n, k) > guard:
        raise PreconditionError(
            f"C({n},{k}) = {comb(n, k)} subsets exceeds the enumeration guard {guard}; "
            "--force lifts it"
        )


_BLOCK_ELEMENTS = 1 << 19  # entries of a temporary formed per numpy step
_SLAB_ROWS = 8  # u rows that share one pair-sum slab, at least
_HIST_BINS = 1 << 20  # histogram bins (3 max d + 1) the k = 3 kernel allocates at most


def _triple_histogram(d, branch):
    """Steiner distances of all vertex triples, tallied: hist[m] = #triples at m.

    d3(u,v,w) = min(P - max pair, min over x in ``branch`` of d(x,u) + d(x,v)
    + d(x,w)), P the sum of the pair distances: a minimum Steiner tree has at
    most 3 leaves, all terminals, so it is a path through its middle terminal
    or a spider whose centre has degree 3 (``branch``: the degree >= 3
    vertices as a mask or indices; None takes all).

    Per block of u from u0, a [u, v, w] tensor over v, w > u0 holds the first
    term. For a chunk of x it is lowered from a pair-sum slab q[x, v, w] =
    d(x,v) + d(x,w) over v, w > u0, built once per block: each u (or sub-block
    of u) adds d(x,u) to the slab's rows v > u, a contiguous suffix of each
    x's square, and takes the minimum over x, the leading axis. The entries
    with u < v < w are counted; the slab also forms the w <= v sums, which
    the count drops. The sums reach 3 max d and run in the narrowest signed
    dtype that holds it (int8 to 127, int16 to 32767, else int32); a matrix
    whose sums would overflow int32 is refused rather than wrapped, and one
    needing over ``_HIST_BINS`` bins before they are allocated (n > max d on
    a graph).

    Memory, with M = max(``_BLOCK_ELEMENTS``, n^2) and b the sum dtype's
    itemsize: the [u, v, w] tensor is one buffer of max(``_SLAB_ROWS``,
    M // 4n^2) u rows, under max(8 n^2, M / 4) sums, reused by every block;
    every temporary holds at most M sums or bools, and bincount's int64
    copy of a count step at most M / 2 counts. With the sum-dtype copies of
    d and of its branch rows, the arrays stay under b (10 n^2 + 4 M) + 6 M
    bytes, plus the histogram and numpy's ufunc buffers (8192 entries an
    operand).
    """
    n = d.n
    top = 3 * int(d.a.max())
    if top > np.iinfo(np.int32).max:
        raise PreconditionError(f"distances up to {top // 3} overflow the int32 triple kernel")
    if top >= _HIST_BINS:
        raise PreconditionError(f"distances up to {top // 3} need {top + 1} histogram bins > {_HIST_BINS}")
    a = d.a.astype(next(t for t in (np.int8, np.int16, np.int32) if top <= np.iinfo(t).max))
    x = a if branch is None else a[branch]
    hist = np.zeros(top + 1, dtype=np.int64)
    rows = max(1, _BLOCK_ELEMENTS // (n * n))  # u rows per first-term or count step
    step = max(_SLAB_ROWS, rows // 4)  # u rows per [u, v, w] tensor: a quarter budget, or enough to share a slab
    buf = np.empty(min(step, n) * n * n, dtype=a.dtype)  # one tensor's memory, reused by every block
    for u0 in range(0, n - 2, step):
        s, j = min(step, n - 2 - u0), np.arange(n - u0 - 1)
        best = buf[: s * j.size**2].reshape(s, j.size, j.size)  # [i, j, l]: u = u0 + i, v = u0 + 1 + j, w = u0 + 1 + l
        for i0 in range(0, s, rows):
            au = a[u0 + i0 : u0 + min(s, i0 + rows), u0 + 1 :]
            auv, auw = au[:, :, None], au[:, None]
            low = np.minimum(auv, auw, out=best[i0 : i0 + rows])
            low += a[u0 + 1 :, u0 + 1 :]
            np.minimum(low, auv + auw, out=low)
        chunk = max(1, _BLOCK_ELEMENTS // j.size**2)  # x per slab
        for x0 in range(0, len(x), chunk):
            xs = x[x0 : x0 + chunk, u0:]  # [c, 0]: d(x, u0)
            q = xs[:, 1:, None] + xs[:, None, 1:]  # the slab, [c, j, l]: d(x,v) + d(x,w)
            sub = max(1, _BLOCK_ELEMENTS // q.size)  # u rows per slab sum
            for i0 in range(0, s, sub):
                i1 = min(s, i0 + sub)
                low = best[i0:i1, i0:]  # rows v <= u of the later u are never counted
                np.minimum(low, (q[:, None, i0:] + xs[:, i0:i1, None, None]).min(axis=0), out=low)
        for i0 in range(0, s, rows):
            keep = (np.arange(i0, min(s, i0 + rows))[:, None, None] <= j[:, None]) & (j[:, None] < j)
            hist += np.bincount(best[i0 : i0 + rows][keep], minlength=top + 1)
    return hist


def steiner_hosoya(g, d, k, guard=None):
    """Tally Steiner distances over all C(n, k) subsets.

    k = 3 runs in one vectorized kernel; other k enumerate the subsets.
    ``guard`` caps the number of subsets.
    """
    check_k(g.n, k, guard)
    if k == 3:
        # a graph's distance matrix is 1 exactly at its edges, so d is g's if it is any graph's:
        # 2m 1s, at both ends of every edge
        ends = np.concatenate((g.eu, g.ev)), np.concatenate((g.ev, g.eu))
        own = np.count_nonzero(d.a == 1) == 2 * g.size and (d.a[ends] == 1).all()
        branch = np.diff(g.indptr) >= 3 if own else None
        hist = _triple_histogram(d, branch).tolist()
        return SteinerHosoya(k=3, coeffs={m: c for m, c in enumerate(hist) if c})
    coeffs = {}
    for s in combinations(range(g.n), k):
        m = steiner_distance(g, d, s)
        coeffs[m] = coeffs.get(m, 0) + 1
    return SteinerHosoya(k=k, coeffs=coeffs)


def indices_from_hosoya(p):
    """SW_k and SWW_k from the polynomial's derivatives at 1.

    sw = SH'(1); sww = SH'(1) + SH''(1)/2. Both are integers; the half term
    is divided exactly and asserted so.
    """
    sw = sum(m * c for m, c in p.coeffs.items())
    second = sum(m * (m - 1) * c for m, c in p.coeffs.items())
    # m(m-1) is even for every m, so the half term is exact
    return sw, sw + exact_div(second, 2)


def steiner_k_indices_brute(g, d, k, guard=None):
    """(SW_k, SWW_k) from the Steiner k-Hosoya polynomial of all k-subsets.

    ``guard`` caps the number of enumerated subsets.
    """
    return indices_from_hosoya(steiner_hosoya(g, d, k, guard))


def modular_indices_3(d, m, classification):
    """SW_3 and SWW_3 of a modular graph from classical distance moments.

    sw3 = (n-2)/2 * W
    sww3 = (n-2)/4 * W + (n-2)/8 * sum_sq + 1/8 * sum_cross
    Both divisions are exact on modular graphs; a failure raises rather than
    rounds. Refused for non-modular graphs, where the underlying median
    argument breaks down.
    """
    n = d.n
    if n < 3:
        raise PreconditionError("modular k=3 formulas need at least three vertices")
    if not classification.modular:
        raise not_modular_error(classification)
    sw3 = exact_div((n - 2) * m.wiener, 2)
    sww3 = exact_div(2 * (n - 2) * m.wiener + (n - 2) * m.sum_sq + m.sum_cross, 8)
    return sw3, sww3
