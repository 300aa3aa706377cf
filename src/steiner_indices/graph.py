"""Graph representation, edge-list parsing, BFS distances, and distance moments.

All quantities are exact integers. The distance matrix is stored as a numpy
integer array for fast vectorized kernels, but every public accessor returns
Python ints.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DisconnectedGraphError, GraphFormatError, exact_div, exact_dot


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph on vertices 0..n-1, stored as read-only arrays.

    ``eu``, ``ev`` hold each edge once (u < v), sorted; ``indptr``, ``nbr`` are
    the CSR adjacency, row x (``nbr[indptr[x]:indptr[x + 1]]``) sorted.
    ``edges`` and ``adjacency`` are tuple views built on first use.
    """

    n: int
    eu: np.ndarray
    ev: np.ndarray
    indptr: np.ndarray
    nbr: np.ndarray

    @classmethod
    def from_edges(cls, n, edges, lines=None):
        """Validate and store ``edges`` (pairs or an (m, 2) array). The first
        faulty edge in input order is named; with ``lines`` given, by its line
        in a GraphFormatError."""
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        edges = edges if isinstance(edges, np.ndarray) else list(edges)
        try:
            e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        except OverflowError:  # an endpoint beyond int64 is out of range; find it exactly
            e = np.asarray(edges, dtype=object).reshape(-1, 2)
        lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
        key = lo * n + hi  # unique per in-range edge; a clash with an out-of-range one flags no earlier edge
        order = np.argsort(key, kind="stable")
        dup = np.zeros(len(e), dtype=bool)
        dup[order[1:]] = key[order[1:]] == key[order[:-1]]  # a later repeat of an earlier edge
        out = (lo < 0) | (hi >= n)
        bad = np.flatnonzero(out | (lo == hi) | dup)
        if bad.size:  # checked in this order per edge
            i = int(bad[0])
            u, v = (int(x) for x in e[i])
            msg = f"self-loop at vertex {u}" if u == v else f"duplicate edge ({min(u, v)}, {max(u, v)})"
            msg = f"edge endpoint out of range [0, {n}): ({u}, {v})" if out[i] else msg
            raise ValueError(msg) if lines is None else GraphFormatError(msg, lines[i])
        eu, ev = lo[order].astype(np.int64), hi[order].astype(np.int64)
        # row x takes each w < x (edge (w, x), in order of w) before each v > x
        src = np.concatenate((ev, eu))
        row = np.argsort(src, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
        arrays = (eu, ev, indptr, np.concatenate((eu, ev))[row])
        for a in arrays:
            a.flags.writeable = False
        return cls(n, *arrays)

    @property
    def size(self):
        return self.eu.size

    def degree(self, v):
        return int(self.indptr[v + 1] - self.indptr[v])

    @cached_property
    def edges(self):
        return tuple(zip(self.eu.tolist(), self.ev.tolist()))

    @cached_property
    def adjacency(self):
        nbr, bounds = self.nbr.tolist(), self.indptr.tolist()
        return tuple(tuple(nbr[a:b]) for a, b in zip(bounds, bounds[1:]))


def parse_edge_list(text):
    """Parse the edge-list format into a Graph.

    Format: first non-comment line is ``n m``; then exactly m lines ``u v``.
    Lines starting with ``#`` are comments. Raises GraphFormatError with the
    offending line number on any malformed input.
    """
    edges, lines = [], []
    n = m = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected two fields, got {len(parts)}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer field in {line!r}", lineno) from None
        if n is None:
            n, m = a, b
            if n < 0 or m < 0:
                raise GraphFormatError("header counts must be nonnegative", lineno)
            continue
        if not (0 <= a < n) or not (0 <= b < n):
            raise GraphFormatError(f"endpoint out of range [0, {n}): {a} {b}", lineno)
        if a == b:
            raise GraphFormatError(f"self-loop at vertex {a}", lineno)
        edges += (a, b)
        lines.append(lineno)
    if n is None:
        raise GraphFormatError("missing header line 'n m'")
    if len(lines) != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(lines)}")
    return Graph.from_edges(n, np.array(edges, dtype=np.int64), lines)


_BLOCK_ENTRIES = 1 << 18  # entries of a temporary per numpy step of the blocked loops here and in theta


def _bfs(indptr, nbr, dist, sources):
    """Level-synchronous BFS over the CSR arrays ``indptr``, ``nbr`` into the
    int32 vector ``dist`` (-1 at unvisited vertices), one numpy step per level.
    Of the unvisited candidates one per vertex is kept (each writes its own
    tag; the one whose tag survives wins), so no frontier repeats a vertex."""
    deg = np.diff(indptr)
    v = np.asarray(sources, dtype=np.int64)
    dist[v] = 0
    depth = 0
    while v.size:
        depth += 1
        count = deg[v]
        ends = np.cumsum(count)
        cand = nbr[np.arange(ends[-1]) + np.repeat(indptr[v] - ends + count, count)]
        cand = cand[dist[cand] < 0]
        tag = np.arange(-2, -2 - cand.size, -1, dtype=np.int32)
        dist[cand] = tag
        v = cand[dist[cand] == tag]
        dist[v] = depth
    return dist


def bfs_distances(g, source):
    """Distances from one source as a numpy int32 vector, -1 if unreachable."""
    return _bfs(g.indptr, g.nbr, np.full(g.n, -1, dtype=np.int32), [source])


class DistanceMatrix:
    """Exact all-pairs shortest-path distances of a connected graph."""

    def __init__(self, array):
        self.a = np.asarray(array, dtype=np.int32)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ValueError("distance matrix must be square")

    @property
    def n(self):
        return self.a.shape[0]

    def __call__(self, u, v):
        return int(self.a[u, v])

    def row(self, u):
        return self.a[u]


def all_pairs_distances(g):
    """BFS from every source, one block of sources at a time as a single BFS
    over that many disjoint copies of g (vertex v of copy i is i * n + v).
    Raises DisconnectedGraphError naming an unreachable pair."""
    n, m2 = g.n, 2 * g.size
    d = np.empty((n, n), dtype=np.int32)
    rows = max(1, _BLOCK_ENTRIES // max(1, m2))  # sources x directed edges per block
    for lo in range(0, n, rows):
        block = d[lo : lo + rows].reshape(-1)
        block.fill(-1)
        copy = np.arange(block.size // n, dtype=np.int64)[:, None]
        indptr = np.append((g.indptr[:-1] + copy * m2).ravel(), copy.size * m2)
        _bfs(indptr, (g.nbr + copy * n).ravel(), block, copy.ravel() * (n + 1) + lo)
        if lo == 0 and (d[0] < 0).any():
            raise DisconnectedGraphError(0, int(np.argmax(d[0] < 0)))
    return DistanceMatrix(d)


def is_connected(g):
    return g.n == 0 or bool((bfs_distances(g, 0) >= 0).all())


@dataclass(frozen=True)
class DistanceMoments:
    """The three moments the modular-graph formulas consume.

    wiener    = sum of d(u,v) over unordered pairs
    sum_sq    = sum of d(u,v)^2 over unordered pairs
    sum_cross = sum of d(u,v)*d(u,w) over ordered triples of distinct vertices
    """

    wiener: int
    sum_sq: int
    sum_cross: int


def distance_moments(dm):
    """Compute the pair and triple distance moments exactly.

    sum_cross uses the per-vertex identity
    sum_u [(sum_{v != u} d(u,v))^2 - sum_{v != u} d(u,v)^2], which equals the
    naive triple loop but costs O(n^2). The row sums are taken in int64 one
    block of rows at a time, so no n x n int64 copy is formed; a row's
    squares sum to at most n^3, below 2^63 while n < 2^21. The sums over rows
    go through ``exact_dot``: the cross moment of P_10000 passes 2^63.
    """
    n = dm.n
    if n < 2:
        return DistanceMoments(0, 0, 0)
    rows = max(1, _BLOCK_ENTRIES // n)
    sums, squares = [], []
    for lo in range(0, n, rows):
        b = dm.a[lo : lo + rows].astype(np.int64)
        sums.append(b.sum(axis=1))
        b *= b
        squares.append(b.sum(axis=1))
    row_sums, row_sq = np.concatenate(sums), np.concatenate(squares)
    ones = np.ones(n, dtype=np.int64)
    wiener, both_sq = exact_dot(ones, row_sums) // 2, exact_dot(ones, row_sq)
    return DistanceMoments(wiener, both_sq // 2, exact_dot(row_sums, row_sums) - both_sq)


def hyper_wiener(m):
    """WW(G) = (W + sum of squared distances) / 2, an exact int: d + d^2 is
    even for every distance d, and ``exact_div`` raises if the sum is odd."""
    return exact_div(m.wiener + m.sum_sq, 2)
