"""Graph representation, edge-list parsing, BFS distances, and distance moments.

All quantities are exact integers. The distance matrix is stored as a numpy
integer array for fast vectorized kernels, but every public accessor returns
Python ints.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DisconnectedGraphError, GraphFormatError


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    ``edges`` holds each edge once as a sorted pair; ``adjacency`` is a tuple
    of sorted neighbor tuples, consistent with the edge set.
    """

    n: int
    edges: tuple
    adjacency: tuple

    @classmethod
    def from_edges(cls, n, edges):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        seen = set()
        normalized = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range [0, {n}): ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge ({e[0]}, {e[1]})")
            seen.add(e)
            normalized.append(e)
        normalized.sort()
        # rows come sorted: row x gets each w < x (edge (w, x)) before each v > x (edge (x, v))
        adj = [[] for _ in range(n)]
        for u, v in normalized:
            adj[u].append(v)
            adj[v].append(u)
        return cls(n=n, edges=tuple(normalized), adjacency=tuple(map(tuple, adj)))

    @property
    def size(self):
        return len(self.edges)

    def degree(self, v):
        return len(self.adjacency[v])


def parse_edge_list(text):
    """Parse the edge-list format into a Graph.

    Format: first non-comment line is ``n m``; then exactly m lines ``u v``.
    Lines starting with ``#`` are comments. Raises GraphFormatError with the
    offending line number on any malformed input.
    """
    header = None
    edges = []
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
        if header is None:
            header = lineno
            n, m = a, b
            if n < 0 or m < 0:
                raise GraphFormatError("header counts must be nonnegative", lineno)
            continue
        u, v = a, b
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphFormatError(f"endpoint out of range [0, {n}): {u} {v}", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        edges.append(((u, v) if u < v else (v, u), lineno))
    if header is None:
        raise GraphFormatError("missing header line 'n m'")
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(edges)}")
    seen = {}
    for e, lineno in edges:
        if e in seen:
            raise GraphFormatError(f"duplicate edge ({e[0]}, {e[1]})", lineno)
        seen[e] = lineno
    return Graph.from_edges(n, [e for e, _ in edges])


def bfs_distances(g, source):
    """Distances from one source as a numpy int32 vector, -1 if unreachable."""
    dist = [-1] * g.n
    dist[source] = 0
    frontier, depth = [source], 0
    while frontier:  # level-synchronous over plain lists, converted once
        depth += 1
        nxt = []
        for x in frontier:
            for w in g.adjacency[x]:
                if dist[w] < 0:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return np.array(dist, dtype=np.int32)


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
    """BFS from every source. Raises DisconnectedGraphError naming an unreachable pair."""
    n = g.n
    if n == 0:
        return DistanceMatrix(np.zeros((0, 0), dtype=np.int32))
    d = np.empty((n, n), dtype=np.int32)
    for s in range(n):
        row = bfs_distances(g, s)
        if s == 0:
            bad = np.flatnonzero(row < 0)
            if bad.size:
                raise DisconnectedGraphError(0, int(bad[0]))
        d[s] = row
    return DistanceMatrix(d)


def is_connected(g):
    if g.n == 0:
        return True
    return not (bfs_distances(g, 0) < 0).any()


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
    naive triple loop but costs O(n^2).
    """
    n = dm.n
    if n < 2:
        return DistanceMoments(0, 0, 0)
    a = dm.a.astype(np.int64)
    wiener = int(a.sum()) // 2
    sum_sq = int((a * a).sum()) // 2
    if n < 3:
        return DistanceMoments(wiener, sum_sq, 0)
    row_sums = a.sum(axis=1)
    row_sq = (a * a).sum(axis=1)
    sum_cross = int((row_sums * row_sums - row_sq).sum())
    return DistanceMoments(wiener, sum_sq, sum_cross)


def hyper_wiener(m):
    """WW(G) = (W + sum of squared distances) / 2, as an exact rational.

    For every graph the two sums have equal parity termwise, so the result is
    an integer; it is still returned as a Fraction so callers can assert.
    """
    return Fraction(m.wiener + m.sum_sq, 2)
