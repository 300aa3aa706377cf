"""Djokovic-Winkler relation, Theta-class structure, and graph classification.

The relation Theta puts edges u1v1, u2v2 in relation iff
d(u1,u2) + d(v1,v2) != d(u1,v2) + d(v1,u2). Its transitive closure Theta*
partitions the edge set. For a partial cube, removing a class leaves exactly
two connected components (the class's sides), and the side bipartitions give
an isometric hypercube embedding.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from math import comb, prod
from typing import Optional

import numpy as np

from . import graph
from .errors import DisconnectedGraphError, IntegralityError, PreconditionError
from .graph import _bfs, all_pairs_distances, bfs_distances


def theta_related(d, e1, e2):
    """Theta test for two edges, independent of endpoint labeling."""
    u1, v1 = e1
    u2, v2 = e2
    return d(u1, u2) + d(v1, v2) != d(u1, v2) + d(v1, u2)


@dataclass(frozen=True, eq=False)
class ThetaClasses:
    """Edge partition under Theta*, with side bipartitions when they exist.

    ``edge_class[j]`` is the class of the graph's edge (``eu[j]``, ``ev[j]``),
    classes numbered by smallest edge; ``classes`` is their tuple view, built
    on first use. ``sides`` is a read-only (d, n) bool matrix: ``sides[i, v]``
    is True iff v lies in side 1 of class i, and side 0 holds vertex 0. It is
    None when some class does not split the graph into exactly two components.
    A one-BFS labelling also gives ``gates``, the vertex that opened each
    class, and ``crossings``, a (2, c) array whose columns are its crossing
    class pairs (i < j, sorted); both are None from the other methods.
    """

    n: int
    eu: np.ndarray
    ev: np.ndarray
    edge_class: np.ndarray
    sides: Optional[np.ndarray]
    gates: Optional[np.ndarray] = None
    crossings: Optional[np.ndarray] = None

    def __post_init__(self):
        for a in (self.sides, self.gates, self.crossings):
            if a is not None:
                a.flags.writeable = False

    @property
    def class_count(self):
        return int(self.edge_class.max(initial=-1)) + 1

    @property
    def m(self):
        return self.edge_class.size

    @cached_property
    def classes(self):
        by_class = np.argsort(self.edge_class, kind="stable")
        edges = list(zip(self.eu[by_class].tolist(), self.ev[by_class].tolist()))
        ends = np.cumsum(np.bincount(self.edge_class, minlength=self.class_count)).tolist()
        return tuple(tuple(edges[a:b]) for a, b in zip([0] + ends, ends))

    @cached_property
    def side_sizes(self):
        """Read-only int32 array of the size of side 1 of each class: an int32
        accumulator sums the bool bytes twice as fast as int64, and is exact
        while n < 2^31."""
        if self.sides is None:
            raise PreconditionError("side partitions unavailable: not a partial-cube class structure")
        s1 = self.sides.sum(axis=1, dtype=np.int32)
        s1.flags.writeable = False
        return s1

    @property
    def side_counts(self):
        return tuple((self.n - s1, s1) for s1 in self.side_sizes.tolist())


@dataclass(frozen=True, eq=False)
class ProductClasses:
    """Theta classes of a Cartesian product G = F_1 x ... x F_r of connected
    graphs, read from the ``ThetaClasses`` of its factors (``factors[l]`` is
    that of F_l; a repeated factor is one object): n, m, the class count and
    the side sizes, with no labels or side matrix over G.

    Distances in G add over the coordinates, d(x, u) = sum_l d_l(x_l, u_l),
    and an edge changes one coordinate, its direction (Imrich and Klavžar,
    *Product Graphs*, Wiley 2000). Take edges xy of direction i and uv of
    direction j. In the Theta test d(x,u) + d(y,v) vs d(x,v) + d(y,u), the
    terms of a coordinate l other than i and j agree (x_l = y_l, u_l = v_l),
    and so do those of i when j != i (u_i = v_i) and those of j when i != j.
    So edges of two directions are never related, and two edges of one
    direction are related iff their projections are related in that factor.
    A chain of related edges thus keeps its direction and projects to a
    chain, and a chain in a factor lifts through any lifts of its edges: the
    Theta* classes of G are the factors' classes, lifted, each to every edge
    of its direction whose projection lies in it. A class of F_i with sides
    A and B lifts to the class with sides A and B times the other factors,
    of |A| N / n_i and |B| N / n_i vertices, N = prod_l n_l; side 0 holds
    vertex 0 in both. So two classes of F_i have the quadrants of their
    projections times the other factors, of |Q| N / n_i vertices, and a
    class of F_i and one of F_j, j != i, the quadrants X x Y times the rest,
    X a side of the one and Y of the other, of |X| |Y| N / (n_i n_j)
    vertices (``pair_counts``).
    """

    factors: tuple

    @cached_property
    def n(self):
        return prod(f.n for f in self.factors)

    @property
    def m(self):
        return sum(f.m * (self.n // f.n) for f in self.factors)

    @property
    def class_count(self):
        return sum(f.class_count for f in self.factors)

    @cached_property
    def side_sizes(self):
        """Read-only int64 array of the size of side 1 of each lifted class,
        factor by factor."""
        scaled = [f.side_sizes.astype(np.int64) * (self.n // f.n) for f in self.factors]
        s1 = np.concatenate([np.zeros(0, dtype=np.int64), *scaled])
        s1.flags.writeable = False
        return s1

    side_counts = ThetaClasses.side_counts


def _theta_classes_pairwise(g, d):
    """Theta* by testing Theta on all edge pairs; returns the class of each
    edge, classes numbered by their smallest edge.

    For edge uv take f = d(., u) - d(., v); then xy is Theta-related to uv
    iff f(x) != f(y). A block of rows f gives the related pairs of a block of
    edges at once, and labels merge them: each label points to a smaller
    edge or itself, a pair of distinct roots hooks the larger onto the
    smaller, and shortcutting (label = label[label]) flattens the forest.
    Each component's root is then its smallest edge.
    """
    eu, ev, a = g.eu, g.ev, d.a
    label = np.arange(eu.size)
    rows = max(1, graph._BLOCK_ENTRIES // max(1, eu.size))
    for lo in range(0, eu.size, rows):
        f = a[eu[lo : lo + rows]] - a[ev[lo : lo + rows]]
        i, j = np.nonzero(f[:, eu] != f[:, ev])
        i += lo
        while (label[i] != label[j]).any():
            np.minimum.at(label, np.maximum(label[i], label[j]), np.minimum(label[i], label[j]))
            while (label[label] != label).any():
                label = label[label]
    return np.unique(label, return_inverse=True)[1].astype(np.int64)


# d * d * n up to which pair_counts forms the Gram even with a labelling: one
# BLAS product beats the labelled path's fixed numpy steps there, 1.8 against
# 4.8 ms on 2-CPU x86-64 over the 40 certified seed-1 corpus-auto graphs
_GRAM_SMALL = 1 << 22
_FLOAT32_EXACT = 1 << 24  # float32 holds every integer of magnitude up to 2^24 exactly


def _one_bfs_labels(g, dist):
    """Theta labelling from one BFS from vertex 0 (``dist``) as (edge class,
    sides, gates, crossings), or None if some edge does not flip exactly one
    coordinate.

    A vertex's label L(v) is L(p1) | L(p2) for two of its BFS parents (p2 = p1
    for a single parent, which also opens a new coordinate). Kept on a partial
    cube, L is the Theta labelling. Let T(v) be the classes separating 0 from
    v; T(v) = T(p) + {class of pv} for each parent p, and a class is a
    matching, so p1v and p2v lie in distinct classes and T(v) = T(p1) | T(p2).
    Mapping each coordinate to the class of its opening edge sends L(v) onto
    T(v), by induction on the level, and one-to-one: two coordinates of one
    class C would split C's far side (convex, so connected) into the vertices
    holding one or the other, and an edge joining the two would flip both.
    On a median graph L is kept: every halfspace is gated (Bandelt and Chepoi
    2008), so the gate z of a class's far side H has a single parent (a class
    is a matching), while a single-parent v in H other than z would have that
    parent on a geodesic through z, inside H. So the openers are the gates.

    ``gates[i]`` is the vertex that opened class i. ``crossings`` is a (2, c)
    array whose columns are the distinct class pairs (i < j, sorted) of the
    first- and last-parent edges of a vertex with two or more parents; by
    facts (a) and (b) of ``pair_counts`` the gates decide nesting and these
    are the crossing pairs of the sides.

    Labels are little-endian uint64 words: coordinate b is bit b & 63 of word
    b >> 6, which is bit b & 7 of byte b >> 3 of the row.
    """
    eu, ev = g.eu, g.ev
    down, up = dist[eu] != dist[ev], dist[eu] > dist[ev]  # same-level edges fail the flip check
    child = np.where(up, eu, ev)[down]
    by_child = np.argsort(child, kind="stable")
    parent = np.concatenate((np.where(up, ev, eu)[down][by_child], [0]))  # sentinel: parent[first[0]] must exist
    edge = np.concatenate((down.nonzero()[0][by_child], [0]))  # the edge from each parent to its child
    npar = np.bincount(child, minlength=g.n)
    first = np.cumsum(npar) - npar  # parents of v: parent[first[v] : first[v] + npar[v]]
    last = first + npar - 1
    p1, p2 = parent[first], parent[last]
    order = np.argsort(dist, kind="stable")  # BFS-visit order: by level, then vertex id
    at = np.empty_like(order)
    at[order] = np.arange(g.n)  # the position of each vertex in that order
    opens = np.flatnonzero(npar[order] == 1)
    opener = order[opens]
    coord = np.arange(opener.size)
    words = max(1, -(-opener.size // 64))  # one word at least: c may be 0
    labels = np.zeros((g.n, words), dtype="<u8")  # in BFS-visit order: each level is one slice
    labels[opens, coord >> 6] = np.uint64(1) << (coord & 63).astype(np.uint64)
    q1, q2 = at[p1[order]], at[p2[order]]
    level = np.searchsorted(dist[order], np.arange(1, dist.max(initial=0) + 2))
    for lo, hi in zip(level[:-1].tolist(), level[1:].tolist()):
        labels[lo:hi] |= labels[q1[lo:hi]] | labels[q2[lo:hi]]
    labels = labels[at]  # back to vertex order
    flips = np.empty(eu.size, dtype=np.int64)
    step = max(1, graph._BLOCK_ENTRIES // words)
    for lo in range(0, eu.size, step):
        x = (labels[eu[lo : lo + step]] ^ labels[ev[lo : lo + step]]).ravel()
        nz = x.nonzero()[0]
        if nz.size != x.size // words or (nz // words != np.arange(nz.size)).any():
            return None  # one flipped coordinate: exactly one nonzero word per edge, in edge order,
        w = x[nz]
        if (w & (w - np.uint64(1))).any():
            return None  # and that word is a power of two
        flips[lo : lo + step] = 64 * (nz % words) + np.frexp(w.astype(np.float64))[1] - 1  # exact: w = 2^b
    first_edge = np.full(opener.size, eu.size)
    np.minimum.at(first_edge, flips, np.arange(eu.size))
    rank = np.argsort(first_edge)  # class i is coordinate rank[i]
    sides = np.ascontiguousarray(labels.view(np.uint8).T)[rank >> 3]  # (d, n) bytes holding bit rank & 7
    sides >>= (rank & 7).astype(np.uint8)[:, None]
    sides &= 1
    edge_class = np.argsort(rank)[flips]
    forked = npar > 1
    c1, c2 = edge_class[edge[first[forked]]], edge_class[edge[last[forked]]]
    key = np.minimum(c1, c2) * rank.size + np.maximum(c1, c2)  # the class pair i < j as one number
    key.sort()
    once = np.ones(key.size, dtype=bool)
    once[1:] = key[1:] != key[:-1]
    return edge_class, sides.view(bool), opener[rank], np.array(np.divmod(key[once], max(1, rank.size)))


def _tree_labels(g):
    """The labelling ``_one_bfs_labels`` keeps on a tree, as (edge class,
    sides, gates, crossings), read from an Euler tour with no BFS; None if
    G, a graph with m = n - 1, is disconnected.

    Every edge xy of a tree is a bridge, so it is its own Theta class: an
    edge uv other than xy lies on x's side of T - xy, say, and then
    d(y, u) = d(x, u) + 1 and d(y, v) = d(x, v) + 1, so the two sums of the
    Theta test agree. So ``edge_class`` is the edge order, no two classes
    cross, and side 1 of class xy is the subtree of its child, the end
    farther from vertex 0, which is the gate of the BFS labelling (its one
    parent edge opens its coordinate).

    Each CSR slot x -> y is an arc, and the arc after it in the tour is
    y -> z with z the neighbour after x in y's row, wrapping to the row's
    start. Started at vertex 0's first slot, the tour of a tree takes every
    arc once and walks each edge down before it walks it up, and between
    them it walks exactly the arcs of the child's subtree. Arcs are ranked
    by pointer jumping (Tarjan and Vishkin 1985): ceil(log2 2m) rounds in
    which each arc adds the count of the arc it points to and then points
    twice as far. With ``tin[v]`` the position of the arc into v (-1 at
    vertex 0), side 1 of the edge into c is the interval of the tour
    tin[c] <= tin[v] <= tout[c], tout[c] the position of the arc back out.

    G is refused unless the tour takes all 2m arcs (an arc off it lies on a
    cycle of the successor map, which never reaches the end) and no vertex
    is isolated. Then every vertex lies in vertex 0's component, and a
    connected G with m = n - 1 is a tree. Both checks are needed: two
    triangles at vertex 0 whose rows interleave, and two isolated vertices,
    have a tour of all 12 arcs.
    """
    n, m = g.n, g.size
    deg = np.diff(g.indptr)
    if n > 1 and not deg.all():
        return None
    row, nbr = np.repeat(np.arange(n), deg), g.nbr
    rev = np.searchsorted(row * n + nbr, nbr * n + row)  # the slot of y -> x
    end = 2 * m  # a sentinel arc past the tour's last
    after = np.append(rev + 1, end)
    wrap = after[:end] == g.indptr[nbr + 1]
    after[:end][wrap] = g.indptr[nbr[wrap]]
    after[after == 0] = end  # the tour starts at slot 0
    rank = np.ones(end + 1, dtype=np.int64)  # arcs from each arc to the tour's end
    rank[end] = 0
    for _ in range(max(end - 1, 0).bit_length()):
        rank += rank[after]
        after = after[after]
    if (after != end).any():
        return None
    pos = (end - rank[:end]).astype(np.min_scalar_type(-1 - end))  # the narrowest type compares fastest
    (fwd,) = np.nonzero(row < nbr)  # the arc eu -> ev of each edge, in edge order
    out, back = pos[fwd], pos[rev[fwd]]
    gates = np.where(out < back, g.ev, g.eu)
    lo, hi = np.minimum(out, back), np.maximum(out, back)
    del deg, row, rev, after, wrap, rank, pos, fwd, out, back  # freed before the side matrix is filled
    tin = np.full(n, -1, dtype=lo.dtype)
    tin[gates] = lo
    sides = np.empty((m, n), dtype=bool)
    rows = max(1, graph._BLOCK_ENTRIES // max(1, n))
    # blocks from the last row up; past one block, each takes at most half the
    # rows still empty, and rows [0, h) of those take tin <= hi, not a temporary
    end = m
    while end:
        h = end if m <= rows else max(1, min(rows, end // 2))
        block, upper = sides[end - h : end], hi[end - h : end, None]
        np.greater_equal(tin, lo[end - h : end, None], out=block)
        block &= tin <= upper if 2 * h > end else np.less_equal(tin, upper, out=sides[:h])
        end -= h
    return np.arange(m), sides, gates, np.zeros((2, 0), dtype=np.int64)


def _connected_distances(g, caller):
    try:
        return all_pairs_distances(g)
    except DisconnectedGraphError:
        raise PreconditionError(f"{caller} requires a connected graph") from None


def _cut_classes(g, a):
    """Theta* of a partial cube as (edge class, sides) from the distance rows
    ``a`` of a connected graph, or None if G is no partial cube.

    The class of the first edge uv not yet taken is the cut between W_uv and
    W_vu, the vertices closer to u and those closer to v. The pass refuses
    an edge that falls in two cuts, so every edge flips one coordinate, and
    then a labelling that fails (ii) of ``median_certificate``
    (``_isometric``). Its argument, which uses no median property, makes
    passing prove an isometric embedding whose coordinate classes are
    Theta*, and a partial cube passes: its cuts are its Theta classes
    (Djokovic 1973), and (ii) holds on any partial cube.
    """
    eu, ev = g.eu, g.ev
    edge_class = np.full(eu.size, -1, dtype=np.int64)
    sides = []
    for i in range(eu.size):
        if edge_class[i] >= 0:
            continue
        du, dv = a[eu[i]], a[ev[i]]
        if (du == dv).any():
            return None  # early exit: a tie shows G not bipartite, which the refusals below catch too
        closer_v = dv < du
        idx = np.flatnonzero(closer_v[eu] != closer_v[ev])
        if (edge_class[idx] >= 0).any():
            return None  # an edge in two cuts
        edge_class[idx] = len(sides)
        sides.append(closer_v ^ closer_v[0])
    sides = np.array(sides, dtype=bool).reshape(len(sides), g.n)
    if eu.size and not _isometric(g, edge_class, sides):
        return None
    return edge_class, sides


def _theta_classes_crossing(g, d):
    """Theta* of a partial cube as (edge class, sides): the Euler tour of
    ``_tree_labels`` where m = n - 1, one BFS where ``_one_bfs_labels``
    keeps its labelling (every other median graph), else the cut pass on
    the distance rows ``d`` (C6, C8), computed here if not given. None when
    the cut pass refuses; a kept labelling is unchecked. Raises
    PreconditionError on a disconnected graph.
    """
    if g.size == g.n - 1:
        labelled = _tree_labels(g)
        if labelled is None:
            raise PreconditionError("theta_classes requires a connected graph")
        return labelled
    dist = (bfs_distances(g, 0) if d is None else d.row(0)) if g.n else np.zeros(0, dtype=np.int32)
    if (dist < 0).any():
        raise PreconditionError("theta_classes requires a connected graph")
    labelled = _one_bfs_labels(g, dist)
    if labelled is not None:
        return labelled
    return _cut_classes(g, (all_pairs_distances(g) if d is None else d).a)


def theta_classes(g, d=None, method="pairwise"):
    """Partition the edge set under Theta*.

    method="pairwise" is the general algorithm: the certified cut pass
    (``_cut_classes``) gives a partial cube its classes and sides, and on
    any other graph the O(|E|^2) Theta scan gives the classes and no sides.
    There some class C does not leave G - C two components: if every class
    C leaves two, A and B, then for f = xy in C no edge outside C is
    Theta-related to f, so d(., x) - d(., y) is constant on A and on B.
    Then W_xy = A and Theta(f) = C, so Theta is transitive, the cuts (A, B)
    tile E and make G bipartite, and G is a partial cube.

    method="crossing" is for graphs known to be partial cubes, median or
    verified by ``median_classification``: an Euler tour labels a tree, one
    BFS any other median graph (row 0 of ``d`` when given), and the cut pass
    the others. On any other graph it raises PreconditionError, or returns
    a one-BFS labelling unchecked, which has ``gates`` and need not be
    Theta* (K_{3,2} gets two classes for one).
    """
    if method == "crossing":
        result = _theta_classes_crossing(g, d)
        if result is None:
            raise PreconditionError(
                "crossing method inapplicable (graph is not a partial cube); use method='pairwise'"
            )
        return ThetaClasses(g.n, g.eu, g.ev, *result)
    if method != "pairwise":
        raise ValueError(f"unknown method {method!r}")
    if d is None:
        d = _connected_distances(g, "theta_classes")
    cut = _cut_classes(g, d.a)
    if cut is not None:
        return ThetaClasses(g.n, g.eu, g.ev, *cut)
    return ThetaClasses(g.n, g.eu, g.ev, _theta_classes_pairwise(g, d), None)


def _colour_crossings(k, i, j):
    """First-fit colouring of the crossing graph on classes 0..k-1 whose
    edges are the pairs (i, j): no two classes of one colour cross. Colour c
    takes, in index order, every class left that crosses none taken yet."""
    cross = np.zeros((k, k), dtype=bool)
    cross[i, j] = cross[j, i] = True
    raw = np.packbits(cross, axis=1, bitorder="little").tobytes()
    width = len(raw) // max(1, k)
    crossing = [int.from_bytes(raw[x * width : (x + 1) * width], "little") for x in range(k)]
    colour = [0] * k
    left, c = (1 << k) - 1, 0  # bit sets of classes
    while left:
        free = left
        while free:
            x = (free & -free).bit_length() - 1
            colour[x] = c
            left ^= 1 << x
            free &= ~crossing[x] & ~(1 << x)
        c += 1
    return np.array(colour, dtype=np.int64)


def _crossing_counts(tc):
    """n_ij^11 of each crossing pair (i, j) of ``tc.crossings``.

    The classes that cross something are coloured so that no two of one
    colour cross; by facts (a) to (c) of ``pair_counts`` each colour is then
    laminar, any two members nested or disjoint, a colour of one class too.
    A colour F is ordered container first, so the members of F holding a
    vertex v form a chain whose deepest member, deep_F(v), has the largest
    position. For two colours F and G, C[k, l] counts the vertices v with
    deep_F(v) = k and deep_G(v) = l, and with A[i, k] = 1 iff member k lies
    in member i, the block of n_ij^11 is A_F C A_G^T: v lies in member i iff
    deep_F(v) does. The products are exact in float32, every partial sum an
    integer in [0, n].
    """
    (i, j), sides, d = tc.crossings, tc.sides, tc.class_count
    crosses = np.zeros(d, dtype=bool)
    crosses[i] = crosses[j] = True
    k = np.flatnonzero(crosses)
    local = np.cumsum(crosses) - 1  # the index of each class in k
    colour = np.zeros(d, dtype=np.int64)
    colour[k] = _colour_crossings(k.size, local[i], local[j])
    size = np.bincount(colour[k])
    order = k[np.lexsort((-tc.side_sizes[k], colour[k]))]  # colour by colour, each container first
    start = np.cumsum(size) - size
    pos = np.zeros(d, dtype=np.int64)
    pos[order] = np.arange(k.size) - np.repeat(start, size)  # the position of each class in its colour
    counts = np.empty(i.size, dtype=np.int32)

    def laminar(c):  # (A, deep_F + 1 at every vertex, 0 where no member holds it) of colour c
        m = order[start[c] : start[c] + size[c]]
        rank = np.arange(1, m.size + 1, dtype=np.min_scalar_type(m.size))
        deep = (sides[m] * rank[:, None]).max(axis=0).astype(np.intp)
        return sides[np.ix_(m, tc.gates[m])].astype(np.float32), deep  # fact (a)

    block = colour[i] * size.size + colour[j]
    blocks = np.flatnonzero(np.bincount(block)).tolist()
    forest = {c: laminar(c) for c in {c for key in blocks for c in divmod(key, size.size)}}
    for key in blocks:
        f, g = divmod(key, size.size)
        (af, deep_f), (ag, deep_g) = forest[f], forest[g]
        c = np.bincount(deep_f * (size[g] + 1) + deep_g, minlength=(size[f] + 1) * (size[g] + 1))
        n11 = af @ c.reshape(size[f] + 1, size[g] + 1)[1:, 1:].astype(np.float32) @ ag.T
        sel = block == key
        counts[sel] = n11[pos[i[sel]], pos[j[sel]]]
    return counts


def _labelled_pair_counts(tc):
    """``pair_counts`` of a one-BFS labelling, from facts (a) to (c).

    Every pair is first counted as if disjoint, with quadrants 0, a_i, a_j
    and n - a_i - a_j; the last is tallied over pairs of distinct side sizes,
    not pairs of classes. A nested pair, found by fact (a) as the bits of
    ``sides[:, gates]``, then trades a_o and n - a_i - a_o for n - a_o and
    a_o - a_i (o the outer class), and a crossing pair, fact (b), trades all
    four for its counted quadrants, so no pair costs more than O(1) unless it
    crosses. Size v is tallied at v + n, so that a count below 0 stays
    visible until it is traded away; any count left there, or any negative
    count, raises IntegralityError.
    """
    n, d = tc.n, tc.class_count
    a, sides, z = tc.side_sizes, tc.sides, tc.gates
    width = 2 * n + 1
    hist = np.zeros(width, dtype=np.int64)

    def trade(gone, added):
        hist[:] += np.bincount(np.concatenate(added) + n, minlength=width)
        hist[:] -= np.bincount(np.concatenate(gone) + n, minlength=width)

    count = np.bincount(a, minlength=n + 1)
    size = np.flatnonzero(count)
    count = count[size]
    hist[n] = comb(d, 2)
    hist[n + size] += (d - 1) * count
    ordered = np.zeros(width)  # (i, j) and (j, i), i != j, by n - a_i - a_j; exact in float64 below 2^53
    rows = max(1, graph._BLOCK_ENTRIES // max(1, size.size))
    for lo in range(0, size.size, rows):
        both = count[lo : lo + rows, None] * count
        ordered += np.bincount((2 * n - size[lo : lo + rows, None] - size).ravel(), both.ravel(), width)
    ordered[2 * n - 2 * size] -= count
    hist += (ordered / 2).astype(np.int64)
    rows = max(1, graph._BLOCK_ENTRIES // max(1, d))
    for lo in range(0, d, rows):
        outer, inner = np.divmod(np.flatnonzero(sides[lo : lo + rows, z]), d)
        outer += lo
        keep = outer != inner
        ao, ai = a[outer[keep]], a[inner[keep]]
        trade((ao, n - ai - ao), (n - ao, ao - ai))
    if tc.crossings.size:
        m = _crossing_counts(tc)
        ai, aj = a[tc.crossings]
        trade((0 * m, ai, aj, n - ai - aj), (m, ai - m, aj - m, n - ai - aj + m))
    if hist.min() < 0 or hist[:n].any():
        raise IntegralityError("negative quadrant count: side partitions are inconsistent")
    return hist[n:]


def pair_counts(tc):
    """Histogram of the quadrant sizes of all class pairs i < j.

    ``hist[v]`` counts the (pair, quadrant) combinations whose quadrant
    n_ij^00, n_ij^01, n_ij^10 or n_ij^11 holds exactly v vertices, so
    ``hist.sum() == 4 * C(d, 2)``. With a_i the size of side 1 (H_i) of
    class i, all four follow from a_i, a_j and n_ij^11 = |H_i & H_j|.

    A ``ProductClasses`` composes its histogram from its factors'
    (``_product_pair_counts``), a path's in closed form; the rest of this
    text is about classes with a side matrix (``_side_pair_counts``).

    With a one-BFS labelling (``tc.gates``, ``tc.crossings``), let z_i be the
    gate of class i, and call H_i, H_j crossing when all four quadrants are
    nonempty. Three facts hold for any kept labelling, partial cube or not:
    (a) H_i lies in H_j iff z_i lies in H_j. Bit i reaches a vertex only
        from z_i along parent links, and a vertex holds its parents' bits.
    (b) H_i and H_j cross iff (i, j) is a column of ``tc.crossings``. Let v be a
        vertex of H_i & H_j nearest vertex 0. A single parent of v would hold
        every bit of v but the one v opens, so it would lie in H_i & H_j, or
        v = z_i and the parent lies in H_j, so H_i lies in H_j. So v has two
        parents, neither in H_i & H_j, and each edge from one flips the bit
        the other brings: one of i, j each. Conversely, if the first-parent
        edge of v flips i and its last-parent edge j, then v, the first
        parent, the last parent and vertex 0 fill the four quadrants.
    (c) Every other pair is disjoint: quadrant 00 holds vertex 0.
    So n_ij^11 is a_i, a_j or 0 unless the pair crosses, and only crossing
    pairs are counted from the vertices (``_labelled_pair_counts``).

    Otherwise, and while d * d * n <= 2^22, where one BLAS product costs less
    than the fixed numpy steps of the labelled path, n_ij^11 comes from the
    Gram X X^T of the side matrix X, formed in blocks of rows so that memory
    stays near d * n. X is float32 for BLAS, as are the products of the
    labelled path, under the bound that ``_side_pair_counts`` checks.
    """
    if isinstance(tc, ProductClasses):
        return _product_pair_counts(tc)
    return _side_pair_counts(tc)


def _side_pair_counts(tc):
    """``pair_counts`` of classes with a side matrix. A product's factors
    other than paths are counted here, not through the public name, so that
    ``pair_counts`` runs once per graph. The refusal of n >= 2^24 is the one
    bound of the float products: every partial sum of the float32 Gram here
    and in ``_crossing_counts`` is an integer of at most n, and the float64
    tally of ``_labelled_pair_counts`` stays below d^2 < n^2 < 2^53."""
    if tc.sides is None:
        raise PreconditionError("pair_counts requires valid side partitions for every class")
    n = tc.n
    if n >= _FLOAT32_EXACT:
        raise PreconditionError(f"pair_counts needs n < 2^24 for an exact float32 Gram, got n={n}")
    s1 = tc.side_sizes
    d = s1.size
    if tc.gates is not None and d * d * n > _GRAM_SMALL:
        return _labelled_pair_counts(tc)
    member = tc.sides.astype(np.float32)
    hist = np.zeros(n + 1, dtype=np.int64)
    rows = max(1, graph._BLOCK_ENTRIES // max(d, 1))
    for lo in range(0, d, rows):
        hi = min(lo + rows, d)
        n11 = (member[lo:hi] @ member.T).astype(np.int64)
        n10 = s1[lo:hi, None] - n11
        n01 = s1[None, :] - n11
        n00 = n - n11 - n10 - n01
        if (np.minimum(np.minimum(n00, n01), np.minimum(n10, n11)) < 0).any():
            raise IntegralityError("negative quadrant count: side partitions are inconsistent")
        upper = np.arange(d) > np.arange(lo, hi)[:, None]  # j > i
        for quadrant in (n00, n01, n10, n11):
            hist += np.bincount(quadrant[upper], minlength=n + 1)
    return hist


def _path_pair_counts(f):
    """``pair_counts`` of a factor that is a path, in closed form, or None if
    F is not one. A connected F (``theta_classes`` refuses any other) with
    m = n - 1 and no vertex of degree 3 or more is a path, and each edge is
    its own class. Edges i < j, in path order, cut it into runs of i + 1,
    j - i and n - 1 - j vertices and an empty quadrant; in each of the three
    places, a run of v vertices, 1 <= v <= n - 2, comes from n - 1 - v pairs,
    whatever the vertex labels."""
    n = f.n
    if f.m != n - 1 or np.bincount(np.concatenate((f.eu, f.ev)), minlength=n).max() > 2:
        return None
    hist = np.zeros(n + 1, dtype=np.int64)
    hist[0] = comb(n - 1, 2)
    hist[1 : n - 1] = 3 * np.arange(n - 2, 0, -1)
    return hist


def _product_pair_counts(tc):
    """``pair_counts`` of a ``ProductClasses``, from the quadrant sizes of its
    docstring: each distinct factor F (n_F vertices, c copies) adds c times
    its own histogram at v N / n_F (``_path_pair_counts`` for a path, the
    side matrix for any other), and each pair of factors, of distinct
    copies, adds the products of their side-size counts at x y N / (n_F n_G).
    Raises IntegralityError unless the histogram sums to 4 C(d, 2)."""
    n = tc.n
    hist = np.zeros(n + 1, dtype=np.int64)
    copies = list(Counter(tc.factors).items())
    sides = []  # each factor's side sizes, over both sides of every class, and how many sides have each
    for f, c in copies:
        own = _path_pair_counts(f)
        hist[:: n // f.n] += c * (_side_pair_counts(f) if own is None else own)  # bins 0, N / n_F, ..., N
        count = np.bincount(np.concatenate((f.side_sizes, f.n - f.side_sizes)), minlength=f.n + 1)
        (size,) = count.nonzero()
        sides.append((size, count[size]))
    for i, ((f, cf), (x, nx)) in enumerate(zip(copies, sides)):
        for (h, ch), (y, ny) in zip(copies[i:], sides[i:]):
            pairs = cf * (cf - 1) // 2 if h is f else cf * ch
            if pairs:
                bins = x[:, None] * y * (n // (f.n * h.n))  # one bin may take many pairs of sizes
                np.add.at(hist, bins.ravel(), (pairs * nx[:, None] * ny).ravel())
    if hist.sum() != 4 * comb(tc.class_count, 2):
        raise IntegralityError("composed quadrant counts do not sum to 4 C(d, 2)")
    return hist


def is_bipartite(g, levels=None):
    """(flag, colors or None): no edge joins two vertices on one BFS level,
    each component levelled from its smallest vertex (of a connected graph,
    ``levels`` may be row 0 of its distances); a color is a level's parity."""
    if levels is None:
        levels = np.full(g.n, -1, dtype=np.int32)
        for root in range(g.n):
            if levels[root] < 0:
                _bfs(g.indptr, g.nbr, levels, [root])
    if (levels[g.eu] == levels[g.ev]).any():
        return False, None
    return True, (levels & 1).tolist()


@dataclass(frozen=True)
class PartialCubeResult:
    is_partial_cube: bool
    reason: Optional[str]  # non-bipartite | bad class | non-isometric labeling
    coordinates: Optional[np.ndarray]  # (n, d) bool view sides.T: row v is the label of v


def is_partial_cube(g, d, tc):
    """Check the partial-cube property and produce the hypercube embedding.

    Verifies (a) bipartiteness, (b) every class splits G into two sides,
    (c) graph distance equals Hamming distance of the side-membership labels.
    """
    if not is_bipartite(g, d.row(0) if g.n else None)[0]:  # levelled by row 0 of the distances
        return PartialCubeResult(False, "non-bipartite", None)
    if tc.sides is None:
        return PartialCubeResult(False, "bad class", None)
    # Hamming distance of all pairs, s_u + s_v - 2 (X^T X)[u, v] with s the
    # column sums of the side matrix X; exact in float32, every entry and
    # partial sum is an integer of magnitude at most 2d < 2^24
    if 2 * tc.class_count >= _FLOAT32_EXACT:
        raise PreconditionError(f"is_partial_cube needs 2d < 2^24 for exact float32, got d={tc.class_count}")
    member = tc.sides.astype(np.float32)
    s = member.sum(axis=0)
    hamming = member.T @ member
    hamming *= -2
    hamming += s[:, None]
    hamming += s
    if not np.array_equal(hamming, d.a):
        return PartialCubeResult(False, "non-isometric labeling", None)
    return PartialCubeResult(True, None, tc.sides.T)


def count_medians(d, u, v, w):
    """Number of vertices lying on shortest paths between all three pairs."""
    if len({u, v, w}) != 3:
        raise PreconditionError("count_medians requires three distinct vertices")
    du, dv, dw = d.row(u), d.row(v), d.row(w)
    ok = (du + dv == d(u, v)) & (du + dw == d(u, w)) & (dv + dw == d(v, w))
    return int(np.count_nonzero(ok))


class _Deferred(partial):
    """A classification field computed by calling it on its first read."""


@dataclass(frozen=True)
class GraphClassification:
    connected = True  # a disconnected graph is refused, never classified
    bipartite: bool
    partial_cube: bool
    median_status: str  # median | modular_not_median | not_modular
    witness: Optional[tuple]

    def __getattribute__(self, name):
        value = object.__getattribute__(self, name)
        if type(value) is _Deferred:
            value = value()
            object.__setattr__(self, name, value)
        return value

    @property
    def modular(self):
        return self.median_status in ("median", "modular_not_median")


MEDIAN = GraphClassification(True, True, "median", None)  # a median graph is a partial cube (Mulder 1978)


# roots x wedges evaluated per numpy step, below graph._BLOCK_ENTRIES: the
# quadrangle scan stops at the first failing block, and a larger block wastes
# work (median_classification of C_2000 on 2-CPU x86-64: 0.8 ms, 2.6 ms at 2^18)
_BLOCK_ELEMENTS = 1 << 16


def _common_neighbour_pairs(g):
    """Every wedge v - z - w (v < w), grouped by the pair (v, w).

    Returns (pv, pw, count, centre): the distinct pairs, how many common
    neighbours each has, and the centre z of every wedge in pair order, from
    one pass pairing each CSR slot with the later slots of its row.
    """
    n, nbr = g.n, g.nbr
    deg = np.diff(g.indptr)
    later = np.repeat(g.indptr[1:], deg) - 1 - np.arange(nbr.size)  # slots after p in its row
    first = np.repeat(np.arange(nbr.size), later)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    key = nbr[first] * n + nbr[second]
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    count = np.diff(np.r_[starts, key.size])
    return key[starts] // n, key[starts] % n, count, np.repeat(np.arange(n), deg)[first][order]


@dataclass(frozen=True)
class MedianCertificate:
    """What ``median_certificate`` found on one graph."""

    classes: Optional[ThetaClasses]  # the Theta classes of a certified median graph, else None
    bipartite: Optional[bool] = None  # the verdict on the BFS levels from vertex 0, None if not reached
    pairs: Optional[tuple] = None  # ``_common_neighbour_pairs``, None if not computed


_WEDGE_BYTES = 64  # peak bytes per wedge of _common_neighbour_pairs: eight int64 arrays
_SIDE_BYTES = 3  # peak bytes per (class, vertex) entry of the labelling and its checks
_TOUR_BYTES = 31  # peak bytes per vertex of _tree_labels over its sides from n = 3000: O(n) arrays and one row;
# below n = 3000 it takes more (80 bytes at n = 513, 48 at 1000, 31 at 2000), where the CLI charges no tree


def _edge_ids(g, x, y):
    """Index of the edge xy in ``g.eu``, ``g.ev`` for arrays of adjacent x, y."""
    return np.searchsorted(g.eu * g.n + g.ev, np.minimum(x, y) * g.n + np.maximum(x, y))


def _segment_blocks(bounds, width):
    """(lo, hi) runs of segments, segment i being rows bounds[i]:bounds[i + 1],
    of about graph._BLOCK_ENTRIES // width rows each, and one segment at least."""
    step, lo, last = max(1, graph._BLOCK_ENTRIES // width), 0, bounds.size - 1
    while lo < last:
        hi = max(lo + 1, int(np.searchsorted(bounds, bounds[lo] + step, side="right")) - 1)
        yield lo, hi
        lo = hi


def _bit_rows(bits):
    """An (r, c) bool matrix as (r, ceil(c / 64)) little-endian uint64 words:
    bit j & 63 of word j >> 6 of row i is bits[i, j]."""
    r, c = bits.shape
    out = np.zeros((r, 8 * -(-c // 64)), dtype=np.uint8)
    out[:, : -(-c // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return out.view("<u8")


def _isometric(g, edge_class, sides):
    """(ii) of ``median_certificate``: every vertex u is the only vertex on
    u's side of each class of an edge at u. Each side is a row of bits over
    the vertices, and u ANDs the rows of its CSR slots. Every vertex must
    have an edge: ``reduceat`` gives an empty CSR segment the next row."""
    n = g.n
    side1, every = _bit_rows(sides), _bit_rows(np.ones((1, n), dtype=bool))[0]
    u = np.repeat(np.arange(n), np.diff(g.indptr))
    c = edge_class[_edge_ids(g, u, g.nbr)]
    flip = ~sides[c, u]  # u lies on side 0: its row is the complement
    own = np.uint64(1) << (np.arange(n) & 63).astype(np.uint64)
    for lo, hi in _segment_blocks(g.indptr, every.size):
        a, b = g.indptr[lo], g.indptr[hi]
        rows = side1[c[a:b]]
        rows[flip[a:b]] ^= every
        meet = np.bitwise_and.reduceat(rows, g.indptr[lo:hi] - a, axis=0)
        v = np.arange(lo, hi)
        meet[v - lo, v >> 6] ^= own[v]  # u itself
        if meet.any():
            return False
    return True


def _boundaries_are_hulls(g, pairs, edge_class, sides):
    """(iii) of ``median_certificate``, read at the wedges x - u - y whose
    ends have one common neighbour: with c, j the classes of ux and uy, the
    ends of c's edges on u's side lie on u's side of j, and those of j's
    edges on u's side of c. The ends of each side of each class are one
    segment, and a label bit where their AND and OR differ is not constant."""
    pv, pw, count, centre = pairs
    one = count == 1
    if not one.any():
        return True
    d = sides.shape[0]
    labels = _bit_rows(sides.T)  # bit i of row v is sides[i, v]
    words = labels.shape[1]
    s = sides[edge_class, g.eu].astype(np.int64)
    segment = np.concatenate((2 * edge_class + s, 2 * edge_class + 1 - s))  # 2i + b: class i's ends on side b
    member = np.concatenate((g.eu, g.ev))[np.argsort(segment, kind="stable")]
    bounds = np.r_[0, np.cumsum(np.bincount(segment, minlength=2 * d))]
    mixed = np.empty((2 * d, words), dtype=np.uint64)
    for lo, hi in _segment_blocks(bounds, words):
        a = bounds[lo]
        rows = labels[member[a : bounds[hi]]]
        at = bounds[lo:hi] - a
        mixed[lo:hi] = np.bitwise_and.reduceat(rows, at, axis=0) ^ np.bitwise_or.reduceat(rows, at, axis=0)
    u = centre[(np.cumsum(count) - count)[one]]
    cls = edge_class[_edge_ids(g, u, np.stack((pv[one], pw[one])))]  # (2, wedges): the classes c, j
    other = cls[::-1]
    bit = mixed[2 * cls + sides[cls, u], other >> 6] >> (other & 63).astype(np.uint64)
    return not (bit & np.uint64(1)).any()


def _turned_away(n, m, pairs):
    """The wedge-pass rejects of ``median_certificate``: a pair with three
    common neighbours, or fewer squares than m - n + 1."""
    count = pairs[2]
    return (count >= 3).any() or m - n + 1 > np.count_nonzero(count == 2) // 2


def median_certificate(g, max_bytes=None):
    """A ``MedianCertificate`` of G, read from no distance matrix: its
    ``classes`` are the one-BFS Theta classes of a median graph, equal to
    ``theta_classes(g, d, method="crossing")``, and None when G is not
    median. It also carries the bipartite verdict and the wedge pairs it
    computed, for ``median_classification`` to reuse. With ``max_bytes``,
    a graph whose wedge pass and side matrix would together take more
    (``_WEDGE_BYTES`` a wedge, ``_SIDE_BYTES`` a class-vertex entry) is not
    certified, and neither is allocated.

    G must be connected. A tree (m = n - 1) is median: ``_tree_labels``
    labels it from its Euler tour, which also shows it connected, and with
    ``max_bytes`` it is charged (n - 1 + ``_TOUR_BYTES``) n bytes. Any other G
    must have one BFS from vertex 0 reach every vertex. It is turned away
    when the BFS levels show it not bipartite, and by the wedge pass
    (``_turned_away``), which runs before the BFS only where it takes no
    more memory than the n x n int32 matrix of the fallback, so a dense
    graph that is not bipartite builds no wedges. It
    turns G away when a pair has three common neighbours (an induced
    K_{2,3}), or when m - n + 1 exceeds its number of squares, each square
    counted at its two pairs with two common neighbours: a median graph is
    the 1-skeleton of a CAT(0) cube complex (Chepoi 2000), which is simply
    connected, so its squares span its cycle space. Then G must pass three
    checks:
    (i) ``_one_bfs_labels`` keeps the labelling of the BFS from vertex 0;
        each edge flips one coordinate.
    (ii) Each vertex u is the only vertex on u's side of every class of an
        edge at u (``_isometric``). So for u != v an edge uw flips a
        coordinate where u and v differ, and induction on the Hamming
        distance h gives d <= h; h <= d as an edge flips one coordinate.
        G is then a partial cube whose Theta classes are the coordinate
        classes, and its halfspaces are convex (Djokovic 1973).
    (iii) For every class C and side, the ends U of C's edges on that side
        equal their hull, the intersection of the halfspaces holding U
        (``_boundaries_are_hulls``). The hull is convex, so connected, and
        exceeds U iff an edge uy leaves U into it, i.e. U is not constant on
        the class j of uy; y differs from u only at j. Besides the edges
        across C, uy leaves U iff y has no edge in C, iff x (u's neighbour
        across C) and y have the one common neighbour u: a second would be
        y's neighbour across C, the vertex whose label is u's with C and j
        flipped.
    Passing proves G median. By (iii) each U is an intersection of convex
    halfspaces, so convex. Take d(u,v) = d(u,w) = k and a common neighbour
    x of v, w at k + 1, with xv in class C_v and xw in C_w. A u-w geodesic
    crosses C_v at an edge y1y2 with y2 on x's side. C_w separates x from
    y2 but not w from y2, so w lies in I(x, y2), inside U_xv (the ends of
    C_v on x's side), and w has a neighbour y across C_v. By the labels
    d(v,y) = 1 and d(u,y) = k - 1. So G satisfies the quadrangle
    condition and is modular, and a modular partial cube is median
    (``median_classification``). Conversely a median
    graph passes: (i) is the ``_one_bfs_labels`` docstring, (ii) holds on
    any partial cube (the first edge of a u-v geodesic), and its U sets are
    convex, and a convex set of a median graph is the intersection of the
    halfspaces holding it (Mulder 1978).
    """
    n, m = g.n, g.size
    if m == n - 1:
        if max_bytes is not None and (m + _TOUR_BYTES) * n > max_bytes:
            return MedianCertificate(None)
        labelled = _tree_labels(g)
        if labelled is None:
            return MedianCertificate(None)
        return MedianCertificate(ThetaClasses(n, g.eu, g.ev, *labelled), True)
    deg = np.diff(g.indptr)
    wedge_bytes = _WEDGE_BYTES * int((deg * (deg - 1) // 2).sum())
    if max_bytes is not None and wedge_bytes > max_bytes:
        return MedianCertificate(None)
    # the wedge pass turns most graphs away at once, and goes first where it
    # is no larger than the n x n int32 matrix the fallback builds; a larger
    # one waits until the BFS has shown G bipartite
    pairs = _common_neighbour_pairs(g) if 0 < wedge_bytes <= 4 * n * n else None
    if pairs is not None and _turned_away(n, m, pairs):
        return MedianCertificate(None, None, pairs)
    dist = bfs_distances(g, 0) if n else np.zeros(0, dtype=np.int32)
    if (dist < 0).any():
        return MedianCertificate(None, None, pairs)
    if not is_bipartite(g, dist)[0]:
        return MedianCertificate(None, False, pairs)
    if pairs is None:
        pairs = _common_neighbour_pairs(g)
        if _turned_away(n, m, pairs):
            return MedianCertificate(None, True, pairs)
    if max_bytes is not None:
        child = np.where(dist[g.eu] > dist[g.ev], g.eu, g.ev)
        classes = np.count_nonzero(np.bincount(child, minlength=n) == 1)  # the vertices that open a coordinate
        if wedge_bytes + _SIDE_BYTES * classes * n > max_bytes:
            return MedianCertificate(None, True, pairs)
    labelled = _one_bfs_labels(g, dist)
    if labelled is None:
        return MedianCertificate(None, True, pairs)
    edge_class, sides = labelled[:2]
    if not (_isometric(g, edge_class, sides) and _boundaries_are_hulls(g, pairs, edge_class, sides)):
        return MedianCertificate(None, True, pairs)
    return MedianCertificate(ThetaClasses(n, g.eu, g.ev, *labelled), True, pairs)


def _first_quadrangle_failure(a, pv, pw, count, centre):
    """Smallest root u at which the quadrangle condition fails, or None.

    The pair (v, w) fails at u when d(u,v) == d(u,w) and no common neighbour
    is closer to u; in a bipartite graph they then all lie one level further.
    """
    starts = np.cumsum(count) - count
    wedge_v = np.repeat(pv, count)
    block = max(1, _BLOCK_ELEMENTS // max(1, centre.size))
    for lo in range(0, a.shape[0], block):
        rows = a[lo : lo + block]
        closer = np.logical_or.reduceat(rows[:, centre] < rows[:, wedge_v], starts, axis=1)
        fails = ((rows[:, pv] == rows[:, pw]) & ~closer).any(axis=1)
        if fails.any():
            return lo + int(np.argmax(fails))
    return None


def _first_triple(a, start, zero):
    """Lexicographically first triple u < v < w with u >= start whose median
    count is 0 (zero=True) or at least 2 (zero=False).

    x is a median of (u, v, w) iff x lies in I(u,v) and I(u,w) and
    2 d(u,x) = d(u,v) + d(u,w) - d(v,w). Memory is O(n^2) per root u.
    """
    n = a.shape[0]
    for u in range(start, n - 2):
        au = a[u]
        interval = au + a == au[:, None]  # [v, x]: x lies on a u-v geodesic
        gromov2 = au + au[:, None] - a
        for v in range(u + 1, n - 1):
            x = np.flatnonzero(interval[v])
            medians = interval[v + 1 :, x] & (2 * au[x] == gromov2[v, v + 1 :, None])
            counts = medians.sum(axis=1)
            hit = np.flatnonzero(counts == 0 if zero else counts >= 2)
            if hit.size:
                return u, v, v + 1 + int(hit[0])
    raise RuntimeError("local median tests and triple search disagree")


def not_bipartite(d):
    """The classification of a connected graph that is not bipartite: not
    modular, no partial cube, and its witness the first triple with no
    median, which starts at root 0 (``median_classification``). The witness
    reads the distances ``d()`` on its first read."""
    return GraphClassification(False, False, "not_modular", _Deferred(lambda: _first_triple(d().a, 0, True)))


def median_classification(g, d=None, bipartite=None, pairs=None, cut=None):
    """Classify a connected graph by its median structure.

    Decided by local tests (Bandelt and Chepoi, "Metric graph theory and
    geometry: a survey", 2008): a graph is modular iff it is bipartite and
    satisfies the quadrangle condition, and a modular graph is median iff it
    has no induced K_{2,3}, i.e. no pair with three common neighbours. Graphs
    with n < 3 are classified median by convention. Every median graph gets
    ``MEDIAN``: it is a partial cube by theorem (Mulder 1978) and, like the
    generated median families, takes its crossing classes unchecked. On any
    graph outside a known family, read or generated, the CLI first tries
    ``median_certificate``, which gives a median graph ``MEDIAN`` and its
    classes with no distance matrix, so this runs only on the graphs it
    turns away, with its bipartite verdict and wedge pairs (``bipartite``,
    ``pairs``) where it computed them. ``cut`` is the zero-argument call
    that runs the certified cut pass, ``_cut_classes(g, d.a)`` by default;
    a caller that keeps its result for the Theta classes builds them once.

    The witness is the lexicographically first triple with no median
    (not_modular) or with at least two medians (modular_not_median). Every
    triple through a root u has a median iff no edge joins two vertices
    equidistant from u and the quadrangle condition holds at u (push a v-w
    geodesic down through the quadrangles), so the first zero-median triple
    starts at the first failing root, and at 0 when G is not bipartite.

    Three arguments spare work that decides nothing:
    - A wedge pair with N(v) in N(w) never fails the quadrangle condition: at
      a root u with d(u,v) = d(u,w) = k >= 1, the neighbour of v on a u-v
      geodesic is a common neighbour at distance k - 1. Only the other pairs
      are tested, so the first failing root is unchanged.
    - In a bipartite G, a pair with three common neighbours spans an induced
      K_{2,3}, isometric since its distances are 1 and 2. An isometric
      subgraph of a partial cube is one (Mulder 1980), and K_{2,3} is not.
      So a modular partial cube is exactly a median graph, and only a
      bipartite, non-modular G with no K_{2,3} needs the partial-cube check:
      the cut pass ``_cut_classes``, certified by the isometry check (ii)
      of ``median_certificate``, which passes iff G is a partial cube.
    - The witness, and that partial-cube verdict, are computed on first
      read; ``compute`` rarely reads them.
    """
    if d is None:
        d = _connected_distances(g, "median_classification")
    if g.n < 3:
        return MEDIAN
    if not (is_bipartite(g, d.row(0))[0] if bipartite is None else bipartite):  # levels from vertex 0
        return not_bipartite(lambda: d)
    pv, pw, count, centre = _common_neighbour_pairs(g) if pairs is None else pairs
    k23 = bool((count >= 3).any())
    deg = np.diff(g.indptr)
    keep = count < np.minimum(deg[pv], deg[pw])  # N(v) and N(w) not nested: see above
    root = _first_quadrangle_failure(d.a, pv[keep], pw[keep], count[keep], centre[np.repeat(keep, count)])
    if root is None and not k23:
        return MEDIAN
    status, root = ("modular_not_median", 0) if root is None else ("not_modular", root)
    witness = _Deferred(lambda: _first_triple(d.a, root, status == "not_modular"))
    if k23:
        return GraphClassification(True, False, status, witness)
    cut = cut or (lambda: _cut_classes(g, d.a))  # looked up when read
    return GraphClassification(True, _Deferred(lambda: cut() is not None), status, witness)
