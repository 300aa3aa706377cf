"""Shared graph builders and slow oracles used across the test modules."""

import random
from itertools import combinations, permutations
from math import comb

import networkx as nx
import numpy as np

from steiner_indices import (
    Graph,
    GeneratorDescriptor,
    SteinerHosoya,
    count_medians,
    generate,
    is_bipartite,
    steiner_distance,
    theta_related,
)
from steiner_indices.graph import is_connected
from steiner_indices.steiner import exact_div


def path(n):
    return generate(GeneratorDescriptor("path", (n,)))


def cycle(n):
    return generate(GeneratorDescriptor("cycle", (n,)))


def complete(n):
    return generate(GeneratorDescriptor("complete", (n,)))


def hypercube(k):
    return generate(GeneratorDescriptor("hypercube", (k,)))


def grid(m, n):
    return generate(GeneratorDescriptor("grid", (m, n)))


def tree(seed, n):
    return generate(GeneratorDescriptor("tree", (seed, n)))


def star(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def chain_graph(chains):
    """Hubs 0..h-1 joined by chains (a, b, length): a path of ``length`` edges
    from hub a to hub b through new vertices, or to a new end vertex when b is
    None. (0, 0, k) closes a k-cycle at hub 0."""
    n = 1 + max(max(a, -1 if b is None else b) for a, b, _ in chains)
    edges = []
    for a, b, length in chains:
        walk = [a, *range(n, n + length - (b is not None))]
        n += len(walk) - 1
        walk += [] if b is None else [b]
        edges += zip(walk, walk[1:])
    return Graph.from_edges(n, edges)


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def prism(k):
    """Even prism: cycle C_k times K_2. Partial cube when k is even."""
    edges = []
    for i in range(k):
        j = (i + 1) % k
        edges.append((i, j))
        edges.append((k + i, k + j))
        edges.append((i, k + i))
    return Graph.from_edges(2 * k, sorted(tuple(sorted(e)) for e in edges))


def cartesian_product(g, h):
    """G x H, vertex (u, v) numbered u * h.n + v."""
    u, v = np.arange(g.n)[:, None], np.arange(h.n)
    g_edges = (g.eu[:, None] * h.n + v, g.ev[:, None] * h.n + v)  # one copy of each edge of g per v
    h_edges = (u * h.n + h.eu, u * h.n + h.ev)
    ends = [np.concatenate((a.ravel(), b.ravel())) for a, b in zip(g_edges, h_edges)]
    return Graph.from_edges(g.n * h.n, np.c_[ends[0], ends[1]])


def hung_k23(m):
    """The m x m grid with a K_{2,3} hung at its last vertex: hubs m*m - 1 and
    m*m, leaves m*m + 1 .. m*m + 3. Modular but not median, and its first
    triple with two medians is the three leaves."""
    h = m * m
    g = grid(m, m)
    return Graph.from_edges(h + 4, g.edges + tuple((hub, leaf) for hub in (h - 1, h) for leaf in range(h + 1, h + 4)))


def edge_list_text(g):
    return f"{g.n} {g.size}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)


def random_connected_graph(rng, n, extra_edges):
    """Random labeled tree plus extra random edges; always connected."""
    t = tree(rng.randrange(10**9), n)
    edges = set(t.edges)
    candidates = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    return Graph.from_edges(n, sorted(edges))


def random_bipartite_graph(rng, n, extra_edges):
    """Random labeled tree plus extra edges across its 2-coloring; connected, bipartite."""
    t = tree(rng.randrange(10**9), n)
    _, color = is_bipartite(t)
    edges = set(t.edges)
    candidates = [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if color[i] != color[j] and (i, j) not in edges
    ]
    rng.shuffle(candidates)
    edges.update(candidates[:extra_edges])
    return Graph.from_edges(n, sorted(edges))


def induced_subgraph(g, keep):
    """Subgraph induced by the vertex set keep, relabeled 0..len(keep)-1 in order."""
    index = {v: i for i, v in enumerate(sorted(keep))}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return Graph.from_edges(len(index), edges)


def classification_corpus(seed=3):
    """Seeded mix of small connected graphs covering all three median statuses.

    Random connected and random bipartite graphs, connected induced subgraphs
    of Q3-Q5, K_{2,m} and K_{3,m}, odd and even cycles, trees, grids, prisms.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(180):
        n = rng.randrange(3, 12)
        out.append(random_connected_graph(rng, n, rng.randrange(0, n)))
    for _ in range(220):
        n = rng.randrange(3, 14)
        out.append(random_bipartite_graph(rng, n, rng.randrange(0, n)))
    for k in (3, 4, 5):
        q = hypercube(k)
        found = 0
        while found < 30:
            h = induced_subgraph(q, rng.sample(range(2**k), rng.randrange(3, min(2**k, 20) + 1)))
            if is_connected(h):
                out.append(h)
                found += 1
    out += [complete_bipartite(a, m) for a in (2, 3) for m in range(1, 8)]
    out += [cycle(k) for k in range(3, 14)]
    out += [tree(s, 3 + s % 12) for s in range(12)]
    out += [grid(a, b) for a in range(1, 5) for b in range(2, 6)]
    out += [prism(k) for k in range(3, 9)]
    return out


def wedge_pairs_per_vertex(adjacency):
    """(pv, pw, count, centre) of theta._common_neighbour_pairs, built one
    centre vertex at a time: the oracle for its flattened enumeration."""
    n = len(adjacency)
    vs, ws, zs = [], [], []
    for z, nb in enumerate(adjacency):
        if len(nb) < 2:
            continue
        i, j = np.triu_indices(len(nb), 1)
        nb = np.asarray(nb, dtype=np.int64)
        vs.append(nb[i])
        ws.append(nb[j])
        zs.append(np.full(i.size, z, dtype=np.int64))
    key = np.concatenate(vs) * n + np.concatenate(ws)
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    count = np.diff(np.r_[starts, key.size])
    return key[starts] // n, key[starts] % n, count, np.concatenate(zs)[order]


def theta_star_oracle(g, d):
    """Theta* from its definition, as (edge class, sides).

    The classes are the connected components of ``theta_related`` over all
    edge pairs, numbered by their smallest edge. The sides are the two
    components of G - C for each class C, side 0 holding vertex 0, or None
    when some class does not leave exactly two.
    """
    edges = list(zip(g.eu.tolist(), g.ev.tolist()))
    related = nx.Graph()
    related.add_nodes_from(range(len(edges)))
    related.add_edges_from(
        (i, j) for i, j in combinations(range(len(edges)), 2) if theta_related(d, edges[i], edges[j])
    )
    classes = sorted(sorted(c) for c in nx.connected_components(related))
    edge_class = np.empty(len(edges), dtype=np.int64)
    sides = np.zeros((len(classes), g.n), dtype=bool)
    for k, c in enumerate(classes):
        edge_class[c] = k
    for k, c in enumerate(classes):
        rest = nx.Graph(edges)
        rest.add_nodes_from(range(g.n))
        rest.remove_edges_from(edges[j] for j in c)
        parts = list(nx.connected_components(rest))
        if len(parts) != 2:
            return edge_class, None
        sides[k, list(parts[0] if 0 in parts[1] else parts[1])] = True
    return edge_class, sides


def all_parent_labels(g, dist):
    """theta._one_bfs_labels with each label the OR of all BFS parents' labels,
    one level at a time by np.logical_or.reduceat: the oracle for its
    two-parent rule. Returns (edge class, sides) or None, as that function does."""
    eu, ev = g.eu, g.ev
    down, up = dist[eu] != dist[ev], dist[eu] > dist[ev]
    child = np.where(up, eu, ev)[down]
    parent = np.where(up, ev, eu)[down][np.lexsort((child, dist[child]))]
    order = np.argsort(dist, kind="stable")
    npar = np.bincount(child, minlength=g.n)[order]
    start = np.r_[0, np.cumsum(npar)]  # parents of order[i]: parent[start[i]:start[i + 1]]
    opens = npar == 1
    coord = np.cumsum(opens) - 1
    labels = np.zeros((g.n, int(opens.sum())), dtype=bool)
    level = np.searchsorted(dist[order], np.arange(1, dist.max(initial=0) + 2))
    for lo, hi in zip(level[:-1].tolist(), level[1:].tolist()):
        rows = labels[parent[start[lo] : start[hi]]]
        labels[order[lo:hi]] = np.logical_or.reduceat(rows, start[lo:hi] - start[lo], axis=0)
        new = lo + np.flatnonzero(opens[lo:hi])
        labels[order[new], coord[new]] = True
    flip = labels[eu] != labels[ev]
    if (flip.sum(axis=1) != 1).any():
        return None
    flips = np.nonzero(flip)[1]  # one True per row, in row order
    coords = sorted(set(flips.tolist()), key=lambda c: int(np.argmax(flips == c)))  # by first edge
    rank = {c: i for i, c in enumerate(coords)}
    return np.array([rank[c] for c in flips.tolist()], dtype=np.int64), labels.T[coords]


def queue_bfs_distances(g, source):
    """Distances from one source by a plain-Python level-synchronous BFS over
    the adjacency tuples, -1 if unreachable: the oracle for graph._bfs."""
    dist = [-1] * g.n
    dist[source] = 0
    frontier, depth = [source], 0
    while frontier:
        depth += 1
        nxt = []
        for x in frontier:
            for w in g.adjacency[x]:
                if dist[w] < 0:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
    return dist


def queue_two_colouring(g):
    """(flag, colors or None) by a BFS queue from each component's smallest
    vertex: the oracle for theta.is_bipartite."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = [start]
        for u in queue:
            for w in g.adjacency[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False, None
    return True, color


def triple_scan_classification(d):
    """(median_status, witness) by counting the medians of every vertex triple.

    The definition-level oracle for median_classification: the first triple
    in lexicographic order with no median, else the first with two or more.
    """
    status, witness = "median", None
    for u, v, w in combinations(range(d.n), 3):
        count = count_medians(d, u, v, w)
        if count == 0:
            return "not_modular", (u, v, w)
        if count >= 2 and witness is None:
            status, witness = "modular_not_median", (u, v, w)
    return status, witness


def median_count_classification(d):
    """(median_status, witness) as triple_scan_classification gives it, from
    one (n, n, n) array of median counts built from the definition: x is a
    median of (u, v, w) iff it lies on a geodesic between each two of them."""
    a = d.a
    on = a[:, None, :] + a[None, :, :] == a[:, :, None]  # [u, v, x]: d(u,x) + d(x,v) == d(u,v)
    counts = (on[:, :, None, :] & on[:, None, :, :] & on[None, :, :, :]).sum(axis=3)
    u, v, w = np.indices(counts.shape)
    triples = (u < v) & (v < w)
    for status, hit in (("not_modular", counts == 0), ("modular_not_median", counts >= 2)):
        first = np.argwhere(triples & hit)  # in lexicographic order
        if first.size:
            return status, tuple(first[0].tolist())
    return "median", None


def enumerated_hosoya(g, d, k):
    """Steiner k-Hosoya polynomial by one steiner_distance call per k-subset.

    The plain-enumeration oracle for the vectorized k = 3 kernel.
    """
    coeffs = {}
    for s in combinations(range(g.n), k):
        m = steiner_distance(g, d, s)
        coeffs[m] = coeffs.get(m, 0) + 1
    return SteinerHosoya(k=k, coeffs=coeffs)


def enumerated_indices(g, d, k):
    """(SW_k, SWW_k) by their definition: the sums of d(S) and of (d(S) + d(S)^2) / 2
    over all k-subsets S, one steiner_distance call each."""
    ds = [steiner_distance(g, d, s) for s in combinations(range(g.n), k)]
    return sum(ds), sum(m * (m + 1) // 2 for m in ds)


def small_corpus(count=30, max_n=9, seed=20240815):
    """Seeded corpus of random connected graphs, 4 <= n <= max_n."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(4, max_n + 1)
        extra = rng.randrange(0, n)
        out.append(random_connected_graph(rng, n, extra))
    return out


def tree_corpus(count=50, max_n=14, seed=7):
    """Seeded corpus of random labeled trees, 3 <= n <= max_n."""
    out = []
    for s in range(count):
        n = 3 + (s * 5) % (max_n - 2)
        out.append(tree(seed + s, n))
    return out


def naive_sum_cross(d):
    """O(n^3) triple loop for the ordered cross moment; the test oracle."""
    n = d.n
    total = 0
    for u, v, w in permutations(range(n), 3):
        total += d(u, v) * d(u, w)
    return total


def naive_ordered_square_sum(d):
    """Sum of d(u,v)^2 over ordered distinct triples, by direct enumeration."""
    n = d.n
    total = 0
    for u, v, w in permutations(range(n), 3):
        total += d(u, v) ** 2
    return total


def brute_steiner_by_subtrees(g, d, s):
    """Steiner distance by enumerating vertex supersets and spanning trees.

    Independent of the production code paths: for each superset of s, check
    connectivity of the induced subgraph; minimal tree size is |superset| - 1.
    Exponential; only for tiny graphs.
    """
    s = tuple(sorted(s))
    rest = [v for v in range(g.n) if v not in s]
    edge_set = set(g.edges)
    best = None
    for r in range(len(rest) + 1):
        if best is not None and len(s) + r - 1 >= best:
            break
        for extra in combinations(rest, r):
            verts = set(s) | set(extra)
            if _induced_connected(edge_set, verts):
                size = len(verts) - 1
                if best is None or size < best:
                    best = size
        if best is not None and best == len(s) + r - 1:
            break
    return best


def _induced_connected(edge_set, verts):
    verts = set(verts)
    if not verts:
        return True
    start = next(iter(verts))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in verts:
            if v not in seen and ((u, v) in edge_set or (v, u) in edge_set):
                seen.add(v)
                stack.append(v)
    return seen == verts


# The paper's per-class and per-pair cut contributions. f1 and f2 read the side
# sizes (n0, n1) of one Theta-class, g1 and g2 the quadrant sizes
# (n00, n01, n10, n11) of one class pair.


def paper_f1(n0, n1):
    return n0 * n1


def paper_f2(n0, n1):
    return n0 * n1 * (n1 - 1) + n1 * n0 * (n0 - 1)


def paper_g1(n00, n01, n10, n11):
    return n00 * n11 + n01 * n10


def paper_g2(n00, n01, n10, n11):
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


def quadrants(tc, i, j):
    """(n00, n01, n10, n11) of classes i and j, counted from their side rows."""
    si, sj = tc.sides[i], tc.sides[j]
    return tuple(
        int(np.count_nonzero((si == a) & (sj == b))) for a in (False, True) for b in (False, True)
    )


def quadrant_histogram(tc):
    """Quadrant sizes of all class pairs i < j, tallied one pair at a time;
    the oracle for theta.pair_counts."""
    hist = np.zeros(tc.n + 1, dtype=np.int64)
    for i, j in combinations(range(tc.class_count), 2):
        for size in quadrants(tc, i, j):
            hist[size] += 1
    return hist


def gram_quadrant_histogram(tc):
    """Quadrant sizes of all class pairs i < j from the dense int64 Gram of
    the side matrix, every pair in one step: the vectorized oracle for
    theta.pair_counts on corpora too large for quadrant_histogram."""
    x = tc.sides.astype(np.int64)
    a = x.sum(axis=1)
    i, j = np.triu_indices(a.size, 1)
    n11 = (x @ x.T)[i, j]
    quadrants = np.concatenate((tc.n - a[i] - a[j] + n11, a[j] - n11, a[i] - n11, n11))
    return np.bincount(quadrants, minlength=tc.n + 1)


def paper_cut_sums(tc):
    """The paper's aggregate sums (S1, S2, S3, S4): f1 and f2 over classes,
    g1 and g2 over class pairs."""
    s1 = sum(paper_f1(n0, n1) for n0, n1 in tc.side_counts)
    s2 = sum(paper_f2(n0, n1) for n0, n1 in tc.side_counts)
    pairs = [quadrants(tc, i, j) for i, j in combinations(range(tc.class_count), 2)]
    s3 = sum(paper_g1(*q) for q in pairs)
    s4 = sum(paper_g2(*q) for q in pairs)
    return s1, s2, s3, s4


def paper_moments(tc):
    """(W, sum of squared distances, ordered cross moment) of a partial cube."""
    s1, s2, s3, s4 = paper_cut_sums(tc)
    return s1, s1 + 2 * s3, s2 + 2 * s4


def paper_sw3_sww3(tc):
    """(SW_3, SWW_3) of a modular partial cube by the paper's cut formulas:
    SW_3 = (n-2)/2 S1 and SWW_3 = (3n-6)/8 S1 + (n-2)/4 S3 + S2/8 + S4/4."""
    n = tc.n
    s1, s2, s3, s4 = paper_cut_sums(tc)
    sw3 = exact_div((n - 2) * s1, 2)
    return sw3, exact_div((3 * n - 6) * s1 + 2 * (n - 2) * s3 + s2 + 2 * s4, 8)


def split_count_sums(tc, k):
    """Sums of c(S) and C(c(S) + 1, 2) over all k-subsets S, with c(S) the
    number of Theta-classes whose sides both meet S, one subset at a time.

    A Steiner tree crosses every class that splits S, so these are lower
    bounds of SW_k and SWW_k, and equal them wherever d(S) = c(S).
    """
    sw = sww = 0
    for s in combinations(range(tc.n), k):
        split = tc.sides[:, list(s)]
        c = int(np.count_nonzero(split.any(axis=1) & ~split.all(axis=1)))
        sw += c
        sww += comb(c + 1, 2)
    return sw, sww
