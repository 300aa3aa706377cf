"""Graph generators for test corpora, plus closed formulas for complete
graphs, paths, and grids.

Generator descriptors are strings like "path:4", "cycle:6", "complete:5",
"hypercube:3", "grid:3,3", "tree:7,10" (seed, vertex count).
"""

import heapq
import random
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import PreconditionError, exact_div
from .graph import Graph
from .steiner import SteinerHosoya
from .theta import MEDIAN

KINDS = ("path", "cycle", "complete", "hypercube", "grid", "tree")


@dataclass(frozen=True)
class GeneratorDescriptor:
    kind: str
    params: tuple

    def __str__(self):
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


def parse_descriptor(text):
    kind, sep, rest = text.partition(":")
    if not sep or kind not in KINDS:
        raise ValueError(f"unknown generator descriptor {text!r}; kinds: {', '.join(KINDS)}")
    try:
        params = tuple(int(p) for p in rest.split(","))
    except ValueError:
        raise ValueError(f"non-integer parameter in descriptor {text!r}") from None
    expected = {"grid": 2, "tree": 2}.get(kind, 1)
    if len(params) != expected:
        raise ValueError(f"{kind} descriptor takes {expected} parameter(s), got {len(params)}")
    return GeneratorDescriptor(kind, params)


def _prufer_decode(seq, n):
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    leaves = sorted(v for v in range(n) if degree[v] == 1)
    heapq.heapify(leaves)
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return edges


_SMALLEST = {"path": 1, "cycle": 3, "complete": 1, "tree": 1}  # least n of the kinds whose last parameter is n


def order_size(desc):
    """(n, m) of the graph ``generate(desc)`` builds, from the parameters
    alone; raises PreconditionError on parameters that have no such graph."""
    kind, params = desc.kind, desc.params
    if kind == "hypercube":
        (k,) = params
        if not 0 <= k <= 16:
            raise PreconditionError("hypercube needs 0 <= k <= 16")
        return 1 << k, k * (1 << k) // 2
    if kind == "grid":
        m, n = params
        if m < 1 or n < 1:
            raise PreconditionError("grid needs m, n >= 1")
        return m * n, m * (n - 1) + (m - 1) * n
    if kind not in _SMALLEST:
        raise ValueError(f"unknown generator kind {kind!r}")
    n = params[-1]  # tree:seed,n
    if n < _SMALLEST[kind]:
        raise PreconditionError(f"{kind} needs n >= {_SMALLEST[kind]}")
    return n, {"path": n - 1, "tree": n - 1, "cycle": n, "complete": n * (n - 1) // 2}[kind]


def generate(desc):
    """Build the graph described by a GeneratorDescriptor."""
    kind, params = desc.kind, desc.params
    n, _ = order_size(desc)  # refuses what has no graph
    if kind == "path":
        return Graph.from_edges(n, np.c_[np.arange(n - 1), np.arange(1, n)])
    if kind == "cycle":
        return Graph.from_edges(n, np.c_[np.arange(n), (np.arange(n) + 1) % n])
    if kind == "complete":
        return Graph.from_edges(n, np.transpose(np.triu_indices(n, 1)))
    if kind == "hypercube":
        (k,) = params
        v, b = np.nonzero((np.arange(n)[:, None] >> np.arange(k)) % 2 == 0)  # bit b of v is clear
        return Graph.from_edges(n, np.c_[v, v | (1 << b)])
    if kind == "grid":
        ids = np.arange(n).reshape(params)
        u = np.r_[ids[:, :-1].ravel(), ids[:-1].ravel()]
        v = np.r_[ids[:, 1:].ravel(), ids[1:].ravel()]
        return Graph.from_edges(n, np.c_[u, v])
    if n == 1:  # tree
        return Graph.from_edges(1, [])
    rng = random.Random(params[0])
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return Graph.from_edges(n, _prufer_decode(seq, n))


def cartesian_factors(desc):
    """The factors of a product family as descriptors, or None for any other
    kind: grid:m,n is path:m x path:n (vertex (i, j) is i * n + j), and
    hypercube:k is k copies of path:2."""
    if desc.kind == "grid":
        return tuple(GeneratorDescriptor("path", (p,)) for p in desc.params)
    if desc.kind == "hypercube":
        return (GeneratorDescriptor("path", (2,)),) * desc.params[0]
    return None


def family_classification(desc):
    """Known classification for generated families, or None.

    Paths, trees, grids, and hypercubes are median graphs (hence modular
    partial cubes); K_1 and K_2 trivially so. Everything else must be
    classified by computation.
    """
    if desc.kind in ("path", "tree", "grid", "hypercube") or (desc.kind == "complete" and desc.params[0] <= 2):
        return MEDIAN
    return None


def complete_formulas(n, k):
    """(SH_k, SW_k, SWW_k) of the complete graph K_n in closed form."""
    if not 1 <= k <= n:
        raise PreconditionError(f"complete formulas need 1 <= k <= n, got k={k}, n={n}")
    c = comb(n, k)
    sh = SteinerHosoya(k=k, coeffs={k - 1: c})
    sw = (k - 1) * c
    sww = comb(k, 2) * c
    return sh, sw, sww


def path_formulas(n, k):
    """(SH_k, SW_k, SWW_k) of the path P_n in closed form.

    d_k(P_n, j) = (n - j) * C(j-1, k-2) for j in k-1 .. n-1.
    """
    if not 2 <= k <= n:
        raise PreconditionError(f"path formulas need 2 <= k <= n, got k={k}, n={n}")
    coeffs = {}
    for j in range(k - 1, n):
        c = (n - j) * comb(j - 1, k - 2)
        if c:
            coeffs[j] = c
    sh = SteinerHosoya(k=k, coeffs=coeffs)
    sw = (k - 1) * comb(n + 1, k + 1)
    sww = comb(k, 2) * comb(n + 2, k + 2)
    return sh, sw, sww


def grid_sw3(m, n):
    """Closed form for SW_3 of the grid P_m x P_n, m, n >= 2."""
    if m < 2 or n < 2:
        raise PreconditionError("grid SW_3 formula needs m, n >= 2; use path formulas for 1 x n")
    poly = (
        m**4 * n**3 + m**3 * n**4 - 3 * m**3 * n**2 - 3 * m**2 * n**3
        + 2 * m**2 * n + 2 * m * n**2
    )
    return exact_div(poly, 12)


def grid_sww3(m, n):
    """Closed form for SWW_3 of the grid P_m x P_n.

    Main polynomial for m, n >= 3; a separate polynomial for the 2 x n strip
    with n >= 3 (arguments are swapped so the 2 comes first). Other shapes are
    refused: use path formulas for 1 x n and the cut method or brute force for
    the 2 x 2 grid.
    """
    if m > n:
        m, n = n, m
    if m >= 3:
        poly = (
            9 * m**5 * n**3 + 15 * m**4 * n**4 + 9 * m**3 * n**5
            + 15 * m**4 * n**3 + 15 * m**3 * n**4
            - 30 * m**4 * n**2 - 50 * m**3 * n**3 - 30 * m**2 * n**4
            + 26 * m**3 * n - 45 * m**3 * n**2 - 45 * m**2 * n**3
            + 45 * m**2 * n**2 + 26 * m * n**3
            + 30 * m**2 * n + 30 * m * n**2 - 20 * m * n
        )
        return exact_div(poly, 360)
    if m == 2 and n >= 3:
        poly = 3 * n**5 + 10 * n**4 - 25 * n**2 + 12 * n
        return exact_div(poly, 15)
    raise PreconditionError(
        f"no closed SWW_3 formula for grid {m} x {n}; "
        "use path formulas (1 x n) or the cut method (2 x 2)"
    )
