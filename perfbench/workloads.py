"""Benchmark workloads: which CLI calls each one makes, and the seeded corpus.

The seed picks only the corpus's structure (random trees and chords, the
side of K_{a,m}, vertex labels); grid-cut has no seeded input. Vertex counts
and the family of every corpus graph are fixed by its position, so the work
per pass does not swing with the seed.
"""

import hashlib
import random
from math import isqrt
from pathlib import Path

WORKLOADS = ("grid-cut", "corpus-auto")

GRID_SPEC = "grid:100,100"
CORPUS_SIZE = 100
CORPUS_MIN_N = 20
CORPUS_MAX_N = 80
# auto picks: tree, grid -> cut; kbip -> modular; cycle, random -> brute
FAMILIES = ("tree", "grid", "kbip", "cycle", "random")


def corpus_plan():
    """(family, target vertex count) for each corpus position.

    Vertex counts are spread evenly over CORPUS_MIN_N..CORPUS_MAX_N, so
    about the top quarter reaches n = 64 and beyond, where brute switches to
    its blocked kernel.
    """
    span = CORPUS_MAX_N - CORPUS_MIN_N
    last = CORPUS_SIZE - 1
    return [
        (FAMILIES[i % len(FAMILIES)], CORPUS_MIN_N + round(span * i / last))
        for i in range(CORPUS_SIZE)
    ]


def _random_tree(rng, n, first=1):
    """Edges attaching each vertex first..n-1 to a uniformly chosen earlier one."""
    return [(rng.randrange(v), v) for v in range(first, n)]


def corpus_graph(family, target, rng):
    """(n, edges) of one corpus graph before its labels are shuffled."""
    if family == "tree":
        return target, _random_tree(rng, target)
    if family == "grid":
        rows = isqrt(target)
        cols = target // rows
        edges = []
        for i in range(rows):
            for j in range(cols):
                v = i * cols + j
                if j + 1 < cols:
                    edges.append((v, v + 1))
                if i + 1 < rows:
                    edges.append((v, v + cols))
        return rows * cols, edges
    if family == "kbip":
        a = rng.choice((2, 3))
        return target, [(i, j) for i in range(a) for j in range(a, target)]
    if family == "cycle":
        n = target - target % 2
        return n, [(i, (i + 1) % n) for i in range(n)]
    if family == "random":
        # a triangle keeps it non-bipartite; tree edges keep it connected
        edges = {(0, 1), (1, 2), (0, 2)}
        edges.update(_random_tree(rng, target, first=3))
        while len(edges) < target + target // 2:
            u, v = sorted(rng.sample(range(target), 2))
            edges.add((u, v))
        return target, sorted(edges)
    raise ValueError(f"unknown corpus family {family!r}")


def edge_list_text(n, edges, rng):
    """The edge-list file of a graph with shuffled labels and edge order."""
    label = list(range(n))
    rng.shuffle(label)
    lines = [f"{label[u]} {label[v]}" for u, v in edges]
    rng.shuffle(lines)
    return f"{n} {len(edges)}\n" + "\n".join(lines) + "\n"


def write_corpus(seed, directory):
    """Write the corpus for a seed; returns the file paths and a digest of their bytes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    paths = []
    for i, (family, target) in enumerate(corpus_plan()):
        rng = random.Random(f"{seed}:{i}")
        n, edges = corpus_graph(family, target, rng)
        text = edge_list_text(n, edges, rng)
        path = directory / f"g{i:03d}-{family}.txt"
        path.write_text(text, encoding="utf-8")
        digest.update(text.encode())
        paths.append(path)
    return paths, digest.hexdigest()


def argvs(workload, corpus_paths=None):
    """The CLI argument vectors of one pass of a workload."""
    if workload == "grid-cut":
        return [["compute", "--gen", GRID_SPEC, "--index", "sww", "--method", "cut"]]
    if workload == "corpus-auto":
        return [["compute", "--input", str(p), "--index", "sww"] for p in corpus_paths]
    raise ValueError(f"unknown workload {workload!r}")
