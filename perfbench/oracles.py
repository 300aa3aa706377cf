"""Reference SWW_3 values, computed apart from the code path the benchmark times.

- grid-cut: the closed form ``grid_sww3``.
- corpus-auto: distances from ``scipy.sparse.csgraph``, then a k = 3
  enumeration taking, for each triple, the minimum over branch vertices of
  the summed distance rows.

Run as a script it writes the values of one pass of a workload to a JSON
file, so that scipy and the enumeration never load into the timed process:

    PYTHONPATH=src python3 perfbench/oracles.py --workload grid-cut --out o.json
"""

import argparse
import json
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

import workloads


def read_edge_list(path):
    """(n, edges) of an edge-list file: an ``n m`` header, then ``u v`` lines."""
    rows = [line.split() for line in Path(path).read_text(encoding="utf-8").splitlines()]
    rows = [r for r in rows if r and not r[0].startswith("#")]
    n, m = map(int, rows[0])
    edges = [tuple(map(int, r)) for r in rows[1:]]
    if len(edges) != m:
        raise ValueError(f"{path}: header declares {m} edges, found {len(edges)}")
    return n, edges


def distances(n, edges):
    """All-pairs distances of a connected graph as an int64 matrix."""
    u, v = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    adj = coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n)).tocsr()
    d = shortest_path(adj, directed=False, unweighted=True)
    if not np.isfinite(d).all():
        raise ValueError("graph is disconnected")
    return d.astype(np.int64)


def _exact_div(num, den):
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return q


def enumerated_sw3_sww3(d):
    """(SW_3, SWW_3) by enumerating every triple u < v < w.

    The Steiner distance of a triple is min over branch vertices x of
    d(u,x) + d(v,x) + d(w,x).
    """
    n = len(d)
    total = total_sq = 0
    for u in range(n - 2):
        pair = d[u] + d[u + 1 :]  # row i: d(u,.) + d(u+1+i,.)
        tri = (pair[:, None, :] + d[None, u + 1 :, :]).min(axis=2)
        upper = tri[np.triu_indices(n - u - 1, k=1)]  # v < w
        total += int(upper.sum())
        total_sq += int((upper * upper).sum())
    return total, _exact_div(total + total_sq, 2)


def oracle_values(workload, corpus_paths=()):
    """The SWW_3 value each CLI call of one pass must print."""
    from steiner_indices import grid_sww3, parse_descriptor

    if workload == "grid-cut":
        m, n = parse_descriptor(workloads.GRID_SPEC).params
        return [grid_sww3(m, n)]
    if workload == "corpus-auto":
        return [enumerated_sw3_sww3(distances(*read_edge_list(p)))[1] for p in corpus_paths]
    raise ValueError(f"unknown workload {workload!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--corpus", nargs="*", default=(), help="corpus files, in order")
    args = parser.parse_args()
    values = oracle_values(args.workload, args.corpus)
    Path(args.out).write_text(json.dumps(values), encoding="utf-8")


if __name__ == "__main__":
    main()
