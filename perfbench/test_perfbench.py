"""Tests of the benchmark's own parts: oracles, corpus, spans, metric names."""

import json
import random
import sys
from math import isclose
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from steiner_indices import (  # noqa: E402
    Graph,
    all_pairs_distances,
    generate,
    grid_sww3,
    parse_descriptor,
    steiner_k_indices_brute,
)


def _random_graph(seed, n):
    return Graph.from_edges(*workloads.corpus_graph("random", n, random.Random(seed)))


SMALL = {
    "tree": generate(parse_descriptor("tree:3,12")),
    "grid": generate(parse_descriptor("grid:3,4")),
    "k23": Graph.from_edges(5, [(i, j) for i in range(2) for j in range(2, 5)]),
    "c6": generate(parse_descriptor("cycle:6")),
    "random": _random_graph(5, 11),
}


def _brute(g):
    return steiner_k_indices_brute(g, all_pairs_distances(g), 3)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_enumeration_oracle_matches_brute(name):
    g = SMALL[name]
    assert oracles.enumerated_sw3_sww3(oracles.distances(g.n, g.edges)) == _brute(g)


def test_grid_closed_form_matches_brute():
    assert grid_sww3(3, 4) == _brute(SMALL["grid"])[1]


def test_scipy_distances_match_package():
    g = SMALL["random"]
    assert (oracles.distances(g.n, g.edges) == all_pairs_distances(g).a).all()


def _corpus_bytes(seed, directory):
    paths, digest = workloads.write_corpus(seed, directory)
    return [p.read_bytes() for p in paths], digest


def test_corpus_is_determined_by_seed(tmp_path):
    first, digest1 = _corpus_bytes(7, tmp_path / "a")
    again, digest2 = _corpus_bytes(7, tmp_path / "b")
    other, digest3 = _corpus_bytes(8, tmp_path / "c")
    assert first == again and digest1 == digest2
    assert first != other and digest1 != digest3
    assert len(first) == workloads.CORPUS_SIZE


def test_corpus_sizes_and_families_do_not_depend_on_seed(tmp_path):
    shapes = []
    for seed in (1, 2):
        paths, _ = workloads.write_corpus(seed, tmp_path / str(seed))
        shapes.append([(p.name, oracles.read_edge_list(p)[0]) for p in paths])
    assert shapes[0] == shapes[1]
    sizes = [n for _, n in shapes[0]]
    assert min(sizes) == workloads.CORPUS_MIN_N and max(sizes) == workloads.CORPUS_MAX_N


def test_span_self_time_plus_children_is_duration():
    from steiner_indices import cli

    argvs = [["compute", "--gen", "tree:1,30", "--index", "sww"],
             ["compute", "--gen", "cycle:8", "--index", "sww"]]
    with tracing.Tracer() as tracer:
        for argv in argvs:
            assert cli.main(argv) == 0
    spans = tracer.spans
    assert {"cli.main", "theta.theta_classes", "theta.median_classification"} <= {
        s.name for s in spans}
    own = tracing.self_times(spans)
    for i, s in enumerate(spans):
        children = sum(c.end - c.start for c in spans if c.parent == i)
        assert own[i] >= 0
        assert isclose(own[i] + children, s.end - s.start, rel_tol=1e-9, abs_tol=1e-12)
    assert not hasattr(cli.main, "__wrapped__")  # the tracer restored the originals


def test_tracer_counts_crossing_bfs_and_pairs():
    from steiner_indices import cli

    with tracing.Tracer() as tracer:
        assert cli.main(["compute", "--gen", "grid:4,5", "--index", "sww", "--method", "cut"]) == 0
    d = 3 + 4  # Theta-classes of a 4 x 5 grid
    assert tracer.counts["crossing_bfs"] == 2 * d
    assert tracer.counts["class_pairs"] == d * (d - 1) // 2


def test_triple_rank_matches_combinations_order():
    from itertools import combinations

    for rank, triple in enumerate(combinations(range(7), 3)):
        assert tracing._triple_rank(7, triple) == rank


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER_NAMES)
    assert [m["unit"] for m in spec["per_layer"]] == [
        run.per_layer_unit(n) for n in run.PER_LAYER_NAMES]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_memory_tracer_peaks_nest_and_sampler_stops():
    from steiner_indices import cli

    tracer = tracing.Tracer(memory=True)
    with tracer:
        assert cli.main(["compute", "--gen", "grid:15,15", "--index", "w", "--method", "brute"]) == 0
        sampler = tracer._sampler
    assert not sampler.is_alive()
    assert {"cli.main", "graph.all_pairs_distances"} <= {s.name for s in tracer.spans}
    for s in tracer.spans:
        assert s.peak_bytes >= s.start_bytes > 0
        if s.parent >= 0:
            assert tracer.spans[s.parent].peak_bytes >= s.peak_bytes
