"""Benchmark of the steiner-indices command line on two fixed workloads.

    python3 perfbench/run.py --workload grid-cut --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process, one client, closed loop: each ``compute`` call goes
through ``steiner_indices.cli.main`` after the previous one returned, and
every printed SWW_3 is checked against a reference value computed before
timing (see ``oracles.py``).

--trace 0 reports the end-to-end metrics. --trace 1 reports per-layer
metrics from spans around the package's public functions (see
``tracing.py``): first one pass sampling resident memory per span, whose
times are not reported, then one untraced pass, then traced passes for the
rest of the time, alternating with untraced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Run records, span
dumps, corpus files and cached reference values go to ``perfbench/out/``.
The exit code is nonzero when any call fails or prints a wrong value.
"""

import argparse
import contextlib
import importlib.metadata
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# numpy's BLAS pool would otherwise size itself to the machine
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_FIRST, SETUP_PER_PASS = 3, 2
SETUP_ARGV = ["compute", "--gen", "grid:3,3", "--index", "sww", "--method", "cut"]
SETUP_CODE = f"import sys; from steiner_indices.cli import main; sys.exit(main({SETUP_ARGV!r}))"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "graphs_per_s": "1/s",
    "graph_p50_s": "s",
    "graph_p90_s": "s",
    "peak_rss_mb": "MB",
}
# the corpus files carry no descriptor, so the closed formulas never run
METHODS = ("cut", "modular", "brute")
PER_LAYER_NAMES = (
    list(tracing.layer_times([]))
    + list(tracing.layer_peaks([]))
    + [f"count.{c}" for c in tracing.COUNTS]
    + [f"count.method.{m}" for m in METHODS]
    + ["ratio.classified_then_brute", "trace.wall_s", "trace.overhead_s"]
)


def per_layer_unit(name):
    if name.endswith(".peak_mb"):
        return "MB"
    if name.startswith("count."):
        return "count"
    if name.startswith("ratio."):
        return "ratio"
    return "s"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def reference_values(workload, seed, key, corpus_paths):
    """Reference SWW_3 per call of a pass, cached per workload and seed.

    They are computed in a child process so that scipy and the enumeration
    never load into the process whose memory and time are measured.
    """
    cache = OUT / f"oracle-{workload}-{seed}.json"
    if cache.is_file():
        cached = json.loads(cache.read_text(encoding="utf-8"))
        if cached["key"] == key:
            return cached["values"]
    tmp = cache.with_suffix(".tmp")
    cmd = [sys.executable, str(BENCH_DIR / "oracles.py"), "--workload", workload,
           "--out", str(tmp), "--corpus", *map(str, corpus_paths)]
    subprocess.run(cmd, env=child_env(), check=True, timeout=120)
    values = json.loads(tmp.read_text(encoding="utf-8"))
    tmp.unlink()
    cache.write_text(json.dumps({"key": key, "values": values}), encoding="utf-8")
    return values


def setup_times(count):
    """Wall times of fresh interpreters that import the CLI and finish one
    tiny compute. The CPU's speed here drifts over seconds, so the benchmark
    takes a few before the first pass and a few after each pass."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
    return times


class Pass:
    """One pass of a workload: each CLI call timed and checked."""

    def __init__(self):
        self.latencies = []
        self.methods = []
        self.failures = []
        self.wall = 0.0

    @property
    def attempted(self):
        return len(self.latencies)


def run_pass(cli, argvs, expected, tracer=None):
    p = Pass()
    pass_start = time.perf_counter()
    for run_id, (argv, want) in enumerate(zip(argvs, expected)):
        if tracer is not None:
            tracer.run = run_id
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # a crash fails this call, not the benchmark
            rc = traceback.format_exc()
        p.latencies.append(time.perf_counter() - start)
        fields = dict(line.split(" = ", 1) for line in out.getvalue().splitlines() if " = " in line)
        p.methods.append(fields.get("method"))
        if rc != 0 or fields.get("sww3") != str(want):
            p.failures.append(f"{' '.join(argv)}: exit {rc}, sww3 {fields.get('sww3')} "
                              f"!= {want}; {err.getvalue().strip()}")
    p.wall = time.perf_counter() - pass_start
    return p


def quantile(values, q):
    """The q-th percentile (q in 1..99) of the values, inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(passes, setup):
    # each graph's median over passes, so that a slow stretch of one pass
    # does not decide which graphs land above a percentile
    per_graph = [statistics.median(ts) for ts in zip(*(p.latencies for p in passes))]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "graphs_per_s": sum(p.attempted for p in passes) / sum(p.wall for p in passes),
        "graph_p50_s": quantile(per_graph, 50),
        "graph_p90_s": quantile(per_graph, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def pass_layer_metrics(p, tracer):
    """Per-layer metrics of one traced pass."""
    m = tracing.layer_times(tracer.spans)
    m.update({f"count.{c}": v for c, v in tracer.counts.items()})
    for method in METHODS:
        m[f"count.method.{method}"] = p.methods.count(method)
    classified = {s.run for s in tracer.spans if s.name == "theta.median_classification"}
    then_brute = sum(1 for r in classified if p.methods[r] == "brute")
    m["ratio.classified_then_brute"] = then_brute / len(classified) if classified else 0.0
    m["trace.wall_s"] = p.wall
    return m


def run_traced(cli, argvs, expected, seconds):
    """Per-layer metrics (low medians over traced passes), all passes, and the spans.

    The memory pass runs first, on a heap no earlier pass has grown, as in a
    fresh CLI process. Untraced and traced passes then alternate, so that
    both groups see the same drift in CPU speed, at least twice each, so
    that the overhead is not one pass's noise.
    """
    with tracing.Tracer(memory=True) as memory:
        passes = [run_pass(cli, argvs, expected, memory)]
    untraced, per_pass, spans = [], [], []
    start = time.perf_counter()
    while len(per_pass) < 2 or time.perf_counter() - start < seconds:
        untraced.append(run_pass(cli, argvs, expected))
        with tracing.Tracer() as tracer:
            p = run_pass(cli, argvs, expected, tracer)
        per_pass.append(pass_layer_metrics(p, tracer))
        spans.append(tracer.spans)
        passes += [untraced[-1], p]
    # the low median is a value some pass measured, so counts stay whole
    metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_s"] = (statistics.median(m["trace.wall_s"] for m in per_pass)
                                   - statistics.median(u.wall for u in untraced))
    metrics.update(tracing.layer_peaks(memory.spans))
    return metrics, passes, spans


def environment(args):
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or commit
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    package = SRC / "steiner_indices"
    if not (package / "__init__.py").is_file():
        print(f"error: no package source at {package}; run from a source checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from steiner_indices import cli

    OUT.mkdir(exist_ok=True)
    corpus_paths, digest = [], None
    if args.workload == "corpus-auto":
        corpus_paths, digest = workloads.write_corpus(args.seed, OUT / f"corpus-{args.seed}")
    argvs = workloads.argvs(args.workload, corpus_paths)
    key = digest or " ".join(argvs[0])
    expected = reference_values(args.workload, args.seed, key, corpus_paths)
    warm = run_pass(cli, [SETUP_ARGV], [526])  # SWW_3 of the 3 x 3 grid
    if warm.failures:
        print("\n".join(warm.failures), file=sys.stderr)
        return 2

    if args.trace:
        metrics, passes, spans = run_traced(cli, argvs, expected, args.seconds)
        names = PER_LAYER_NAMES
        unit = per_layer_unit
    else:
        passes, setup = [], setup_times(SETUP_FIRST)
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(cli, argvs, expected))
            setup += setup_times(SETUP_PER_PASS)
        metrics, spans = end_to_end_metrics(passes, setup), []
        names = list(END_TO_END_UNITS)
        unit = END_TO_END_UNITS.get

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    env = environment(args)
    record = {"env": env, "passes": len(passes), "attempted": attempted,
              "failed": len(failures), "failures": failures[:20], "metrics": metrics,
              "pass_walls_s": [p.wall for p in passes]}
    suffix = f"{args.workload}-{args.seed}-trace{args.trace}"
    (OUT / f"run-{suffix}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if spans:
        (OUT / f"spans-{suffix}.json").write_text(json.dumps(
            [[s.__dict__ for s in pass_spans] for pass_spans in spans]), encoding="utf-8")

    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"passes = {len(passes)}, failed_frac = {len(failures) / attempted:.4f} "
          f"({len(failures)} of {attempted} calls)")
    for name in names:
        print(f"{name} = {metrics[name]:.6g} {unit(name)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit(name)} for name in names},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
