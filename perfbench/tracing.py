"""Spans around the package's public functions, installed from outside ``src/``.

Each wrapped function records a span (name, start, end, parent, run id) in
memory. A function imported by name into another module at import time (as
``theta`` does with ``all_pairs_distances`` and ``is_connected``) is wrapped
in every package module that holds it; ``cli`` imports lazily at call time,
so it picks up the wrapped module attribute.
"""

import os
import sys
import threading
import time
from dataclasses import dataclass
from functools import wraps
from math import comb

PACKAGE = "steiner_indices"

# the layers, by module, and the public functions whose spans make them up
LAYERS = {
    "cli": ("main",),
    "generators": ("generate",),
    "graph": ("parse_edge_list", "all_pairs_distances", "is_connected", "distance_moments"),
    "theta": (
        "theta_classes",
        "pair_counts",
        "is_bipartite",
        "is_partial_cube",
        "median_classification",
    ),
    "cutmethod": ("cut_report", "sww3_cut"),
    "steiner": ("steiner_k_indices_brute", "modular_indices_3"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)
THETA_METHODS = ("crossing", "pairwise")
COUNTS = ("crossing_bfs", "class_pairs", "triples_scanned", "subsets")
SAMPLE_S = 0.001
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    run: int
    tag: str = ""
    start_bytes: int = 0  # resident set size at the start, with Tracer(memory=True)
    peak_bytes: int = 0  # highest resident set size while the span was open

    @property
    def peak_mb(self):
        return (self.peak_bytes - self.start_bytes) / 1e6


def _theta_method(args, kwargs):
    """The ``method`` argument of a ``theta_classes(g, d=None, method=...)`` call."""
    return args[2] if len(args) > 2 else kwargs.get("method", "pairwise")


def _triple_rank(n, triple):
    """Position of (u, v, w) in the lexicographic order of itertools.combinations."""
    u, v, w = triple
    before_u = comb(n, 3) - comb(n - u, 3)
    before_v = comb(n - u - 1, 2) - comb(n - v, 2)
    return before_u + before_v + (w - v - 1)


def _count(name, args, kwargs, result):
    """(counter, amount) of work a call did, read from its arguments and result."""
    if name == "theta.theta_classes" and _theta_method(args, kwargs) == "crossing":
        return "crossing_bfs", 2 * result.class_count  # one BFS pair per class
    if name == "theta.pair_counts":
        d = args[0].class_count
        return "class_pairs", d * (d - 1) // 2
    if name == "theta.median_classification":
        n = args[0].n
        if result.median_status == "not_modular":  # the scan stopped at the witness
            return "triples_scanned", _triple_rank(n, result.witness) + 1
        return "triples_scanned", comb(n, 3)
    if name == "steiner.steiner_k_indices_brute":
        return "subsets", comb(args[0].n, args[2])
    return None


class Tracer:
    """Records spans and counts while installed.

    With ``memory=True`` a sampler thread also reads the resident set size
    every millisecond (and at every span boundary) and keeps, for each span,
    the highest RSS seen while it was open. tracemalloc would see allocations
    exactly, but it slows the interpreted crossing BFS about 17x, which puts
    a grid-cut pass near three minutes.
    """

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.run = 0
        self._stack = []  # indices of the open spans, outermost first
        self._lock = threading.Lock()  # guards _stack and peak_bytes against the sampler
        self._patched = []
        self._statm = None
        self._stop = threading.Event()
        self._sampler = None

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod, fns in LAYERS.items():
            home = sys.modules[f"{PACKAGE}.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        if self.memory:
            self._statm = os.open("/proc/self/statm", os.O_RDONLY)
            self._stop.clear()
            self._sampler = threading.Thread(target=self._sample, daemon=True)
            self._sampler.start()

    def uninstall(self):
        if self._sampler is not None:
            self._stop.set()
            self._sampler.join()
            self._sampler = None
            os.close(self._statm)
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            tag = _theta_method(args, kwargs) if name == "theta.theta_classes" else ""
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run, tag)
            with self._lock:
                self.spans.append(span)
                self._stack.append(len(self.spans) - 1)
                if self.memory:
                    span.start_bytes = span.peak_bytes = self._note_rss()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                with self._lock:
                    if self.memory:
                        self._note_rss()
                    self._stack.pop()
            counted = _count(name, args, kwargs, result)
            if counted:
                self.counts[counted[0]] += counted[1]
            return result

        return wrapper

    def _note_rss(self):
        """Read the RSS and raise the peak of every open span to it; hold the lock."""
        rss = int(os.pread(self._statm, 128, 0).split()[1]) * PAGE_BYTES
        for i in self._stack:
            span = self.spans[i]
            span.peak_bytes = max(span.peak_bytes, rss)
        return rss

    def _sample(self):
        while not self._stop.wait(SAMPLE_S):
            with self._lock:
                self._note_rss()


def self_times(spans):
    """Each span's duration minus the durations of the spans directly inside it."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_times(spans):
    """Per-span-name totals of one pass: ``<name>_s``, ``<name>_self_s``, and
    ``theta.theta_classes.<method>_s``."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = 0.0
        out[f"{name}_self_s"] = 0.0
    for method in THETA_METHODS:
        out[f"theta.theta_classes.{method}_s"] = 0.0
    for s, own in zip(spans, self_times(spans)):
        out[f"{s.name}_s"] += s.end - s.start
        out[f"{s.name}_self_s"] += own
        if s.tag:
            out[f"theta.theta_classes.{s.tag}_s"] += s.end - s.start
    return out


def layer_peaks(spans):
    """``<name>.peak_mb``: the most any call of a span raised the resident set
    size above its level when the call started."""
    out = {f"{name}.peak_mb": 0.0 for name in SPAN_NAMES}
    for s in spans:
        key = f"{s.name}.peak_mb"
        out[key] = max(out[key], s.peak_mb)
    return out
