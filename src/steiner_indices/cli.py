"""Command-line front end: compute, classify, and bench subcommands.

Exit codes: 0 success, 1 usage or input error, 2 precondition violation or
refused allocation, 3 verification mismatch. Output is "key = value" lines;
--format json emits one object with the same keys in the same order.
"""

import argparse
import json
import os
import sys
import time
from functools import cache, cached_property

from . import cutmethod, generators, graph, steiner, theta
from .errors import IntegralityError, PreconditionError, not_modular_error

BRUTE_GUARD = 5_000_000  # default cap on enumerated subsets
CLASSIFY_LIMIT = 3000  # max n for the n x n distance matrix (36 MB of int32) unless --force
PAIRWISE_EDGE_LIMIT = 3000  # beyond this the O(|E|^2) Theta scan is refused


class VerificationMismatch(Exception):
    pass


def _fmt_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def emit(report, fmt):
    if fmt == "json":
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        for k, v in report.items():
            sys.stdout.write(f"{k} = {_fmt_value(v)}\n")


def load_graph(args):
    """Resolve the single input source into (Analysis, label). A descriptor's
    parameters are checked as its Analysis is made; its graph is built only
    when read."""
    if bool(args.input) == bool(args.gen):
        raise UsageError("exactly one of --input FILE or --gen SPEC is required")
    force = getattr(args, "force", False)  # classify has no --force
    if args.gen:
        desc = generators.parse_descriptor(args.gen)
        return Analysis(None, desc, force), str(desc)
    with open(args.input, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    return Analysis(graph.parse_edge_list(text), None, force), os.path.basename(args.input)


class UsageError(ValueError):
    pass


class Analysis:
    """Lazily computed per-graph artifacts shared by the subcommands. With
    ``g`` None the graph of ``desc`` is generated when first read; ``n`` and
    ``m`` come from the descriptor either way (``generators.order_size``,
    which refuses parameters that have no graph). A graph outside a known
    family, read or generated, takes ``theta.median_certificate``, and if it
    is turned away ``theta.median_classification``."""

    def __init__(self, g, desc, force=False):
        if g is not None:
            self.g = g
        self.desc = desc
        self.force = force  # build the distance matrix and enumerate subsets at any n
        self.n, self.m = generators.order_size(desc) if desc is not None else (g.n, g.size)

    @cached_property
    def g(self):  # a descriptor's graph, built for the first reader of its edges
        return generators.generate(self.desc)

    @property
    def guard(self):  # the cap on subsets that brute force enumerates
        return None if self.force else BRUTE_GUARD

    @property
    def over_limit(self):  # the distance matrix is refused at this n
        return self.n > CLASSIFY_LIMIT and not self.force

    @cached_property
    def d(self):
        if self.over_limit:
            raise PreconditionError(
                f"graph too large for the all-pairs distance matrix (n={self.n} > {CLASSIFY_LIMIT}); "
                "--force lifts the limit in compute and bench"
            )
        return graph.all_pairs_distances(self.g)

    @cached_property
    def moments(self):
        return graph.distance_moments(self.d)

    @cached_property
    def certificate(self):
        # above the distance matrix's limit the certificate may take no more
        # memory than that matrix would at the limit
        return theta.median_certificate(self.g, 4 * CLASSIFY_LIMIT**2 if self.over_limit else None)

    @cached_property
    def cut(self):  # the certified cut pass: Theta* of a partial cube, else None
        return theta._cut_classes(self.g, self.d.a)

    @cached_property
    def classification(self):
        known = self.desc and generators.family_classification(self.desc)
        if known is not None:
            return known
        if self.desc and self.over_limit:
            self.d  # refused before the graph is built
        cert = self.certificate
        if cert.classes is not None:
            return theta.MEDIAN  # certified without the distance matrix
        if cert.bipartite is False and not self.over_limit:
            return theta.not_bipartite(lambda: self.d)  # the distances wait for the witness
        return theta.median_classification(self.g, self.d, cert.bipartite, cert.pairs, lambda: self.cut)

    @cached_property
    def theta(self):
        # classes built while classifying are reused: the certificate's, or the
        # cut pass's of a partial cube that is not median. A product family's
        # are its factors', lifted: each distinct factor built and labelled once
        factors = self.desc and generators.cartesian_factors(self.desc)
        if factors is not None:
            built = {f: theta.theta_classes(generators.generate(f), method="crossing") for f in dict.fromkeys(factors)}
            return theta.ProductClasses(tuple(built[f] for f in factors))
        if self.classification.partial_cube:
            if self.desc and generators.family_classification(self.desc) is not None:
                return theta.theta_classes(self.g, method="crossing")
            if self.certificate.classes is not None:
                return self.certificate.classes
            return theta.ThetaClasses(self.g.n, self.g.eu, self.g.ev, *self.cut)
        if self.m > PAIRWISE_EDGE_LIMIT:
            raise PreconditionError(
                f"graph too large for the pairwise Theta scan (|E|={self.m})"
            )
        # no partial cube, so the cut pass refuses: the Theta scan alone
        return theta.ThetaClasses(self.g.n, self.g.eu, self.g.ev, theta._theta_classes_pairwise(self.g, self.d), None)

    @cached_property
    def pairs(self):
        return theta.pair_counts(self.theta)


def _formula(an, index, k):
    """Closed forms of the generated complete graphs, paths and grids."""
    kind, params = (an.desc.kind, an.desc.params) if an.desc else (None, ())
    if kind == "grid" and min(params) == 1:
        kind, params = "path", (max(params),)
    if index in ("sw", "sww", "hosoya") and (kind == "complete" or (kind == "path" and k >= 2)):
        family = generators.complete_formulas if kind == "complete" else generators.path_formulas
        sh, sw, sww = family(params[0], k)
        return {"sw": sw, "sww": sww, "hosoya": sh}[index]
    if kind == "grid" and k == 3 and index in ("sw", "sww"):
        try:
            return (generators.grid_sw3 if index == "sw" else generators.grid_sww3)(*params)
        except PreconditionError:
            pass  # shape outside the formula's validity
    raise PreconditionError(f"no closed formula applies to this input for index {index}, k={k}")


def _cut(an, index, k):
    if index == "hosoya":
        raise PreconditionError("method cut does not apply to index hosoya")
    k_cut = 2 if index in ("w", "ww") else k  # W and WW are SW_2 and SWW_2
    cls = an.classification
    cutmethod.check_exact(an.n, an.m, k_cut, cls)
    if index in ("w", "sw"):  # SW_k needs no quadrant histogram
        return cutmethod.cut_report(an.theta, None, k_cut, cls)[0]
    return cutmethod.cut_report(an.theta, an.pairs, k_cut, cls)[1]


def _modular(an, index, k):
    if index not in ("sw", "sww"):
        raise PreconditionError(f"method modular does not apply to index {index}")
    if k != 3:
        raise PreconditionError("modular formulas exist only for k = 3")
    cls = an.classification
    if not cls.modular:
        raise not_modular_error(cls)
    sw3, sww3 = steiner.modular_indices_3(an.d, an.moments, cls)
    return sw3 if index == "sw" else sww3


def _brute(an, index, k):
    if index == "w":
        return an.moments.wiener
    if index == "ww":
        return graph.hyper_wiener(an.moments)
    steiner.check_k(an.n, k, an.guard)  # before an.d: a refusal needs no graph or distances
    if index == "hosoya":
        return steiner.steiner_hosoya(an.g, an.d, k, an.guard)
    sw, sww = steiner.steiner_k_indices_brute(an.g, an.d, k, guard=an.guard)
    return sw if index == "sw" else sww


_METHODS = {"formula": _formula, "cut": _cut, "modular": _modular, "brute": _brute}  # auto's order


def _compute_value(an, index, k, method):
    """Returns (value, method_tag) from the row of ``_METHODS`` that ``method``
    names. A row (an, index, k) -> value raises PreconditionError with
    the reason where it does not apply; ``auto`` takes the first row that does
    not refuse, and brute force's refusal is final."""
    names = tuple(_METHODS) if method == "auto" else (method,)
    for name in names:
        try:
            value = _METHODS[name](an, index, k)
        except PreconditionError:
            if name == names[-1]:
                raise
        else:
            return value, "hosoya" if name == "brute" and index == "hosoya" else name


def _value_str(index, value):
    if index == "hosoya":
        return " ".join(f"{m}:{c}" for m, c in value.as_pairs())
    return value


def run_compute(args):
    an, label = load_graph(args)
    if not 1 <= args.k <= steiner.K_MAX:
        raise UsageError(f"--k must be in 1..{steiner.K_MAX}")
    report = {"graph": label, "n": an.n, "edges": an.m}

    start = time.perf_counter()
    value, tag = _compute_value(an, args.index, args.k, args.method)
    elapsed = time.perf_counter() - start

    key = args.index if args.index in ("w", "ww", "hosoya") else f"{args.index}{args.k}"
    report[key] = _value_str(args.index, value)
    report["method"] = tag
    report["elapsed_s"] = elapsed

    if args.verify:
        start = time.perf_counter()
        ref = _METHODS["brute"](an, args.index, args.k)
        report["verify_method"] = "brute"
        report["verify_elapsed_s"] = time.perf_counter() - start
        equal = ref == value  # SteinerHosoya compares k and coefficients
        report["verified"] = equal
        if not equal:
            report["verify_value"] = _value_str(args.index, ref)
            emit(report, args.format)
            raise VerificationMismatch(
                f"{key}: {tag} gave {_value_str(args.index, value)}, brute gave {_value_str(args.index, ref)}"
            )
    emit(report, args.format)
    return 0


def run_classify(args):
    an, label = load_graph(args)
    classes = an.theta.class_count  # refuses what the pairwise scan cannot take
    cls = an.classification
    report = {
        "graph": label,
        "n": an.n,
        "edges": an.m,
        "connected": cls.connected,
        "bipartite": cls.bipartite,
        "partial_cube": cls.partial_cube,
        "median_status": cls.median_status,
        "classes": classes,
    }
    if cls.witness is not None:
        report["witness"] = ",".join(str(v) for v in cls.witness)
    emit(report, args.format)
    return 0


def run_bench(args):
    an, label = load_graph(args)
    an.classification  # classified before the cut is timed
    report = {"graph": label, "n": an.n, "edges": an.m}

    start = time.perf_counter()
    cut_value = _METHODS["cut"](an, "sww", 3)
    cut_elapsed = time.perf_counter() - start
    report["classes"] = an.theta.class_count
    report["sww3_cut"] = cut_value
    report["cut_s"] = cut_elapsed

    try:
        steiner.check_k(an.n, 3, an.guard)
    except PreconditionError as exc:
        report["brute"] = f"skipped: {exc}"
    else:
        start = time.perf_counter()
        brute_value = _METHODS["brute"](an, "sww", 3)
        brute_elapsed = time.perf_counter() - start
        report["sww3_brute"] = brute_value
        report["brute_s"] = brute_elapsed
        report["speedup"] = brute_elapsed / cut_elapsed if cut_elapsed > 0 else float("inf")
        report["equal"] = brute_value == cut_value
        if brute_value != cut_value:
            emit(report, args.format)
            raise VerificationMismatch(
                f"sww3: cut gave {cut_value}, brute gave {brute_value}"
            )
    emit(report, args.format)
    return 0


def _add_source_args(p):
    p.add_argument("--input", help="edge-list file")
    p.add_argument("--gen", help="generator descriptor, e.g. grid:3,3")
    p.add_argument("--format", choices=("text", "json"), default="text")


@cache  # parse_args keeps no state between calls; in-process callers build it once
def build_parser():
    parser = argparse.ArgumentParser(
        prog="steiner-indices",
        description="Steiner k-Wiener / k-hyper-Wiener indices with a Theta-class cut method",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute an index of a graph")
    _add_source_args(p)
    p.add_argument("--index", choices=("w", "ww", "sw", "sww", "hosoya"), required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--method", choices=("auto", "brute", "cut", "modular", "formula"), default="auto")
    p.add_argument("--verify", action="store_true", help="also run brute force and compare")
    p.add_argument("--force", action="store_true", help="ignore the enumeration guard and the distance-matrix limit")
    p.set_defaults(func=run_compute)

    p = sub.add_parser("classify", help="classify a graph (bipartite / partial cube / median)")
    _add_source_args(p)
    p.set_defaults(func=run_classify)

    p = sub.add_parser("bench", help="time the cut method against brute enumeration (k = 3)")
    _add_source_args(p)
    p.add_argument("--force", action="store_true", help="run brute even above the guard; lift the distance-matrix limit")
    p.set_defaults(func=run_bench)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        return args.func(args)
    except (PreconditionError, MemoryError) as exc:
        print(f"error = {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error = {exc}", file=sys.stderr)
        return 1
    except IntegralityError as exc:
        print(f"internal error = {exc}", file=sys.stderr)
        return 2
    except VerificationMismatch as exc:
        print(f"verification mismatch = {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
