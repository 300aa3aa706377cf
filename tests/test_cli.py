"""End-to-end tests of the command-line interface via main(argv)."""

import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import steiner_indices
from helpers import complete, complete_bipartite, cycle, edge_list_text, grid, hung_k23, random_connected_graph, tree
from steiner_indices import Graph, ThetaClasses, cli, generate, grid_sww3, parse_descriptor, theta_classes
from steiner_indices.cli import main
from steiner_indices.errors import IntegralityError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _untimed(result):
    """(code, stdout, stderr) of ``run`` without the graph label and timing lines."""
    code, out, err = result
    return code, [line for line in out.splitlines() if not line.startswith(("graph = ", "elapsed_s = "))], err


def _labelled_sizes(monkeypatch):
    """(name, n) of each labelling, side-matrix pair count and path closed
    form that runs, as a list that fills as they run. The closed form is
    listed only where it gives the histogram, not where it finds no path."""
    from steiner_indices import theta

    sizes = []

    def recorded(name, original):
        def call(x, *args):
            result = original(x, *args)
            if result is not None or name != "_path_pair_counts":
                sizes.append((name, x.n))
            return result

        return call

    names = ("_one_bfs_labels", "_tree_labels", "_side_pair_counts", "_labelled_pair_counts", "_path_pair_counts")
    for name in names:
        monkeypatch.setattr(theta, name, recorded(name, getattr(theta, name)))
    return sizes


class TestCompute:
    def test_grid_sw_formula(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "grid:3,3", "--index", "sw")
        assert code == 0
        assert "sw3 = 252" in out
        assert "method = formula" in out

    def test_grid_sww_formula(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "grid:2,5", "--index", "sww")
        assert code == 0
        assert "sww3 = 1004" in out

    def test_path_hosoya(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "path:4", "--index", "hosoya")
        assert code == 0
        assert "hosoya = 2:2 3:2" in out

    def test_cycle_wiener_brute(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "cycle:5", "--index", "w")
        assert code == 0
        assert "w = 15" in out
        assert "method = brute" in out

    def test_even_cycle_wiener_uses_cut(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "cycle:6", "--index", "ww")
        assert code == 0
        assert "ww = 42" in out
        assert "method = cut" in out

    def test_cut_refuses_non_modular(self, capsys):
        code, out, err = run(
            capsys, "compute", "--gen", "cycle:6", "--index", "sw", "--method", "cut"
        )
        assert code == 2
        assert "not modular" in err
        assert "witness triple 0,2,4" in err

    def test_cut_run_imports_neither_scipy_nor_numba(self):
        # a fresh process: importing scipy.sparse.csgraph alone takes longer
        # than the whole small cut run
        code = (
            "import sys\n"
            "from steiner_indices.cli import main\n"
            "rc = main(['compute', '--gen', 'grid:3,3', '--index', 'sww', '--method', 'cut'])\n"
            "print(rc, [m for m in ('scipy', 'numba') if m in sys.modules])\n"
        )
        src = str(Path(steiner_indices.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "method = cut" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "0 []"

    def test_grid_file_classified_then_cut(self, capsys, tmp_path):
        g = generate(parse_descriptor("grid:20,20"))
        f = tmp_path / "grid20.txt"
        f.write_text(f"{g.n} {g.size}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
        code, out, _ = run(capsys, "compute", "--input", str(f), "--index", "sww")
        assert code == 0
        assert "method = cut" in out
        assert "sww3 = 2433022200" in out  # grid_sww3(20, 20)

    def test_grid_file_above_edge_limit_uses_crossing_classes(self, capsys, tmp_path):
        g = generate(parse_descriptor("grid:40,40"))
        assert g.size > cli.PAIRWISE_EDGE_LIMIT
        f = tmp_path / "grid40.txt"
        f.write_text(f"{g.n} {g.size}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
        code, out, _ = run(capsys, "compute", "--input", str(f), "--index", "sww")
        assert code == 0
        assert "method = cut" in out
        assert "sww3 = 613123544800" in out  # grid_sww3(40, 40)

    def test_non_partial_cube_file_above_edge_limit_is_refused(self, capsys, tmp_path):
        g = generate(parse_descriptor("complete:80"))
        assert g.size > cli.PAIRWISE_EDGE_LIMIT
        f = tmp_path / "k80.txt"
        f.write_text(f"{g.n} {g.size}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
        code, _, err = run(capsys, "classify", "--input", str(f))
        assert code == 2
        assert "too large for the pairwise Theta scan" in err

    @pytest.mark.parametrize(
        "g", [grid(4, 4), complete(6), cycle(7), cycle(8), complete_bipartite(2, 4)],
        ids=["grid", "K6", "C7", "C8", "K24"],
    )
    def test_input_is_two_coloured_once_without_pairwise_scan(self, capsys, tmp_path, monkeypatch, g):
        from steiner_indices import theta

        f = tmp_path / "g.txt"
        f.write_text(f"{g.n} {g.size}\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
        calls = []
        real = theta.is_bipartite

        def counted(graph, *levels):
            calls.append(graph.n)
            return real(graph, *levels)

        def refuse(*args):
            raise AssertionError("pairwise Theta scan ran in compute")

        monkeypatch.setattr(theta, "is_bipartite", counted)
        monkeypatch.setattr(theta, "_theta_classes_pairwise", refuse)
        code, out, err = run(capsys, "compute", "--input", str(f), "--index", "sww")
        assert code == 0, err
        assert calls == [g.n]

    @pytest.mark.parametrize(
        "spec,expected", [("grid:30,30", "sww3 = 61736397700"), ("hypercube:8", "sww3 = 60456960")]
    )
    def test_cut_on_a_median_family_builds_no_tuple_view(self, capsys, monkeypatch, spec, expected):
        def refuse(self):
            raise AssertionError("a per-edge tuple view was built on the cut path")

        for owner, name in ((Graph, "edges"), (Graph, "adjacency"), (ThetaClasses, "classes")):
            monkeypatch.setattr(owner, name, property(refuse))
        code, out, err = run(capsys, "compute", "--gen", spec, "--index", "sww", "--method", "cut")
        assert code == 0, err
        assert expected in out and "method = cut" in out

    @pytest.mark.parametrize("index,expected", [("w", "w = 760509"), ("sw", "sw3 = 113315841")])
    def test_sw_by_cut_needs_no_pair_counts(self, capsys, monkeypatch, index, expected):
        from steiner_indices import theta

        def refuse(*args):
            raise AssertionError("pair_counts ran for an index that needs no quadrant histogram")

        monkeypatch.setattr(theta, "pair_counts", refuse)
        code, out, err = run(capsys, "compute", "--gen", "tree:7,300", "--index", index, "--method", "cut")
        assert code == 0, err
        assert expected in out and "method = cut" in out

    def test_grid_cut_forms_no_full_gram(self, capsys, monkeypatch):
        # the classes come from the 100-vertex path factors and their
        # quadrant counts from the path's closed form: no labelling, Gram or
        # labelled count over the 10^4 vertices
        sizes = _labelled_sizes(monkeypatch)
        code, out, err = run(capsys, "compute", "--gen", "grid:100,100", "--index", "sww", "--method", "cut")
        assert code == 0, err
        assert f"sww3 = {grid_sww3(100, 100)}" in out and "method = cut" in out
        assert ("_path_pair_counts", 100) in sizes and max(n for _, n in sizes) == 100

    def test_two_by_two_grid_cut_equals_brute_force(self, capsys):
        for index, value in (("sw", 8), ("sww", 12)):  # four triples, each spanning a path of two edges
            code, out, err = run(capsys, "compute", "--gen", "grid:2,2", "--index", index, "--method", "cut", "--verify")
            assert code == 0, err
            assert f"{index}3 = {value}\nmethod = cut\n" in out and "verified = true" in out

    def test_small_products_verify_against_brute_force(self, capsys):
        specs = [f"grid:{m},{n}" for m in range(1, 6) for n in range(1, 6) if m * n >= 3]
        specs += [f"hypercube:{k}" for k in range(2, 6)]
        for spec in specs:
            for index in ("sw", "sww"):
                code, out, err = run(capsys, "compute", "--gen", spec, "--index", index, "--method", "cut", "--verify")
                assert code == 0, (spec, err)
                assert "method = cut" in out and "verified = true" in out, (spec, out)

    def test_million_vertex_grid_is_cut_from_its_factors(self, capsys, monkeypatch):
        sizes = _labelled_sizes(monkeypatch)
        code, out, err = run(capsys, "compute", "--gen", "grid:1000,1000", "--index", "sww", "--method", "cut")
        assert code == 0, err
        assert f"sww3 = {grid_sww3(1000, 1000)}\nmethod = cut\n" in out
        assert ("_path_pair_counts", 1000) in sizes and max(n for _, n in sizes) == 1000

    def test_modular_method_on_complete_bipartite_file(self, capsys, tmp_path):
        lines = ["5 6"] + [f"{i} {2 + j}" for i in range(2) for j in range(3)]
        f = tmp_path / "k23.txt"
        f.write_text("\n".join(lines) + "\n")
        code, out, _ = run(
            capsys, "compute", "--input", str(f), "--index", "sww", "--method", "modular"
        )
        assert code == 0
        assert "sww3 = 33" in out
        assert "method = modular" in out

    def test_input_file_wiener(self, capsys, tmp_path):
        f = tmp_path / "p4.txt"
        f.write_text("4 3\n0 1\n1 2\n2 3\n")
        code, out, _ = run(capsys, "compute", "--input", str(f), "--index", "w")
        assert code == 0
        assert "w = 10" in out
        assert "graph = p4.txt" in out

    def test_input_file_with_byte_order_mark(self, capsys, tmp_path):
        f = tmp_path / "p4.txt"
        f.write_text("\ufeff4 3\n0 1\n1 2\n2 3\n", encoding="utf-8")
        code, out, _ = run(capsys, "compute", "--input", str(f), "--index", "w")
        assert code == 0
        assert "w = 10" in out

    def test_verify_flag(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--gen", "grid:3,4", "--index", "sww", "--verify"
        )
        assert code == 0
        assert "verified = true" in out

    def test_verify_mismatch_exits_3(self, capsys, monkeypatch):
        real = cli._METHODS["brute"]

        def wrong(an, index, k):
            return real(an, index, k) + 1

        monkeypatch.setitem(cli._METHODS, "brute", wrong)
        code, out, err = run(
            capsys, "compute", "--gen", "grid:3,3", "--index", "sw", "--verify"
        )
        assert code == 3
        assert "verified = false" in out
        assert "verification mismatch" in err

    def test_guard_blocks_large_brute(self, capsys):
        code, _, err = run(
            capsys, "compute", "--gen", "cycle:400", "--index", "sw", "--k", "5"
        )
        assert code == 2
        assert "guard" in err

    def test_guard_blocks_large_hosoya(self, capsys):
        code, _, err = run(
            capsys, "compute", "--gen", "cycle:400", "--index", "hosoya", "--k", "5"
        )
        assert code == 2
        assert "guard" in err

    def test_hosoya_guard_names_force_only(self, capsys):
        code, _, err = run(
            capsys, "compute", "--gen", "cycle:400", "--index", "hosoya", "--k", "5"
        )
        assert code == 2
        assert "exceeds the enumeration guard 5000000; --force lifts it" in err
        assert "cut" not in err and "modular" not in err

    def test_grid_200_cut_equals_closed_formula(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--gen", "grid:200,200", "--index", "sww", "--method", "cut"
        )
        assert code == 0
        assert f"sww3 = {grid_sww3(200, 200)}" in out

    @pytest.mark.parametrize("method", ["cut", "modular"])
    def test_hosoya_refuses_other_methods(self, capsys, method):
        code, out, err = run(
            capsys, "compute", "--gen", "path:4", "--index", "hosoya", "--method", method
        )
        assert code == 2
        assert out == ""
        assert f"method {method} does not apply to index hosoya" in err

    def test_cut_at_k4_on_a_tree_equals_brute(self, capsys):
        values = {}
        for method in ("cut", "brute"):
            code, out, _ = run(
                capsys, "compute", "--gen", "tree:3,12", "--index", "sww", "--k", "4",
                "--method", method,
            )
            assert code == 0
            assert f"method = {method}" in out
            values[method] = [line for line in out.splitlines() if line.startswith("sww4 = ")]
        assert values["cut"] == values["brute"] != []

    def test_cut_at_k4_off_trees_is_refused(self, capsys):
        code, _, err = run(
            capsys, "compute", "--gen", "grid:3,3", "--index", "sw", "--k", "4", "--method", "cut"
        )
        assert code == 2
        assert "exact at k = 4 only on trees" in err

    def test_partial_cube_sw2_uses_cut(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "cycle:6", "--index", "sww", "--k", "2")
        assert code == 0
        assert "sww2 = 42" in out
        assert "method = cut" in out

    def test_one_row_grid_takes_the_path_formula(self, capsys):
        code, out, _ = run(capsys, "compute", "--gen", "grid:1,5", "--index", "sw", "--method", "formula")
        assert code == 0
        assert "\nsw3 = 30\nmethod = formula\n" in out

    def test_formula_refuses_a_grid_its_polynomials_do_not_cover(self, capsys):
        argv = ("compute", "--gen", "grid:2,2", "--index", "sww")
        assert run(capsys, *argv, "--method", "formula") == (
            2, "", "error = no closed formula applies to this input for index sww, k=3\n")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "\nsww3 = 12\nmethod = cut\n" in out

    def test_formula_method_unavailable(self, capsys):
        code, _, err = run(
            capsys, "compute", "--gen", "cycle:6", "--index", "sw", "--method", "formula"
        )
        assert code == 2
        assert "no closed formula" in err

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--gen", "grid:3,3", "--index", "sw", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sw3"] == 252
        assert doc["method"] == "formula"

    def test_json_deterministic_modulo_timing(self, capsys):
        argv = ["compute", "--gen", "grid:2,4", "--index", "sww", "--format", "json"]
        docs = []
        for _ in range(2):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            doc = json.loads(out)
            docs.append({k: v for k, v in doc.items() if not k.endswith("_s")})
        assert docs[0] == docs[1]

    def test_successive_calls_share_the_parser_but_not_flags(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        argv = ["compute", "--gen", "cycle:5", "--index", "sww", "--format", "json"]
        code, out, _ = run(capsys, *argv, "--verify")
        assert code == 0 and json.loads(out)["verified"] is True
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "verified" not in json.loads(out)
        code, _, _ = run(capsys, "compute", "--gen", "cycle:8", "--index", "sw", "--k", "5", "--force")
        assert code == 0
        code, _, err = run(capsys, "compute", "--gen", "cycle:400", "--index", "sw", "--k", "5")
        assert code == 2
        assert "--force lifts it" in err


def _random_non_bipartite_graph():
    import random

    g = random_connected_graph(random.Random(5), 30, 12)
    assert not steiner_indices.is_bipartite(g)[0]
    return g


class TestDeferredClassification:
    @pytest.mark.parametrize(
        "g,expected",
        [(cycle(8), "sww3 = 480\nmethod = brute"), (_random_non_bipartite_graph(), "sww3 = 73068\nmethod = brute"),
         (complete_bipartite(2, 5), "sww3 = 135\nmethod = modular"),
         (hung_k23(20), "sww3 = 2560671415\nmethod = modular")],
        ids=["C8", "random", "K25", "grid20-k23"],
    )
    def test_compute_never_searches_a_witness(self, capsys, tmp_path, monkeypatch, g, expected):
        # every value is brute force's
        from steiner_indices import theta

        def refuse(*args):
            raise AssertionError("compute searched a witness it does not print")

        f = tmp_path / "g.txt"
        f.write_text(edge_list_text(g))
        monkeypatch.setattr(theta, "_first_triple", refuse)
        code, out, err = run(capsys, "compute", "--input", str(f), "--index", "sww")
        assert code == 0, err
        assert expected in out

    def test_even_cycle_at_k3_skips_the_partial_cube_check(self, capsys, tmp_path, monkeypatch):
        from steiner_indices import theta

        def refuse(*args):
            raise AssertionError("the partial-cube verdict was computed at k = 3")

        f = tmp_path / "c8.txt"
        f.write_text(edge_list_text(cycle(8)))
        for name in ("_first_triple", "_theta_classes_crossing", "_cut_classes", "is_partial_cube"):
            monkeypatch.setattr(theta, name, refuse)
        code, out, err = run(capsys, "compute", "--input", str(f), "--index", "sww")
        assert code == 0, err
        assert "sww3 = 480" in out and "method = brute" in out

    @pytest.mark.parametrize(
        "argv,expected",
        [(["compute", "--index", "ww", "--method", "cut"], "ww = 120"), (["classify"], "classes = 4")],
        ids=["compute", "classify"],
    )
    def test_partial_cube_verdict_hands_its_classes_on(self, capsys, tmp_path, monkeypatch, argv, expected):
        # C8 is a partial cube that is not median: one certified cut pass gives
        # the verdict and the classes the cut or the class count reads
        from steiner_indices import theta

        f = tmp_path / "c8.txt"
        f.write_text(edge_list_text(cycle(8)))
        real, calls = theta._cut_classes, []
        monkeypatch.setattr(theta, "_cut_classes", lambda *args: calls.append(args) or real(*args))
        code, out, err = run(capsys, *argv, "--input", str(f))
        assert code == 0, err
        assert expected in out
        assert len(calls) == 1

    def test_failed_cut_pass_is_not_repeated_for_the_theta_scan(self, capsys, tmp_path, monkeypatch):
        # bipartite, no K_{2,3}, not modular and no partial cube: the cut pass
        # refuses once for the verdict, and the Theta scan does not rerun it
        from steiner_indices import theta

        g = Graph.from_edges(7, [(0, 2), (0, 4), (1, 3), (1, 6), (2, 6), (3, 4), (3, 5), (5, 6)])
        f = tmp_path / "g.txt"
        f.write_text(edge_list_text(g))
        real, calls = theta._cut_classes, []
        monkeypatch.setattr(theta, "_cut_classes", lambda *args: calls.append(args) or real(*args))
        code, out, err = run(capsys, "classify", "--input", str(f))
        assert code == 0, err
        assert "partial_cube = false" in out
        assert len(calls) == 1

    def test_hung_k23_witness_is_its_leaves(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(edge_list_text(hung_k23(4)))
        code, out, _ = run(capsys, "classify", "--input", str(f))
        assert code == 0
        assert "median_status = modular_not_median" in out and "witness = 17,18,19" in out

    @pytest.mark.parametrize(
        "g,text",
        [(cycle(8), "graph is not modular (witness triple 0,2,5)"),
         (complete(4), "graph is not a verified partial cube"),
         (complete_bipartite(2, 5), "graph is not a verified partial cube"),
         (Graph.from_edges(7, [(0, 2), (0, 4), (1, 3), (1, 6), (2, 6), (3, 4), (3, 5), (5, 6)]),
          "graph is not a verified partial cube")],  # bipartite, not modular, no K_{2,3}
        ids=["C8", "K4", "K25", "bipartite7"],
    )
    def test_cut_refusals_keep_their_text(self, capsys, tmp_path, g, text):
        f = tmp_path / "g.txt"
        f.write_text(edge_list_text(g))
        for index in ("sw", "sww"):
            code, _, err = run(capsys, "compute", "--input", str(f), "--index", index, "--method", "cut")
            assert (code, err) == (2, f"error = {text}\n")


TABLE_INPUTS = {
    "path:6": None, "grid:3,4": None, "complete:4": None, "cycle:5": None, "cycle:6": None,
    "K23": complete_bipartite(2, 3), "tree:3,12": tree(3, 12),
}


class TestMethodTable:
    @pytest.mark.parametrize("index", ["w", "ww", "sw", "sww", "hosoya"])
    @pytest.mark.parametrize("name", list(TABLE_INPUTS))
    def test_rows_give_brute_force_or_refuse_and_auto_takes_the_first(self, capsys, tmp_path, name, index):
        g = TABLE_INPUTS[name]
        source = ["--gen", name]
        if g is not None:
            f = tmp_path / "g.txt"
            f.write_text(edge_list_text(g))
            source = ["--input", str(f)]
        for k in ("2", "3", "4"):
            results = {}
            for method in [*cli._METHODS, "auto"]:
                code, out, err = run(capsys, "compute", *source, "--index", index, "--k", k, "--method", method)
                lines = out.splitlines()
                results[method] = (code, lines[3:5] if code == 0 else err)
            code, (value, tag) = results["brute"]
            assert code == 0
            assert tag == f"method = {'hosoya' if index == 'hosoya' else 'brute'}"
            for method in cli._METHODS:
                code, got = results[method]
                if code == 0:
                    assert got[0] == value, (k, method)
                else:
                    assert code == 2 and got.startswith("error = "), (k, method, got)
            first = next(results[m] for m in cli._METHODS if results[m][0] == 0)
            assert results["auto"] == first


class TestRefusalsBeforeDistances:
    @pytest.mark.parametrize(
        "argv,subsets",
        [(["--gen", "cycle:400", "--index", "sw", "--k", "5", "--method", "brute"], "C(400,5) = 83218600080"),
         (["--gen", "cycle:400", "--index", "hosoya", "--k", "5"], "C(400,5) = 83218600080"),
         (["--gen", "grid:100,100", "--index", "sww", "--method", "cut", "--verify"], "C(10000,3) = 166616670000"),
         # auto: cut and modular refuse a cycle whose distance matrix is refused; brute force's refusal is final
         (["--gen", "cycle:3001", "--index", "sww"], "C(3001,3) = 4499999500")],
        ids=["brute", "hosoya", "cut-verify", "auto-over-classify-limit"],
    )
    def test_guard_refuses_without_all_pairs_distances(self, capsys, monkeypatch, argv, subsets):
        from steiner_indices import graph

        def refuse(*args):
            raise AssertionError("all-pairs distances were computed for a refused run")

        monkeypatch.setattr(graph, "all_pairs_distances", refuse)
        code, out, err = run(capsys, "compute", *argv)
        assert (code, out) == (2, "")
        assert err == f"error = {subsets} subsets exceeds the enumeration guard 5000000; --force lifts it\n"

    @pytest.mark.parametrize(
        "argv",
        [["--gen", "grid:200,200", "--index", "sww", "--method", "modular"],
         ["--gen", "grid:200,200", "--index", "w", "--method", "brute"],
         ["--gen", "grid:200,200", "--index", "ww", "--verify"],
         ["--gen", "cycle:40000", "--index", "w"]],
        ids=["modular", "brute", "verify", "auto"],
    )
    def test_distance_matrix_refused_above_the_limit(self, capsys, monkeypatch, argv):
        # a 40000 x 40000 int32 matrix is 6.4 GB: refused before it is allocated
        from steiner_indices import graph

        def refuse(*args):
            raise AssertionError("all-pairs distances were computed above the limit")

        monkeypatch.setattr(graph, "all_pairs_distances", refuse)
        code, out, err = run(capsys, "compute", *argv)
        assert (code, out) == (2, "")
        assert err == (
            "error = graph too large for the all-pairs distance matrix (n=40000 > 3000); "
            "--force lifts the limit in compute and bench\n"
        )

    def test_force_lifts_the_distance_matrix_limit(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "CLASSIFY_LIMIT", 8)
        c10, p100 = tmp_path / "c10.txt", tmp_path / "p100.txt"
        c10.write_text(edge_list_text(cycle(10)))
        p100.write_text(edge_list_text(grid(1, 100)))
        refused = "error = graph too large for the all-pairs distance matrix (n={} > {}); --force lifts the limit in compute and bench\n"
        for argv in (["compute", "--input", str(c10), "--index", "w"], ["bench", "--input", str(c10)], ["classify", "--input", str(c10)]):
            assert run(capsys, *argv) == (2, "", refused.format(10, 8))
        code, out, _ = run(capsys, "compute", "--input", str(c10), "--index", "w", "--force")
        assert code == 0 and "w = 125" in out
        # a median file is certified without distances: only bench's brute
        # step needs them (at a limit whose budget holds the path's labelling)
        monkeypatch.setattr(cli, "CLASSIFY_LIMIT", 99)
        for argv in (["compute", "--index", "w"], ["classify"]):
            assert _untimed(run(capsys, *argv, "--input", str(p100))) == _untimed(run(capsys, *argv, "--gen", "path:100"))
        assert run(capsys, "bench", "--input", str(p100)) == (2, "", refused.format(100, 99))
        code, out, _ = run(capsys, "bench", "--input", str(p100), "--force")
        assert code == 0 and "equal = true" in out
        code, out, _ = run(capsys, "compute", "--gen", "grid:3,3", "--index", "ww", "--method", "cut")
        assert code == 0  # a generated median family needs no distances

    @pytest.mark.parametrize(
        "g,refused",
        [(grid(3, 3), ("_common_neighbour_pairs",)), (tree(3, 12), ("_one_bfs_labels", "_tree_labels"))],
        ids=["grid-wedges", "tree-sides"],
    )
    def test_certificate_above_the_limit_keeps_to_the_matrix_budget(self, capsys, monkeypatch, tmp_path, g, refused):
        # 4 * 8^2 = 256 bytes: the 3x3 grid's 22 wedges or the tree's 11 x 12
        # sides would take more, so each is refused before either is built
        from steiner_indices import theta

        def refuse(*args):
            raise AssertionError(f"{refused} ran above the budget")

        monkeypatch.setattr(cli, "CLASSIFY_LIMIT", 8)
        f = tmp_path / "g.txt"
        f.write_text(edge_list_text(g))
        for name in refused:
            monkeypatch.setattr(theta, name, refuse)
        message = f"error = graph too large for the all-pairs distance matrix (n={g.n} > 8); --force lifts the limit in compute and bench\n"
        for argv in (["compute", "--index", "sww"], ["classify"]):
            assert run(capsys, *argv, "--input", str(f)) == (2, "", message)
        monkeypatch.undo()
        monkeypatch.setattr(cli, "CLASSIFY_LIMIT", 8)
        code, out, err = run(capsys, "compute", "--input", str(f), "--index", "sww", "--method", "cut", "--force")
        assert code == 0, err

    def test_non_bipartite_file_is_refused_without_all_pairs_distances(self, capsys, monkeypatch, tmp_path):
        # one BFS shows K_320 not bipartite; the refusals read no witness
        from steiner_indices import graph, theta

        def refuse(*args):
            raise AssertionError("all-pairs distances were computed for a refused run")

        f = tmp_path / "k320.txt"
        f.write_text(edge_list_text(complete(320)))
        monkeypatch.setattr(graph, "all_pairs_distances", refuse)
        monkeypatch.setattr(theta, "all_pairs_distances", refuse)
        assert run(capsys, "compute", "--input", str(f), "--index", "sww") == (
            2, "", "error = C(320,3) = 5410240 subsets exceeds the enumeration guard 5000000; --force lifts it\n")
        assert run(capsys, "classify", "--input", str(f)) == (
            2, "", "error = graph too large for the pairwise Theta scan (|E|=51040)\n")

    def test_non_bipartite_descriptor_is_refused_without_all_pairs_distances(self, capsys, monkeypatch):
        # a descriptor with no known classification is certified like a file
        from steiner_indices import graph, theta

        def refuse(*args):
            raise AssertionError("all-pairs distances were computed for a refused run")

        monkeypatch.setattr(graph, "all_pairs_distances", refuse)
        monkeypatch.setattr(theta, "all_pairs_distances", refuse)
        scan = "error = graph too large for the pairwise Theta scan (|E|=3160)\n"
        assert run(capsys, "classify", "--gen", "complete:80") == (2, "", scan)
        no_cube = "error = graph is not a verified partial cube\n"
        assert run(capsys, "compute", "--gen", "complete:40", "--index", "w", "--method", "cut") == (2, "", no_cube)
        assert run(capsys, "bench", "--gen", "complete:80") == (2, "", no_cube)

    def test_dense_non_bipartite_file_builds_no_wedge_pairs(self, capsys, monkeypatch, tmp_path):
        from steiner_indices import theta

        def refuse(*args):
            raise AssertionError("wedge pairs were built for a graph that is not bipartite")

        monkeypatch.setattr(theta, "_common_neighbour_pairs", refuse)
        f = tmp_path / "k30.txt"
        f.write_text(edge_list_text(complete(30)))
        code, out, err = run(capsys, "compute", "--input", str(f), "--index", "sww")
        assert code == 0, err
        assert "sww3 = 12180\nmethod = brute\n" in out  # C(3,2) * C(30,3)
        code, out, err = run(capsys, "classify", "--input", str(f))
        assert code == 0, err
        assert "median_status = not_modular" in out


class TestMedianInputWithoutDistances:
    @pytest.mark.parametrize("spec", ["grid:20,20", "hypercube:6", "tree:7,300"])
    def test_median_file_answers_like_its_generator(self, capsys, tmp_path, monkeypatch, spec):
        from steiner_indices import graph

        def refuse(*args):
            raise AssertionError("all-pairs distances were computed for a median graph")

        monkeypatch.setattr(graph, "all_pairs_distances", refuse)
        f = tmp_path / "g.txt"
        f.write_text(edge_list_text(generate(parse_descriptor(spec))))
        outputs = {}
        for source in (["--input", str(f)], ["--gen", spec]):
            code, out, err = run(capsys, "compute", *source, "--index", "sww")
            assert code == 0, err
            value = out.splitlines()[3]
            code, out, err = run(capsys, "classify", *source)
            assert code == 0, err
            outputs[source[0]] = value, out.splitlines()[1:]
        assert outputs["--input"] == outputs["--gen"]
        assert "median_status = median" in outputs["--input"][1]

    def test_median_file_above_the_distance_matrix_limit_is_cut(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "CLASSIFY_LIMIT", 399)
        f = tmp_path / "grid20.txt"
        f.write_text(edge_list_text(grid(20, 20)))
        code, out, err = run(capsys, "compute", "--input", str(f), "--index", "sww")
        assert code == 0, err
        assert f"sww3 = {grid_sww3(20, 20)}\nmethod = cut\n" in out

    def test_tree_file_is_charged_what_its_labelling_takes(self, capsys, tmp_path, monkeypatch):
        # the budget 4 * 300^2 holds (n - 1 + 31) n bytes up to n = 585; 3
        # bytes a side entry would have refused the 400-vertex tree
        monkeypatch.setattr(cli, "CLASSIFY_LIMIT", 300)
        for n, fits in ((400, True), (585, True), (586, False)):
            f = tmp_path / f"tree{n}.txt"
            f.write_text(edge_list_text(tree(7, n)))
            if fits:
                for argv in (["compute", "--index", "sww"], ["classify"]):
                    got = _untimed(run(capsys, *argv, "--input", str(f)))
                    assert got == _untimed(run(capsys, *argv, "--gen", f"tree:7,{n}")), (n, argv)
            else:
                message = f"error = graph too large for the all-pairs distance matrix (n={n} > 300); --force lifts the limit in compute and bench\n"
                assert run(capsys, "classify", "--input", str(f)) == (2, "", message)


def _builds_at_most_1000_vertices(monkeypatch):
    """Make ``generators.generate`` fail on any graph of over 1000 vertices."""
    from steiner_indices import generators

    def small_only(desc, real=generators.generate):
        n, _ = generators.order_size(desc)
        if n > 1000:
            raise AssertionError(f"{desc} ({n} vertices) was built")
        return real(desc)

    monkeypatch.setattr(generators, "generate", small_only)


def hypercube_sw3_sww3(k):
    """(SW_3, SWW_3) of Q_k from its k classes, each of two halves, and the
    four quadrants of N / 4 vertices of each class pair (N = 2^k)."""
    n = 1 << k
    total, unsplit = comb(n, 3), 2 * k * comb(n // 2, 3)
    sw = k * total - unsplit
    return sw, sw + comb(k, 2) * total - (k - 1) * unsplit + 4 * comb(k, 2) * comb(n // 4, 3)


class TestDescriptorGraphIsBuiltOnlyWhenRead:
    def test_hypercube_closed_form_equals_brute_force(self, capsys):
        for k in range(2, 5):
            sw, sww = hypercube_sw3_sww3(k)
            for index, value in (("sw", sw), ("sww", sww)):
                code, out, err = run(capsys, "compute", "--gen", f"hypercube:{k}", "--index", index, "--method", "brute")
                assert code == 0, err
                assert f"{index}3 = {value}\n" in out

    @pytest.mark.parametrize("spec,n,m,value,methods", [
        ("grid:1000,1000", 10**6, 1998000, grid_sww3(1000, 1000), {"cut": "cut", "formula": "formula", "auto": "formula"}),
        ("hypercube:16", 65536, 524288, hypercube_sw3_sww3(16)[1], {"cut": "cut", "auto": "cut"}),
    ], ids=["grid", "hypercube"])
    def test_product_values_from_the_descriptor(self, capsys, monkeypatch, spec, n, m, value, methods):
        _builds_at_most_1000_vertices(monkeypatch)
        for method, tag in methods.items():
            code, out, err = _untimed(run(capsys, "compute", "--gen", spec, "--index", "sww", "--method", method))
            assert (code, out, err) == (0, [f"n = {n}", f"edges = {m}", f"sww3 = {value}", f"method = {tag}"], "")
        if "formula" not in methods:
            code, out, err = run(capsys, "compute", "--gen", spec, "--index", "sww", "--method", "formula")
            assert (code, out) == (2, "")
            assert err == "error = no closed formula applies to this input for index sww, k=3\n"

    @pytest.mark.parametrize("spec,n,m,classes", [("grid:1000,1000", 10**6, 1998000, 1998), ("hypercube:16", 65536, 524288, 16)])
    def test_classify_and_brute_refusal_from_the_descriptor(self, capsys, monkeypatch, spec, n, m, classes):
        _builds_at_most_1000_vertices(monkeypatch)
        code, out, err = run(capsys, "classify", "--gen", spec)
        assert (code, err) == (0, "")
        assert out == (
            f"graph = {spec}\nn = {n}\nedges = {m}\nconnected = true\nbipartite = true\n"
            f"partial_cube = true\nmedian_status = median\nclasses = {classes}\n"
        )
        code, out, err = run(capsys, "compute", "--gen", spec, "--index", "sww", "--method", "brute")
        assert (code, out) == (2, "")
        assert err == f"error = C({n},3) = {comb(n, 3)} subsets exceeds the enumeration guard 5000000; --force lifts it\n"

    @pytest.mark.parametrize("argv", [
        ["compute", "--gen", "complete:4000", "--index", "w"],
        ["compute", "--gen", "cycle:40000", "--index", "sww", "--method", "modular"],
        ["classify", "--gen", "complete:4000"],
    ])
    def test_distance_matrix_refusal_builds_no_graph(self, capsys, monkeypatch, argv):
        _builds_at_most_1000_vertices(monkeypatch)
        code, out, err = run(capsys, *argv)
        n = int(argv[2].split(":")[1])
        assert (code, out) == (2, "")
        assert err.startswith(f"error = graph too large for the all-pairs distance matrix (n={n} > 3000); ")

    @pytest.mark.parametrize("spec,text", [
        ("grid:0,5", "grid needs m, n >= 1"),
        ("hypercube:17", "hypercube needs 0 <= k <= 16"),
        ("path:0", "path needs n >= 1"),
    ])
    def test_bad_parameters_are_refused_before_the_k_check(self, capsys, spec, text):
        for argv in (["compute", "--index", "sww", "--k", "99"], ["classify"], ["bench"]):
            code, out, err = run(capsys, *argv, "--gen", spec)
            assert (code, out, err) == (2, "", f"error = {text}\n"), argv


class TestClassify:
    def test_hypercube(self, capsys):
        code, out, _ = run(capsys, "classify", "--gen", "hypercube:3")
        assert code == 0
        assert "partial_cube = true" in out
        assert "median_status = median" in out

    def test_complete3(self, capsys):
        code, out, _ = run(capsys, "classify", "--gen", "complete:3")
        assert code == 0
        assert "bipartite = false" in out
        assert "partial_cube = false" in out

    def test_cycle6(self, capsys):
        code, out, _ = run(capsys, "classify", "--gen", "cycle:6")
        assert code == 0
        assert "partial_cube = true" in out
        assert "median_status = not_modular" in out
        assert "witness = 0,2,4" in out


class TestBench:
    def test_small_grid(self, capsys):
        code, out, _ = run(capsys, "bench", "--gen", "grid:4,4")
        assert code == 0
        assert "equal = true" in out
        assert "sww3_cut = " in out

    def test_refuses_non_modular(self, capsys):
        code, _, err = run(capsys, "bench", "--gen", "cycle:6")
        assert code == 2
        assert "graph is not modular (witness triple 0,2,4)" in err

    def test_product_class_counts_equal_the_built_graph(self, capsys):
        for spec in ("grid:1,1", "grid:1,7", "grid:5,8", "hypercube:0", "hypercube:1", "hypercube:6"):
            g = generate(parse_descriptor(spec))
            classes = theta_classes(g, method="crossing").class_count
            for command in ("classify", "bench") if g.n >= 3 else ("classify",):  # bench runs k = 3
                code, out, err = run(capsys, command, "--gen", spec)
                assert code == 0, err
                assert f"\nclasses = {classes}\n" in out, (command, spec)

    def test_mismatch_exits_3(self, capsys, monkeypatch):
        real = cli._METHODS["brute"]
        monkeypatch.setitem(cli._METHODS, "brute", lambda an, index, k: real(an, index, k) + 1)
        code, out, err = run(capsys, "bench", "--gen", "grid:4,4")
        assert code == 3
        assert "\nequal = false\n" in out
        assert err.startswith("verification mismatch = sww3: cut gave ")

    def test_guard_skips_brute(self, capsys):
        code, out, _ = run(capsys, "bench", "--gen", "grid:20,20")
        assert code == 0
        assert (
            "\nbrute = skipped: C(400,3) = 10586800 subsets exceeds the enumeration guard 5000000; "
            "--force lifts it\n"
        ) in out
        assert "speedup" not in out


class TestErrors:
    def test_both_sources(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("2 1\n0 1\n")
        code, _, err = run(
            capsys, "compute", "--input", str(f), "--gen", "path:4", "--index", "w"
        )
        assert code == 1
        assert "exactly one" in err

    def test_no_source(self, capsys):
        code, _, err = run(capsys, "compute", "--index", "w")
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "compute", "--input", "/nonexistent.txt", "--index", "w")
        assert code == 1

    def test_input_is_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "compute", "--input", str(tmp_path), "--index", "w")
        assert code == 1 and out == ""
        assert err.startswith("error = ") and str(tmp_path) in err

    def test_malformed_file(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3 2\n0 1\n1 1\n")
        code, _, err = run(capsys, "compute", "--input", str(f), "--index", "w")
        assert code == 1
        assert "line 3" in err

    def test_disconnected_file(self, capsys, tmp_path):
        f = tmp_path / "disc.txt"
        f.write_text("4 2\n0 1\n2 3\n")
        code, _, _ = run(capsys, "compute", "--input", str(f), "--index", "w")
        assert code == 1

    @pytest.mark.parametrize(
        "text,far",
        [
            ("4 3\n0 1\n1 2\n0 2\n", 3),
            ("5 4\n0 1\n1 2\n2 3\n0 3\n", 4),
            ("5 4\n0 1\n1 2\n0 2\n3 4\n", 3),
            ("6 5\n0 1\n1 2\n2 3\n0 3\n4 5\n", 4),
        ],
        ids=["triangle", "c4", "triangle-edge", "c4-edge"],
    )
    def test_disconnected_file_with_n_minus_one_edges(self, capsys, tmp_path, text, far):
        # m = n - 1 but not a tree: the certificate refuses it, and the
        # distance matrix names the first unreachable vertex
        f = tmp_path / "disc.txt"
        f.write_text(text)
        message = f"error = graph is disconnected: no path between vertices 0 and {far}\n"
        for argv in (["compute", "--index", "sww"], ["compute", "--index", "sww", "--method", "cut"], ["classify"], ["bench"]):
            assert run(capsys, *argv, "--input", str(f)) == (1, "", message)

    def test_bad_descriptor(self, capsys):
        code, _, _ = run(capsys, "compute", "--gen", "blob:4", "--index", "w")
        assert code == 1

    def test_bad_k(self, capsys):
        code, _, err = run(capsys, "compute", "--gen", "path:5", "--index", "sw", "--k", "0")
        assert code == 1
        assert "--k" in err

    def test_integrality_error_exits_2(self, capsys, monkeypatch):
        def odd(an, index, k):
            raise IntegralityError("odd sum")

        monkeypatch.setitem(cli._METHODS, "cut", odd)
        argv = ("compute", "--gen", "grid:3,3", "--index", "sww", "--method", "cut")
        assert run(capsys, *argv) == (2, "", "internal error = odd sum\n")

    def test_refused_allocation_exits_2(self, capsys, monkeypatch):
        from steiner_indices import theta

        text = "Unable to allocate 931. GiB for an array with shape (999999, 1000000) and data type bool"

        def too_large(g):  # numpy's refusal of the side matrix of tree:5,1000000
            raise MemoryError(text)

        monkeypatch.setattr(theta, "_tree_labels", too_large)
        argv = ("compute", "--gen", "tree:5,50", "--index", "sw", "--method", "cut")
        assert run(capsys, *argv) == (2, "", f"error = {text}\n")

    def test_bad_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1
