"""Command-line surface: grammar, exit codes, JSON round-trips."""

import argparse
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import atforest.cli as cli
from atforest.cli import EXIT_CAP, EXIT_FAIL, EXIT_INTERNAL, EXIT_PASS, EXIT_USAGE, run
from atforest.decompose import Decomposition, decompose
from atforest.gadgets import build_gadget
from atforest.graph import Graph, graph_from_json, graph_to_json
from atforest.testkit import random_graph, random_near_triangulation


def go(*argv):
    return run(list(argv))


def gen_triangulation(path, n, boundary, seed):
    result = go(
        "gen", "triangulation", "--n", str(n), "--boundary", str(boundary),
        "--seed", str(seed), "--output", str(path),
    )
    assert result.exit_code == EXIT_PASS
    return path


@pytest.fixture
def tri_file(tmp_path):
    return gen_triangulation(tmp_path / "tri.json", 12, 5, 7)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"], ["c", "d"]],
    }))
    return path


_LONG = "1" * 5000  # more digits than int() reads by default


def _shown(text):
    """text as a usage error quotes it: whole up to 20 characters, else its
    first 20 and its length."""
    return repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"


def test_gadget_build_json_round_trips():
    result = go("gadget", "build", "J3")
    assert result.exit_code == EXIT_PASS
    g = graph_from_json(result.output())
    assert (len(g.vertices), len(g.edges)) == (11, 27)


def test_gadget_build_dot():
    result = go("gadget", "build", "J1", "--format", "dot")
    assert result.exit_code == EXIT_PASS and result.output().startswith("graph")


def test_gadget_build_unknown_is_usage_error():
    assert go("gadget", "build", "nosuch").exit_code == EXIT_USAGE
    assert go("gadget", "build", "JFamily").exit_code == EXIT_USAGE


# the small input of `tri_file`, and a boundary-3 one whose certificate has
# 3995 arcs
@pytest.mark.parametrize("n, boundary, seed", [(12, 5, 7), (2000, 3, 1)], ids=["n12", "n2000"])
def test_decompose_and_verify_round_trip(tmp_path, n, boundary, seed):
    tri_file = gen_triangulation(tmp_path / "tri.json", n, boundary, seed)
    tri = json.loads(tri_file.read_text())
    handle = f"{tri['outer_face'][0]},{tri['outer_face'][1]}"
    dec = tmp_path / "dec.json"
    result = go(
        "decompose", "--input", str(tri_file), "--handle", handle, "--output", str(dec),
    )
    assert result.exit_code == EXIT_PASS
    verify = go(
        "verify", "decomposition", "--input", str(tri_file),
        "--decomposition", str(dec), "--json",
    )
    assert verify.exit_code == EXIT_PASS
    assert json.loads(verify.output())["verdict"] == "PASS"
    # there is one check, so no flag chooses it
    assert go("decompose", "--input", str(tri_file), "--handle", handle,
              "--check", "parity").exit_code == EXIT_USAGE


def test_decompose_judges_the_certificate_it_writes(tri_file, tmp_path, monkeypatch):
    # a writer that drops one arc: the file written is the file judged
    write = Decomposition.to_json_dict

    def drop_an_arc(d):
        data = write(d)
        data["arcs"].pop()
        return data

    monkeypatch.setattr(Decomposition, "to_json_dict", drop_an_arc)
    tri = json.loads(tri_file.read_text())
    handle = f"{tri['outer_face'][0]},{tri['outer_face'][1]}"
    dec = tmp_path / "dec.json"
    result = go("decompose", "--input", str(tri_file), "--handle", handle, "--output", str(dec))
    assert result.exit_code == EXIT_FAIL
    assert result.output() == "FAIL: forest and arcs do not partition the edge set"
    assert _verify_decomposition(tri_file, dec).output() == result.output()


@pytest.mark.parametrize("route", ["handle", "no handle"])
def test_decompose_reports_what_verify_decomposition_prints(tmp_path, route):
    tri_file = gen_triangulation(tmp_path / "tri.json", 300, 8, 2)
    tri = json.loads(tri_file.read_text())
    handle = ("--handle", f"{tri['outer_face'][0]},{tri['outer_face'][1]}") if route == "handle" else ()
    dec = tmp_path / "dec.json"
    result = go("decompose", "--input", str(tri_file), *handle, "--output", str(dec), "--json")
    verify = go("verify", "decomposition", "--input", str(tri_file), "--decomposition", str(dec), "--json")
    assert result.exit_code == verify.exit_code == EXIT_PASS
    assert json.loads(result.output())["report"] == json.loads(verify.output())
    assert ("handle" in json.loads(dec.read_text())) == (route == "handle")


def test_decompose_bad_handle_is_usage_error(tri_file):
    assert go("decompose", "--input", str(tri_file), "--handle", "xyz").exit_code == EXIT_USAGE
    assert go("decompose", "--input", str(tri_file), "--handle", "a,b,c").exit_code == EXIT_USAGE


def test_decompose_without_handle_checks_restricted_certificate(tri_file):
    result = go("decompose", "--input", str(tri_file), "--json")
    assert result.exit_code == EXIT_PASS
    data = json.loads(result.output())
    assert data["report"]["verdict"] == "PASS"
    g = graph_from_json(tri_file.read_text()).graph
    forest = {tuple(e) for e in data["forest"]}
    arcs = {tuple(sorted(a)) for a in data["arcs"]}
    assert forest | arcs == g.edges and not forest & arcs


def test_decompose_disconnected_input_is_input_error(tmp_path):
    path = tmp_path / "two_triangles.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d", "e", "f"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"], ["d", "e"], ["e", "f"], ["d", "f"]],
        "rotation": {"a": ["b", "c"], "b": ["c", "a"], "c": ["a", "b"],
                     "d": ["e", "f"], "e": ["f", "d"], "f": ["d", "e"]},
        "outer_face": ["a", "b", "c"],
    }))
    result = go("decompose", "--input", str(path), "--handle", "a,b", "--json")
    assert result.exit_code == EXIT_USAGE
    assert "disconnected" in json.loads(result.output())["error"]
    # without a handle each component is decomposed on its own
    assert go("decompose", "--input", str(path)).exit_code == EXIT_PASS


def test_decompose_without_handle_passes_on_components_and_isolated_vertex(tmp_path):
    path = tmp_path / "triangle_square_point.json"
    path.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d", "e", "f", "g", "h"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"],
                  ["d", "e"], ["e", "f"], ["f", "g"], ["d", "g"]],
        "rotation": {"a": ["b", "c"], "b": ["c", "a"], "c": ["a", "b"],
                     "d": ["e", "g"], "e": ["f", "d"], "f": ["g", "e"], "g": ["d", "f"],
                     "h": []},
        "outer_face": ["a", "b", "c"],
    }))
    result = go("decompose", "--input", str(path), "--json")
    assert result.exit_code == EXIT_PASS
    data = json.loads(result.output())
    assert data["report"]["verdict"] == "PASS"
    assert len(data["forest"]) + len(data["arcs"]) == 7


@pytest.mark.parametrize("names", [["a"], ["a", "b"]], ids=["one", "two"])
def test_decompose_and_verify_pass_on_an_edgeless_graph(tmp_path, names):
    # an isolated vertex has its trivial face, so one vertex is an outer face
    path = tmp_path / "points.json"
    path.write_text(json.dumps({
        "vertices": names, "edges": [], "rotation": {v: [] for v in names},
        "outer_face": names[:1],
    }))
    dec = tmp_path / "dec.json"
    assert go("decompose", "--input", str(path), "--output", str(dec)).exit_code == EXIT_PASS
    assert json.loads(dec.read_text()) == {"arcs": [], "forest": []}
    verify = go("verify", "decomposition", "--input", str(path), "--decomposition", str(dec))
    assert verify.exit_code == EXIT_PASS
    # with a handle it needs a near-triangulation, and this is none
    assert go("decompose", "--input", str(path), "--handle", "a,b").exit_code == EXIT_USAGE


def test_decompose_needs_embedding(k4_file):
    assert go("decompose", "--input", str(k4_file), "--handle", "a,b").exit_code == EXIT_USAGE
    # a certificate that fits k4 still needs the embedding to be verified
    cert = k4_file.parent / "cert.json"
    cert.write_text(json.dumps({"forest": [["a", "b"]], "arcs": []}))
    result = go("verify", "decomposition", "--input", str(k4_file), "--decomposition", str(cert))
    assert result.exit_code == EXIT_USAGE and "needs an embedded input" in result.output()


def test_input_from_standard_input(tri_file, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(tri_file.read_text()))
    from_stdin = go("decompose", "--input", "-")
    assert from_stdin.exit_code == EXIT_PASS
    assert from_stdin.output() == go("decompose", "--input", str(tri_file)).output()


def test_main_prints_the_output_and_returns_the_exit_code(k4_file, capsys):
    assert cli.main(["at", "number", "--input", str(k4_file)]) == EXIT_PASS
    assert capsys.readouterr().out == "4\n"
    # a command with nothing to print prints nothing
    assert cli.main(["gen", "graph", "--n", "3", "--p", "0", "--seed", "1",
                     "--output", str(k4_file.parent / "g3.json")]) == EXIT_PASS
    assert capsys.readouterr().out == ""
    assert cli.main(["at", "number"]) == EXIT_USAGE
    assert capsys.readouterr().out.startswith("usage error:")


def test_verify_lemma_exit_codes():
    assert go("verify", "lemma", "--name", "lemma2").exit_code == EXIT_PASS
    assert go("verify", "lemma", "--name", "nosuch").exit_code == EXIT_USAGE
    assert go("verify", "lemma", "--name", "lemma1", "--selector", "aaaaaa").exit_code == EXIT_PASS
    assert go("verify", "lemma", "--name", "lemma1", "--selector", "ab").exit_code == EXIT_USAGE


def test_verify_lemma1_all_selectors():
    result = go("verify", "lemma", "--name", "lemma1", "--json")
    assert result.exit_code == EXIT_PASS
    assert json.loads(result.output())["cases_examined"] == 64


def test_verify_lemma_report_shape():
    result = go("verify", "lemma", "--name", "lemma2", "--json")
    data = json.loads(result.output())
    assert data["verdict"] == "PASS" and data["cases_examined"] == 2437


def test_verify_sampled(tmp_path):
    result = go(
        "verify", "sampled", "--target", "theorem7", "--count", "3",
        "--seed", "5", "--json",
    )
    assert result.exit_code == EXIT_PASS
    data = json.loads(result.output())
    assert data["seed"] == 5 and data["samples"] == 3
    assert go("verify", "sampled", "--target", "nosuch", "--count", "1", "--seed", "1").exit_code == EXIT_USAGE
    assert go("verify", "sampled", "--target", "nosuch", "--count", "0", "--seed", "1").exit_code == EXIT_USAGE
    assert go("verify", "sampled", "--target", "theorem7", "--count", "-1", "--seed", "1").exit_code == EXIT_USAGE
    # --seed is required
    assert go("verify", "sampled", "--target", "theorem7", "--count", "1").exit_code == EXIT_USAGE


def test_at_number_and_coefficient(k4_file, tmp_path):
    result = go("at", "number", "--input", str(k4_file))
    assert result.exit_code == EXIT_PASS and result.output() == "4"
    k3 = tmp_path / "k3.json"
    k3.write_text(json.dumps({
        "vertices": ["1", "2", "3"],
        "edges": [["1", "2"], ["1", "3"], ["2", "3"]],
    }))
    result = go("at", "coefficient", "--input", str(k3), "--eta", "1=2,2=1,3=0")
    assert result.exit_code == EXIT_PASS and result.output() == "-1"
    assert go("at", "coefficient", "--input", str(k3), "--eta", "1=9,2=0,3=0").exit_code == EXIT_USAGE
    # an item without "=", and an exponent that is no integer
    # and exponents int() reads but a JSON integer cannot spell: a non-ASCII
    # digit, a plus sign, an underscore, a space, leading zeros and more
    # digits than int() reads
    for eta, detail in (("1=2,2,3=0", "vertex=exponent"), ("1=2,2=x,3=0", "bad exponent 'x'"),
                        ("1=\u0662,2=1,3=0", "bad exponent '\u0662'"),
                        ("1=+2,2=1,3=0", "bad exponent '+2'"),
                        ("1=2_0,2=1,3=0", "bad exponent '2_0'"),
                        ("1= 2,2=1,3=0", "bad exponent ' 2'"),
                        ("1=007,2=1,3=0", "bad exponent '007'"),
                        (f"1={_LONG},2=1,3=0", f"bad exponent {_shown(_LONG)}")):
        result = go("at", "coefficient", "--input", str(k3), "--eta", eta)
        assert result.exit_code == EXIT_USAGE and detail in result.output(), eta


def test_at_coefficient_rejects_a_vertex_named_twice(tmp_path):
    ab = tmp_path / "ab.json"
    ab.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    # the coefficient of x_a in x_b - x_a, which a=5,a=1 used to print
    assert go("at", "coefficient", "--input", str(ab), "--eta", "a=1,b=0").output() == "-1"
    result = go("at", "coefficient", "--input", str(ab), "--eta", "a=5,a=1,b=0")
    assert result.exit_code == EXIT_USAGE and "'a' twice" in result.output()


def test_at_coefficient_reads_eta_from_a_file(tmp_path):
    # a certificate remainder too large for one --eta argument (128 KB)
    pg = random_near_triangulation(20000, 8, 1)
    d = decompose(pg, pg.outer_face[:2])
    rest = tmp_path / "rest.json"
    rest.write_text(graph_to_json(Graph.build(pg.graph.vertices, pg.graph.edges - d.forest)))
    eta = tmp_path / "eta.json"
    eta.write_text(json.dumps({"eta": d.orientation.out_degrees()}))
    assert eta.stat().st_size > 128 * 1024
    result = go("at", "coefficient", "--input", str(rest), "--eta-file", str(eta))
    assert result.exit_code == EXIT_PASS and result.output() in ("1", "-1")


def test_at_coefficient_takes_exactly_one_eta(tmp_path):
    ab = tmp_path / "ab.json"
    ab.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    eta = tmp_path / "eta.json"
    eta.write_text('{"eta": {"a": 1, "b": 0}}')
    assert go("at", "coefficient", "--input", str(ab), "--eta-file", str(eta)).output() == "-1"
    assert go("at", "coefficient", "--input", str(ab)).exit_code == EXIT_USAGE
    both = go("at", "coefficient", "--input", str(ab), "--eta", "a=1,b=0", "--eta-file", str(eta))
    assert both.exit_code == EXIT_USAGE and "not allowed with" in both.output()
    # a name twice, an exponent that is no JSON integer, no "eta" object
    for text, detail in (('{"eta": {"a": 5, "a": 1, "b": 0}}', "'a' is named twice"),
                         ('{"eta": {"a": 1.0, "b": 0}}', "exponent of 'a' is not an integer"),
                         ('{"eta": {"a": true, "b": 0}}', "exponent of 'a' is not an integer"),
                         ('{"a": 1, "b": 0}', "not an object with an 'eta' object"),
                         ('[]', "not an object with an 'eta' object")):
        eta.write_text(text)
        result = go("at", "coefficient", "--input", str(ab), "--eta-file", str(eta))
        assert result.exit_code == EXIT_USAGE and detail in result.output(), text


def test_at_orientation(k4_file, tmp_path):
    c4 = tmp_path / "c4.json"
    c4.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
    }))
    ok = go("at", "orientation", "--input", str(c4), "--k", "2", "--json")
    assert ok.exit_code == EXIT_PASS
    data = json.loads(ok.output())
    assert len(data["arcs"]) == 4 and data["even"] != data["odd"]
    assert go("at", "orientation", "--input", str(c4), "--k", "1").exit_code == EXIT_FAIL


def test_at_orientation_stays_within_budget(tmp_path):
    # the acyclic shortcut once pointed v002's and v003's edges at v004
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "vertices": ["v000", "v001", "v002", "v003", "v004"],
        "edges": [["v000", "v002"], ["v000", "v004"], ["v001", "v002"],
                  ["v002", "v003"], ["v002", "v004"], ["v003", "v004"]],
    }))
    ok = go("at", "orientation", "--input", str(path), "--k", "3", "--json")
    assert ok.exit_code == EXIT_PASS
    out = {}
    for t, _ in json.loads(ok.output())["arcs"]:
        out[t] = out.get(t, 0) + 1
    assert max(out.values()) <= 2


def test_at_orientation_acyclic_witness_needs_no_parity_count(tri_file):
    # 28 edges and degeneracy 3: the acyclic witness needs no parity count
    result = go("at", "orientation", "--input", str(tri_file), "--k", "4", "--json")
    assert result.exit_code == EXIT_PASS
    data = json.loads(result.output())
    assert len(data["arcs"]) == 28 and (data["even"], data["odd"]) == (1, 0)


def test_at_orientation_rechecks_the_witness(monkeypatch, tmp_path):
    from atforest.graph import Orientation

    c4 = tmp_path / "c4.json"
    c4.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
    }))

    def star_at_a(g, k):  # out-degree 2 at a, over the budget of k = 2
        return Orientation.build(g, [("a", "b"), ("a", "d"), ("b", "c"), ("c", "d")])

    monkeypatch.setattr(cli, "find_at_orientation", star_at_a)
    result = go("at", "orientation", "--input", str(c4), "--k", "2", "--json")
    assert result.exit_code == EXIT_FAIL
    assert json.loads(result.output())["max_out_degree"] == 2


def _parsers(parser, path=()):
    """(path, parser) for `parser` and every group and leaf command under it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _parsers(child, path + (name,))


def _is_group(parser):
    return any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)


def test_every_leaf_command_takes_json():
    found = {path: p for path, p in _parsers(cli._build_parser()) if not _is_group(p)}
    assert len(found) == 11
    for path, parser in found.items():
        assert any(a.option_strings == ["--json"] for a in parser._actions), path
        # `run` calls the handler each leaf binds
        assert callable(parser.get_default("run")), path


def test_help_is_returned_not_printed(capsys):
    paths = [path for path, _ in _parsers(cli._build_parser())]
    assert len(paths) == 17  # the root, 5 groups and 11 leaves
    for path in paths:
        for flag in ("-h", "--help"):
            result = run([*path, flag])
            assert result.exit_code == EXIT_PASS, path
            assert result.text.startswith(" ".join(("usage: atforest", *path))), path
            assert capsys.readouterr().out == "", path
    # main prints the text as argparse would: with one newline at the end
    assert cli.main(["at", "number", "-h"]) == EXIT_PASS
    assert capsys.readouterr().out == run(["at", "number", "-h"]).text + "\n"


def test_cap_exit_code(tmp_path):
    from atforest.graph import graph_to_json
    from atforest.testkit import random_graph

    big = tmp_path / "big.json"
    big.write_text(graph_to_json(random_graph(12, 1.0, 0)))  # K12, 66 edges
    # 66 > (k - 1)|V| = 24: no orientation fits, whatever the cap
    result = go("at", "orientation", "--input", str(big), "--k", "3")
    assert result.exit_code == EXIT_FAIL
    # at number starts at k = 7 (66 <= 72) below the degeneracy 11, so the
    # budget scan runs, and its live table outgrows TABLE_CAP
    assert go("at", "number", "--input", str(big)).exit_code == EXIT_CAP


def test_closed_pipe_ends_without_a_traceback():
    # the output is far larger than a pipe buffer, so the write fails once
    # the reader has gone
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "atforest.cli", "gen", "triangulation", "--n", "5000",
         "--boundary", "8", "--seed", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_PASS
    assert "Traceback" not in err, err


@pytest.mark.parametrize("script, args", [
    ("run_verifications.py", ["--samples", "20", "--seed", "1"]),
    ("growth.py", ["--sizes", "40", "60"]),
])
def test_scripts_end_quietly_on_a_closed_pipe(script, args):
    # the pipe is closed before the script writes, so every write fails
    root = Path(cli.__file__).resolve().parents[2]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, str(root / "scripts" / script), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_PASS
    assert "Traceback" not in err, err


def test_growth_times_every_family_and_stage():
    root = Path(cli.__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "growth.py"), "--sizes", "40", "60"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_PASS, proc.stderr
    data = json.loads(proc.stdout)
    plane = "load build decompose"
    stages = {"fan": plane, "strip": plane, "random": plane, "all_boundary": plane, "sparse": "any_planar",
              "path": "colour", "triangulation": "colour",
              "dead_singleton": "colour", "witnesses": "verify", "c10": "colour"}
    assert set(data) == {"checkout", "repeats", *stages}
    for family, names in stages.items():
        assert set(data[family]) == set(names.split()), family
        sizes = {"witnesses": ["64"], "c10": ["10000"]}.get(family, ["40", "60"])
        for stage, row in data[family].items():
            for key in ("seconds", "ref_seconds"):
                assert list(row[key]) == sizes and all(t > 0 for t in row[key].values())
            for key in ("slope", "ref_slope"):
                assert (row[key] is None) == (len(sizes) == 1), (family, stage)


def _script(name):
    """scripts/<name>.py loaded as a module, its main() not run."""
    root = Path(cli.__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location(name, root / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("sizes", ["0", "-5", "2", "5 6", "3 3", "8 8", "8 9 8"])
def test_growth_refuses_sizes_its_families_cannot_run(capsys, sizes):
    # argparse's usage error, before the checkout is put on sys.path
    path = list(sys.path)
    with pytest.raises(SystemExit) as exit_info:
        _script("growth").main(["--sizes", *sizes.split()])
    assert exit_info.value.code == EXIT_USAGE and sys.path == path
    out, err = capsys.readouterr()
    assert out == "" and "argument --sizes: each size must be at least 8, and no two equal" in err


@pytest.mark.parametrize("size", ["+10", "1_0", "010", " 12", "\u0662", _LONG],
                         ids=["plus", "underscore", "leading-zero", "space", "arabic-indic", "5000-digits"])
def test_growth_reads_sizes_as_json_integers(capsys, size):
    # texts int() reads and a JSON integer cannot spell; refused before the
    # checkout is put on sys.path
    path = list(sys.path)
    with pytest.raises(SystemExit) as exit_info:
        _script("growth").main(["--sizes", "8", size])
    assert exit_info.value.code == EXIT_USAGE and sys.path == path
    out, err = capsys.readouterr()
    assert out == "" and f"argument --sizes: {_shown(size)} is not an integer" in err


def test_growth_reads_integers_as_the_cli_does():
    # the script keeps its own copy of the rule, since it imports atforest
    # from --checkout; the two accept the same texts, with the same values
    size = _script("growth")._size
    for text in (*_NOT_JSON_INTEGERS, "0", "-0", "8", "-12", "10", str(2**64), "", "-", "00", "-01",
                 "4 ", "4\n", "--4", "1e3", "1.0", "0x10", "\uff14", "-" + _LONG, "+10", "010", " 12"):
        values = []
        for read in (size, cli._integer):
            try:
                values.append(read(text))
            except argparse.ArgumentTypeError as refused:
                values.append(str(refused))
        assert values[0] == values[1], text


def test_run_verifications_pins_the_exhaustive_counts(monkeypatch, capsys):
    script = _script("run_verifications")
    assert script.main(["--samples", "2"]) == EXIT_PASS
    # a passing verdict with one count off fails the run
    report = script.verify_lemma2()
    report.stats["k4"] -= 1
    monkeypatch.setattr(script, "verify_lemma2", lambda: report)
    assert script.main(["--samples", "2"]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "expected k4=2392" in out and out.rstrip().endswith("overall: FAIL")


def test_run_verifications_refuses_a_negative_sample_count(monkeypatch, capsys):
    script = _script("run_verifications")
    ran = []
    for name in ("verify_lemma1_all", "verify_lemma2", "verify_lemma6",
                 "verify_theorem7_core", "verify_sampled"):
        monkeypatch.setattr(script, name, lambda *args, name=name: ran.append(name))
    # argparse's usage error, before any verifier runs
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--samples", "-1"])
    assert exit_info.value.code == EXIT_USAGE and ran == []
    out, err = capsys.readouterr()
    assert out == "" and "--samples: -1 is below 0" in err


def test_choose_check(tmp_path):
    c4 = tmp_path / "c4.json"
    c4.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
    }))
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"lists": {v: ["1", "2"] for v in "abcd"}}))
    ok = go("choose", "check", "--input", str(c4), "--lists", str(lists), "--json")
    assert ok.exit_code == EXIT_PASS
    assert json.loads(ok.output())["coloring"]
    # witness mode: C4 with 2-lists is colorable, so "not 2-choosable" fails
    bad = go("choose", "check", "--input", str(c4), "--lists", str(lists), "--k", "2")
    assert bad.exit_code == EXIT_FAIL
    # the same list at both ends of an edge: no colouring
    lists.write_text(json.dumps({"lists": {**{v: ["1", "2"] for v in "abcd"}, "a": ["1"], "b": ["1"]}}))
    none = go("choose", "check", "--input", str(c4), "--lists", str(lists), "--json")
    assert none.exit_code == EXIT_FAIL
    assert json.loads(none.output()) == {"verdict": "FAIL", "detail": "no proper coloring from the lists"}
    # the search depth does not grow with n: a 3000-vertex path with 3-lists
    names = [f"v{i:04d}" for i in range(3000)]
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"vertices": names, "edges": list(zip(names, names[1:]))}))
    lists.write_text(json.dumps({"lists": {v: ["1", "2", "3"] for v in names}}))
    assert go("choose", "check", "--input", str(path), "--lists", str(lists)).exit_code == EXIT_PASS


@pytest.mark.parametrize("coloring, reason", [
    ({"a": "1", "b": "1", "c": "2", "d": "2"}, "FAIL: edge ('a', 'b') has colour '1' at both ends"),
    ({"a": "1", "b": "2", "c": "3", "d": "2"}, "FAIL: vertex 'c' is not coloured from its list"),
    ({"a": "1", "b": "2", "c": "1"}, "FAIL: vertex 'd' is not coloured from its list"),
])
def test_choose_check_refuses_a_coloring_its_checker_refuses(tmp_path, monkeypatch, coloring, reason):
    # the search is patched to answer wrongly; the PASS rests on the checker
    c4 = tmp_path / "c4.json"
    c4.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
    }))
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"lists": {v: ["1", "2"] for v in "abcd"}}))
    monkeypatch.setattr(cli, "is_l_colorable", lambda g, l: coloring)
    result = go("choose", "check", "--input", str(c4), "--lists", str(lists))
    assert (result.exit_code, result.output()) == (EXIT_FAIL, reason)


_VERDICT_CASES = [
    ("verify decomposition valid", "PASS", ("verify", "decomposition", "--input", "{tri}", "--decomposition", "{cert}")),
    ("verify decomposition tampered", "FAIL",
     ("verify", "decomposition", "--input", "{tri}", "--decomposition", "{tampered}")),
    ("verify lemma", "PASS", ("verify", "lemma", "--name", "lemma2")),
    ("verify sampled", "PASS", ("verify", "sampled", "--target", "theorem7", "--count", "2", "--seed", "1")),
    ("at orientation k=2", "PASS", ("at", "orientation", "--input", "{c4}", "--k", "2")),
    ("at orientation k=1", "FAIL", ("at", "orientation", "--input", "{c4}", "--k", "1")),
    ("choose check colourable", "PASS", ("choose", "check", "--input", "{c4}", "--lists", "{two}")),
    ("choose check uncolourable", "FAIL", ("choose", "check", "--input", "{c4}", "--lists", "{stuck}")),
    ("choose check witness", "PASS", ("choose", "check", "--input", "{k4}", "--lists", "{two}", "--k", "2")),
    ("choose check no witness", "FAIL", ("choose", "check", "--input", "{c4}", "--lists", "{two}", "--k", "2")),
]


@pytest.mark.parametrize("verdict, command", [c[1:] for c in _VERDICT_CASES], ids=[c[0] for c in _VERDICT_CASES])
def test_every_verdict_leaf_follows_one_rule(tri_file, k4_file, tmp_path, verdict, command):
    # exit 0 or 1 by the JSON's verdict, a detail on every FAIL, and the
    # plain text of a FAIL is its report line
    files = {"tri": tri_file, "k4": k4_file, "cert": tmp_path / "cert.json", "tampered": tmp_path / "bad.json",
             "c4": tmp_path / "c4.json", "two": tmp_path / "two.json", "stuck": tmp_path / "stuck.json"}
    assert go("decompose", "--input", str(tri_file), "--output", str(files["cert"])).exit_code == EXIT_PASS
    cert = json.loads(files["cert"].read_text())
    files["tampered"].write_text(json.dumps({**cert, "arcs": cert["arcs"][1:]}))
    files["c4"].write_text(json.dumps({
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
    }))
    files["two"].write_text(json.dumps({"lists": {v: ["1", "2"] for v in "abcd"}}))
    files["stuck"].write_text(json.dumps({"lists": {**{v: ["1", "2"] for v in "abcd"}, "a": ["1"], "b": ["1"]}}))
    argv = [arg.format(**files) for arg in command]
    result = go(*argv, "--json")
    data = json.loads(result.output())
    assert data["verdict"] == verdict
    assert result.exit_code == {"PASS": EXIT_PASS, "FAIL": EXIT_FAIL}[verdict]
    if verdict == "FAIL":
        assert data["detail"]
        text = go(*argv)
        assert text.exit_code == EXIT_FAIL and text.output() == f"FAIL: {data['detail']}"


def test_gen_graph_deterministic(tmp_path):
    a = go("gen", "graph", "--n", "9", "--p", "0.4", "--seed", "3")
    b = go("gen", "graph", "--n", "9", "--p", "0.4", "--seed", "3")
    assert a.exit_code == EXIT_PASS and a.output() == b.output()
    g = graph_from_json(a.output())
    assert len(g.vertices) == 9


_SEEDED = (
    ("gen", "triangulation", "--n", "5", "--boundary", "3"),
    ("gen", "graph", "--n", "5", "--p", "0.5"),
    ("verify", "sampled", "--target", "corollary3", "--count", "1"),
)


@pytest.mark.parametrize("command", _SEEDED, ids=lambda c: " ".join(c[:2]))
def test_seed_range(command):
    # `Rng` reduces seeds mod 2**64: -1 and 2**64 - 1 (or 0 and 2**64)
    # would give byte-identical output, so only 0 ... 2**64 - 1 parse
    for seed in (-1, 2**64):
        result = go(*command, "--seed", str(seed))
        assert result.exit_code == EXIT_USAGE and "--seed" in result.output(), seed
    for seed in (0, 2**64 - 1):
        result = go(*command, "--seed", str(seed), "--json")
        assert result.exit_code == EXIT_PASS, seed
        if command[0] == "verify":
            assert json.loads(result.output())["seed"] == seed


def test_integer_options_name_no_private_function(k4_file, tmp_path, capsys):
    # argparse names the type function in its message when int() raises
    lists = tmp_path / "lists.json"
    for command in _integer_options(k4_file, lists):
        result = go(*command, "x")
        assert result.exit_code == EXIT_USAGE, command
        assert result.output() == f"usage error: argument {command[-1]}: 'x' is not an integer"
    with pytest.raises(SystemExit) as exit_info:
        _script("run_verifications").main(["--seed", "x"])
    err = capsys.readouterr().err
    assert exit_info.value.code == EXIT_USAGE
    assert "argument --seed: 'x' is not an integer" in err
    assert "_integer" not in err and "partial" not in err


def _integer_options(k4_file, lists):
    """Each leaf's command line up to one of its integer options."""
    lists.write_text(json.dumps({"lists": {v: ["1", "2", "3"] for v in "abcd"}}))
    return [(*c, "--seed") for c in _SEEDED] + [
        ("gen", "triangulation", "--boundary", "3", "--seed", "1", "--n"),
        ("gen", "triangulation", "--n", "5", "--seed", "1", "--boundary"),
        ("gen", "graph", "--p", "0.5", "--seed", "1", "--n"),
        ("verify", "sampled", "--target", "corollary3", "--seed", "1", "--count"),
        ("at", "orientation", "--input", str(k4_file), "--k"),
        ("choose", "check", "--input", str(k4_file), "--lists", str(lists), "--k"),
    ]


# texts int() reads but a JSON integer cannot spell: a non-ASCII digit, a
# plus sign, an underscore, a space, leading zeros; and more digits than
# int() reads
_NOT_JSON_INTEGERS = ("\u0662", "+3", "1_0", " 4", "007", _LONG)


def test_integer_reads_exactly_json_integers():
    for text, value in (("0", 0), ("-0", 0), ("7", 7), ("-12", -12), ("10", 10),
                        (str(2**64), 2**64)):
        assert cli._integer(text) == value, text
    for text in (*_NOT_JSON_INTEGERS, "", "-", "00", "-01", "4 ", "4\n", "--4",
                 "1e3", "1.0", "0x10", "\uff14", "-" + _LONG):
        with pytest.raises(argparse.ArgumentTypeError) as refused:
            cli._integer(text)
        assert str(refused.value) == f"{_shown(text)} is not an integer"
    assert cli._integer("-3", least=-3) == -3 and cli._integer("5", least=0, most=5) == 5
    with pytest.raises(argparse.ArgumentTypeError, match="^-4 is below -3$"):
        cli._integer("-4", least=-3)
    with pytest.raises(argparse.ArgumentTypeError, match=r"^6 is outside 0 \.\.\. 5$"):
        cli._integer("6", least=0, most=5)


def test_every_integer_option_reads_only_json_integers(k4_file, tmp_path, capsys):
    for command in _integer_options(k4_file, tmp_path / "lists.json"):
        for text in _NOT_JSON_INTEGERS:
            result = go(*command, text)
            assert result.exit_code == EXIT_USAGE, (command, text)
            assert result.output() == (f"usage error: argument {command[-1]}: "
                                       f"{_shown(text)} is not an integer")
    for option in ("--samples", "--seed"):
        for text in _NOT_JSON_INTEGERS:
            with pytest.raises(SystemExit) as exit_info:
                _script("run_verifications").main([option, text])
            assert exit_info.value.code == EXIT_USAGE, (option, text)
            assert f"argument {option}: {_shown(text)} is not an integer" in capsys.readouterr().err


def test_a_refused_text_is_echoed_short(tmp_path):
    # the first 20 characters and the length, not 5000 digits
    ab = tmp_path / "ab.json"
    ab.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    cut = "'11111111111111111111'... (5000 characters)"
    for argv, said in ((("gen", "graph", "--n", "5", "--p", "0.5", "--seed", _LONG), "argument --seed: "),
                       (("at", "coefficient", "--input", str(ab), "--eta", f"a={_LONG},b=0"), "bad exponent ")):
        result = go(*argv)
        assert result.exit_code == EXIT_USAGE and said + cut in result.output()
        assert len(result.output()) < 200, result.output()
    # a value int() reads but a bound refuses is cut the same way, unquoted
    result = go("gen", "graph", "--n", "5", "--p", "0.5", "--seed", "9" * 4000)
    assert result.output() == ("usage error: argument --seed: 99999999999999999999... (4000 characters) "
                               "is outside 0 ... 18446744073709551615")
    result = go("at", "orientation", "--input", str(ab), "--k", "-" + "9" * 4000)
    assert result.output() == "usage error: argument --k: -9999999999999999999... (4001 characters) is below 1"


def test_a_long_name_is_echoed_short(tri_file, tmp_path):
    # each refusal names its flag or entry in under 200 characters, not 5000
    long = "x" * 5000
    cut = "'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)"
    data, bad = _decomposition_files(tri_file, tmp_path)
    data["forest"][0] = [long, "a", "b"]
    bad.write_text(json.dumps(data))
    ab = tmp_path / "ab.json"
    ab.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    for argv, said in (
        (("verify", "decomposition", "--input", str(tri_file), "--decomposition", str(bad)),
         "forest entry ['xxxxxxxxxxxxxxxxxx... (5014 characters) is not two distinct vertex names"),
        (("decompose", "--input", str(tri_file), "--handle", f"{long},b"), f"({cut}, 'b') is not a boundary edge"),
        (("verify", "lemma", "--name", long), f"usage error: unknown lemma {cut}"),
        (("verify", "sampled", "--target", long, "--count", "1", "--seed", "1"), f"input error: unknown target {cut}"),
        (("gadget", "build", long), f"input error: unknown gadget {cut}"),
        (("gadget", "build", "JFamily", "--selector", long), f"length-6 word over {{a,b}}: {cut}"),
        (("at", "coefficient", "--input", str(ab), "--eta", f"{long}=1,{long}=0"), f"--eta names vertex {cut} twice"),
    ):
        result = go(*argv)
        assert result.exit_code == EXIT_USAGE and said in result.output(), argv[:2]
        # the file's path is the caller's, not echoed input
        assert len(result.output().replace(str(bad), "")) < 200, result.output()
    # a short name is still echoed whole
    assert go("verify", "lemma", "--name", "lemma9").output() == "usage error: unknown lemma 'lemma9'"


def test_usage_errors_found_by_argparse_honour_json(k4_file):
    result = go("at", "orientation", "--input", str(k4_file), "--k", "0", "--json")
    assert result.exit_code == EXIT_USAGE
    assert result.output() == '{"error": "argument --k: 0 is below 1", "verdict": "ERROR"}'
    # argparse takes a prefix of --json as the flag itself
    assert json.loads(go("at", "number", "--input", str(k4_file), "--nope", "--js").output())["verdict"] == "ERROR"
    # a leaf's own name, not a flag
    assert go("gadget", "build", "--", "--json").output() == "input error: unknown gadget '--json'"


@pytest.mark.parametrize("command", [
    ("gadget", "build", "J3"),
    ("gadget", "build", "J3", "--format", "dot"),
    ("decompose", "--handle", "HANDLE", "--input"),
    ("gen", "triangulation", "--n", "5", "--boundary", "3", "--seed", "1"),
    ("gen", "graph", "--n", "5", "--p", "0.5", "--seed", "1"),
], ids=["gadget build json", "gadget build dot", "decompose", "gen triangulation", "gen graph"])
def test_unwritable_output_is_usage_error(tri_file, tmp_path, command):
    if command[0] == "decompose":
        pg = graph_from_json(tri_file.read_text())
        handle = f"{pg.outer_face[0]},{pg.outer_face[1]}"
        command = tuple(handle if a == "HANDLE" else a for a in command) + (str(tri_file),)
    for path in (tmp_path, tmp_path / "missing" / "x.json"):
        result = go(*command, "--output", str(path))
        assert result.exit_code == EXIT_USAGE, (command, path)
        assert result.output().startswith(f"usage error: cannot write output to {str(path)!r}: ")


def test_selector_where_it_means_nothing_is_usage_error():
    for name in ("lemma2", "lemma6", "theorem7core"):
        result = go("verify", "lemma", "--name", name, "--selector", "ab")
        assert result.exit_code == EXIT_USAGE, name
        assert result.output() == f"usage error: only lemma1 takes --selector, not {name!r}"
    for name in ("J3", "G2"):
        result = go("gadget", "build", name, "--selector", "zz")
        assert result.exit_code == EXIT_USAGE, name
        assert result.output() == f"input error: only JFamily takes a selector, not {name!r}"
    assert go("gadget", "build", "jfamily", "--selector", "ababab").exit_code == EXIT_PASS


def test_graph_output_is_graph_to_json_and_its_payload(tmp_path):
    # the text of `graph_to_json`, and the --json payload is that text parsed
    pg = random_near_triangulation(40, 5, 3)
    built = [
        (("gen", "triangulation", "--n", "40", "--boundary", "5", "--seed", "3"), graph_to_json(pg.graph, pg)),
        (("gen", "graph", "--n", "9", "--p", "0.4", "--seed", "3"), graph_to_json(random_graph(9, 0.4, 3))),
        (("gadget", "build", "G2"), graph_to_json(build_gadget("G2"))),
    ]
    for i, (command, text) in enumerate(built):
        assert go(*command).output() == text, command
        assert go(*command, "--json").output() == json.dumps(json.loads(text), sort_keys=True), command
        path = tmp_path / f"out{i}.json"
        result = go(*command, "--output", str(path), "--json")
        assert path.read_text() == text + "\n"
        assert result.output() == json.dumps(json.loads(text), sort_keys=True), command


def test_usage_errors():
    assert go().exit_code == EXIT_USAGE
    assert go("nosuch").exit_code == EXIT_USAGE
    assert go("at", "number", "--input", "/does/not/exist.json").exit_code == EXIT_USAGE
    assert go("gen", "graph", "--n", "5", "--p", "0.5").exit_code == EXIT_USAGE  # no seed


def _decomposition_files(tri_file, tmp_path):
    tri = json.loads(tri_file.read_text())
    handle = f"{tri['outer_face'][0]},{tri['outer_face'][1]}"
    dec = tmp_path / "dec.json"
    assert go("decompose", "--input", str(tri_file), "--handle", handle,
              "--output", str(dec)).exit_code == EXIT_PASS
    return json.loads(dec.read_text()), tmp_path / "bad.json"


def _verify_decomposition(tri_file, dec_path):
    return go("verify", "decomposition", "--input", str(tri_file),
              "--decomposition", str(dec_path))


def test_decomposition_with_three_item_forest_entry_is_input_error(tri_file, tmp_path):
    data, bad = _decomposition_files(tri_file, tmp_path)
    data["forest"][0] = data["forest"][0] + ["extra"]
    bad.write_text(json.dumps(data))
    assert _verify_decomposition(tri_file, bad).exit_code == EXIT_USAGE


def test_decomposition_with_one_vertex_handle_is_input_error(tri_file, tmp_path):
    data, bad = _decomposition_files(tri_file, tmp_path)
    data["handle"] = ["a"]
    bad.write_text(json.dumps(data))
    assert _verify_decomposition(tri_file, bad).exit_code == EXIT_USAGE


def test_graph_with_list_rotation_is_input_error(tri_file, tmp_path):
    data = json.loads(tri_file.read_text())
    data["rotation"] = list(data["rotation"].values())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert go("decompose", "--input", str(bad)).exit_code == EXIT_USAGE


STRING_TRIANGLE = {"vertices": "abc", "edges": ["ab", "bc", "ac"],
                   "rotation": {"a": "bc", "b": "ca", "c": "ab"}, "outer_face": "abc"}
STRING_TRIANGLE_ARRAYS = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
                          "rotation": {"a": ["b", "c"], "b": ["c", "a"], "c": ["a", "b"]},
                          "outer_face": ["a", "b", "c"]}


@pytest.mark.parametrize("command, data, sentence", [
    # a string is not the array of its characters
    (("decompose",), STRING_TRIANGLE, "'vertices' is not an array"),
    (("decompose",), {**STRING_TRIANGLE_ARRAYS, "edges": ["ab", "bc", "ac"]},
     "'edges' is not an array of two-name arrays"),
    (("decompose",), {**STRING_TRIANGLE_ARRAYS, "rotation": {"a": "bc", "b": ["c", "a"], "c": ["a", "b"]}},
     "'rotation' is not an object of arrays"),
    (("decompose",), {**STRING_TRIANGLE_ARRAYS, "outer_face": "abc"}, "'outer_face' is not an array"),
    (("decompose",), {**STRING_TRIANGLE_ARRAYS, "edges": {"a": "b"}}, "'edges' is not an array of two-name arrays"),
    (("decompose",), {**STRING_TRIANGLE_ARRAYS, "rotation": [["b", "c"]]}, "'rotation' is not an object of arrays"),
    # an edge of one or three names
    (("at", "number"), {"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]},
     "'edges' is not an array of two-name arrays"),
    (("at", "number"), {"vertices": ["a", "b"], "edges": [["a"]]}, "'edges' is not an array of two-name arrays"),
    # names that are neither strings nor integers: arrays, null, booleans, floats
    (("at", "number"), {"vertices": [["a"], "b", None, True], "edges": [[["a"], "b"], [None, True]]},
     "'vertices' holds a name that is neither a string nor an integer"),
    (("at", "number"), {"vertices": ["a", "b"], "edges": [["a", True]]},
     "'edges' holds a name that is neither a string nor an integer"),
    (("decompose",), {**STRING_TRIANGLE_ARRAYS, "rotation": {"a": ["b", "c"], "b": ["c", 1.5], "c": ["a", "b"]}},
     "'rotation' holds a name that is neither a string nor an integer"),
    (("decompose",), {**STRING_TRIANGLE_ARRAYS, "outer_face": ["a", "b", None]},
     "'outer_face' holds a name that is neither a string nor an integer"),
    # a top level that is not an object, and a missing list
    (("at", "number"), [1], "the top level is not an object"),
    (("at", "number"), {}, "the graph has no 'vertices' array"),
    (("decompose",), {"vertices": ["a", "b"], "rotation": {}, "outer_face": []}, "the graph has no 'edges' array"),
])
def test_graph_json_of_the_wrong_shape_is_usage_error(tmp_path, command, data, sentence):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = go(*command, "--input", str(bad))
    assert result.exit_code == EXIT_USAGE
    assert result.output() == f"usage error: cannot read graph from {str(bad)!r}: {sentence}"


def test_graph_json_with_integer_names_reads_them_as_strings(tmp_path):
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({
        "vertices": [1, 2, 3, "x"], "edges": [[1, 2], [2, 3], [1, 3], [3, "x"]],
        "rotation": {"1": [2, 3], "2": [3, 1], "3": [1, "x", 2], "x": [3]}, "outer_face": [1, 2, 3, "x", 3],
    }))
    pg = graph_from_json(path.read_text())
    assert pg.graph.vertices == ("1", "2", "3", "x")
    assert pg.graph.edges == {("1", "2"), ("1", "3"), ("2", "3"), ("3", "x")}
    assert pg.rotation["3"] == ("1", "x", "2") and pg.outer_face == ("1", "2", "3", "x", "3")
    assert go("decompose", "--input", str(path)).exit_code == EXIT_PASS
    k3 = tmp_path / "k3.json"
    k3.write_text(json.dumps({"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [0, 2]]}))
    assert go("at", "number", "--input", str(k3)).output() == "3"


def test_certificate_with_integer_names_verifies(tmp_path):
    # a certificate may name vertices as the graph file does: integers read
    # as their decimal strings, for either kind of certificate
    path = tmp_path / "ints.json"
    path.write_text(json.dumps({
        "vertices": [1, 2, 3, 4], "edges": [[1, 2], [2, 3], [3, 4], [1, 4], [1, 3]],
        "rotation": {"1": [2, 3, 4], "2": [3, 1], "3": [4, 1, 2], "4": [1, 3]}, "outer_face": [1, 2, 3, 4],
    }))
    for handle in (["--handle", "1,2"], []):
        cert = tmp_path / "cert.json"
        assert go("decompose", "--input", str(path), *handle, "--output", str(cert)).exit_code == EXIT_PASS
        data = json.loads(cert.read_text())
        data["forest"] = [[int(v) for v in pair] for pair in data["forest"]]
        data["arcs"] = [[int(v) for v in pair] for pair in data["arcs"]]
        if handle:
            data["handle"] = [int(v) for v in data["handle"]]
        assert data["forest"] and data["arcs"]
        cert.write_text(json.dumps(data))
        result = go("verify", "decomposition", "--input", str(path), "--decomposition", str(cert))
        assert result.exit_code == EXIT_PASS, result.output()


def test_lists_given_as_a_list_is_input_error(k4_file, tmp_path):
    bad = tmp_path / "lists.json"
    bad.write_text(json.dumps({"lists": [["a", ["1", "2", "3"]]]}))
    result = go("choose", "check", "--input", str(k4_file), "--lists", str(bad))
    assert result.exit_code == EXIT_USAGE
    assert result.output() == f"usage error: cannot read lists from {str(bad)!r}: 'lists' is not an object"


@pytest.mark.parametrize("data, what", [({"lists": 5}, "'lists' is not an object"),
                                        ([1], "the top level is not an object"),
                                        ({}, "the lists file has no 'lists' object")],
                         ids=["lists-int", "top-array", "no-lists"])
def test_lists_file_that_is_not_an_object_of_objects_is_input_error(k4_file, tmp_path, data, what):
    # refused in a sentence, not in Python's wording of the failed lookup
    bad = tmp_path / "lists.json"
    bad.write_text(json.dumps(data))
    result = go("choose", "check", "--input", str(k4_file), "--lists", str(bad))
    assert result.exit_code == EXIT_USAGE
    assert result.output() == f"usage error: cannot read lists from {str(bad)!r}: {what}"


def test_color_list_given_as_a_string_is_input_error(k4_file, tmp_path):
    # "12" is not the list ["1", "2"]: any list that is not an array is refused
    bad = tmp_path / "lists.json"
    bad.write_text(json.dumps({"lists": {"a": "12", "b": ["1", "2"], "c": ["1", "3"], "d": ["2", "3"]}}))
    result = go("choose", "check", "--input", str(k4_file), "--lists", str(bad))
    assert result.exit_code == EXIT_USAGE
    assert result.output() == f"usage error: cannot read lists from {str(bad)!r}: the color list of 'a' is not an array"


@pytest.mark.parametrize("color", [None, True, 1.5, [1]], ids=["null", "bool", "float", "array"])
def test_color_that_is_neither_string_nor_integer_is_input_error(tmp_path, color):
    # colors follow the vertex name rule: str() would read null as "None"
    ab = tmp_path / "ab.json"
    ab.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    bad = tmp_path / "lists.json"
    bad.write_text(json.dumps({"lists": {"a": ["1", color], "b": ["1", "2"]}}))
    result = go("choose", "check", "--input", str(ab), "--lists", str(bad))
    assert result.exit_code == EXIT_USAGE
    assert result.output() == (f"usage error: cannot read lists from {str(bad)!r}: the color list of 'a' "
                               "holds a name that is neither a string nor an integer")


def test_integer_colors_read_as_their_decimal_strings(tmp_path):
    ab = tmp_path / "ab.json"
    ab.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"lists": {"a": [1, "2"], "b": [1]}}))
    result = go("choose", "check", "--input", str(ab), "--lists", str(lists), "--json")
    assert result.exit_code == EXIT_PASS
    assert json.loads(result.output()) == {"coloring": {"a": "2", "b": "1"}, "verdict": "PASS",
                                           "detail": "proper colouring from the lists"}


def test_deeply_nested_input_is_input_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    result = go("at", "number", "--input", str(deep))
    assert result.exit_code == EXIT_USAGE
    assert "cannot read graph" in result.output()


def test_deep_fan_returns_an_exit_code(tmp_path):
    # a 6000-vertex fan with the apex on the handle nests 6000 chord steps;
    # the flat step log keeps the certificate's JSON depth the same at
    # every n, so it is written and verified
    from atforest.graph import graph_to_json
    from atforest.testkit import plane_graph_from_triangles

    names = [f"v{i:04d}" for i in range(6000)]
    tris = [(names[0], names[i + 1], names[i]) for i in range(1, len(names) - 1)]
    pg = plane_graph_from_triangles(names, tris, tuple(names))
    fan = tmp_path / "fan.json"
    fan.write_text(graph_to_json(pg.graph, pg))
    cert = tmp_path / "dec.json"
    result = go("decompose", "--input", str(fan), "--handle", "v0000,v5999",
                "--output", str(cert))
    assert result.exit_code == EXIT_PASS, result.output()
    verify = go("verify", "decomposition", "--input", str(fan), "--decomposition", str(cert))
    assert verify.exit_code == EXIT_PASS, verify.output()


def test_unexpected_exception_is_internal_error(monkeypatch):
    def boom(args):
        raise RuntimeError("kaput")

    monkeypatch.setattr(cli, "_gen_graph", boom)
    result = go("gen", "graph", "--n", "5", "--p", "0.5", "--seed", "1", "--json")
    assert result.exit_code == EXIT_INTERNAL
    assert json.loads(result.output()) == {"verdict": "ERROR", "error": "RuntimeError: kaput"}
    plain = go("gen", "graph", "--n", "5", "--p", "0.5", "--seed", "1")
    assert plain.output() == "internal error: RuntimeError: kaput"


def test_loader_bug_is_internal_error(monkeypatch, k4_file):
    # the loaders refuse malformed input with ValueError; any other
    # exception from one is a bug in it, not a bad file
    def bug(data):
        raise KeyError("vertices")

    monkeypatch.setattr(cli, "graph_from_json_dict", bug)
    result = go("at", "number", "--input", str(k4_file))
    assert result.exit_code == EXIT_INTERNAL, result.output()


def _handleless_files(tri_file, tmp_path):
    cert = tmp_path / "any.json"
    assert go("decompose", "--input", str(tri_file), "--output", str(cert)).exit_code == EXIT_PASS
    return json.loads(cert.read_text()), cert


def test_handleless_certificate_round_trips(tri_file, tmp_path):
    data, cert = _handleless_files(tri_file, tmp_path)
    assert "handle" not in data
    result = go("verify", "decomposition", "--input", str(tri_file),
                "--decomposition", str(cert), "--json")
    assert result.exit_code == EXIT_PASS
    assert json.loads(result.output())["verdict"] == "PASS"


def test_handleless_certificate_with_a_reversed_arc_fails(tri_file, tmp_path):
    data, cert = _handleless_files(tri_file, tmp_path)
    out = {}
    for t, _ in data["arcs"]:
        out[t] = out.get(t, 0) + 1
    # reverse an arc into a vertex that already has out-degree 2
    i = next(i for i, (_, h) in enumerate(data["arcs"]) if out.get(h) == 2)
    data["arcs"][i].reverse()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = _verify_decomposition(tri_file, bad)
    assert result.exit_code == EXIT_FAIL
    assert result.output() == "FAIL: out-degree 3 exceeds bound 2"


@pytest.mark.parametrize("key, sentence", [
    ("forest", "the certificate has no 'forest' array"),
    ("arcs", "the certificate has no 'arcs' array"),
])
def test_certificate_without_a_list_is_input_error_with_a_sentence(tri_file, tmp_path, key, sentence):
    data, _ = _handleless_files(tri_file, tmp_path)
    if key == "forest":
        del data["forest"]
    else:
        data["arcs"] = {"a": "b"}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = _verify_decomposition(tri_file, bad)
    assert result.exit_code == EXIT_USAGE
    assert result.output() == f"usage error: cannot read decomposition from {str(bad)!r}: {sentence}"


@pytest.mark.parametrize("text, command, what, key", [
    ('{"lists": {"a": ["1"], "b": ["1"], "a": ["1", "2"]}}',
     ("choose", "check", "--input", "{ab}", "--lists", "{bad}"), "lists", "a"),
    ('{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]], '
     '"rotation": {"a": ["x"], "b": ["c", "a"], "c": ["a", "b"], "a": ["b", "c"]}, "outer_face": ["a", "b", "c"]}',
     ("decompose", "--input", "{bad}", "--handle", "a,b"), "graph", "a"),
    (None, ("verify", "decomposition", "--input", "{tri}", "--decomposition", "{bad}"), "decomposition", "forest"),
    ('{"vertices": ["a", "b"], "edges": [], "edges": [["a", "b"]]}',
     ("at", "number", "--input", "{bad}"), "graph", "edges"),
], ids=["lists", "rotation", "certificate", "edges"])
def test_a_json_object_that_names_a_key_twice_is_input_error(tri_file, tmp_path, text, command, what, key):
    # json would let the last value win, and each command would exit 0:
    # choose check with "PASS: proper colouring from the lists", though a's first
    # list leaves the edge ab uncolourable
    if text is None:  # a valid certificate with an empty forest named first
        data, _ = _decomposition_files(tri_file, tmp_path)
        text = '{"forest": [], ' + json.dumps(data)[1:]
    files = {"ab": tmp_path / "ab.json", "bad": tmp_path / "twice.json", "tri": tri_file}
    files["ab"].write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    files["bad"].write_text(text)
    result = go(*(arg.format(**files) for arg in command))
    assert result.exit_code == EXIT_USAGE, result.output()
    assert result.output() == f"usage error: cannot read {what} from {str(files['bad'])!r}: {key!r} is named twice"


def _non_edge(tri_file):
    tri = json.loads(tri_file.read_text())
    edges = {tuple(sorted(e)) for e in tri["edges"]}
    return next([u, v] for u in tri["vertices"] for v in tri["vertices"]
                if u < v and (u, v) not in edges)


@pytest.mark.parametrize("case", [
    "valid", "arc-over-no-edge", "forest-pair-over-no-edge", "forest-entry-twice",
    "forest-entry-reversed", "arc-twice", "arc-and-its-reverse",
])
def test_certificate_entries_that_do_not_partition_fail(tri_file, tmp_path, case):
    # forest entries and arcs alike: a pair over no edge or a repeated
    # entry is a false claim (exit 1), not a malformed file (exit 2)
    data, _ = _handleless_files(tri_file, tmp_path)
    forest, arcs = data["forest"], data["arcs"]
    if case == "arc-over-no-edge":
        arcs[0] = _non_edge(tri_file)
    elif case == "forest-pair-over-no-edge":
        forest[0] = _non_edge(tri_file)
    elif case == "forest-entry-twice":
        forest.append(list(forest[0]))
    elif case == "forest-entry-reversed":
        forest.append(forest[0][::-1])
    elif case == "arc-twice":
        arcs.append(list(arcs[0]))
    elif case == "arc-and-its-reverse":
        arcs.append(arcs[0][::-1])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    result = _verify_decomposition(tri_file, bad)
    if case == "valid":
        assert result.exit_code == EXIT_PASS
    else:
        assert result.exit_code == EXIT_FAIL
        assert result.output() == "FAIL: forest and arcs do not partition the edge set"


def test_budget_below_one_is_usage_error(k4_file, tmp_path):
    lists = tmp_path / "lists.json"
    lists.write_text(json.dumps({"lists": {v: ["1", "2", "3"] for v in "abcd"}}))
    for k in ("0", "-1"):
        result = go("at", "orientation", "--input", str(k4_file), "--k", k)
        assert result.exit_code == EXIT_USAGE
        assert result.output() == f"usage error: argument --k: {k} is below 1"
        result = go("choose", "check", "--input", str(k4_file), "--lists", str(lists), "--k", k)
        assert result.exit_code == EXIT_USAGE
    assert go("at", "orientation", "--input", str(k4_file), "--k", "x").exit_code == EXIT_USAGE
    assert go("at", "orientation", "--input", str(k4_file), "--k", "1").exit_code == EXIT_FAIL
