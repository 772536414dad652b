"""The certificate checkers of `atforest.check`, the import boundary
that keeps them apart from the code they judge, and the modules as the
package's only import path."""

import ast
import os
import re
import subprocess
import sys
import types
from dataclasses import astuple
from pathlib import Path

import pytest

import atforest
from atforest.alon_tarsi import eulerian_diff
from atforest.check import (
    check_at_witness,
    check_forest_orientation,
    check_star_forest,
    read_certificate,
)
from atforest.decompose import decompose
from atforest.graph import Graph, Orientation, edge
from helpers import is_acyclic, quad_with_chord

SRC = Path(atforest.__file__).parent

# producer -> its module; none of them may call checker code
PRODUCERS = {
    "decompose": "decompose",
    "decompose_any_planar": "decompose",
    "_triangulate_embedding": "decompose",
    "_path_configs": "gadgets",
    "random_star_forest": "gadgets",
    "find_at_orientation": "alon_tarsi",
}


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _imports(tree):
    """(relative level, module) of every import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield node.level, node.module or ""
        elif isinstance(node, ast.Import):
            yield from ((0, alias.name) for alias in node.names)


def test_check_imports_only_the_stdlib_and_report():
    found = list(_imports(_trees()["check"]))
    assert found
    for level, module in found:
        if level:
            assert (level, module) == (1, "report"), module
        else:
            assert module.split(".")[0] in sys.stdlib_module_names, module


def test_no_producer_references_checker_code():
    trees = _trees()
    check_names = {"check"} | {
        node.name for node in trees["check"].body if isinstance(node, ast.FunctionDef)
    }
    for producer, module in PRODUCERS.items():
        defs = [n for n in trees[module].body if isinstance(n, ast.FunctionDef) and n.name == producer]
        assert len(defs) == 1, producer
        used = {n.id for n in ast.walk(defs[0]) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(defs[0]) if isinstance(n, ast.Attribute)}
        assert not used & check_names, (producer, used & check_names)
    # only the command line and the verifiers import the checker
    importers = {
        name for name, tree in trees.items()
        if any(m == "check" or m.endswith(".check") for _, m in _imports(tree))
    }
    assert importers <= {"cli", "decompose", "gadgets"}, importers


def test_every_module_binds_as_itself_and_imports_alone():
    """`import atforest.<m> as x` gives the module, not a name the package
    root would shadow it with, and each module imports in a fresh
    interpreter, so no import cycle hides behind another module's order."""
    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    assert {"decompose", "errors", "gadgets", "graph"} <= set(modules), modules
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    for m in modules:
        scope: dict = {}
        exec(f"import atforest.{m} as x", scope)
        assert isinstance(scope["x"], types.ModuleType), (m, scope["x"])
        assert scope["x"].__name__ == f"atforest.{m}"
        proc = subprocess.run([sys.executable, "-c", f"import atforest.{m}"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, (m, proc.stderr)


def test_certificate_rejects_cycle_and_dropped_arc():
    pg = quad_with_chord()
    g = pg.graph
    d = decompose(pg, ("x", "y"))
    two = lambda v: 2
    arcs = d.orientation.arcs
    assert check_forest_orientation(g.edges, d.forest, arcs, two).verdict
    # the forest x-y-v closes a triangle
    cyc = frozenset({edge("x", "y"), edge("y", "v"), edge("x", "v")})
    report = check_forest_orientation(g.edges, cyc, {("u", "y"), ("u", "v")}, two)
    assert not report.verdict and report.detail == "forest contains a cycle"
    # dropping an arc leaves its edge uncovered
    dropped = set(sorted(arcs)[1:])
    report = check_forest_orientation(g.edges, d.forest, dropped, two)
    assert not report.verdict and "partition" in report.detail
    # out-degree bound and directed cycles
    assert not check_forest_orientation(g.edges, d.forest, arcs, lambda v: 0).verdict
    loop = {("x", "y"), ("y", "u"), ("u", "v"), ("v", "x")}
    report = check_forest_orientation(g.edges, frozenset({edge("y", "v")}), loop, two)
    assert not report.verdict and report.detail == "orientation has a directed cycle"
    # two arcs on one edge, with a forest edge dropped to keep the count
    t, h = min(arcs)
    report = check_forest_orientation(g.edges, d.forest - {min(d.forest)}, arcs | {(h, t)}, two)
    assert not report.verdict and "partition" in report.detail
    # the counts add up, but an edge is in both, or an arc or a forest pair
    # is over no edge, so one edge is left out
    assert d.forest == {edge("u", "v"), edge("v", "y"), edge("x", "y")}
    for forest, arc_set in (
        ({edge("u", "v"), edge("u", "y"), edge("x", "y")}, arcs),
        (d.forest, {("u", "y"), ("x", "u")}),
        ({edge("u", "v"), edge("u", "x"), edge("x", "y")}, arcs),
    ):
        report = check_forest_orientation(g.edges, frozenset(forest), arc_set, two)
        assert not report.verdict and "partition" in report.detail


def test_is_acyclic():
    assert is_acyclic([("a", "b"), ("b", "c"), ("a", "c")])
    assert not is_acyclic([("a", "b"), ("b", "c"), ("c", "a")])
    assert is_acyclic([])
    # a loop, not a recursion: a directed cycle through 10^5 vertices
    names = [f"v{i:05d}" for i in range(100_000)]
    path = list(zip(names, names[1:]))
    assert is_acyclic(path)
    assert not is_acyclic(path + [(names[-1], names[0])])


def test_star_forest_validation():
    # each forest is its own host, so only the star rules can refuse it
    star = frozenset({("a", "b"), ("a", "c")})
    assert check_star_forest(star, frozenset({"a"}), star).verdict
    # a path on 4 vertices is not a star forest under any center choice
    path = frozenset({("a", "b"), ("b", "c"), ("c", "d")})
    for centers in ({"b"}, {"b", "c"}, {"a", "c"}, {"a", "b", "c", "d"}):
        assert not check_star_forest(path, frozenset(centers), path).verdict
    # two-center edge rejected
    ab = frozenset({("a", "b")})
    assert not check_star_forest(ab, frozenset({"a", "b"}), ab).verdict
    # leaf shared by two stars rejected
    two = frozenset({("a", "x"), ("b", "x")})
    shared = check_star_forest(two, frozenset({"a", "b"}), two)
    assert not shared.verdict


def test_star_forest_edge_outside_the_host_fails():
    host = Graph.build("abc", [("a", "b")])
    edges, centers = frozenset({("a", "b"), ("a", "c")}), frozenset({"a"})
    assert check_star_forest(edges, centers, edges).verdict
    report = check_star_forest(edges, centers, host.edges)
    assert not report.verdict
    assert report.detail == "edge ('a', 'c') not in host"
    assert report.counterexample == ["a", "c"]


def test_at_witness_counts_parity_only_for_a_cyclic_witness():
    g = Graph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])

    def no_count():
        raise AssertionError("an acyclic witness needs no parity count")

    acyclic = {("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")}
    report = check_at_witness(g.edges, acyclic, 3, no_count)
    assert report.verdict and report.stats == {"max_out_degree": 2, "even": 1, "odd": 0}
    assert not check_at_witness(g.edges, acyclic, 2, no_count).verdict  # a has 2 > 1
    cycle = {("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")}
    count = lambda: astuple(eulerian_diff(Orientation.build(g, cycle)))
    report = check_at_witness(g.edges, cycle, 2, count)
    assert report.verdict and (report.stats["even"], report.stats["odd"]) == (2, 0)
    assert not check_at_witness(g.edges, cycle, 2, lambda: (1, 1)).verdict
    report = check_at_witness(g.edges, cycle - {("d", "a")}, 2, no_count)
    assert not report.verdict and report.detail.endswith("3 of 4 edges")


@pytest.mark.parametrize("data, sentence", [
    ([], "the certificate has no 'forest' array"),
    ({"arcs": []}, "the certificate has no 'forest' array"),
    ({"forest": [], "arcs": {"a": "b"}}, "the certificate has no 'arcs' array"),
    ({"forest": [["a", "b", "c"]], "arcs": []}, "forest entry ['a', 'b', 'c'] is not two distinct"),
    ({"forest": [["a", "a"]], "arcs": []}, "forest entry ['a', 'a'] is not two distinct"),
    ({"forest": [], "arcs": [["a"]]}, "arcs entry ['a'] is not two distinct"),
    ({"forest": [], "arcs": [["a", True]]}, "arcs entry ['a', True] is not two distinct"),
    ({"forest": [], "arcs": [], "handle": "ab"}, "the handle 'ab' is not two distinct"),
    ({"forest": [], "arcs": [], "handle": ["a"]}, "the handle ['a'] is not two distinct"),
    ({"forest": [], "arcs": [["a", 1.5]]}, "arcs entry ['a', 1.5] is not two distinct"),
    ({"forest": [[1, "1"]], "arcs": []}, "forest entry [1, '1'] is not two distinct"),
])
def test_read_certificate_refuses_a_malformed_file_with_a_sentence(data, sentence):
    with pytest.raises(ValueError, match=re.escape(sentence)):
        read_certificate(data)


def test_read_certificate_sorts_the_forest_and_keeps_the_arcs():
    data = {"forest": [["b", "a"]], "arcs": [["c", "b"]], "trace": {}}
    assert read_certificate(data) == ([("a", "b")], [("c", "b")], None)
    data["handle"] = ["b", "a"]
    assert read_certificate(data)[2] == ("b", "a")
    # an integer name reads as its decimal string, as in a graph file
    data = {"forest": [[10, 9]], "arcs": [[2, "x"]], "handle": [10, 9]}
    assert read_certificate(data) == ([("10", "9")], [("2", "x")], ("10", "9"))


@pytest.mark.parametrize("forest, arcs", [
    ([["c", "a"]], [["b", "c"]]),
    ([["a", "b"]], [["c", "a"]]),
    ([["a", "b"], ["b", "a"]], [["b", "c"]]),
    ([["a", "b"], ["a", "b"]], [["b", "c"]]),
    ([], [["a", "b"], ["b", "c"], ["b", "c"]]),
    ([], [["a", "b"], ["b", "c"], ["c", "b"]]),
], ids=["forest-pair-over-no-edge", "arc-over-no-edge", "forest-entry-reversed",
        "forest-entry-twice", "arc-twice", "two-arcs-on-one-edge"])
def test_read_certificate_keeps_what_only_the_partition_rule_refuses(forest, arcs):
    # a path a-b-c: each file reads, repeats kept, and fails the partition
    edges = {("a", "b"), ("b", "c")}
    read_forest, read_arcs, _ = read_certificate({"forest": forest, "arcs": arcs})
    assert (len(read_forest), len(read_arcs)) == (len(forest), len(arcs))
    report = check_forest_orientation(edges, read_forest, read_arcs, lambda v: 2)
    assert not report.verdict and report.detail == "forest and arcs do not partition the edge set"
    assert check_forest_orientation(edges, [("a", "b")], [("b", "c")], lambda v: 2).verdict
