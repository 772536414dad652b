"""The four workloads: their seeded inputs, their ops and their checks.

An op is one unit of work as a user sees it.  A workload provides

* `setup(seed)`: the op list, built from the seed alone;
* `run(op, tr)`: the op itself, timed by the caller from start to result
  or error;
* `check(op, result)`: `(problem or None, digest text, counts)`, run
  outside op timing;
* `error_counts(op, exc)`: counts for an op that raised;
* `wraps`: module attributes to trace in the traced run.

Spans are named `<module>.<layer>` after the package module whose public
function they time.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass

import atforest.testkit as testkit
from atforest.alon_tarsi import at_number, eulerian_diff, poly_coefficient
from atforest.choosability import build_lemma1_lists, verify_witness_not_k_choosable
from atforest.errors import CapExceeded
from atforest.gadgets import verify_lemma2, verify_lemma6, verify_sampled, verify_theorem7_core
from atforest.graph import Orientation

import checks
import gen

# the package re-exports functions named like these modules, so fetch the
# modules themselves; their attributes are what tracing wraps
dec = importlib.import_module("atforest.decompose")
graph = importlib.import_module("atforest.graph")


@dataclass(frozen=True)
class Op:
    kind: str
    n: int  # vertex count, for growth fits
    data: tuple


def _sub_rng(seed: int, label: int) -> testkit.Rng:
    return testkit.Rng(seed).split(label)


class Workload:
    wraps: list = []

    def error_counts(self, op: Op, exc: Exception) -> dict:
        return {}


# ---------------------------------------------------------------------------
# plane pipeline: JSON text -> graph_from_json -> decompose + verify, or
# decompose_any_planar -> certificate JSON text


def _count_faces(tr, pg) -> None:
    tr.count("graph.faces", len(pg.faces))


def _count_steps(tr, d) -> None:
    steps = checks.trace_steps(d.trace)
    tr.count("decompose.chord_steps", steps.get("chord", 0))
    tr.count("decompose.ear_steps", steps.get("ear", 0))


class PlaneWorkload(Workload):
    wraps = [
        (graph, "graph_from_json", "graph.load", None),
        (graph, "build_plane_graph", "graph.build_plane_graph", _count_faces),
        (dec, "build_plane_graph", "graph.build_plane_graph", _count_faces),
        (graph, "validate_near_triangulation", "graph.validate", None),
        (dec, "validate_near_triangulation", "graph.validate", None),
        (dec, "decompose", "decompose.decompose", _count_steps),
        (dec, "decompose_any_planar", "decompose.any_planar", None),
        (dec, "verify_decomposition", "decompose.verify", None),
        (testkit, "random_near_triangulation", "testkit.generate", None),
        (testkit, "plane_graph_from_triangles", "testkit.generate", None),
    ]

    def run(self, op: Op, tr):
        text, handle = op.data
        pg = graph.graph_from_json(text)
        if handle is not None:
            d = dec.decompose(pg, handle)
            report = dec.verify_decomposition(pg, d)
            forest, arcs = d.forest, d.orientation.arcs
            with tr.span("graph.serialize"):
                cert = json.dumps(d.to_json_dict(), sort_keys=True)
        else:
            forest, orientation = dec.decompose_any_planar(pg)
            arcs, report = orientation.arcs, None
            with tr.span("graph.serialize"):
                cert = json.dumps(
                    {"forest": [list(e) for e in sorted(forest)],
                     "arcs": [list(a) for a in sorted(arcs)]},
                    sort_keys=True,
                )
        return forest, arcs, report, cert

    def check(self, op: Op, result):
        forest, arcs, report, cert = result
        text, handle = op.data
        data = json.loads(text)
        if handle is not None:
            bound = checks.near_triangulation_bound(data["outer_face"], handle)
        else:  # restricted certificate: out-degree <= 2 everywhere
            bound = lambda v: 2
        problem = checks.certificate_problem(data["edges"], forest, arcs, bound, handle)
        if problem is None and report is not None and not report.verdict:
            problem = f"package verifier disagrees: {report.detail}"
        counts = {"decompose.arcs": len(arcs), "decompose.forest_edges": len(forest)}
        return problem, cert, counts


class PlaneRandom(PlaneWorkload):
    """Random-stacking near-triangulations (boundary 8 or n/2, handle on
    the first outer edge), each followed by a sparse connected plane
    subgraph of the same instance that goes through decompose_any_planar."""

    name = "plane-random"
    instances, lo, hi, keep = 8, 200, 1000, 0.3

    def setup(self, seed: int) -> list:
        rng = _sub_rng(seed, 1)
        # boundary lengths alternate along the size grid, then the order
        # of the instances is shuffled
        shapes = [(n, 8 if i % 2 == 0 else n // 2) for i, n in
                  enumerate(gen.log_spaced_sizes(self.instances, self.lo, self.hi))]
        rng.shuffle(shapes)
        ops = []
        for i, (n, boundary) in enumerate(shapes):
            pg = testkit.random_near_triangulation(n, boundary, rng.next_u64())
            handle = (pg.outer_face[0], pg.outer_face[1])
            ops.append(Op("triangulation", n, (graph.graph_to_json(pg.graph, pg), handle)))
            sub = gen.sparse_subgraph_json(pg, rng.split(i), self.keep)
            ops.append(Op("subgraph", n, (sub, None)))
        return ops


class PlaneChordal(PlaneWorkload):
    """Fans with the apex on the handle and seeded zigzag strips: every
    decomposition step is a chord split."""

    name = "plane-chordal"
    instances, lo, hi = 16, 50, 700

    def setup(self, seed: int) -> list:
        rng = _sub_rng(seed, 2)
        # fans and strips alternate along the size grid
        shapes = list(enumerate(gen.log_spaced_sizes(self.instances, self.lo, self.hi)))
        rng.shuffle(shapes)
        ops = []
        for i, n in shapes:
            if i % 2 == 0:
                pg, handle = gen.fan(n)
                kind = "fan"
            else:
                pg, handle = gen.zigzag_strip(n, rng.split(i))
                kind = "strip"
            ops.append(Op(kind, n, (graph.graph_to_json(pg.graph, pg), handle)))
        return ops


# ---------------------------------------------------------------------------
# Alon-Tarsi kernels on small planar near-triangulations within the
# default caps

# (n, boundary) shapes, each used equally often: <= 24 arcs for the parity
# count and <= 40 edges for acyclic coefficients.  at_number stays at
# n <= 7 (<= 15 edges, inside the orientation-search cap of 20): from n = 8
# on, its exhaustive search costs up to 3x more on one random graph than on
# another of the same shape, and a few such queries made the pass time
# depend on the seed.
_PARITY_SHAPES = [(8, 3), (8, 4), (9, 3), (9, 4), (9, 5), (10, 3), (10, 4), (10, 5)]
_ACYCLIC_SHAPES = [(n, b) for n in range(11, 16) for b in (3, 4, 5)]
_AT_SHAPES = [(n, b) for n in (6, 7) for b in range(3, n + 1)]


class AtKernels(Workload):
    name = "at-kernels"
    wraps = [
        (testkit, "random_near_triangulation", "testkit.generate", None),
        (testkit, "plane_graph_from_triangles", "testkit.generate", None),
    ]
    parity_pairs, acyclic, at_queries = 128, 90, 108

    def __init__(self):
        self._parity: dict = {}  # id(orientation) -> its eulerian_diff result

    def setup(self, seed: int) -> list:
        rng = _sub_rng(seed, 3)

        def instance(shapes, i):
            n, b = shapes[i % len(shapes)]
            return testkit.random_near_triangulation(n, b, rng.next_u64()).graph

        ops = []
        for i in range(self.parity_pairs):
            g = instance(_PARITY_SHAPES, i)
            d = testkit.random_orientation(g, rng)
            ops.append(Op("eulerian_diff", len(g.vertices), (d,)))
            # checked against the op before it: |coefficient| = |even - odd|
            ops.append(Op("poly_coefficient", len(g.vertices), (g, d.out_degrees(), d)))
        for i in range(self.acyclic):
            g = instance(_ACYCLIC_SHAPES, i)
            order = list(g.vertices)
            rng.shuffle(order)
            pos = {v: i for i, v in enumerate(order)}
            d = Orientation.build(
                g, [(u, v) if pos[u] < pos[v] else (v, u) for u, v in sorted(g.edges)]
            )
            ops.append(Op("acyclic_coefficient", len(g.vertices), (g, d.out_degrees(), d)))
        for i in range(self.at_queries):
            g = instance(_AT_SHAPES, i)
            ops.append(Op("at_number", len(g.vertices), (g,)))
        return ops

    def run(self, op: Op, tr):
        if op.kind == "eulerian_diff":
            with tr.span("alon_tarsi.eulerian_diff"):
                return eulerian_diff(op.data[0])
        if op.kind == "at_number":
            with tr.span("alon_tarsi.at_number"):
                return at_number(op.data[0])
        g, eta, _ = op.data
        with tr.span("alon_tarsi.poly_coefficient"):
            return poly_coefficient(g, eta)

    def check(self, op: Op, result):
        if op.kind == "eulerian_diff":
            d = op.data[0]
            self._parity[id(d)] = result
            ok = result.even_count >= 1 and result.odd_count >= 0
            return (None if ok else "parity count misses the empty sub-digraph",
                    f"{result.even_count},{result.odd_count}",
                    {"alon_tarsi.arcs": len(d.arcs)})
        if op.kind == "at_number":
            g = op.data[0]
            lo, hi = checks.at_number_range(g.vertices, sorted(g.edges))
            ok = lo <= result <= hi
            return (None if ok else f"at_number {result} outside [{lo}, {hi}]",
                    str(result), {"alon_tarsi.arcs": len(g.edges)})
        g, _, d = op.data
        if op.kind == "acyclic_coefficient":
            ok = abs(result) == 1
            problem = None if ok else f"acyclic coefficient {result} is not +-1"
        else:
            pc = self._parity.pop(id(d), None)
            ok = pc is not None and abs(result) == abs(pc.diff)
            problem = None if ok else "|coefficient| != |even - odd|"
        return problem, str(result), {"alon_tarsi.arcs": len(g.edges)}

    def error_counts(self, op: Op, exc: Exception) -> dict:
        if op.kind == "eulerian_diff":
            self._parity.pop(id(op.data[0]), None)
        return {"alon_tarsi.cap_exceeded": int(isinstance(exc, CapExceeded))}


# ---------------------------------------------------------------------------
# gadget suite: the paper's tightness checks

_EXHAUSTIVE = {
    "lemma2": (verify_lemma2, 2437),
    "lemma6": (verify_lemma6, 5433984),
    "theorem7core": (verify_theorem7_core, 765),
}


class GadgetSuite(Workload):
    name = "gadget-suite"
    batches, batch_size = 12, 25

    def setup(self, seed: int) -> list:
        rng = _sub_rng(seed, 4)
        ops = [Op("witness", 0, ("".join("ab"[i >> j & 1] for j in range(6)),))
               for i in range(64)]
        ops += [Op("exhaustive", 0, (name,)) for name in _EXHAUSTIVE]
        for target in ("theorem2", "theorem7", "corollary3"):
            for _ in range(self.batches):
                ops.append(Op("sampled", 0, (target, self.batch_size, rng.randrange(1 << 31))))
        return ops

    def run(self, op: Op, tr):
        if op.kind == "witness":
            with tr.span("choosability.witness"):
                g, lists = build_lemma1_lists(op.data[0])
                return g, lists, verify_witness_not_k_choosable(g, lists, 3)
        if op.kind == "exhaustive":
            with tr.span("gadgets.exhaustive"):
                return _EXHAUSTIVE[op.data[0]][0]()
        with tr.span("gadgets.sampled"):
            return verify_sampled(*op.data)

    def check(self, op: Op, result):
        if op.kind == "witness":
            g, lists, report = result
            sizes_ok = all(len(cols) == 3 for _, cols in lists.lists)
            colorable = checks.has_list_coloring(sorted(g.edges), dict(lists.lists))
            ok = report.verdict and sizes_ok and not colorable
            return (None if ok else "selector witness does not hold",
                    str(report), {"choosability.witnesses": int(ok)})
        stats = result.stats
        counts = {
            "gadgets.cases_examined": stats.get("cases_examined", 0),
            "gadgets.samples": stats.get("samples", 0),
            "gadgets.k4_found": stats.get("k4", 0),
            "gadgets.j_members": stats.get("j_member", 0),
        }
        problem = None if result.verdict else f"verifier failed: {result.detail}"
        if op.kind == "exhaustive":
            name = op.data[0]
            counts[f"gadgets.{name}_cases"] = stats.get("cases_examined", 0)
            expected = _EXHAUSTIVE[name][1]
            if stats.get("cases_examined") != expected:
                problem = f"{name} examined {stats.get('cases_examined')} cases, not {expected}"
        elif stats.get("samples") != op.data[1]:
            problem = f"{stats.get('samples')} samples, not {op.data[1]}"
        digest = json.dumps(result.to_json_dict(), sort_keys=True)
        return problem, digest, counts


WORKLOADS = {w.name: w for w in (PlaneRandom, PlaneChordal, AtKernels, GadgetSuite)}
