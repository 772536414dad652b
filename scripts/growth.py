#!/usr/bin/env python3
"""Time loading, `decompose`, `decompose_any_planar` and the list-colouring
search under one calibrated protocol, and fit each stage's log-log growth
slope.

    python3 scripts/growth.py --checkout . --sizes 2000 8000 32000 100000

`--checkout` names the source tree whose `src/atforest` is timed, so one
copy of this script measures two commits alike; the inputs come from that
tree's `perfbench/gen.py` and `atforest.testkit`, built untimed.  At each
`--sizes` entry n, `load` (`graph_from_json` on the `graph_to_json` text)
and `decompose` run on fan, strip, random (boundary 8) and all_boundary
(`random_near_triangulation(n, n, 1)`); `any_planar`
(`decompose_any_planar`) runs on sparse, the subgraph
`gen.sparse_subgraph_json(pg, Rng(1), 0.3)` of the random family's
`random_near_triangulation(n, 8, 1)`, loaded untimed, and its certificate
goes through `check_plane_certificate` outside the timing; `colour`
(`is_l_colorable`) runs on path (lists {1, 2, 3}), triangulation
(boundary 3, 5 of the colours a-h per vertex from `Rng(5)`) and
dead_singleton (free edges with {1, 2, 3}, then an edge whose ends both
have {1}).  Two families have one size:
witnesses (`verify`: the 64 Lemma-1 witnesses as one batch) and c10
(`colour`: the 10000 searches of `tests/test_acceptance.py`'s C10 test).
A witness that does not PASS, a sparse certificate the checker refuses,
no colouring where one exists or one for the dead singleton exits 1.

Each call runs REPEATS times, each between two sets of CAL_ROUNDS
calibration rounds (`calibrate` from the checkout's `perfbench/run.py`),
and is also read at the benchmark's reference speed (one round = 1 ms) by
the median round, since a shared host's speed drifts.  The rounds run
after `gc.collect()` with the collector paused, so the garbage a timed
call leaves is not collected inside one, and the median keeps one stalled
round from rescaling a long call.  Per stage the repeat fastest at
reference speed counts; `ref_seconds` and `ref_slope` hold those times,
`seconds` and `slope` the same repeats raw.  The result is one JSON object
on standard output; a reader that closes it early gets no traceback.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

REPEATS = 3
CAL_ROUNDS = 5  # calibration rounds before and after each repeat
FIXED = {"witnesses": 64, "c10": 10000}  # families with one size


def _slope(points: list) -> float:
    """Least-squares slope of log t against log n."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--sizes", type=int, nargs="+", default=[2000, 8000, 16000])
    args = ap.parse_args(argv)

    root = Path(args.checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import gen
    import run as perfbench_run
    from atforest import testkit
    from atforest.choosability import (
        ListAssignment, build_lemma1_lists, is_l_colorable, verify_witness_not_k_choosable)
    from atforest.check import check_plane_certificate
    from atforest.decompose import decompose, decompose_any_planar
    from atforest.graph import Graph, graph_from_json, graph_to_json

    def plane(pg, handle) -> dict:
        text = graph_to_json(pg.graph, pg)
        return {"load": (lambda: graph_from_json(text), None),
                "decompose": (lambda: decompose(pg, handle), None)}

    def colour(g, lists: dict, colourable: bool) -> dict:
        lists = ListAssignment.build(lists)
        return {"colour": (lambda: is_l_colorable(g, lists),
                           lambda c: (c is not None) == colourable)}

    def drawn_lists(vertices, colours: list, k: int, rng) -> dict:
        """k of the colours per vertex, the first of one `rng.shuffle` each."""
        return {v: testkit.Rng.shuffled_copies([rng], colours)[0][:k] for v in vertices}

    def build(family: str, n: int) -> dict:
        """stage -> (call, check of its result or None), built untimed."""
        if family in ("fan", "strip"):
            return plane(*(gen.fan(n) if family == "fan" else gen.zigzag_strip(n, testkit.Rng(1))))
        if family in ("random", "all_boundary"):
            pg = testkit.random_near_triangulation(n, 8 if family == "random" else n, 1)
            return plane(pg, (pg.outer_face[0], pg.outer_face[1]))
        if family == "sparse":
            pg = testkit.random_near_triangulation(n, 8, 1)
            sub = graph_from_json(gen.sparse_subgraph_json(pg, testkit.Rng(1), 0.3))

            def certified(result) -> bool:
                forest, orientation = result
                return check_plane_certificate(sub.graph.edges, forest, orientation.arcs).verdict

            return {"any_planar": (lambda: decompose_any_planar(sub), certified)}
        if family == "path":
            names = [f"v{i:06d}" for i in range(n)]
            return colour(Graph.build(names, list(zip(names, names[1:]))),
                          {v: ["1", "2", "3"] for v in names}, True)
        if family == "triangulation":
            g = testkit.random_near_triangulation(n, 3, seed=1).graph
            return colour(g, drawn_lists(g.vertices, list("abcdefgh"), 5, testkit.Rng(5)), True)
        if family == "dead_singleton":
            xs = [f"x{i:06d}" for i in range(n - 2)]
            g = Graph.build(xs + ["y0", "y1"], list(zip(xs[::2], xs[1::2])) + [("y0", "y1")])
            return colour(g, {**{v: ["1", "2", "3"] for v in xs}, "y0": ["1"], "y1": ["1"]}, False)
        if family == "witnesses":
            cases = [build_lemma1_lists("".join("ab"[i >> j & 1] for j in range(6)))
                     for i in range(n)]
            return {"verify": (lambda: [verify_witness_not_k_choosable(g, l, 3) for g, l in cases],
                               lambda reports: all(r.verdict for r in reports))}
        searches = []  # c10: 20 remainders, n // 20 list draws on each
        for i in range(20):
            k = 4 + i % 9
            pg = testkit.random_near_triangulation(k, min(3 + i % 7, k), seed=1100 + i)
            forest = decompose(pg, (pg.outer_face[0], pg.outer_face[1])).forest
            remainder = Graph(pg.graph.vertices, pg.graph.edges - forest)
            rng = testkit.Rng(31337 + i)
            searches += [(remainder, ListAssignment.build(
                drawn_lists(remainder.vertices, ["c1", "c2", "c3", "c4", "c5", "c6"], 3, rng)))
                for _ in range(n // 20)]
        return {"colour": (lambda: sum(is_l_colorable(g, l) is not None for g, l in searches),
                           lambda coloured: coloured == len(searches))}

    def calibrate() -> list:
        gc.collect()
        gc.disable()
        rounds = [perfbench_run.calibrate() for _ in range(CAL_ROUNDS)]
        gc.enable()
        return rounds

    def best_time(call, check) -> tuple:
        """(reference-speed s, raw s) of the fastest repeat, None on a wrong result."""
        best = (math.inf, math.inf)
        for _ in range(REPEATS):
            before = calibrate()
            start = time.perf_counter_ns()
            result = call()
            raw_ns = time.perf_counter_ns() - start
            if check is not None and not check(result):
                return None
            del result  # freed outside the timed span
            ref_ns = raw_ns * perfbench_run.CAL_REF_NS / statistics.median(before + calibrate())
            best = min(best, (ref_ns / 1e9, raw_ns / 1e9))
        return best

    def table(pts: list) -> dict:
        out = {}
        for prefix, i in (("", 1), ("ref_", 0)):
            ts = [(n, t[i]) for n, t in pts]
            out[prefix + "seconds"] = {str(n): float(f"{t:.4g}") for n, t in ts}
            out[prefix + "slope"] = round(_slope(ts), 3) if len(ts) > 1 else None
        return out

    result = {"checkout": str(root), "repeats": REPEATS}
    for family in ("fan", "strip", "random", "all_boundary", "sparse",
                   "path", "triangulation", "dead_singleton", "witnesses", "c10"):
        points: dict = {}
        for n in [FIXED[family]] if family in FIXED else args.sizes:
            for stage, (call, check) in build(family, n).items():
                times = best_time(call, check)
                if times is None:
                    sys.exit(f"growth.py: {family} {stage} at n = {n} gave a wrong result")
                points.setdefault(stage, []).append((n, times))
        result[family] = {stage: table(pts) for stage, pts in points.items()}
    try:
        print(json.dumps(result, indent=1), flush=True)
    except BrokenPipeError:
        # the reader closed the pipe early; send what is left to devnull
        # so the interpreter's last flush does not fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
