#!/usr/bin/env python3
"""Time loading (`graph_from_json`) and `decompose` on fans, zigzag strips
and random boundary-8 near-triangulations, and fit each stage's log-log
growth slope per family.

    python3 scripts/bench_shelling.py --checkout . --sizes 2000 8000 32000 100000

`--checkout` names the source tree whose `src/atforest` is timed, so one
copy of this script measures two commits alike; the inputs always come
from that tree's `perfbench/gen.py` and `atforest.testkit`.  Each input is
built and written with `graph_to_json` untimed; then `graph_from_json`
runs three times on that text and `decompose` three times on the input.
Each repeat runs between two sets of CAL_ROUNDS calibration rounds
(`calibrate` from the checkout's `perfbench/run.py`) and is also read at
the benchmark's reference speed (one round = 1 ms) by the median round:
a shared host's speed drifts, and the same tree read 0.229 s and 0.112 s
raw on two runs.  The rounds run after `gc.collect()` with the collector
paused, so the garbage a timed call leaves is not collected inside one,
and the median keeps one stalled 1 ms round from rescaling a 1 s call.
Per stage the repeat fastest at reference speed counts; `ref_seconds`
and `ref_slope` hold those times, `seconds` and `slope` the same repeats
raw.  `--no-gc` switches the cyclic garbage collector off around each
timed call.  The result is one JSON object on standard output; a reader
that closes it early gets no traceback.
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


def _slope(points: list) -> float:
    """Least-squares slope of log t against log n."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", default=str(Path(__file__).resolve().parent.parent))
    ap.add_argument("--sizes", type=int, nargs="+", default=[2000, 8000, 16000])
    ap.add_argument("--no-gc", action="store_true")
    args = ap.parse_args(argv)

    root = Path(args.checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import gen
    import run as perfbench_run
    from atforest import testkit
    from atforest.decompose import decompose
    from atforest.graph import graph_from_json, graph_to_json

    def build(family: str, n: int):
        if family == "fan":
            return gen.fan(n)
        if family == "strip":
            return gen.zigzag_strip(n, testkit.Rng(1))
        pg = testkit.random_near_triangulation(n, 8, 1)
        return pg, (pg.outer_face[0], pg.outer_face[1])

    def calibrate() -> list:
        gc.collect()
        gc.disable()
        rounds = [perfbench_run.calibrate() for _ in range(CAL_ROUNDS)]
        gc.enable()
        return rounds

    def best_time(call) -> tuple:
        """(reference-speed s, raw s) of the repeat fastest at reference speed."""
        best = (math.inf, math.inf)
        for _ in range(REPEATS):
            before = calibrate()
            if args.no_gc:
                gc.disable()
            start = time.perf_counter_ns()
            result = call()
            raw_ns = time.perf_counter_ns() - start
            gc.enable()
            del result  # freed outside the timed span
            ref_ns = raw_ns * perfbench_run.CAL_REF_NS / statistics.median(before + calibrate())
            best = min(best, (ref_ns / 1e9, raw_ns / 1e9))
        return best

    def summary(pts: list) -> dict:
        return {
            "seconds": {str(n): round(t, 4) for n, t in pts},
            "slope": round(_slope(pts), 3) if len(pts) > 1 else None,
        }

    result = {"checkout": str(root), "gc": not args.no_gc, "repeats": REPEATS}
    for family in ("fan", "strip", "random"):
        points = {"load": [], "decompose": []}
        for n in args.sizes:
            pg, handle = build(family, n)
            text = graph_to_json(pg.graph, pg)
            points["load"].append((n, best_time(lambda: graph_from_json(text))))
            points["decompose"].append((n, best_time(lambda: decompose(pg, handle))))
        result[family] = {}
        for stage, pts in points.items():
            ref = summary([(n, t[0]) for n, t in pts])
            raw = summary([(n, t[1]) for n, t in pts])
            result[family][stage] = {
                "seconds": raw["seconds"], "ref_seconds": ref["seconds"],
                "slope": raw["slope"], "ref_slope": ref["slope"],
            }
    try:
        print(json.dumps(result, indent=1), flush=True)
    except BrokenPipeError:
        # the reader closed the pipe early; send what is left to devnull
        # so the interpreter's last flush does not fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
