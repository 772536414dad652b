#!/usr/bin/env python3
"""Certificate benchmark for atforest.

    python3 perfbench/run.py --workload plane-random --seed 1 --seconds 20 --trace 0

Builds the workload's op list from the seed, then runs the whole list
repeatedly, single-threaded in this one process, for `--seconds` (at
least three passes and 100 op times).  Every op is timed from its start
to its result or error, and every output goes through the benchmark's
own checker outside op timing.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are reported at a reference speed.  A shared host's speed drifts
by up to half, for seconds to minutes at a time, and that drift moves
every raw time alike.  So a fixed calibration round (`calibrate`, about
1 ms of dict, list and set work like the package's) runs before each op
and after the last, and each op's time is scaled by 1 ms over the mean
of the two rounds around it: seconds on a host where one round takes
1 ms.  Set-up and import are scaled the same way.  The raw times are
printed with the run's details.

With `--trace 0` the metrics are the end-to-end ones:

    wall_s       median over passes of the op list's time
    op_p50_ms    median op time over all passes' op times
    op_p90_ms    90th percentile of the same op times (>= 100 of them,
                 so >= 10 lie above it; the count is in the details)
    ok_frac      ops that returned and passed the check / ops attempted,
                 i.e. 1 - fail_frac (fail_frac itself reads 0 on clean
                 workloads and is printed with the run's details)
    setup_s      package import plus the median of repeated set-ups
                 (input generation and serialization to JSON text)
    peak_rss_mb  peak resident memory of this process

With `--trace 1` untraced and traced passes alternate, and the metrics
are per layer: span times per pass (`<layer>_ms`, scaled like op times),
log-log growth slopes of per-op span time against n (`<layer>.exp`),
exact counts read from the outputs and the decomposition trace, the
checker's own time, and the tracing overhead (traced / untraced op list
time - 1).

The line before the last holds the run's details (op and sample counts,
failures by reason, a digest of every certificate and verdict, which is
not gated), and the same details go to `.perfbench_out/` in the checkout.
Metric names and units are read from BENCHMARK.json at the checkout root.
Exit status is 0 when a result was printed and 2 when the package source
is missing, the arguments are bad or BENCHMARK.json lists other metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = (3, 15)  # fewest and most set-ups in an untraced run
SETUP_BUDGET_S = 2.0  # set-ups repeat until they took this long together
MIN_PASSES = 3
MIN_OP_SAMPLES = 100  # so that >= 10 op times lie above the 90th percentile
CAL_REF_NS = 1_000_000  # reference speed: one calibration round takes 1 ms


def calibrate() -> int:
    """Time one round of fixed pure-Python work (dict, list and set
    operations, like the package's graph code); ns."""
    start = time.perf_counter_ns()
    adj: dict = {}
    for i in range(3000):
        adj.setdefault(i % 257, []).append(i)
    seen, total = set(), 0
    for k in sorted(adj):
        for v in adj[k]:
            if v not in seen:
                seen.add(v)
                total += v * k % 11
    return time.perf_counter_ns() - start


def timed(fn):
    """(result, raw ns, ns at reference speed) of fn(), with a calibration
    round before and after."""
    before = calibrate()
    start = time.perf_counter_ns()
    result = fn()
    raw = time.perf_counter_ns() - start
    return result, raw, raw * 2 * CAL_REF_NS / (before + calibrate())


# span names timed per pass; each reports as `<name>_ms`
LAYER_SPANS = [
    "graph.load",
    "graph.build_plane_graph",
    "graph.validate",
    "graph.serialize",
    "decompose.decompose",
    "decompose.any_planar",
    "decompose.verify",
    "testkit.generate",
    "alon_tarsi.eulerian_diff",
    "alon_tarsi.poly_coefficient",
    "alon_tarsi.at_number",
    "choosability.witness",
    "gadgets.exhaustive",
    "gadgets.sampled",
]
GROWTH_SPANS = ["graph.load", "decompose.decompose", "decompose.any_planar"]
LAYER_COUNTS = [
    "graph.faces",
    "decompose.chord_steps",
    "decompose.ear_steps",
    "decompose.arcs",
    "decompose.forest_edges",
    "alon_tarsi.arcs",
    "alon_tarsi.cap_exceeded",
    "choosability.witnesses",
    "gadgets.cases_examined",
    "gadgets.lemma2_cases",
    "gadgets.lemma6_cases",
    "gadgets.theorem7core_cases",
    "gadgets.samples",
    "gadgets.k4_found",
    "gadgets.j_members",
]


class Pass:
    """Outcome of one run of the op list."""

    def __init__(self):
        self.op_ns: list = []  # raw
        self.cal_ns: list = []  # calibration rounds around the ops
        self.check_ns = 0
        self.failed = 0
        self.incorrect = 0
        self.reasons: dict = {}
        self.counts: dict = {}
        self.digest = hashlib.sha256()

    @property
    def scales(self) -> list:
        """Per op: reference-speed time / raw time."""
        c = self.cal_ns
        return [2 * CAL_REF_NS / (c[i] + c[i + 1]) for i in range(len(self.op_ns))]

    @property
    def ref_op_ns(self) -> list:
        return [t * k for t, k in zip(self.op_ns, self.scales)]

    @property
    def wall_ns(self) -> float:
        return sum(self.ref_op_ns)

    def add_counts(self, counts: dict) -> None:
        for k, v in counts.items():
            self.counts[k] = self.counts.get(k, 0) + v


def run_pass(workload, ops: list, tr, first_op: int) -> Pass:
    out = Pass()
    for i, op in enumerate(ops):
        tr.op = first_op + i
        out.cal_ns.append(calibrate())
        start = time.perf_counter_ns()
        try:
            result, error = workload.run(op, tr), None
        except Exception as exc:  # an op may fail; the benchmark must not
            result, error = None, exc
        end = time.perf_counter_ns()
        out.op_ns.append(end - start)
        if error is None:
            try:
                problem, text, counts = workload.check(op, result)
            except Exception as exc:
                problem, text, counts = f"check raised {type(exc).__name__}", "", {}
            if problem is not None:
                out.incorrect += 1
        else:
            name = type(error).__name__
            problem, text, counts = f"raised {name}", f"error:{name}", workload.error_counts(op, error)
        del result
        if problem is not None:
            out.failed += 1
            key = f"{op.kind}: {problem}"
            out.reasons[key] = out.reasons.get(key, 0) + 1
        out.add_counts(counts)
        out.digest.update(f"{op.kind}\n{text}\n".encode())
        out.check_ns += time.perf_counter_ns() - end
    out.cal_ns.append(calibrate())
    return out


def input_digest(ops: list) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(repr(op).encode())
    return h.hexdigest()


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list, setup_s: float) -> dict:
    attempted = sum(len(p.op_ns) for p in passes)
    failed = sum(p.failed for p in passes)
    times = [ns for p in passes for ns in p.ref_op_ns]
    return {
        "wall_s": statistics.median(p.wall_ns for p in passes) / 1e9,
        "op_p50_ms": statistics.median(times) / 1e6,
        "op_p90_ms": percentile(times, 90) / 1e6,
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(spans_mod, tr, ops, untraced: list, traced: list, setup_ms: dict) -> dict:
    per_pass_ms: dict = {name: [] for name in LAYER_SPANS}
    scales = [p.scales for p in traced]
    by_pass: dict = {}
    for rec in spans_mod.outermost(tr.spans):
        if rec[1] >= 0:
            by_pass.setdefault(rec[1] // len(ops), []).append(rec)
    growth: dict = {name: {} for name in GROWTH_SPANS}
    first = min(by_pass) if by_pass else None
    for pass_id, recs in sorted(by_pass.items()):
        totals: dict = {}
        for name, op_id, _, start, end in recs:
            i = op_id % len(ops)
            ns = (end - start) * scales[pass_id][i]
            totals[name] = totals.get(name, 0) + ns
            if pass_id == first and name in growth:
                growth[name][i] = growth[name].get(i, 0) + ns
        for name in LAYER_SPANS:
            per_pass_ms[name].append(totals.get(name, 0) / 1e6)
    metrics = {}
    for name in LAYER_SPANS:
        if name == "testkit.generate":
            metrics[name + "_ms"] = setup_ms.get(name, 0.0)
        else:
            metrics[name + "_ms"] = statistics.median(per_pass_ms[name] or [0.0])
    for name in GROWTH_SPANS:
        points = [(ops[i].n, ns) for i, ns in growth[name].items()]
        metrics[name + ".exp"] = spans_mod.loglog_slope(points)
    counts = traced[0].counts
    for name in LAYER_COUNTS:
        metrics[name] = counts.get(name, 0)
    metrics["bench.check_ms"] = statistics.median(p.check_ns for p in untraced) / 1e6
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(p.wall_ns for p in traced)
        / statistics.median(p.wall_ns for p in untraced)
        - 1
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "atforest" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # the checkout stays as committed
    sys.path.insert(0, str(SRC))
    # importing the package is part of set-up
    _, _, import_ns = timed(
        lambda: [importlib.import_module(m) for m in ("spans", "workloads")]
    )
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    traced_run = bool(args.trace)
    null = spans.NullTracer()
    tracer = spans.Tracer()

    # set-up: untraced runs repeat it and report the median; the traced run
    # sets up once with testkit spans on
    setup_times, raw_setup_times, digests = [], [], set()
    while True:
        if traced_run:
            for wrap in workload.wraps:
                tracer.wrap(*wrap)
        ops, raw_ns, ref_ns = timed(lambda: workload.setup(args.seed))
        raw_setup_times.append(raw_ns / 1e9)
        setup_times.append(ref_ns / 1e9)
        tracer.unwrap_all()
        digests.add(input_digest(ops))
        fewest, most = SETUP_REPEATS
        if traced_run or len(setup_times) >= most or (
            len(setup_times) >= fewest and sum(raw_setup_times) >= SETUP_BUDGET_S
        ):
            break
    setup_ms: dict = {}  # traced set-up spans, scaled like the set-up
    for rec in spans.outermost(tracer.spans):
        ns = (rec[4] - rec[3]) * setup_times[0] / raw_setup_times[0]
        setup_ms[rec[0]] = setup_ms.get(rec[0], 0.0) + ns / 1e6
    tracer.take_counts()

    # whole passes for --seconds: the last one starts only if it is likely
    # to end in time, unless too few passes or op times were taken
    untraced, traced = [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        untraced.append(run_pass(workload, ops, null, 0))
        if traced_run:
            for wrap in workload.wraps:
                tracer.wrap(*wrap)
            try:
                p = run_pass(workload, ops, tracer, len(traced) * len(ops))
            finally:
                tracer.unwrap_all()
            p.add_counts(tracer.take_counts())
            traced.append(p)
        now = time.perf_counter()
        enough = (len(untraced) >= MIN_PASSES
                  and len(untraced) * len(ops) >= MIN_OP_SAMPLES)
        if enough and now + (now - start) / len(untraced) > deadline:
            break

    passes = untraced + traced
    output_digests = {p.digest.hexdigest() for p in passes}
    problems = []
    if len(digests) != 1:
        problems.append("set-ups built different inputs from one seed")
    if len(output_digests) != 1:
        problems.append("passes over the same inputs gave different outputs")
    incorrect = sum(p.incorrect for p in passes)
    if incorrect:
        problems.append(f"{incorrect} outputs failed the check")

    if traced_run:
        metrics = per_layer(spans, tracer, ops, untraced, traced, setup_ms)
    else:
        metrics = end_to_end(untraced, import_ns / 1e9 + statistics.median(setup_times))
    # names and units come from BENCHMARK.json, which must list exactly
    # the metrics computed here
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if traced_run else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"perfbench: BENCHMARK.json and the computed metrics differ: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 2

    reasons: dict = {}
    for p in passes:
        for k, v in p.reasons.items():
            reasons[k] = reasons.get(k, 0) + v
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_pass": len(ops),
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "op_samples": sum(len(p.op_ns) for p in untraced),
        "distinct_ops": len(ops),
        "pass_wall_s": [p.wall_ns / 1e9 for p in untraced],
        "raw_pass_wall_s": [sum(p.op_ns) / 1e9 for p in untraced],
        "raw_setup_s": raw_setup_times,
        "calibration_ms": statistics.median(c for p in untraced for c in p.cal_ns) / 1e6,
        "fail_frac": sum(p.failed for p in passes) / sum(len(p.op_ns) for p in passes),
        "setup_runs": len(setup_times),
        "certificate_digest": sorted(output_digests)[0] if output_digests else "",
        "counts_per_pass": untraced[0].counts,
        "failures": reasons,
        "problems": problems,
    }
    if traced_run:
        details["self_ms_first_traced_pass"] = {
            k: v / 1e6 for k, v in spans.self_times_ns(tracer.spans, range(len(ops))).items()
        }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({**details, "metrics": metrics}, indent=1, sort_keys=True))
    print(json.dumps(details, sort_keys=True))

    result = {
        "correct": not problems,
        "attempted": sum(len(p.op_ns) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
