"""Command-line entry point.

Subcommands: gadget build, decompose, verify decomposition/lemma/sampled,
at number/coefficient/orientation, choose check, gen triangulation/graph.
Exit codes: 0 pass/success, 1 verification failure, 2 usage or input
error, 3 enumeration cap exceeded, 4 internal error (an unexpected
exception, reported instead of a traceback).  All randomized commands
take --seed; configuration is flags-only and file arguments accept "-"
for the standard streams.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import astuple, dataclass
from typing import Optional

from .alon_tarsi import at_number, eulerian_diff, find_at_orientation, poly_coefficient
from .check import check_at_witness, check_coloring, check_plane_certificate, read_certificate
from .choosability import (
    ListAssignment,
    is_l_colorable,
    verify_witness_not_k_choosable,
)
from .decompose import decompose, decompose_any_planar, verify_decomposition
from .errors import ArtifactError, CapExceeded
from .gadgets import (
    build_gadget,
    verify_lemma1,
    verify_lemma1_all,
    verify_lemma2,
    verify_lemma6,
    verify_sampled,
    verify_theorem7_core,
)
from .graph import (
    PlaneGraph,
    graph_from_json_dict,
    graph_to_dot,
    graph_to_json_dict,
)
from .report import VerificationReport
from .testkit import _M64, random_graph, random_near_triangulation

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_CAP, EXIT_INTERNAL = 0, 1, 2, 3, 4


@dataclass
class CommandResult:
    exit_code: int
    text: str = ""
    payload: Optional[dict] = None
    as_json: bool = False

    def output(self) -> str:
        if self.as_json and self.payload is not None:
            return json.dumps(self.payload, sort_keys=True)
        return self.text


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep it in-process
        raise _UsageError(message)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load(path: str, parse, what: str):
    """parse(JSON of the file at path); any malformed shape or too deep a
    nesting is an input error."""
    try:
        return parse(json.loads(_read_text(path)))
    except (OSError, ValueError, RecursionError) as exc:
        raise _UsageError(f"cannot read {what} from {path!r}: {exc}")


def _emit(result: CommandResult, path: str, content: str) -> None:
    if path == "-":
        result.text = content if not result.text else result.text + "\n" + content
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content if content.endswith("\n") else content + "\n")


def _from_report(report: VerificationReport) -> CommandResult:
    return CommandResult(
        EXIT_PASS if report.verdict else EXIT_FAIL,
        str(report),
        report.to_json_dict(),
    )


def _integer(text: str) -> int:
    """int(text), else a usage error that says so (on a ValueError,
    argparse would name the type function instead)."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None


def _positive(text: str) -> int:
    """An integer of at least 1 (an out-degree budget k), else a usage error."""
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


def _seed(text: str) -> int:
    """A seed in 0 ... 2**64 - 1, else a usage error: `Rng` reduces seeds
    mod 2**64, so any other value would alias one of these."""
    value = _integer(text)
    if not 0 <= value <= _M64:
        raise argparse.ArgumentTypeError(f"{value} is outside 0 ... 2**64 - 1")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="atforest", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    leaf = argparse.ArgumentParser(add_help=False)  # shared by every leaf command
    leaf.add_argument("--json", action="store_true")

    g = sub.add_parser("gadget", description="gadget constructions")
    gsub = g.add_subparsers(dest="action", required=True)
    gb = gsub.add_parser("build", parents=[leaf])
    gb.add_argument("name")
    gb.add_argument("--selector")
    gb.add_argument("--format", choices=("json", "dot"), default="json")
    gb.add_argument("--output", default="-")

    d = sub.add_parser("decompose", parents=[leaf])
    d.add_argument("--input", required=True)
    d.add_argument("--handle")
    d.add_argument("--output", default="-")

    v = sub.add_parser("verify")
    vsub = v.add_subparsers(dest="target_kind", required=True)
    vd = vsub.add_parser("decomposition", parents=[leaf])
    vd.add_argument("--input", required=True)
    vd.add_argument("--decomposition", required=True)
    vl = vsub.add_parser("lemma", parents=[leaf])
    vl.add_argument("--name", required=True)
    vl.add_argument("--selector")
    vs = vsub.add_parser("sampled", parents=[leaf])
    vs.add_argument("--target", required=True)
    vs.add_argument("--count", type=int, required=True)
    vs.add_argument("--seed", type=_seed, required=True)

    a = sub.add_parser("at")
    asub = a.add_subparsers(dest="quantity", required=True)
    an = asub.add_parser("number", parents=[leaf])
    an.add_argument("--input", required=True)
    ac = asub.add_parser("coefficient", parents=[leaf])
    ac.add_argument("--input", required=True)
    ac.add_argument("--eta", required=True, help="comma list vertex=exponent")
    ao = asub.add_parser("orientation", parents=[leaf])
    ao.add_argument("--input", required=True)
    ao.add_argument("--k", type=_positive, required=True)

    c = sub.add_parser("choose")
    csub = c.add_subparsers(dest="action", required=True)
    cc = csub.add_parser("check", parents=[leaf])
    cc.add_argument("--input", required=True)
    cc.add_argument("--lists", required=True)
    cc.add_argument("--k", type=_positive)

    gen = sub.add_parser("gen")
    gensub = gen.add_subparsers(dest="kind", required=True)
    gt = gensub.add_parser("triangulation", parents=[leaf])
    gt.add_argument("--n", type=int, required=True)
    gt.add_argument("--boundary", type=int, required=True)
    gt.add_argument("--seed", type=_seed, required=True)
    gt.add_argument("--output", default="-")
    gg = gensub.add_parser("graph", parents=[leaf])
    gg.add_argument("--n", type=int, required=True)
    gg.add_argument("--p", type=float, required=True)
    gg.add_argument("--seed", type=_seed, required=True)
    gg.add_argument("--output", default="-")
    return p


_LEMMA_VERIFIERS = {
    "lemma2": verify_lemma2,
    "lemma6": verify_lemma6,
    "theorem7core": verify_theorem7_core,
}


def _graph_json(data: dict, path: str) -> CommandResult:
    """A graph's JSON dict as the --json payload, written to path as the
    text `graph.graph_to_json` gives."""
    result = CommandResult(EXIT_PASS, payload=data)
    _emit(result, path, json.dumps(data, sort_keys=True, separators=(",", ":")))
    return result


def _cmd_gadget(args) -> CommandResult:
    g = build_gadget(args.name, args.selector)
    if args.format == "json":
        return _graph_json(graph_to_json_dict(g), args.output)
    result = CommandResult(EXIT_PASS)
    _emit(result, args.output, graph_to_dot(g))
    return result


def _cmd_decompose(args) -> CommandResult:
    pg = _load(args.input, graph_from_json_dict, "graph")
    if not isinstance(pg, PlaneGraph):
        raise _UsageError("decompose needs an embedded input (rotation + outer_face)")
    if args.handle is not None:
        parts = args.handle.split(",")
        if len(parts) != 2:
            raise _UsageError("--handle must be u,v")
        d = decompose(pg, (parts[0], parts[1]))
        report = verify_decomposition(pg, d)
        payload = d.to_json_dict()
    else:
        forest, orientation = decompose_any_planar(pg)
        report = check_plane_certificate(pg.graph.edges, forest, orientation.arcs)
        payload = {
            "forest": [list(e) for e in sorted(forest)],
            "arcs": [list(a) for a in sorted(orientation.arcs)],
        }
    result = _from_report(report)
    result.payload = {**payload, "report": report.to_json_dict()}
    _emit(result, args.output, json.dumps(payload, sort_keys=True))
    return result


def _cmd_verify(args) -> CommandResult:
    if args.target_kind == "decomposition":
        pg = _load(args.input, graph_from_json_dict, "graph")
        if not isinstance(pg, PlaneGraph):
            raise _UsageError("verification needs an embedded input")
        cert = _load(args.decomposition, read_certificate, "decomposition")
        return _from_report(check_plane_certificate(pg.graph.edges, *cert, pg.outer_face))
    if args.target_kind == "lemma":
        if args.name == "lemma1":
            if args.selector is not None:
                return _from_report(verify_lemma1(args.selector))
            return _from_report(verify_lemma1_all())
        verifier = _LEMMA_VERIFIERS.get(args.name)
        if verifier is None:
            raise _UsageError(f"unknown lemma {args.name!r}")
        if args.selector is not None:
            raise _UsageError(f"only lemma1 takes --selector, not {args.name!r}")
        return _from_report(verifier())
    return _from_report(verify_sampled(args.target, args.count, args.seed))


def _cmd_at(args) -> CommandResult:
    pg = _load(args.input, graph_from_json_dict, "graph")
    g = pg.graph if isinstance(pg, PlaneGraph) else pg
    if args.quantity == "number":
        value = at_number(g)
        return CommandResult(EXIT_PASS, str(value), {"at_number": value})
    if args.quantity == "coefficient":
        eta = {}
        for item in args.eta.split(","):
            if "=" not in item:
                raise _UsageError("--eta items must be vertex=exponent")
            name, _, val = item.partition("=")
            if name in eta:
                raise _UsageError(f"--eta names vertex {name!r} twice")
            try:
                eta[name] = int(val)
            except ValueError:
                raise _UsageError(f"bad exponent {val!r}")
        value = poly_coefficient(g, eta)
        return CommandResult(EXIT_PASS, str(value), {"coefficient": value})
    d = find_at_orientation(g, args.k)
    if d is None:
        return CommandResult(
            EXIT_FAIL, f"no orientation within out-degree budget {args.k - 1}",
            {"verdict": "FAIL", "k": args.k},
        )
    # re-check the witness before reporting it
    report = check_at_witness(g.edges, d.arcs, args.k, lambda: astuple(eulerian_diff(d)))
    even, odd = report.stats["even"], report.stats["odd"]
    if not report.verdict:
        worst = report.stats["max_out_degree"]
        payload = {"verdict": "FAIL", "k": args.k, "max_out_degree": worst, "diff": even - odd}
        return CommandResult(EXIT_FAIL, str(report), payload)
    arcs = sorted(d.arcs)
    return CommandResult(
        EXIT_PASS,
        "\n".join(f"{t} -> {h}" for t, h in arcs),
        {"arcs": [list(a) for a in arcs], "even": even, "odd": odd},
    )


def _cmd_choose(args) -> CommandResult:
    pg = _load(args.input, graph_from_json_dict, "graph")
    g = pg.graph if isinstance(pg, PlaneGraph) else pg
    lists = _load(args.lists, ListAssignment.from_json_dict, "lists")
    if args.k is not None:
        # witness mode: PASS means the lists admit no coloring
        return _from_report(verify_witness_not_k_choosable(g, lists, args.k))
    coloring = is_l_colorable(g, lists)
    if coloring is None:
        return CommandResult(EXIT_FAIL, "FAIL: no proper coloring from the lists", {"verdict": "FAIL"})
    # re-check the coloring before reporting it
    report = check_coloring(g.edges, lists.as_dict(), coloring)
    if not report.verdict:
        return _from_report(report)
    return CommandResult(
        EXIT_PASS, "PASS: proper coloring found", {"verdict": "PASS", "coloring": coloring}
    )


def _cmd_gen(args) -> CommandResult:
    if args.kind == "triangulation":
        pg = random_near_triangulation(args.n, args.boundary, args.seed)
        return _graph_json(graph_to_json_dict(pg.graph, pg), args.output)
    return _graph_json(graph_to_json_dict(random_graph(args.n, args.p, args.seed)), args.output)


def run(argv) -> CommandResult:
    """Parse and execute one command; never raises, never exits."""
    as_json = False
    try:
        args = _build_parser().parse_args(argv)
        as_json = args.json  # every leaf command has --json
        dispatch = {
            "gadget": _cmd_gadget,
            "decompose": _cmd_decompose,
            "verify": _cmd_verify,
            "at": _cmd_at,
            "choose": _cmd_choose,
            "gen": _cmd_gen,
        }
        result = dispatch[args.command](args)
        result.as_json = as_json
        return result
    except _UsageError as exc:
        return CommandResult(EXIT_USAGE, f"usage error: {exc}", {"verdict": "ERROR", "error": str(exc)}, as_json=as_json)
    except CapExceeded as exc:
        return CommandResult(EXIT_CAP, f"cap exceeded: {exc}", {"verdict": "ERROR", "error": str(exc)}, as_json=as_json)
    except ArtifactError as exc:
        return CommandResult(EXIT_USAGE, f"input error: {exc}", {"verdict": "ERROR", "error": str(exc)}, as_json=as_json)
    except Exception as exc:  # last resort: a bug, or a limit such as recursion depth
        error = f"{type(exc).__name__}: {exc}"
        return CommandResult(EXIT_INTERNAL, f"internal error: {error}", {"verdict": "ERROR", "error": error}, as_json=as_json)


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    out = result.output()
    if out:
        try:
            print(out, flush=True)
        except BrokenPipeError:
            # the reader closed the pipe early; send what is left to
            # devnull so the interpreter's last flush does not fail too
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
