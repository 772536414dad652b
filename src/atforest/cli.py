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
from dataclasses import astuple, dataclass, replace
from pathlib import Path
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


class _Help(Exception):
    """-h/--help was given: args[0] is the usage text `run` returns."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep it in-process
        raise _UsageError(message)

    def print_help(self, file=None):  # -h would print, then sys.exit(0)
        raise _Help(self.format_help().rstrip("\n"))


def _load(path: str, parse, what: str):
    """parse(JSON of the file at path, "-" for stdin); any malformed shape,
    object that names a key twice or too deep a nesting is an input error."""
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
        return parse(json.loads(text, object_pairs_hook=_unique_keys))
    except (OSError, ValueError, RecursionError) as exc:
        raise _UsageError(f"cannot read {what} from {path!r}: {exc}")


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a repeated name, which json would
    let the last value win."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"{key!r} is named twice")
        obj[key] = value
    return obj


def _graph(path: str, embedded: str = ""):
    """The graph file at path as a Graph, or as a PlaneGraph if `embedded`
    is given: the usage error for a file without an embedding."""
    pg = _load(path, graph_from_json_dict, "graph")
    if embedded and not isinstance(pg, PlaneGraph):
        raise _UsageError(embedded)
    return pg.graph if isinstance(pg, PlaneGraph) and not embedded else pg


def _eta_from_json_dict(data) -> dict:
    """The exponent vector of {"eta": {vertex: exponent}}, each exponent a
    JSON integer."""
    if type(data) is not dict or type(data.get("eta")) is not dict:
        raise ValueError("the file is not an object with an 'eta' object")
    eta = data["eta"]
    for name, e in eta.items():
        if type(e) is not int:
            raise ValueError(f"the exponent of {name!r} is not an integer")
    return eta


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
    common = argparse.ArgumentParser(add_help=False)  # shared by every leaf command
    common.add_argument("--json", action="store_true")

    def leaf(group, name, handler):  # `run` calls the handler of the leaf parsed
        parser = group.add_parser(name, parents=[common])
        parser.set_defaults(run=handler)
        return parser

    g = sub.add_parser("gadget", description="gadget constructions")
    gsub = g.add_subparsers(dest="action", required=True)
    gb = leaf(gsub, "build", _gadget_build)
    gb.add_argument("name")
    gb.add_argument("--selector")
    gb.add_argument("--format", choices=("json", "dot"), default="json")
    gb.add_argument("--output", default="-")

    d = leaf(sub, "decompose", _decompose)
    d.add_argument("--input", required=True)
    d.add_argument("--handle")
    d.add_argument("--output", default="-")

    v = sub.add_parser("verify")
    vsub = v.add_subparsers(dest="target_kind", required=True)
    vd = leaf(vsub, "decomposition", _verify_decomposition)
    vd.add_argument("--input", required=True)
    vd.add_argument("--decomposition", required=True)
    vl = leaf(vsub, "lemma", _verify_lemma)
    vl.add_argument("--name", required=True)
    vl.add_argument("--selector")
    vs = leaf(vsub, "sampled", _verify_sampled)
    vs.add_argument("--target", required=True)
    vs.add_argument("--count", type=_integer, required=True)
    vs.add_argument("--seed", type=_seed, required=True)

    a = sub.add_parser("at")
    asub = a.add_subparsers(dest="quantity", required=True)
    leaf(asub, "number", _at_number).add_argument("--input", required=True)
    ac = leaf(asub, "coefficient", _at_coefficient)
    ac.add_argument("--input", required=True)
    eta = ac.add_mutually_exclusive_group(required=True)
    eta.add_argument("--eta", help="comma list vertex=exponent")
    eta.add_argument("--eta-file", help='JSON file {"eta": {vertex: exponent}}')
    ao = leaf(asub, "orientation", _at_orientation)
    ao.add_argument("--input", required=True)
    ao.add_argument("--k", type=_positive, required=True)

    c = sub.add_parser("choose")
    csub = c.add_subparsers(dest="action", required=True)
    cc = leaf(csub, "check", _choose_check)
    cc.add_argument("--input", required=True)
    cc.add_argument("--lists", required=True)
    cc.add_argument("--k", type=_positive)

    gen = sub.add_parser("gen")
    gensub = gen.add_subparsers(dest="kind", required=True)
    gt = leaf(gensub, "triangulation", _gen_triangulation)
    gt.add_argument("--n", type=_integer, required=True)
    gt.add_argument("--boundary", type=_integer, required=True)
    gt.add_argument("--seed", type=_seed, required=True)
    gt.add_argument("--output", default="-")
    gg = leaf(gensub, "graph", _gen_graph)
    gg.add_argument("--n", type=_integer, required=True)
    gg.add_argument("--p", type=float, required=True)
    gg.add_argument("--seed", type=_seed, required=True)
    gg.add_argument("--output", default="-")
    return p


def _graph_json(data: dict, path: str) -> CommandResult:
    """A graph's JSON dict as the --json payload, written to path as the
    text `graph.graph_to_json` gives."""
    result = CommandResult(EXIT_PASS, payload=data)
    _emit(result, path, json.dumps(data, sort_keys=True, separators=(",", ":")))
    return result


def _gadget_build(args) -> CommandResult:
    g = build_gadget(args.name, args.selector)
    if args.format == "json":
        return _graph_json(graph_to_json_dict(g), args.output)
    result = CommandResult(EXIT_PASS)
    _emit(result, args.output, graph_to_dot(g))
    return result


def _decompose(args) -> CommandResult:
    pg = _graph(args.input, "decompose needs an embedded input (rotation + outer_face)")
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


def _verify_decomposition(args) -> CommandResult:
    pg = _graph(args.input, "verification needs an embedded input")
    cert = _load(args.decomposition, read_certificate, "decomposition")
    return _from_report(check_plane_certificate(pg.graph.edges, *cert, pg.outer_face))


def _verify_lemma(args) -> CommandResult:
    if args.name == "lemma1":
        return _from_report(verify_lemma1_all() if args.selector is None else verify_lemma1(args.selector))
    verifiers = {"lemma2": verify_lemma2, "lemma6": verify_lemma6, "theorem7core": verify_theorem7_core}
    verifier = verifiers.get(args.name)
    if verifier is None:
        raise _UsageError(f"unknown lemma {args.name!r}")
    if args.selector is not None:
        raise _UsageError(f"only lemma1 takes --selector, not {args.name!r}")
    return _from_report(verifier())


def _verify_sampled(args) -> CommandResult:
    return _from_report(verify_sampled(args.target, args.count, args.seed))


def _at_number(args) -> CommandResult:
    value = at_number(_graph(args.input))
    return CommandResult(EXIT_PASS, str(value), {"at_number": value})


def _at_coefficient(args) -> CommandResult:
    g = _graph(args.input)
    if args.eta is None:
        eta = _load(args.eta_file, _eta_from_json_dict, "eta")
    else:
        eta = {}
        for item in args.eta.split(","):
            if "=" not in item:
                raise _UsageError("--eta items must be vertex=exponent")
            name, _, val = item.partition("=")
            if name in eta:
                raise _UsageError(f"--eta names vertex {name!r} twice")
            # ASCII digits after an optional minus, as a JSON integer in --eta-file
            if not (val.isascii() and val.removeprefix("-").isdecimal()):
                raise _UsageError(f"bad exponent {val!r}")
            eta[name] = int(val)
    value = poly_coefficient(g, eta)
    return CommandResult(EXIT_PASS, str(value), {"coefficient": value})


def _at_orientation(args) -> CommandResult:
    g = _graph(args.input)
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


def _choose_check(args) -> CommandResult:
    g = _graph(args.input)
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


def _gen_triangulation(args) -> CommandResult:
    pg = random_near_triangulation(args.n, args.boundary, args.seed)
    return _graph_json(graph_to_json_dict(pg.graph, pg), args.output)


def _gen_graph(args) -> CommandResult:
    return _graph_json(graph_to_json_dict(random_graph(args.n, args.p, args.seed)), args.output)


# each refusal's exit code and tag, by exact type (CapExceeded is an ArtifactError)
_REFUSALS = {
    _UsageError: (EXIT_USAGE, "usage error"),
    CapExceeded: (EXIT_CAP, "cap exceeded"),
    ArtifactError: (EXIT_USAGE, "input error"),
}


def run(argv) -> CommandResult:
    """Parse and execute one command; never raises, never exits."""
    as_json = False
    try:
        args = _build_parser().parse_args(argv)
        as_json = args.json  # every leaf command has --json
        return replace(args.run(args), as_json=as_json)
    except _Help as shown:
        return CommandResult(EXIT_PASS, shown.args[0])
    except Exception as exc:  # other than a refusal: a bug, or a limit such as recursion depth
        code, tag = _REFUSALS.get(type(exc), (EXIT_INTERNAL, "internal error"))
        error = f"{type(exc).__name__}: {exc}" if code == EXIT_INTERNAL else str(exc)
        return CommandResult(code, f"{tag}: {error}", {"verdict": "ERROR", "error": error}, as_json=as_json)


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
