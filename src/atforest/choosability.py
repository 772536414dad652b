"""List-coloring search and non-choosability witnesses.

The explicit bad 3-list assignment lives on a gadget glued from six
wheel-shaped pieces sharing a handle edge ab: whatever distinct colors a
and b receive, one piece runs out of colors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from .errors import BadSelector, CapExceeded
from .graph import Graph
from .report import VerificationReport

ALPHA, BETA, GAMMA, OMEGA = "alpha", "beta", "gamma", "omega"


@dataclass(frozen=True)
class ListAssignment:
    lists: tuple  # tuple of (vertex, tuple-of-colors), sorted

    @staticmethod
    def build(mapping: dict) -> "ListAssignment":
        return ListAssignment(
            tuple((v, tuple(sorted(set(cols)))) for v, cols in sorted(mapping.items()))
        )

    def as_dict(self) -> dict:
        return {v: set(cols) for v, cols in self.lists}

    def to_json_dict(self) -> dict:
        return {"lists": {v: list(cols) for v, cols in self.lists}}

    @staticmethod
    def from_json_dict(data: dict) -> "ListAssignment":
        return ListAssignment.build({str(v): [str(c) for c in cols] for v, cols in data["lists"].items()})


def is_l_colorable(g: Graph, l: ListAssignment) -> Optional[dict]:
    """A proper coloring from the lists, by backtracking with forward
    checking over the sorted vertex order; None if there is none.  A loop,
    not a recursion: tried[i] counts the colors of the i-th vertex tried."""
    lists = l.as_dict()
    if set(lists) != set(g.vertices):
        raise BadSelector("lists must cover exactly the vertex set")
    order = list(g.vertices)
    domains = {v: sorted(lists[v]) for v in order}
    adj = g.adjacency
    coloring: dict = {}
    n = len(order)
    tried = [0] * n
    i = 0
    while 0 <= i < n:
        v = order[i]
        dom = domains[v]
        nbrs = adj[v]
        t = tried[i]
        while t < len(dom):
            color = dom[t]
            t += 1
            if any(coloring.get(w) == color for w in nbrs):
                continue
            coloring[v] = color
            # forward check: an uncolored neighbor must keep an option (v
            # is among its neighbors, so `color` is already taken there)
            for w in nbrs:
                if w not in coloring and {coloring.get(u) for u in adj[w]}.issuperset(domains[w]):
                    del coloring[v]
                    break
            else:  # every neighbor keeps an option: go one vertex deeper
                tried[i] = t
                i += 1
                break
        else:  # every color failed: undo the vertex before and try its next
            tried[i] = 0
            i -= 1
            if i >= 0:
                del coloring[order[i]]
    return dict(coloring) if i == n else None


def build_lemma1_lists(selector: str) -> tuple:
    """The glued six-piece gadget for an attachment word over {a, b}, with
    the 3-lists that admit no proper coloring.

    Piece i uses the i-th permutation (x, y, z) of {alpha, beta, gamma} in
    lexicographic order: c_i gets {alpha, beta, gamma}, e_i gets
    {x, y, omega}, and d_i gets {x, z, omega} when attached to a,
    {y, z, omega} when attached to b.
    """
    if len(selector) != 6 or any(ch not in "ab" for ch in selector):
        raise BadSelector(f"selector must be a length-6 word over {{a,b}}: {selector!r}")
    pieces = [(ch, f"c{i}", f"e{i}", f"d{i}") for i, ch in enumerate(selector, start=1)]
    _, g, lists = _assemble_member("a", "b", pieces)
    return g, lists


def _assemble_member(a: str, b: str, pieces) -> tuple:
    """Glue pieces (attach, c, e, d) on the handle ab, attach in {"a", "b"}:
    c and e are adjacent to a and b, d to c, e and the attach end.  Lists
    as in build_lemma1_lists.  Returns (vertices in gluing order, graph,
    lists)."""
    perms = permutations((ALPHA, BETA, GAMMA))
    vertices = [a, b]
    edges = [(a, b)]
    lists = {a: (ALPHA, BETA, GAMMA), b: (ALPHA, BETA, GAMMA)}
    for (attach, c, e, d), (x, y, z) in zip(pieces, perms):
        vertices += [c, e, d]
        edges += [(a, c), (b, c), (a, e), (b, e), (c, d), (d, e), (a if attach == "a" else b, d)]
        lists[c] = (ALPHA, BETA, GAMMA)
        lists[e] = (x, y, OMEGA)
        lists[d] = (x, z, OMEGA) if attach == "a" else (y, z, OMEGA)
    return vertices, Graph.build(vertices, edges), ListAssignment.build(lists)


def verify_witness_not_k_choosable(g: Graph, l: ListAssignment, k: int) -> VerificationReport:
    """PASS iff every list has exactly k colors and no proper coloring
    from the lists exists."""
    sizes = {v: len(cols) for v, cols in l.lists}
    wrong = [v for v, s in sizes.items() if s != k]
    if wrong:
        return VerificationReport(
            False, f"list at {wrong[0]!r} has size {sizes[wrong[0]]}, not {k}", counterexample=wrong[0]
        )
    coloring = is_l_colorable(g, l)
    if coloring is not None:
        return VerificationReport(False, "a proper coloring exists", counterexample=coloring)
    return VerificationReport(True, f"no coloring from the {k}-lists")


CHROMATIC_COLOR_CAP = 64  # the most colors chromatic_number tries


def chromatic_number(g: Graph) -> int:
    """Least k with a proper k-coloring: the least k for which
    `is_l_colorable` colors the i-th vertex (in sorted order) from
    {0, ..., min(i, k - 1)}.  Any k-coloring, its colors renamed in order
    of first use, fits these lists, which breaks the color symmetry."""
    if not g.edges:
        return 1 if g.vertices else 0
    for k in range(2, len(g.vertices) + 1):
        if k > CHROMATIC_COLOR_CAP:
            raise CapExceeded("chromatic search cap exceeded")
        lists = {v: range(min(i + 1, k)) for i, v in enumerate(g.vertices)}
        if is_l_colorable(g, ListAssignment.build(lists)) is not None:
            return k
    return len(g.vertices)
