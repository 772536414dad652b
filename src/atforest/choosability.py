"""List-coloring search and non-choosability witnesses.

The explicit bad 3-list assignment lives on a gadget glued from six
wheel-shaped pieces sharing a handle edge ab: whatever distinct colors a
and b receive, one piece runs out of colors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from .errors import ArtifactError
from .graph import Graph, _names
from .report import VerificationReport, _echo

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
        # a color is named like a vertex; "12" is not ["1", "2"]
        if type(data) is not dict:
            raise ValueError("the top level is not an object")
        if "lists" not in data:
            raise ValueError("the lists file has no 'lists' object")
        if type(data["lists"]) is not dict:
            raise ValueError("'lists' is not an object")
        return ListAssignment.build({str(v): _names(cols, f"the color list of {v!r}")
                                     for v, cols in data["lists"].items()})


def is_l_colorable(g: Graph, l: ListAssignment) -> Optional[dict]:
    """The lexicographically first proper coloring from the lists (sorted
    vertices, then sorted colors), or None if there is none.  Backtracking
    on a live color set per vertex: a set left with one color, by coloring
    or by removals, removes that color from the neighbors' sets, down the
    chain, and an emptied set is a dead end.  Input singletons and empty
    lists propagate before any branching.  Only colors that no extension of
    the partial coloring can use are removed, so the coloring found is plain
    backtracking's.  Removals go on one trail, undone to a mark per depth.
    A loop, not a recursion: tried[i] counts the colors of order[i] tried."""
    live = l.as_dict()
    if set(live) != set(g.vertices):
        raise ArtifactError("lists must cover exactly the vertex set")
    adj = g.adjacency
    trail: list = []  # (vertex, color) removals, in order

    def propagate(queue: list) -> bool:  # False once a set empties
        while queue:
            u = queue.pop()
            (color,) = live[u]
            for w in adj[u]:
                cols = live[w]
                if color in cols:
                    cols.remove(color)
                    trail.append((w, color))
                    if not cols:
                        return False
                    if len(cols) == 1:
                        queue.append(w)
        return True

    order = list(g.vertices)
    if not all(live.values()) or not propagate([v for v in order if len(live[v]) == 1]):
        return None
    n = len(order)
    options: list = [None] * n  # the live colors of order[i] on arrival, sorted
    marks = [0] * n  # the trail length on arrival at depth i
    tried = [0] * n
    i = 0
    while 0 <= i < n:
        v = order[i]
        if not tried[i]:  # arriving at depth i
            options[i], marks[i] = sorted(live[v]), len(trail)
        dom, mark, t = options[i], marks[i], tried[i]
        while t < len(dom):
            while len(trail) > mark:  # back to the sets depth i arrived with
                w, c = trail.pop()
                live[w].add(c)
            color = dom[t]
            t += 1
            # a singleton is propagated already; else keep only color at v
            if len(dom) > 1:
                live[v] = {color}
                trail += [(v, c) for c in dom if c != color]
                if not propagate([v]):
                    continue
            tried[i] = t
            i += 1
            break
        else:  # every color failed: retry the vertex before with its next
            tried[i] = 0
            i -= 1
    return {v: options[j][tried[j] - 1] for j, v in enumerate(order)} if i == n else None


def build_lemma1_lists(selector: str) -> tuple:
    """The glued six-piece gadget for an attachment word over {a, b}, with
    the 3-lists that admit no proper coloring.

    Piece i uses the i-th permutation (x, y, z) of {alpha, beta, gamma} in
    lexicographic order: c_i gets {alpha, beta, gamma}, e_i gets
    {x, y, omega}, and d_i gets {x, z, omega} when attached to a,
    {y, z, omega} when attached to b.
    """
    if len(selector) != 6 or any(ch not in "ab" for ch in selector):
        raise ArtifactError(f"selector must be a length-6 word over {{a,b}}: {_echo(selector)}")
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
