"""Forest + nice-orientation decompositions of plane near-triangulations.

Given a near-triangulation and a boundary handle edge xy, produce a forest
F containing xy and an orientation D of the remaining edges with
out-degree 0 at x and y, at most 1 on the boundary, and at most 2 in the
interior.  D is acyclic, so the even/odd Eulerian sub-digraph difference
is 1 and the remaining graph has Alon-Tarsi number at most 3.

The recursion (Thomassen's chord/ear shelling) needs only the boundary
cycle of the current piece and the rotation system.  A chord of the
cycle (the lexicographically smallest) cuts it into two sub-cycles; the
piece with the handle keeps it, the other takes the chord as its handle
and leaves it out of its forest.  With no chord, the ear vertex z next to
x leaves: edge zw to its far boundary neighbour joins the forest, and the
arcs z->x plus u->z extend the orientation, where the u are the
neighbours of z inside the cycle, read off the rotation at z between its
two cycle neighbours; they replace z on the cycle.  An ear with no inside
neighbour is a bare triangle, the base case.

Each frame holds its cycle as a linked ring (`succ`/`pred` dicts) and its
chords in a list sorted downwards, so the smallest pops off the end.  A
split walks round the ring from both chord ends in lockstep, and the walk
that arrives first has traced the shorter side.  That side moves into
fresh dicts and gathers its chords from the edges of its inner vertices;
the longer side keeps the parent's dicts, relinked across the chord, and
its list, which drops chords with an end no longer on its ring as they
come up.  So a split costs time in the shorter side, not in the whole
cycle and all its chords.  A short side that is a triangle s -> v -> e
without the handle waits as the bare tuple (s, v, e), not as a frame, so
a fan's n waiting triangles hold no dicts for the collector to walk; it
gets a frame only if it pops with vertices inside.  An ear, which happens only on a chordless
cycle, splices its link path into the ring and finds the new chords among
the edges of the vertices it brings in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

from .check import check_plane_certificate
from .errors import (
    HandleNotOnBoundary,
    InvalidEmbedding,
    NotNearTriangulation,
)
from .graph import (
    Orientation,
    PlaneGraph,
    build_plane_graph,
    chords_of_cycle,
    edge,
    validate_near_triangulation,
)
from .report import VerificationReport


@dataclass
class Decomposition:
    handle: tuple  # ordered (x, y)
    forest: frozenset  # frozenset[Edge]
    orientation: Orientation
    # one tuple per shelling step, in pre-order with the handle side first:
    # ("chord", a, b) with a < b, ("ear", z), ("base", t0, t1, t2) sorted.
    # A chord step is followed by its two sides, an ear by one piece, a
    # base by nothing, so the arities alone rebuild the tree.
    steps: list

    @property
    def trace(self) -> dict:
        """The steps as a nested dict: {case, chord, children} for a chord
        (the handle side first), {case, vertex, child} for an ear and
        {case, triangle} for a base.  Nothing in the package reads it;
        it is kept for `perfbench/checks.trace_steps`, which walks it in
        `--trace 1` runs."""
        root: dict = {}
        slots = [root]  # the nodes still to fill, the next one last
        for case, *payload in self.steps:
            node = slots.pop()
            node["case"] = case
            if case == "chord":
                node["chord"] = payload
                node["children"] = [{}, {}]
                slots.extend(reversed(node["children"]))
            elif case == "ear":
                node["vertex"] = payload[0]
                node["child"] = {}
                slots.append(node["child"])
            else:
                node["triangle"] = payload
        return root

    def to_json_dict(self) -> dict:
        return {
            "handle": list(self.handle),
            "forest": [list(e) for e in sorted(self.forest)],
            "arcs": [list(a) for a in sorted(self.orientation.arcs)],
            "trace": [list(step) for step in self.steps],
        }


def decompose(pg: PlaneGraph, handle: tuple) -> Decomposition:
    rep = validate_near_triangulation(pg)
    if not rep.verdict:
        raise NotNearTriangulation(rep.detail)
    x0, y0 = handle
    cycle0 = pg.outer_face
    succ0 = dict(zip(cycle0, cycle0[1:] + cycle0[:1]))
    pred0 = {w: v for v, w in succ0.items()}
    if x0 not in succ0 or y0 not in (succ0[x0], pred0[x0]):
        raise HandleNotOnBoundary(f"{handle} is not a boundary edge")
    # every sub-cycle keeps the direction of cycle0, so this one flag tells
    # for all of them which way round the rotation runs inside
    traced = pg.outer_traced
    g = pg.graph
    adj = g.adjacency
    # every vertex that has been on a boundary; one inside the current
    # cycle's region is on that cycle
    reached = set(cycle0)

    forest: set = set()
    arcs: list = []
    steps: list = []

    # frame: (succ, pred, chords sorted down, handle x, handle y,
    #         drop_handle_from_forest), or (s, v, e) for a triangle side
    #         s -> v -> e that took the chord es as its handle; frames pop
    #         in pre-order
    chords0 = chords_of_cycle(g, cycle0)[::-1]
    stack = [(succ0, pred0, chords0, x0, y0, False)]

    while stack:
        frame = stack.pop()
        if len(frame) == 3:  # a triangle s -> v -> e waiting with handle se
            s, v, e = frame
            if not _inside_neighbours(pg.rotation[v], s, e, traced):
                # the base step its frame would take: the ear is v
                forest.add(edge(v, e))
                arcs.append((v, s))
                steps.append(("base", *sorted(frame)))
                continue
            frame = ({s: v, v: e, e: s}, {v: s, e: v, s: e}, [], s, e, True)
        succ, pred, chords, x, y, drop = frame
        # a chord taken by a short side has an end that left this ring;
        # it stays behind until it comes up
        while chords and not (chords[-1][0] in succ and chords[-1][1] in succ):
            chords.pop()

        if chords:
            a, b = chords.pop()
            # walk a -> .. -> b and b -> .. -> a together: the first to
            # arrive is the short side s -> .. -> e
            p, q = succ[a], succ[b]
            while p != b and q != a:
                p, q = succ[p], succ[q]
            s, e = (a, b) if p == b else (b, a)
            v = succ[s]
            steps.append(("chord", a, b))
            # the handle is a ring edge, so it is on a triangle side only
            # if it ends at v
            if succ[v] == e and v != x and v != y:
                # the triangle waits as a bare tuple under the long side,
                # which keeps the parent's dicts
                del succ[v], pred[v]
                succ[s] = e
                pred[e] = s
                stack.append((s, v, e))
                stack.append((succ, pred, chords, x, y, drop))
                continue
            short_succ, short_pred = {e: s, s: v}, {s: e, v: s}
            while v != e:
                w = succ.pop(v)
                del pred[v]
                short_succ[v] = w
                short_pred[w] = v
                v = w
            # the parent's cycle is now the long side e -> .. -> s
            succ[s] = e
            pred[e] = s
            short_chords = []
            if len(short_succ) > 3:  # a triangle has no chords
                # every chord has an end inside the path s -> .. -> e (se is
                # a ring edge now); one with both ends there counts once
                v = short_succ[s]
                while v != e:
                    u = short_succ[v]
                    for w in adj[v]:
                        if w in short_succ and w != u and w != short_pred[v]:
                            if v < w:
                                short_chords.append((v, w))
                            elif w == s or w == e:
                                short_chords.append((w, v))
                    v = u
                short_chords.sort(reverse=True)

            # the side without the handle takes the chord, in cycle order;
            # the handle side pops first
            if x in short_succ and y in short_succ:
                stack.append((succ, pred, chords, e, s, True))
                stack.append((short_succ, short_pred, short_chords, x, y, drop))
            else:
                stack.append((short_succ, short_pred, short_chords, s, e, True))
                stack.append((succ, pred, chords, x, y, drop))
            continue

        # ear: z is the boundary neighbour of x other than y, w the next one
        z = succ[x]
        if z != y:
            w = succ[z]
        else:
            z = pred[x]
            w = pred[z]
        before, after = pred[z], succ[z]
        inner = _inside_neighbours(pg.rotation[z], before, after, traced)
        forest.add(edge(z, w))
        arcs.append((z, x))

        if not inner:  # a triangle with nothing inside: w is y
            steps.append(("base", *sorted((x, y, z))))
            if not drop:
                forest.add(edge(x, y))
            continue

        steps.append(("ear", z))
        arcs.extend([(u, z) for u in inner])
        # z gives way to before, *inner, after
        link = [before, *inner, after]
        del succ[z], pred[z]
        for v, u in zip(link, link[1:]):
            succ[v] = u
            pred[u] = v
        stack.append((succ, pred, _ear_chords(adj, reached, z, link), x, y, drop))

    orientation = Orientation.build(g, arcs)
    return Decomposition((x0, y0), frozenset(forest), orientation, steps)


def _ear_chords(adj: dict, reached: set, z: str, link: list) -> list:
    """Chords, sorted down, of the cycle where ear z gave way to its inside
    neighbours link[1:-1] (link runs between z's two cycle neighbours).

    The old cycle had none, so each new chord has a new end u, and its
    other end is on the new cycle, that is, reached and not z, without
    being next to u on the link.  The new vertices join `reached` one by
    one, so a chord between two of them is found once.
    """
    chords = []
    for t in range(1, len(link) - 1):
        u, prev, nxt = link[t], link[t - 1], link[t + 1]
        for v in adj[u]:
            if v in reached and v != z and v != prev and v != nxt:
                chords.append(edge(u, v))
        reached.add(u)
    chords.sort(reverse=True)
    return chords


def _inside_neighbours(rot: tuple, before: str, after: str, traced: bool) -> list:
    """Neighbours of a cycle vertex strictly inside the cycle, ordered from
    its cycle predecessor `before` to its successor `after`.

    A traced face a -> z -> b has b right after a in the rotation at z, so
    the inside wedge runs forward from the traced successor round to the
    traced predecessor.
    """
    first, last = (after, before) if traced else (before, after)
    i, j = rot.index(first), rot.index(last)
    wedge = [*rot[i + 1 : j]] if i < j else [*rot[i + 1 :], *rot[:j]]
    return wedge[::-1] if traced else wedge


def verify_decomposition(pg: PlaneGraph, d: Decomposition) -> VerificationReport:
    """`check.check_plane_certificate` on d, with its handle."""
    return check_plane_certificate(
        pg.graph.edges, d.forest, d.orientation.arcs, d.handle, pg.outer_face
    )


# ---------------------------------------------------------------------------
# general plane graphs: augment, decompose, restrict

def decompose_any_planar(pg: PlaneGraph) -> tuple:
    """Forest F within E(G) and an acyclic orientation of G - E(F) with max
    out-degree at most 2, for any plane graph.

    The input is augmented with chords until every face is a triangle, the
    near-triangulation is decomposed, and the result is restricted to the
    original edges.  Sub-orientations of acyclic orientations stay acyclic,
    so the restricted certificate still witnesses Alon-Tarsi number <= 3.
    A disconnected input is decomposed one component at a time, each with
    the rotation restricted to it and its first traced face as outer face;
    a tree component (an isolated vertex too) goes into the forest whole.
    """
    g = pg.graph
    if pg.connected:  # one component, and pg is its plane graph
        parts = [(g.vertices, g.edges, None)]
    else:
        comps = g.connected_components()
        where = {v: i for i, comp in enumerate(comps) for v in comp}
        comp_edges = [[] for _ in comps]
        for e in g.edges:
            comp_edges[where[e[0]]].append(e)
        outer = {}
        for f in pg.faces:
            outer.setdefault(where[f[0]], f)
        parts = [(comp, comp_edges[i], outer.get(i)) for i, comp in enumerate(comps)]
    forest, arcs = set(), []
    for comp, edges, outer_face in parts:
        if len(edges) < len(comp):  # connected, so a tree
            forest.update(edges)
            continue
        part = pg if pg.connected else build_plane_graph(
            comp, edges, {v: pg.rotation[v] for v in comp}, outer_face
        )
        aug = _triangulate_embedding(part)
        cycle = aug.outer_face
        d = decompose(aug, min(edge(cycle[i - 1], cycle[i]) for i in range(len(cycle))))
        forest |= d.forest & g.edges
        arcs += [(t, h) for t, h in d.orientation.arcs if edge(t, h) in g.edges]
    return frozenset(forest), Orientation.build(g, arcs)


def _triangulate_embedding(pg: PlaneGraph) -> PlaneGraph:
    """Add chords until every face (outer included) is a triangle, then
    re-designate one face as the boundary.

    A long face is a deque turned so that the corner a, b, c being tried
    is at its front; the chord a-c clips the triangle off, and the deque
    turns past the corner and drops its tip b, so nothing is copied.  Each
    split lowers the sum of len - 3 over the pending walks.
    """
    rotation = {v: list(nbrs) for v, nbrs in pg.rotation.items()}
    edges = set(pg.graph.edges)

    def insert_after(v: str, anchor: str, new: str) -> None:
        rotation[v].insert(rotation[v].index(anchor) + 1, new)

    pending = [deque(f) for f in pg.faces if len(f) > 3]
    done = [f for f in pg.faces if len(f) <= 3]
    while pending:
        walk = pending.pop()
        # prefer a triangle-splitting chord two steps apart
        for _ in range(len(walk)):
            if walk[0] != walk[2] and edge(walk[0], walk[2]) not in edges:
                s = 2
                break
            walk.rotate(-1)
        else:  # a full turn has brought the walk back to its first vertex
            i, s = _far_chord(list(walk), edges)
            walk.rotate(-i)
        a, c = walk[0], walk[s]
        insert_after(a, walk[-1], c)
        insert_after(c, walk[s - 1], a)
        edges.add(edge(a, c))
        piece = list(islice(walk, s + 1))  # a .. c
        walk.rotate(-s)  # c .. a, then the s - 1 vertices between a and c
        for _ in range(s - 1):
            walk.pop()
        for part in (piece, walk):
            (pending if len(part) > 3 else done).append(part)

    rot = {v: tuple(nbrs) for v, nbrs in rotation.items()}
    # length-2 walks (bridges) cannot appear: the graph contains a cycle
    # and triangulation only shortens walks to length 3
    for piece in done:
        if len(piece) != 3:
            raise InvalidEmbedding(f"face {list(piece)} not a triangle after augmentation")
    return build_plane_graph(pg.graph.vertices, edges, rot, tuple(done[0]))


def _far_chord(walk: list, edges: set) -> tuple:
    """First positions i < j, not neighbours round the walk, whose vertices
    differ and are not adjacent yet; returns i and j - i."""
    k = len(walk)
    for i in range(k):
        for j in range(i + 2, k):
            if (j + 1) % k == i:
                continue
            if walk[i] != walk[j] and edge(walk[i], walk[j]) not in edges:
                return i, j - i
    raise InvalidEmbedding(f"cannot triangulate face {walk}")
