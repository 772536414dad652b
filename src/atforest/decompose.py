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
chords in a list sorted downwards, so the smallest pops off the end.  One
rule, `_chords`, lists the chords of a ring that have an end among the
vertices a step brought onto it: every vertex of the first cycle, a short
side's inner vertices, an ear's inside neighbours.  A split walks round
the ring from both chord ends in lockstep, and the walk that arrives
first has traced the shorter side.  That side moves into fresh dicts and
takes its chords from `_chords`; the longer side keeps the parent's dicts,
relinked across the chord, and its list, which drops chords with an end
no longer on its ring as they come up.  So a split costs time in the
shorter side, not in the whole cycle and all its chords.  A short side
that is a triangle s -> v -> e without the handle waits as the bare tuple
(s, v, e), not as a frame, so a fan's n waiting triangles hold no dicts
for the collector to walk; it gets a frame only if it pops with vertices
inside.  An ear happens only on a chordless cycle and splices its link
path into the ring.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .check import check_plane_certificate
from .errors import ArtifactError
from .graph import (
    Orientation,
    PlaneGraph,
    build_plane_graph,  # unused here; perfbench's --trace 1 wraps dec.build_plane_graph
    components,
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
        raise ArtifactError(rep.detail)
    forest, arcs, steps = _shell(pg.rotation, pg.outer_face, pg.outer_traced, handle)
    return Decomposition(tuple(handle), frozenset(forest), Orientation.build(pg.graph, arcs), steps)


def _shell(rot: dict, cycle0, traced: bool, handle: tuple) -> tuple:
    """The shelling of a near-triangulation from its boundary edge
    `handle`, as (forest, arcs, steps): a set of edges and two lists.  It
    reads only the rotation `rot` and the boundary cycle `cycle0`, and
    `traced` tells whether `cycle0` runs the way its traced face does.
    Every sub-cycle keeps the direction of cycle0, so this one flag tells
    for all of them which way round the rotation runs inside."""
    x0, y0 = handle
    succ0 = dict(zip(cycle0, cycle0[1:] + cycle0[:1]))
    pred0 = {w: v for v, w in succ0.items()}
    if x0 not in succ0 or y0 not in (succ0[x0], pred0[x0]):
        raise ArtifactError(f"{handle} is not a boundary edge")

    forest: set = set()
    arcs: list = []
    steps: list = []

    # frame: (succ, pred, chords sorted down, handle x, handle y), or (s, v, e)
    #         for a triangle side s -> v -> e that took the chord es as its
    #         handle; frames pop in pre-order.  Only the handle side has handle
    #         (x0, y0): others take a chord, and x0y0 stays on that side's ring
    stack = [(succ0, pred0, _chords(rot, succ0, pred0, succ0), x0, y0)]

    while stack:
        frame = stack.pop()
        if len(frame) == 3:  # a triangle s -> v -> e waiting with handle se
            s, v, e = frame
            if not _inside_neighbours(rot[v], s, e, traced):
                # the base step its frame would take: the ear is v
                forest.add(edge(v, e))
                arcs.append((v, s))
                steps.append(("base", *sorted(frame)))
                continue
            frame = ({s: v, v: e, e: s}, {v: s, e: v, s: e}, [], s, e)
        succ, pred, chords, x, y = frame
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
                stack.append((succ, pred, chords, x, y))
                continue
            short_succ, short_pred = {e: s, s: v}, {s: e, v: s}
            inner = set()
            while v != e:
                w = succ.pop(v)
                del pred[v]
                short_succ[v] = w
                short_pred[w] = v
                inner.add(v)
                v = w
            # the parent's cycle is now the long side e -> .. -> s
            succ[s] = e
            pred[e] = s
            # every chord has an end inside s -> .. -> e, as se is a ring edge now
            short_chords = []
            if len(inner) > 1:  # a triangle has no chords
                short_chords = _chords(rot, short_succ, short_pred, inner)

            # the side without the handle takes the chord, in cycle order;
            # the handle side pops first
            if x in short_succ and y in short_succ:
                stack.append((succ, pred, chords, e, s))
                stack.append((short_succ, short_pred, short_chords, x, y))
            else:
                stack.append((short_succ, short_pred, short_chords, s, e))
                stack.append((succ, pred, chords, x, y))
            continue

        # ear: z is the boundary neighbour of x other than y, w the next one
        z = succ[x]
        if z != y:
            w = succ[z]
        else:
            z = pred[x]
            w = pred[z]
        before, after = pred[z], succ[z]
        inner = _inside_neighbours(rot[z], before, after, traced)
        forest.add(edge(z, w))
        arcs.append((z, x))

        if not inner:  # a triangle with nothing inside: w is y
            steps.append(("base", *sorted((x, y, z))))
            if (x, y) == (x0, y0):  # xy joins the forest on the handle side only
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
        # the old ring had no chords, so each new one has an end in inner
        stack.append((succ, pred, _chords(rot, succ, pred, set(inner)), x, y))

    return forest, arcs, steps


def _chords(nbrs: dict, succ: dict, pred: dict, new) -> list:
    """Chords of the ring `succ`/`pred` with an end in the vertex set `new`
    (edges to a ring vertex not next to that end), sorted downwards; one
    with both ends in `new` is listed once.  `nbrs` maps each vertex to its
    neighbours: `_shell` passes the rotation."""
    chords = []
    for v in new:
        after, before = succ[v], pred[v]
        for w in nbrs[v]:
            if w in succ and w != after and w != before:
                if v < w:
                    chords.append((v, w))
                elif w not in new:
                    chords.append((w, v))
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
    near-triangulation is shelled (`_shell`, the loop of `decompose`) from
    the least edge of its boundary, and the result is restricted to the
    original edges.  Sub-orientations of acyclic orientations stay
    acyclic, so the restricted certificate still witnesses Alon-Tarsi
    number <= 3.  A disconnected input is decomposed one component at a
    time, each from its own vertices, edges, rotations and traced faces
    (`components`); a tree component (an isolated vertex too) goes into
    the forest whole.  The augmented embedding stays a rotation and a
    boundary cycle: `_triangulate_embedding` checks each chord against the
    rotation where it clips, so the faces of pg, already traced and
    Euler-checked, carry over without a re-trace, and the shelling reads
    nothing else.
    """
    g = pg.graph
    parts = [(g.vertices, g.edges, pg.faces)] if pg.connected else components(g, pg.rotation, pg.faces)
    forest, arcs = set(), []
    for vertices, edges, faces in parts:
        if len(edges) < len(vertices):  # connected, so a tree
            forest.update(edges)
            continue
        rotation, cycle = _triangulate_embedding(vertices, edges, pg.rotation, faces)
        handle = min(edge(cycle[i - 1], cycle[i]) for i in range(len(cycle)))
        aug_forest, aug_arcs, _ = _shell(rotation, cycle, True, handle)
        forest |= aug_forest & g.edges
        arcs += [(t, h) for t, h in aug_arcs if (t, h) in g.edges or (h, t) in g.edges]
    return frozenset(forest), Orientation.build(g, arcs)


def _triangulate_embedding(vertices, edges, rotation: dict, faces) -> tuple:
    """Add chords to a connected plane graph, given by its vertices, edges
    and traced faces and a rotation covering its vertices, until every
    face (outer included) is a triangle; return the new rotation (lists)
    and one of the triangles, a traced face, as the boundary cycle.

    A long face is a deque turned until its front corner a, b, c is a
    two-step corner: a != c, not adjacent.  The chord a-c clips the
    triangle a, b, c off, and the deque turns past it and drops b, so
    nothing is copied.  Clipping always finds such a corner on a face walk
    w0 ... w(L-1), L >= 4, of a simple plane graph.  (a) If w(i) = w(i+2),
    w(i+1) has degree 1 and corner i-1 is one (w(i-1) = w(i+1) would
    repeat the dart (w(i+1), w(i)), so L = 2).  (b) Else some w(i) differs
    from w(i+3) (or the dart (w0, w1) repeats, so L = 3); drawn in the
    face, the chords (i, i+2) and (i+1, i+3) cross once, and were both
    edges already, outside the open face and with no end in common, they
    would close two curves that cross once, against the Jordan curve
    theorem.  A walk is done at length 3; only a tree has shorter ones.

    The result is not traced again.  In the walk p, a, b, c, d the clip
    first checks that b follows p round a and d follows b round c, as the
    face trace would have it, and refuses the face otherwise.  Then c goes
    in after p round a and a after b round c, which changes the successors
    of four darts only: (p, a) -> (a, c) -> (c, d) runs on the shorter
    walk, (a, b) -> (b, c) -> (c, a) is the new triangle, and every other
    face stays.  So each checked clip adds one edge and one face to an
    embedding that passed Euler's formula, and it still does.  Every face
    is a triangle at the end, each traced as its walk runs, so the first
    of them is a traced boundary cycle.
    """
    rotation = {v: list(rotation[v]) for v in vertices}
    edges = set(edges)

    pending = [deque(f) for f in faces if len(f) > 3]
    done = [f for f in faces if len(f) <= 3]
    while pending:
        walk = pending.pop()
        for _ in range(len(walk)):
            a, b, c = walk[0], walk[1], walk[2]
            if a != c and ((a, c) if a < c else (c, a)) not in edges:
                break
            walk.rotate(-1)
        else:  # only on a walk that is not a face, by the lemma above
            raise ArtifactError(f"no two-step corner in face {list(walk)}")
        # the walk runs p, a, b, c, d with p = walk[-1] and d = walk[3]
        at_a, at_c = rotation[a], rotation[c]
        i, j = at_a.index(walk[-1]) + 1, at_c.index(b) + 1
        if at_a[i % len(at_a)] != b or at_c[j % len(at_c)] != walk[3]:
            raise ArtifactError(f"face {list(walk)} does not follow the rotation at {a!r} and {c!r}")
        at_a.insert(i, c)
        at_c.insert(j, a)
        edges.add((a, c) if a < c else (c, a))
        done.append([a, b, c])
        walk.rotate(-2)  # c .. a, b
        walk.pop()
        (pending if len(walk) > 3 else done).append(walk)
    return rotation, tuple(done[0])
