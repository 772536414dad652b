"""Simple graphs, plane embeddings via rotation systems, and orientations.

Vertices are opaque strings ordered lexicographically; this order is also
the variable order of the graph polynomial.  Edges are stored as sorted
pairs.  Rotation systems list, for each vertex, the cyclic order of its
neighbors; faces are recovered by the next-edge traversal rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .errors import (
    DuplicateEdge,
    EulerViolation,
    RotationMismatch,
    UnknownVertex,
)
from .report import VerificationReport

Edge = tuple[str, str]
Arc = tuple[str, str]


def edge(u: str, v: str) -> Edge:
    """Normalize an unordered pair to a sorted tuple."""
    if u == v:
        raise DuplicateEdge(f"loop at {u!r}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: frozenset  # frozenset[Edge]

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Graph":
        vs = tuple(sorted(vertices))
        if len(vs) != len(set(vs)):
            raise DuplicateEdge("duplicate vertex identifiers")
        vset = set(vs)
        es = set()
        for u, v in edges:
            e = edge(u, v)
            if e[0] not in vset or e[1] not in vset:
                raise UnknownVertex(f"edge {e} has an unlisted endpoint")
            if e in es:
                raise DuplicateEdge(f"edge {e} listed twice")
            es.add(e)
        return Graph(vs, frozenset(es))

    @cached_property
    def adjacency(self) -> dict:
        adj: dict[str, set] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    @cached_property
    def neighbors(self) -> dict:
        """Vertex -> tuple of its neighbors in sorted order."""
        return {v: tuple(sorted(ws)) for v, ws in self.adjacency.items()}

    def degree(self, v: str) -> int:
        return len(self.adjacency[v])


@dataclass(frozen=True)
class Orientation:
    """A directed assignment on a subset of the host's edges."""

    host: Graph
    arcs: frozenset  # frozenset[Arc], each (tail, head)

    @staticmethod
    def build(host: Graph, arcs: Iterable[tuple[str, str]]) -> "Orientation":
        """No check here: `check` judges the certificates built on it."""
        return Orientation(host, frozenset(arcs))

    def out_degrees(self) -> dict:
        d = {v: 0 for v in self.host.vertices}
        for t, _ in self.arcs:
            d[t] += 1
        return d


@dataclass(frozen=True)
class PlaneGraph:
    """An embedding with the facts `build_plane_graph` found checking it."""

    graph: Graph
    rotation: dict  # vertex -> tuple of neighbors in cyclic order
    outer_face: tuple  # closed boundary walk, first vertex not repeated
    faces: tuple  # every facial walk, as traced by build_plane_graph
    outer_index: int  # faces[outer_index] has the edges of outer_face
    outer_traced: bool  # outer_face runs the way faces[outer_index] does
    connected: bool


def _trace_all_faces(rotation: dict, turn: dict) -> list:
    """Return the facial walks of the embedding, one per dart cycle.

    `turn[v][u] = w` says that the dart (u, v) is followed by (v, w), where
    w follows u in the rotation at v; `turn` holds these maps for
    `rotation`, as `_turn_maps` builds them.  Tracing a dart pops it from
    its map, so `turn` is used up.  Walks start at the tails in sorted
    order, with the heads sorted at each tail: each walk starts at the
    smallest dart not yet used.  An isolated vertex v has the one trivial
    face (v,), in its place among the tails.
    """
    faces = []
    for a in sorted(rotation):
        if not rotation[a]:
            faces.append((a,))
        for b in sorted(rotation[a]):
            if a not in turn[b]:
                continue
            walk = []
            u, v = a, b
            while True:
                walk.append(u)
                u, v = v, turn[v].pop(u)
                if u == a and v == b:
                    break
                if u not in turn[v]:
                    raise EulerViolation("face trace revisits a consumed dart")
            faces.append(tuple(walk))
    return faces


def _turn_maps(rotation: dict) -> dict:
    return {v: dict(zip(nbrs, nbrs[1:] + nbrs[:1])) for v, nbrs in rotation.items()}


def _walk_darts(walk: tuple) -> set:
    k = len(walk)
    return {(walk[i], walk[(i + 1) % k]) for i in range(k)}


def build_plane_graph(
    vertices: Iterable[str],
    edges: Iterable[tuple[str, str]],
    rotation: dict,
    outer_face: Iterable[str],
) -> PlaneGraph:
    g = Graph.build(vertices, edges)
    rot = {v: tuple(nbrs) for v, nbrs in rotation.items()}
    adj = g.adjacency
    if rot.keys() != adj.keys():
        raise RotationMismatch("rotation must cover exactly the vertex set")
    # a rotation lists each neighbour once iff its turn map is as long
    turn = _turn_maps(rot)
    for v, t in turn.items():
        if len(t) != len(rot[v]) or t.keys() != adj[v]:
            raise RotationMismatch(f"rotation at {v!r} does not list its incident edges")

    faces = _trace_all_faces(rot, turn)

    # Euler's formula per connected component
    parts = components(g, faces)
    for i, (vs, es, fs) in enumerate(parts):
        if len(vs) - len(es) + len(fs) != 2:
            raise EulerViolation(
                f"component {i}: V-E+F = {len(vs)}-{len(es)}+{len(fs)} != 2"
            )

    outer = tuple(outer_face)
    if not outer:
        raise RotationMismatch("outer face walk is empty")
    match = _matching_face(faces, outer)
    if match is None:
        raise RotationMismatch("designated outer face is not a face of the embedding")
    return PlaneGraph(g, rot, outer, tuple(faces), *match, len(parts) == 1)


def components(g: Graph, faces) -> list:
    """Each connected component of g as (vertex set, edges, faces), in the
    order of its smallest vertex; a face of `faces` goes with the
    component of its first vertex."""
    adj = g.adjacency
    where: dict = {}
    parts = []
    for s in g.vertices:
        if s in where:
            continue
        i = len(parts)
        comp = {s}
        where[s] = i
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if w not in where:
                    where[w] = i
                    comp.add(w)
                    stack.append(w)
        parts.append((comp, [], []))
    for e in g.edges:
        parts[where[e[0]]][1].append(e)
    for f in faces:
        parts[where[f[0]]][2].append(f)
    return parts


def _matching_face(faces, walk: tuple) -> Optional[tuple]:
    """(index, traced) of the first face with the darts of `walk`,
    traversed either way, where traced tells that `walk` runs the way the
    face does; None if no face has them."""
    target = _walk_darts(walk)
    rev = {(b, a) for a, b in target}
    for i, f in enumerate(faces):
        if len(f) == len(walk) and (darts := _walk_darts(f)) in (target, rev):
            return i, darts == target
    return None


def validate_near_triangulation(pg: PlaneGraph) -> VerificationReport:
    """PASS iff the boundary is a simple cycle and interior faces are triangles."""
    outer = pg.outer_face
    if len(outer) < 3:
        return VerificationReport(False, f"boundary walk of length {len(outer)} is not a cycle")
    if len(set(outer)) != len(outer):
        return VerificationReport(False, "boundary walk repeats a vertex")
    if not pg.connected:
        return VerificationReport(False, "graph is disconnected")
    bad = [f for i, f in enumerate(pg.faces) if i != pg.outer_index and len(f) != 3]
    if bad:
        return VerificationReport(
            False, f"interior face of length {len(bad[0])}", counterexample=list(bad[0])
        )
    return VerificationReport(True, "near-triangulation")


def k4s(g: Graph) -> Iterator[tuple]:
    """4-cliques in lexicographic order: each edge a < b is extended by the
    common neighbours above b."""
    adj = g.adjacency
    for a in g.vertices:
        up = sorted(w for w in adj[a] if w > a)
        for i, b in enumerate(up):
            common = [w for w in up[i + 1:] if w in adj[b]]
            for j, c in enumerate(common):
                for d in common[j + 1:]:
                    if d in adj[c]:
                        yield (a, b, c, d)


# ---------------------------------------------------------------------------
# serialization

def graph_to_json_dict(g: Graph, pg: Optional[PlaneGraph] = None) -> dict:
    out = {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in sorted(g.edges)],
    }
    if pg is not None:
        out["rotation"] = {v: list(pg.rotation[v]) for v in g.vertices}
        out["outer_face"] = list(pg.outer_face)
    return out


def graph_to_json(g: Graph, pg: Optional[PlaneGraph] = None) -> str:
    return json.dumps(graph_to_json_dict(g, pg), sort_keys=True, separators=(",", ":"))


def graph_from_json_dict(data: dict):
    """Parse the Graph JSON format; returns a PlaneGraph when an embedding
    is present, a bare Graph otherwise."""
    vertices = [str(v) for v in data["vertices"]]
    edges = [(str(u), str(v)) for u, v in data["edges"]]
    if "rotation" in data and "outer_face" in data:
        rotation = {str(v): tuple(str(u) for u in nbrs) for v, nbrs in data["rotation"].items()}
        return build_plane_graph(vertices, edges, rotation, [str(v) for v in data["outer_face"]])
    return Graph.build(vertices, edges)


def graph_from_json(text: str):
    return graph_from_json_dict(json.loads(text))


def graph_to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for u, v in sorted(g.edges):
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
