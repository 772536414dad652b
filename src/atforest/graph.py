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
from itertools import chain
from typing import Iterable, Iterator, Optional

from .errors import ArtifactError
from .report import VerificationReport

Edge = tuple[str, str]
Arc = tuple[str, str]


def edge(u: str, v: str) -> Edge:
    """Normalize an unordered pair to a sorted tuple."""
    if u == v:
        raise ArtifactError(f"loop at {u!r}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: frozenset  # frozenset[Edge]

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Graph":
        vs = tuple(sorted(vertices))
        vset = frozenset(vs)
        if len(vs) != len(vset):
            raise ArtifactError("duplicate vertex identifiers")
        edges = list(edges)  # read twice when a check below fails
        # sorted pairs, with None for a loop; the edge set is fine when the
        # pairs are distinct, none is None and every end is listed
        pairs = [(u, v) if u < v else (v, u) if v < u else None for u, v in edges]
        es = frozenset(pairs)
        if len(es) != len(pairs) or None in es or not vset.issuperset(chain.from_iterable(es)):
            # name the first fault in input order; one of these raises
            seen = set()
            for u, v in edges:
                e = edge(u, v)
                if e[0] not in vset or e[1] not in vset:
                    raise ArtifactError(f"edge {e} has an unlisted endpoint")
                if e in seen:
                    raise ArtifactError(f"edge {e} listed twice")
                seen.add(e)
        return Graph(vs, es)

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
    """An embedding with the facts its producer found checking it:
    `build_plane_graph` traces and Euler-checks a loaded rotation, and
    `decompose._triangulate_embedding` derives a triangulation's facts from
    those of the plane graph it adds chords to, checking each chord where
    it clips a face.  Both give the same fields for the same embedding."""

    graph: Graph
    rotation: dict  # vertex -> tuple of neighbors in cyclic order
    outer_face: tuple  # closed boundary walk, first vertex not repeated
    faces: tuple  # every facial walk, in the order build_plane_graph traces them
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
        raise ArtifactError("rotation must cover exactly the vertex set")
    # a rotation lists each neighbour once iff its turn map is as long
    turn = _turn_maps(rot)
    for v, t in turn.items():
        if len(t) != len(rot[v]) or t.keys() != adj[v]:
            raise ArtifactError(f"rotation at {v!r} does not list its incident edges")

    faces = _trace_all_faces(rot, turn)

    # Euler's formula: a traced rotation system of a connected graph has
    # V - E + F = 2 - 2 * genus <= 2, so the sum over the components is
    # 2 per component exactly when each of them is plane
    count = len(_vertex_sets(g))
    if len(adj) - len(g.edges) + len(faces) != 2 * count:
        for i, (vs, es, fs) in enumerate(components(g, faces)):
            if len(vs) - len(es) + len(fs) != 2:
                raise ArtifactError(
                    f"component {i}: V-E+F = {len(vs)}-{len(es)}+{len(fs)} != 2"
                )

    outer = tuple(outer_face)
    if not outer:
        raise ArtifactError("outer face walk is empty")
    match = _matching_face(faces, outer)
    if match is None:
        raise ArtifactError("designated outer face is not a face of the embedding")
    return PlaneGraph(g, rot, outer, tuple(faces), *match, count == 1)


def _vertex_sets(g: Graph) -> list:
    """The vertex set of each connected component of g, in the order of
    its smallest vertex."""
    adj = g.adjacency
    parts: list = []
    seen: set = set()
    for s in g.vertices:
        if len(seen) == len(adj):
            break
        if s in seen:
            continue
        comp = {s}
        reached = [s]
        for v in reached:  # a breadth-first search: `reached` grows as it is read
            new = adj[v] - comp
            comp |= new
            reached += new
        seen |= comp
        parts.append(comp)
    return parts


def components(g: Graph, faces) -> list:
    """Each connected component of g as (vertex set, edges, faces), in the
    order of its smallest vertex; a face of `faces` goes with the
    component of its first vertex."""
    parts = []
    where: dict = {}
    for i, comp in enumerate(_vertex_sets(g)):
        where.update(dict.fromkeys(comp, i))
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
    is present, a bare Graph otherwise.  A vertex name is a JSON string
    or an integer (read as its decimal string); any other name, or a
    list that is not an array, a top level that is not an object or a
    missing list, raises ValueError."""
    if type(data) is not dict:
        raise ValueError("the top level is not an object")
    for key in ("vertices", "edges"):
        if key not in data:
            raise ValueError(f"the graph has no {key!r} array")
    vertices = _names(data["vertices"], "'vertices'")
    edges = data["edges"]
    if type(edges) is not list or set(map(type, edges)) - {list} or set(map(len, edges)) - {2}:
        raise ValueError("'edges' is not an array of two-name arrays")
    if _needs_str(chain.from_iterable(edges), "'edges'"):
        edges = [(str(u), str(v)) for u, v in edges]
    if "rotation" in data and "outer_face" in data:
        rotation = data["rotation"]
        if type(rotation) is not dict or set(map(type, rotation.values())) - {list}:
            raise ValueError("'rotation' is not an object of arrays")
        if _needs_str(chain.from_iterable(rotation.values()), "'rotation'"):
            rotation = {v: [str(u) for u in nbrs] for v, nbrs in rotation.items()}
        return build_plane_graph(vertices, edges, rotation, _names(data["outer_face"], "'outer_face'"))
    return Graph.build(vertices, edges)


def _names(items, what: str) -> list:
    if type(items) is not list:
        raise ValueError(f"{what} is not an array")
    return [str(v) for v in items] if _needs_str(items, what) else items


def _needs_str(names: Iterable, what: str) -> bool:
    """Whether the names, judged by their set of JSON types, need str():
    not strings, integers do; any other type (bool too) is no name."""
    kinds = set(map(type, names))
    if kinds <= {str}:
        return False
    if kinds <= {str, int}:
        return True
    raise ValueError(f"{what} holds a name that is neither a string nor an integer")


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
