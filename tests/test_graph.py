"""Graph, orientation, embedding, and serialization behavior."""

import json
import re
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atforest.errors import ArtifactError
from atforest.gadgets import build_gadget
from atforest.graph import (
    Graph,
    Orientation,
    _trace_all_faces,
    _turn_maps,
    build_plane_graph,
    components,
    edge,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    k4s,
    validate_near_triangulation,
)
from atforest.testkit import (
    Rng,
    plane_graph_from_triangles,
    random_graph,
    random_near_triangulation,
)
from helpers import find_k4, has_edge, reference_build_plane_graph, reference_graph_build


def k_complete(names):
    return Graph.build(names, [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]])


def triangle_plane():
    return build_plane_graph(
        ["x", "y", "z"],
        [("x", "y"), ("y", "z"), ("x", "z")],
        {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")},
        ["x", "y", "z"],
    )


def test_edge_normalizes_order():
    assert edge("b", "a") == ("a", "b") == edge("a", "b")


def test_build_rejects_duplicates_and_unknown_vertices():
    with pytest.raises(ArtifactError, match=r"^edge \('a', 'b'\) listed twice$"):
        Graph.build("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(ArtifactError, match=r"^edge \('a', 'c'\) has an unlisted endpoint$"):
        Graph.build("ab", [("a", "c")])


def test_build_rejects_an_unlisted_smaller_endpoint():
    # "A" < "b", so the unlisted endpoint is the first of the sorted pair
    with pytest.raises(ArtifactError, match=r"edge \('A', 'b'\) has an unlisted endpoint"):
        Graph.build("ab", [("A", "b")])


def test_triangle_has_two_faces():
    pg = triangle_plane()
    assert len(pg.faces) == 2
    assert set(pg.outer_face) == {"x", "y", "z"}


def test_outer_face_accepted_reversed():
    pg = build_plane_graph(
        ["x", "y", "z"],
        [("x", "y"), ("y", "z"), ("x", "z")],
        {"x": ("y", "z"), "y": ("z", "x"), "z": ("x", "y")},
        ["x", "z", "y"],
    )
    assert len(pg.faces) == 2


def test_bad_rotation_rejected():
    with pytest.raises(ArtifactError, match="^rotation at 'a' does not list its incident edges$"):
        build_plane_graph(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
            # rotation listing a non-neighbor
            {"a": ("b", "c"), "b": ("a", "c"), "c": ("b", "d"), "d": ("c", "a")},
            ["a", "b", "c", "d"],
        )
    # a genuine rotation system that is not planar (K4 with all-sorted
    # rotations traces too few faces for Euler's formula)
    with pytest.raises(ArtifactError, match=r"^component 0: V-E\+F = 4-6\+2 != 2$"):
        build_plane_graph(
            ["a", "b", "c", "d"],
            [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")],
            {"a": ("b", "c", "d"), "b": ("a", "c", "d"),
             "c": ("a", "b", "d"), "d": ("a", "b", "c")},
            ["a", "b", "c"],
        )


C4_VERTICES = ["a", "b", "c", "d"]
C4_EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
C4_ROTATION = {"a": ("b", "d"), "b": ("c", "a"), "c": ("d", "b"), "d": ("a", "c")}


@pytest.mark.parametrize("rotation, message", [
    # one neighbour twice in place of another: as long as the adjacency
    ({**C4_ROTATION, "a": ("b", "b")}, "rotation at 'a' does not list its incident edges"),
    ({**C4_ROTATION, "c": ("d", "b", "d")}, "rotation at 'c' does not list its incident edges"),
    # a neighbour left out
    ({**C4_ROTATION, "b": ("c",)}, "rotation at 'b' does not list its incident edges"),
    ({**C4_ROTATION, "d": ()}, "rotation at 'd' does not list its incident edges"),
    # a vertex missing, a vertex added, a vertex replaced
    ({v: r for v, r in C4_ROTATION.items() if v != "c"},
     "rotation must cover exactly the vertex set"),
    ({**C4_ROTATION, "e": ()}, "rotation must cover exactly the vertex set"),
    ({**{v: r for v, r in C4_ROTATION.items() if v != "d"}, "e": ("a", "c")},
     "rotation must cover exactly the vertex set"),
])
def test_rotation_check_refuses_repeats_omissions_and_other_vertex_sets(rotation, message):
    with pytest.raises(ArtifactError, match=f"^{re.escape(message)}$") as info:
        build_plane_graph(C4_VERTICES, C4_EDGES, rotation, C4_VERTICES)
    assert str(info.value) == message
    assert build_plane_graph(C4_VERTICES, C4_EDGES, C4_ROTATION, C4_VERTICES).faces


def _faces_by_repeated_min(rotation):
    """Reference face trace: each walk starts at min(remaining darts).  An
    isolated vertex v stands as the 1-tuple (v,), which sorts just before
    the darts leaving v, and is its own face."""
    succ = {}
    for v, nbrs in rotation.items():
        for i, u in enumerate(nbrs):
            succ[(v, u)] = nbrs[(i + 1) % len(nbrs)]
    remaining = set(succ) | {(v,) for v, nbrs in rotation.items() if not nbrs}
    faces = []
    while remaining:
        start = min(remaining)
        if len(start) == 1:
            faces.append(start)
            remaining.discard(start)
            continue
        walk, d = [], start
        while True:
            walk.append(d[0])
            remaining.discard(d)
            d = (d[1], succ[(d[1], d[0])])
            if d == start:
                break
        faces.append(tuple(walk))
    return faces


def _sparse_subgraph(pg):
    """Connected plane subgraph: boundary, a BFS tree, every fourth other edge."""
    outer = pg.outer_face
    kept = {edge(outer[i], outer[(i + 1) % len(outer)]) for i in range(len(outer))}
    seen, queue = {outer[0]}, [outer[0]]
    for u in queue:
        for w in pg.rotation[u]:
            if w not in seen:
                seen.add(w)
                kept.add(edge(u, w))
                queue.append(w)
    kept |= {e for k, e in enumerate(sorted(pg.graph.edges)) if k % 4 == 0}
    rotation = {v: [w for w in nbrs if edge(v, w) in kept] for v, nbrs in pg.rotation.items()}
    return build_plane_graph(pg.graph.vertices, kept, rotation, outer)


def _fan_plane(n):
    names = [f"f{i:02d}" for i in range(n)]
    tris = [(names[0], names[i + 1], names[i]) for i in range(1, n - 1)]
    return plane_graph_from_triangles(names, tris, tuple(names))


def _face_trace_instances():
    for n, seed in ((12, 1), (45, 2), (160, 3)):
        for b in sorted({3, 8, n // 2, n}):
            pg = random_near_triangulation(n, b, seed * 1000 + b)
            yield pg
            yield _sparse_subgraph(pg)
    for n in (3, 4, 9, 30):
        yield _fan_plane(n)
    # a triangle, a separate square and an isolated vertex
    yield build_plane_graph(
        ["a", "b", "c", "d", "e", "f", "g", "h"],
        [("a", "b"), ("b", "c"), ("a", "c"),
         ("d", "e"), ("e", "f"), ("f", "g"), ("d", "g")],
        {"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b"),
         "d": ("e", "g"), "e": ("f", "d"), "f": ("g", "e"), "g": ("d", "f"), "h": ()},
        ["a", "b", "c"],
    )


def test_face_trace_matches_repeated_min_reference():
    count = 0
    for pg in _face_trace_instances():
        expected = _faces_by_repeated_min(pg.rotation)
        assert _trace_all_faces(pg.rotation, _turn_maps(pg.rotation)) == expected
        assert list(pg.faces) == expected
        count += 1
    assert count == 29


def _union_find_roots(g):
    """Vertex -> the root of its tree in a union-find over the edges."""
    parent = {v: v for v in g.vertices}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges:
        parent[root(u)] = root(v)
    return {v: root(v) for v in g.vertices}


def _outer_by_rescan(pg):
    """(outer index, traced, connected) found again: the first face with the
    darts of the outer walk, either way round, and a union-find over the
    edges."""
    def darts(walk):
        return {(walk[i], walk[(i + 1) % len(walk)]) for i in range(len(walk))}

    walk = darts(pg.outer_face)
    index = next(
        i for i, f in enumerate(pg.faces)
        if len(f) == len(pg.outer_face) and darts(f) in (walk, {(b, a) for a, b in walk})
    )
    roots = set(_union_find_roots(pg.graph).values())
    return index, darts(pg.faces[index]) == walk, len(roots) == 1


def test_recorded_outer_face_matches_rescan():
    seen = set()
    for pg in _face_trace_instances():
        flipped = build_plane_graph(
            pg.graph.vertices, pg.graph.edges, pg.rotation, pg.outer_face[::-1]
        )
        for plane in (pg, flipped):
            facts = (plane.outer_index, plane.outer_traced, plane.connected)
            assert facts == _outer_by_rescan(plane)
            seen.add(facts[1:])
    # both directions, and a disconnected input, occur
    assert seen >= {(True, True), (False, True), (True, False), (False, False)}, seen


def test_near_triangulation_validation():
    pg = triangle_plane()
    assert validate_near_triangulation(pg).verdict
    c4 = build_plane_graph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
        {"a": ("b", "d"), "b": ("c", "a"), "c": ("d", "b"), "d": ("a", "c")},
        ["a", "b", "c", "d"],
    )
    assert not validate_near_triangulation(c4).verdict


def test_orientation_out_degrees():
    g = Graph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    acyclic = Orientation.build(g, [("a", "b"), ("b", "c"), ("a", "c")])
    assert acyclic.out_degrees() == {"a": 2, "b": 1, "c": 0}


def test_find_k4():
    assert find_k4(k_complete("abcd")) == ("a", "b", "c", "d")
    assert find_k4(k_complete("abcde")) == ("a", "b", "c", "d")  # lex-first
    c5 = Graph.build("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
    assert find_k4(c5) is None


def test_find_k4_matches_brute_force_on_random_graphs():
    from itertools import combinations

    for seed in range(20):
        g = random_graph(7, 0.6, seed)
        expected = [
            quad for quad in combinations(g.vertices, 4)
            if all(has_edge(g, u, v) for u, v in combinations(quad, 2))
        ]
        assert list(k4s(g)) == expected
        assert find_k4(g) == (expected[0] if expected else None)
    counts = {name: len(list(k4s(build_gadget(name)))) for name in ("D", "A", "G2")}
    assert counts == {"D": 5, "A": 9, "G2": 167}


def test_json_round_trip_plain_graph():
    g = random_graph(8, 0.4, 7)
    back = graph_from_json(graph_to_json(g))
    assert back == g
    # byte-deterministic
    assert graph_to_json(back) == graph_to_json(g)


def test_json_round_trip_plane_graph():
    pg = triangle_plane()
    back = graph_from_json(graph_to_json(pg.graph, pg))
    assert back.graph == pg.graph
    assert back.rotation == pg.rotation
    assert back.outer_face == pg.outer_face


def test_dot_export_lists_all_edges():
    g = Graph.build("ab", [("a", "b")])
    dot = graph_to_dot(g)
    assert '"a" -- "b";' in dot


def _edge_subsets():
    """Edge subsets of near-triangulations with the rotation restricted to
    them: disconnected, with tree components and isolated vertices, down
    to no edges at all."""
    for n, seed in ((6, 1), (25, 2), (80, 3)):
        pg = random_near_triangulation(n, min(6, n), seed)
        for keep in (0, 0.2, 0.5, 1):
            rng = Rng(seed * 10 + int(keep * 10))
            kept = {e for e in sorted(pg.graph.edges) if rng.random() < keep}
            rotation = {v: tuple(w for w in nbrs if edge(v, w) in kept)
                        for v, nbrs in pg.rotation.items()}
            outer = _trace_all_faces(rotation, _turn_maps(rotation))[0]
            yield build_plane_graph(pg.graph.vertices, kept, rotation, outer)


def test_components_partition_vertices_edges_and_faces_as_union_find_does():
    count = 0
    for pg in (*_face_trace_instances(), *_edge_subsets()):
        g = pg.graph
        parts = components(g, pg.rotation, pg.faces)
        # each vertex, edge and face is in exactly one part
        assert sorted(v for vs, _, _ in parts for v in vs) == list(g.vertices)
        assert sorted(e for _, es, _ in parts for e in es) == sorted(g.edges)
        assert sorted(f for _, _, fs in parts for f in fs) == sorted(pg.faces)
        # the parts are the union-find's classes, in the order of their
        # smallest vertex, and every edge and face lies inside its part
        classes = {}
        for v, root in _union_find_roots(g).items():
            classes.setdefault(root, set()).add(v)
        assert [vs for vs, _, _ in parts] == sorted(classes.values(), key=min)
        assert all(set(e) <= vs for vs, es, _ in parts for e in es)
        assert all(set(f) <= vs for vs, _, fs in parts for f in fs)
        assert pg.connected == (len(parts) == 1)
        count += 1
    assert count == 41


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_random_graph_json_round_trip(n, seed):
    g = random_graph(n, 0.5, seed)
    assert graph_from_json(graph_to_json(g)) == g


def test_isomorphic_wheels():
    """The two 5-vertex gadget pieces are the same abstract graph."""
    from atforest.gadgets import build_gadget

    j1, j2 = build_gadget("J1"), build_gadget("J2")
    names = list(j1.vertices)
    found = False
    for perm in permutations(names):
        mapping = dict(zip(names, perm))
        if {edge(mapping[u], mapping[v]) for u, v in j1.edges} == j2.edges:
            found = True
            break
    assert found


def _outcome(build, *args):
    """What a build gives: ("ok", its result), or ("raises", the exception's
    class and message)."""
    try:
        return "ok", build(*args)
    except Exception as exc:
        return "raises", type(exc), str(exc)


K4_EDGES = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
TRIANGLE = {"p": ("q", "r"), "q": ("r", "p"), "r": ("p", "q")}

# each build_plane_graph argument list holds one fault, or two where the
# per-edge order decides which one is named
FAULTY_PLANE_INPUTS = [
    # a loop after an unlisted endpoint, and before one
    (C4_VERTICES, C4_EDGES + [("a", "z"), ("b", "b")], C4_ROTATION, C4_VERTICES),
    (C4_VERTICES, C4_EDGES + [("b", "b"), ("a", "z")], C4_ROTATION, C4_VERTICES),
    # a repeated edge before a loop, and a repeat written the other way round
    (C4_VERTICES, C4_EDGES + [("a", "b"), ("c", "c")], C4_ROTATION, C4_VERTICES),
    (C4_VERTICES, C4_EDGES + [("d", "c")], C4_ROTATION, C4_VERTICES),
    # a duplicate vertex
    (C4_VERTICES + ["b"], C4_EDGES, C4_ROTATION, C4_VERTICES),
    # a rotation missing a vertex, or with an extra one
    (C4_VERTICES, C4_EDGES, {v: r for v, r in C4_ROTATION.items() if v != "a"}, C4_VERTICES),
    (C4_VERTICES, C4_EDGES, {**C4_ROTATION, "z": ()}, C4_VERTICES),
    # a repeated or a foreign neighbour in a rotation
    (C4_VERTICES, C4_EDGES, {**C4_ROTATION, "b": ("c", "c")}, C4_VERTICES),
    (C4_VERTICES, C4_EDGES, {**C4_ROTATION, "b": ("c", "d")}, C4_VERTICES),
    # an empty outer walk, and an outer walk that is not a face
    (C4_VERTICES, C4_EDGES, C4_ROTATION, []),
    (C4_VERTICES, C4_EDGES, C4_ROTATION, ["a", "c", "b", "d"]),
    # a plane triangle and a second component, K4 with sorted rotations,
    # of genus 1
    ([*"abcd", *"pqr"], K4_EDGES + [("p", "q"), ("q", "r"), ("p", "r")],
     {"a": tuple("bcd"), "b": tuple("acd"), "c": tuple("abd"), "d": tuple("abc"), **TRIANGLE},
     ["p", "q", "r"]),
    # a non-plane K4 with an isolated vertex: the Euler check names K4
    ([*"abcde"], K4_EDGES,
     {"a": tuple("bcd"), "b": tuple("acd"), "c": tuple("abd"), "d": tuple("abc"), "e": ()},
     ["a", "b", "c"]),
]


@pytest.mark.parametrize("args", FAULTY_PLANE_INPUTS)
def test_whole_set_checks_raise_what_the_per_element_checks_raise(args):
    new = _outcome(build_plane_graph, *args)
    assert new[0] == "raises"
    assert new == _outcome(reference_build_plane_graph, *args)
    vertices, edges = args[:2]
    assert _outcome(Graph.build, vertices, edges) == _outcome(reference_graph_build, vertices, edges)


def _drawn_rotation_system(n, boundary, seed, shuffled, keep, doubled, mutated=None):
    """A random near-triangulation's rotation system, the rotations at
    `shuffled` vertices shuffled, restricted to a random share `keep` of
    its edges (isolated vertices stay), and with a renamed copy beside it
    when `doubled`.  The outer walk is the first traced face, or the
    original boundary when that is no longer a face.  Then, with `mutated`
    "foreign", one rotation entry is replaced by a vertex the rotation does
    not list (its own vertex among them), or with "repeat" by another entry
    of the same rotation, so the rotations keep their entry count."""
    pg = random_near_triangulation(n, boundary, seed)
    rng = Rng(seed)
    rotation = {v: list(nbrs) for v, nbrs in pg.rotation.items()}
    for v in sorted(rotation)[:shuffled]:
        rng.shuffle(rotation[v])
    kept = {e for e in sorted(pg.graph.edges) if rng.random() < keep}
    rotation = {v: tuple(w for w in nbrs if edge(v, w) in kept) for v, nbrs in rotation.items()}
    vertices, edges = list(pg.graph.vertices), sorted(kept)
    if doubled:
        copy = {v: "w" + v for v in vertices}
        vertices += copy.values()
        edges += [(copy[u], copy[v]) for u, v in edges]
        rotation.update({copy[v]: tuple(copy[w] for w in nbrs) for v, nbrs in rotation.items()})
    outer = _trace_all_faces(rotation, _turn_maps(rotation))[0] if rng.random() < 0.7 else pg.outer_face
    if mutated and (listed := [v for v in sorted(rotation) if len(rotation[v]) > (mutated == "repeat")]):
        v = listed[rng.randrange(len(listed))]
        nbrs = list(rotation[v])
        i = rng.randrange(len(nbrs))
        if mutated == "repeat":
            pool = nbrs[:i] + nbrs[i + 1 :]
        else:
            pool = [w for w in sorted(rotation) if w not in nbrs]
        nbrs[i] = pool[rng.randrange(len(pool))]
        rotation[v] = tuple(nbrs)
    return vertices, edges, rotation, outer


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=3, max_value=40),
    st.integers(min_value=3, max_value=40),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([1.0, 0.7, 0.3, 0.0]),
    st.booleans(),
    st.sampled_from([None, "foreign", "repeat"]),
)
def test_whole_set_checks_match_per_element_checks_on_drawn_rotations(
    n, boundary, seed, shuffled, keep, doubled, mutated
):
    args = _drawn_rotation_system(n, min(boundary, n), seed, shuffled, keep, doubled, mutated)
    # the same outcome, so a refused rotation names the same vertex
    # PlaneGraph is a frozen dataclass: == compares every field
    assert _outcome(build_plane_graph, *args) == _outcome(reference_build_plane_graph, *args)


def test_drawn_rotations_reach_every_outcome():
    """The drawn systems above reach plane connected and disconnected
    input, a genus above 0, an outer walk that is no face and, mutated, a
    rotation that does not list its incident edges."""
    seen = set()
    for seed, mutated in product(range(40), (None, "foreign", "repeat")):
        args = _drawn_rotation_system(12 + seed % 20, 3 + seed % 7, seed, seed % 3,
                                      (1.0, 0.3)[seed % 2], seed % 4 == 1, mutated)
        new = _outcome(build_plane_graph, *args)
        assert new == _outcome(reference_build_plane_graph, *args)
        seen.add(("ok", new[1].connected) if new[0] == "ok" else (new[1].__name__, new[2].split()[0]))
    assert seen >= {("ok", True), ("ok", False), ("ArtifactError", "component"),
                    ("ArtifactError", "designated"), ("ArtifactError", "rotation")}, seen
