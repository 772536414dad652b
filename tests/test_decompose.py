"""Forest + nice-orientation decomposition of near-triangulations."""

import hashlib
import itertools
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atforest.cli as cli
import atforest.decompose as dec
from atforest.alon_tarsi import ParityCount, eulerian_diff, poly_coefficient
from atforest.check import check_forest_orientation, check_plane_certificate, read_certificate
from atforest.decompose import (
    Decomposition,
    _chords,
    _inside_neighbours,
    _triangulate_embedding,
    decompose,
    decompose_any_planar,
    verify_decomposition,
)
from atforest.errors import ArtifactError
from atforest.graph import (
    Graph,
    Orientation,
    _trace_all_faces,
    _turn_maps,
    _walk_darts,
    build_plane_graph,
    edge,
    graph_to_json,
    validate_near_triangulation,
)
from atforest.testkit import Rng, plane_graph_from_triangles, random_near_triangulation
from helpers import is_acyclic, quad_with_chord


def triangle_plane():
    return plane_graph_from_triangles(
        ["x", "y", "z"], [("z", "x", "y")], ("x", "z", "y")
    )


def wheel5():
    rim = [f"r{i}" for i in range(1, 6)]
    tris = [(rim[i], rim[(i + 1) % 5], "h") for i in range(5)]
    outer = (rim[0],) + tuple(reversed(rim[1:]))
    return plane_graph_from_triangles(rim + ["h"], tris, outer)


def test_base_case_triangle():
    d = decompose(triangle_plane(), ("x", "y"))
    assert d.forest == {edge("x", "y"), edge("y", "z")}
    assert d.orientation.arcs == {("z", "x")}
    assert verify_decomposition(triangle_plane(), d).verdict
    assert eulerian_diff(d.orientation) == ParityCount(1, 0)


def test_quadrilateral_chord_case_pinned_output():
    pg = quad_with_chord()
    d = decompose(pg, ("x", "y"))
    assert d.forest == {edge("x", "y"), edge("y", "v"), edge("u", "v")}
    assert d.orientation.arcs == {("v", "x"), ("u", "y")}
    assert verify_decomposition(pg, d).verdict
    assert eulerian_diff(d.orientation) == ParityCount(1, 0)


def test_wheel_decomposition_bounds_hub():
    pg = wheel5()
    d = decompose(pg, ("r1", "r2"))
    assert verify_decomposition(pg, d).verdict
    assert eulerian_diff(d.orientation) == ParityCount(1, 0)
    assert d.orientation.out_degrees()["h"] <= 2


def test_handle_must_be_boundary_edge():
    with pytest.raises(ArtifactError, match=r"^\('r1', 'h'\) is not a boundary edge$"):
        decompose(wheel5(), ("r1", "h"))


def test_non_triangulated_input_rejected():
    c4 = build_plane_graph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
        {"a": ("b", "d"), "b": ("c", "a"), "c": ("d", "b"), "d": ("a", "c")},
        ["a", "b", "c", "d"],
    )
    with pytest.raises(ArtifactError, match="^interior face of length 4$"):
        decompose(c4, ("a", "b"))


def triangle_and_floating_triangle():
    return build_plane_graph(
        ["a", "b", "c", "d", "e", "f"],
        [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")],
        {"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b"),
         "d": ("e", "f"), "e": ("f", "d"), "f": ("d", "e")},
        ["a", "b", "c"],
    )


def test_disconnected_input_rejected():
    pg = triangle_and_floating_triangle()
    report = validate_near_triangulation(pg)
    assert not report.verdict and report.detail == "graph is disconnected"
    with pytest.raises(ArtifactError, match="^graph is disconnected$"):
        decompose(pg, ("a", "b"))


def test_boundary_walk_repeating_a_vertex_rejected():
    pg = _bowtie()
    report = validate_near_triangulation(pg)
    assert not report.verdict and report.detail == "boundary walk repeats a vertex"
    with pytest.raises(ArtifactError, match="^boundary walk repeats a vertex$"):
        decompose(pg, ("a", "b"))


def test_verifier_rejects_tampered_output():
    pg = quad_with_chord()
    d = decompose(pg, ("x", "y"))
    # reverse the arc into the handle: out-degree at x becomes 1
    bad_arcs = {("u", "y"), ("x", "v")}
    bad = Decomposition(d.handle, d.forest, Orientation.build(pg.graph, bad_arcs), d.steps)
    report = verify_decomposition(pg, bad)
    assert not report.verdict and report.detail == "out-degree 1 exceeds bound 0"
    # cycle in the claimed forest
    cyc = Decomposition(
        d.handle,
        frozenset({edge("x", "y"), edge("y", "v"), edge("x", "v")}),
        Orientation.build(pg.graph, [("u", "y"), ("u", "v")]),
        d.steps,
    )
    assert not verify_decomposition(pg, cyc).verdict


def test_arc_leaving_the_handle_fails_at_that_end():
    # the nice-orientation bound is 0 at both handle ends
    pg = quad_with_chord()
    d = decompose(pg, ("x", "y"))
    assert d.orientation.arcs == {("v", "x"), ("u", "y")}
    for arcs, end in (({("u", "y"), ("x", "v")}, "x"), ({("v", "x"), ("y", "u")}, "y")):
        bad = Decomposition(d.handle, d.forest, Orientation.build(pg.graph, arcs), d.steps)
        report = verify_decomposition(pg, bad)
        assert not report.verdict and report.counterexample == end


def test_handle_that_is_no_edge_fails_though_the_bounds_hold():
    # 4-cycle x-a-w-b with chord ab; the handle xw read from a file is a
    # boundary pair but no edge, so only the handle check refuses
    pg = plane_graph_from_triangles(
        ["a", "b", "w", "x"], [("x", "a", "b"), ("a", "w", "b")], ("x", "b", "w", "a")
    )
    data = {
        "handle": ["x", "w"],
        "forest": [["a", "x"], ["a", "w"], ["b", "w"]],
        "arcs": [["a", "b"], ["b", "x"]],
    }
    forest, arcs, handle = read_certificate(data)
    boundary = set(pg.outer_face)
    nice = lambda v: 0 if v in ("x", "w") else 1 if v in boundary else 2
    assert check_forest_orientation(pg.graph.edges, forest, arcs, nice).verdict
    report = check_plane_certificate(pg.graph.edges, forest, arcs, handle, pg.outer_face)
    assert not report.verdict and report.detail == "handle missing from forest"


def test_decompose_deterministic():
    pg = random_near_triangulation(60, 8, 17)
    h = (pg.outer_face[0], pg.outer_face[1])
    d1, d2 = decompose(pg, h), decompose(pg, h)
    assert d1.forest == d2.forest and d1.orientation.arcs == d2.orientation.arcs


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=4, max_value=60),
    st.integers(min_value=3, max_value=10),
    st.integers(min_value=0, max_value=10**6),
)
def test_random_near_triangulations_verify(n, b, seed):
    if b > n:
        b = n
    pg = random_near_triangulation(n, b, seed)
    handle = (pg.outer_face[0], pg.outer_face[1])
    d = decompose(pg, handle)
    assert verify_decomposition(pg, d).verdict


def test_decomposition_json_round_trip():
    pg = random_near_triangulation(25, 6, 4)
    d = decompose(pg, (pg.outer_face[0], pg.outer_face[1]))
    forest, arcs, handle = read_certificate(d.to_json_dict())
    assert handle == d.handle
    assert sorted(forest) == sorted(d.forest)
    assert sorted(arcs) == sorted(d.orientation.arcs)


def test_any_planar_c4():
    c4 = build_plane_graph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
        {"a": ("b", "d"), "b": ("c", "a"), "c": ("d", "b"), "d": ("a", "c")},
        ["a", "b", "c", "d"],
    )
    forest, orientation = decompose_any_planar(c4)
    assert check_forest_orientation(c4.graph.edges, forest, orientation.arcs, lambda v: 2).verdict
    assert forest <= c4.graph.edges
    assert forest.isdisjoint({edge(t, h) for t, h in orientation.arcs})
    assert forest | {edge(t, h) for t, h in orientation.arcs} == c4.graph.edges
    assert is_acyclic(orientation.arcs)
    assert all(v <= 2 for v in orientation.out_degrees().values())


def test_any_planar_tree_is_all_forest():
    tree = build_plane_graph(
        ["a", "b", "c"],
        [("a", "b"), ("b", "c")],
        {"a": ("b",), "b": ("a", "c"), "c": ("b",)},
        ["a", "b", "c", "b"],
    )
    forest, orientation = decompose_any_planar(tree)
    assert forest == tree.graph.edges and not orientation.arcs
    assert check_forest_orientation(tree.graph.edges, forest, orientation.arcs, lambda v: 2).verdict


def test_any_planar_decomposes_each_component():
    # a triangle, a separate square and an isolated vertex
    pg = build_plane_graph(
        ["a", "b", "c", "d", "e", "f", "g", "h"],
        [("a", "b"), ("b", "c"), ("a", "c"),
         ("d", "e"), ("e", "f"), ("f", "g"), ("d", "g")],
        {"a": ("b", "c"), "b": ("c", "a"), "c": ("a", "b"),
         "d": ("e", "g"), "e": ("f", "d"), "f": ("g", "e"), "g": ("d", "f"), "h": ()},
        ["a", "b", "c"],
    )
    assert not pg.connected
    forest, orientation = decompose_any_planar(pg)
    assert check_forest_orientation(pg.graph.edges, forest, orientation.arcs, lambda v: 2).verdict
    # each component gets the certificate it gets on its own
    for names, outer in (("abc", ("a", "b", "c")), ("defg", ("d", "e", "f", "g"))):
        part = build_plane_graph(
            names, [e for e in pg.graph.edges if e[0] in names],
            {v: pg.rotation[v] for v in names}, outer,
        )
        part_forest, part_orientation = decompose_any_planar(part)
        assert part_forest == {e for e in forest if e[0] in names}
        assert part_orientation.arcs == {a for a in orientation.arcs if a[0] in names}
    # trees go into the forest whole
    two_edges = build_plane_graph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("c", "d")],
        {"a": ("b",), "b": ("a",), "c": ("d",), "d": ("c",)},
        ["a", "b"],
    )
    forest, orientation = decompose_any_planar(two_edges)
    assert forest == two_edges.graph.edges and not orientation.arcs


def test_any_planar_on_near_triangulation():
    pg = random_near_triangulation(20, 5, 9)
    forest, orientation = decompose_any_planar(pg)
    assert check_forest_orientation(pg.graph.edges, forest, orientation.arcs, lambda v: 2).verdict
    assert forest | {edge(t, h) for t, h in orientation.arcs} == pg.graph.edges
    assert is_acyclic(orientation.arcs)
    assert all(v <= 2 for v in orientation.out_degrees().values())


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=40),
    st.integers(min_value=3, max_value=10),
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_sparse_plane_subgraphs_certify_and_round_trip(n, b, seed, keep):
    # any edge subset of a near-triangulation, with the rotation restricted
    # to it: possibly disconnected, with isolated vertices and tree
    # components, or with no edges at all
    pg = random_near_triangulation(n, min(b, n), seed)
    rng = Rng(seed)
    kept = {e for e in sorted(pg.graph.edges) if rng.random() < keep}
    rotation = {v: tuple(w for w in nbrs if edge(v, w) in kept) for v, nbrs in pg.rotation.items()}
    outer = _trace_all_faces(rotation, _turn_maps(rotation))[0]
    sub = build_plane_graph(pg.graph.vertices, kept, rotation, outer)
    forest, orientation = decompose_any_planar(sub)
    assert check_plane_certificate(sub.graph.edges, forest, orientation.arcs).verdict
    with tempfile.TemporaryDirectory() as tmp:
        graph_file, cert_file = os.path.join(tmp, "sub.json"), os.path.join(tmp, "any.json")
        with open(graph_file, "w", encoding="utf-8") as fh:
            fh.write(graph_to_json(sub.graph, sub))
        assert cli.run(["decompose", "--input", graph_file, "--output", cert_file]).exit_code == 0
        with open(cert_file, encoding="utf-8") as fh:
            data = json.load(fh)
        assert data == {"forest": [list(e) for e in sorted(forest)],
                        "arcs": [list(a) for a in sorted(orientation.arcs)]}
        verify = ["verify", "decomposition", "--input", graph_file, "--decomposition", cert_file]
        assert cli.run(verify).exit_code == 0


def _ring(names, edges):
    """succ, pred and adjacency of the ring names[0] -> names[1] -> .. with
    the extra `edges`."""
    succ = dict(zip(names, names[1:] + names[:1]))
    pred = {w: v for v, w in succ.items()}
    adj = {}
    for u, v in [*succ.items(), *edges]:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return succ, pred, adj


def test_chords_lists_each_chord_with_an_end_in_new_once_sorted_down():
    # a whole ring, every vertex new: each chord once, ring edges and the
    # edge to the vertex i off the ring left out
    succ, pred, adj = _ring(list("abcdef"), [("a", "c"), ("a", "d"), ("d", "f"), ("b", "i")])
    assert _chords(adj, succ, pred, succ) == [("d", "f"), ("a", "d"), ("a", "c")]
    # a short side s -> p -> q -> r -> e, relinked e -> s: chords at the old
    # ends s and e are found from their inner ends, and p-r, with both ends
    # inner, once
    succ, pred, adj = _ring(
        ["s", "p", "q", "r", "e"], [("q", "s"), ("e", "q"), ("p", "r"), ("e", "o"), ("o", "q")]
    )
    assert _chords(adj, succ, pred, {"p", "q", "r"}) == [("q", "s"), ("p", "r"), ("e", "q")]
    assert _chords(adj, succ, pred, {"q"}) == [("q", "s"), ("e", "q")]
    # an ear z gave way to u1 u2 u3 between its ring neighbours b0 and a0:
    # z is off the ring now, w is on it, u1-u3 joins two new vertices
    succ, pred, adj = _ring(
        ["a0", "m", "w", "b0", "u1", "u2", "u3"],
        [("u1", "u3"), ("u2", "w"), ("u2", "z"), ("u1", "z"), ("u3", "k")],
    )
    assert _chords(adj, succ, pred, {"u1", "u2", "u3"}) == [("u2", "w"), ("u1", "u3")]
    # a triangle has none
    succ, pred, adj = _ring(list("xyz"), [("x", "o")])
    assert _chords(adj, succ, pred, succ) == []


# ---------------------------------------------------------------------------
# pinned certificates: any change to the chord choice, the ear link or the
# trace shows up as a different digest.  The handle, forest and arcs alone
# have a digest of their own, pinned before the trace became a flat step
# log; CERTIFICATE_DIGEST was derived from the nested traces of the same
# certificates, flattened by `_flatten`.

CERTIFICATE_DIGEST = "32841cfc1b7212e5d6644970517769159ab7cd5604a7b0ead723ac593de240b1"
FOREST_ARC_DIGEST = "81205af3a79593f71226e686bf38792e9a21d82a0a3f9591c96e1e11b85ce13d"


def _flatten(trace):
    """A nested trace ({case, chord, children} | {case, vertex, child} |
    {case, triangle}) as the flat step log: the steps in pre-order, the
    handle side first, each a JSON array."""
    steps, stack = [], [trace]
    while stack:
        node = stack.pop()
        if node["case"] == "chord":
            steps.append(["chord", *node["chord"]])
            stack.extend(reversed(node["children"]))
        elif node["case"] == "ear":
            steps.append(["ear", node["vertex"]])
            stack.append(node["child"])
        else:
            steps.append(["base", *node["triangle"]])
    return steps


def _fan(n):
    """Fan with apex p0 and rim p1 .. p(n-1); handle (p0, p(n-1))."""
    names = [f"p{i:02d}" for i in range(n)]
    tris = [(names[0], names[i + 1], names[i]) for i in range(1, n - 1)]
    outer = tuple(names)
    return plane_graph_from_triangles(names, tris, outer), (names[0], names[-1])


def _zigzag(n, rng=None):
    """Strip between top path t* and bottom path s*, rungs advancing
    alternately two steps on top and one on the bottom, or on a side drawn
    from `rng`; handle (t0, s0)."""
    top = [f"t{i:02d}" for i in range(n // 2)]
    bot = [f"s{i:02d}" for i in range(n - n // 2)]
    i = j = 0
    tris = []
    while i < len(top) - 1 or j < len(bot) - 1:
        on_top = (i + j) % 3 != 2 if rng is None else rng.randrange(2) == 0
        if j == len(bot) - 1 or (i < len(top) - 1 and on_top):
            tris.append((top[i], top[i + 1], bot[j]))
            i += 1
        else:
            tris.append((top[i], bot[j + 1], bot[j]))
            j += 1
    outer = (top[0],) + tuple(bot) + tuple(reversed(top[1:]))
    return plane_graph_from_triangles(top + bot, tris, outer), (top[0], bot[0])


def _sparse(pg):
    """Connected plane subgraph: boundary, a BFS tree, every third other edge."""
    outer = pg.outer_face
    kept = {edge(outer[i], outer[(i + 1) % len(outer)]) for i in range(len(outer))}
    seen, queue = {outer[0]}, [outer[0]]
    for u in queue:
        for w in pg.rotation[u]:
            if w not in seen:
                seen.add(w)
                kept.add(edge(u, w))
                queue.append(w)
    kept |= {e for k, e in enumerate(sorted(pg.graph.edges)) if k % 3 == 0}
    rotation = {v: [w for w in nbrs if edge(v, w) in kept] for v, nbrs in pg.rotation.items()}
    return build_plane_graph(pg.graph.vertices, kept, rotation, outer)


def _pinned_certificates():
    for n, seed in ((9, 1), (40, 2), (130, 3)):
        for b in sorted({3, min(8, n), n // 2, n}):
            pg = random_near_triangulation(n, b, seed * 100 + b)
            x, y = pg.outer_face[0], pg.outer_face[1]
            for handle in ((x, y), (y, x)):
                yield decompose(pg, handle).to_json_dict()
    pg = random_near_triangulation(60, 12, 7)
    flipped = build_plane_graph(
        pg.graph.vertices, pg.graph.edges, pg.rotation, tuple(reversed(pg.outer_face))
    )
    yield decompose(flipped, (flipped.outer_face[1], flipped.outer_face[2])).to_json_dict()
    for build in (_fan, _zigzag):
        pg, handle = build(25)
        yield decompose(pg, handle).to_json_dict()
    pg = _sparse(random_near_triangulation(50, 10, 11))
    forest, orientation = decompose_any_planar(pg)
    assert check_forest_orientation(pg.graph.edges, forest, orientation.arcs, lambda v: 2).verdict
    yield {"forest": sorted(forest), "arcs": sorted(orientation.arcs)}


def _digest(certs):
    h = hashlib.sha256()
    for cert in certs:
        h.update(json.dumps(cert, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def test_certificates_match_pinned_digest():
    assert _digest(_pinned_certificates()) == CERTIFICATE_DIGEST


def test_handles_forests_and_arcs_match_pinned_digest():
    certs = ({k: v for k, v in cert.items() if k != "trace"} for cert in _pinned_certificates())
    assert _digest(certs) == FOREST_ARC_DIGEST


# ---------------------------------------------------------------------------
# chord lists carried down the stack against a rescan of every frame


def _reference_decompose(pg, handle):
    """The decomposition loop that looks for the smallest chord by scanning
    the adjacency of every cycle vertex in every frame."""
    x0, y0 = handle
    cycle0 = list(pg.outer_face)
    # direction from the first face with the outer walk's darts, either way
    walk = _walk_darts(pg.outer_face)
    rev = {(b, a) for a, b in walk}
    traced = walk == next(
        _walk_darts(f) for f in pg.faces
        if len(f) == len(cycle0) and _walk_darts(f) in (walk, rev)
    )
    g = pg.graph
    forest, arcs, root = set(), [], {}
    stack = [(cycle0, (x0, y0), False, root)]
    while stack:
        cycle, (x, y), drop, node = stack.pop()
        on_cycle, k = set(cycle), len(cycle)
        sides = {edge(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
        chord = min(
            (edge(u, v) for u in cycle for v in g.adjacency[u]
             if v in on_cycle and edge(u, v) not in sides),
            default=None,
        )
        if chord is not None:
            i, j = sorted((cycle.index(chord[0]), cycle.index(chord[1])))
            path_a, path_b = cycle[i : j + 1], cycle[j:] + cycle[: i + 1]
            if not any({path_a[t], path_a[t + 1]} == {x, y} for t in range(len(path_a) - 1)):
                path_a, path_b = path_b, path_a
            node["case"], node["chord"] = "chord", [chord[0], chord[1]]
            node["children"] = [{}, {}]
            stack.append((path_b, (path_b[0], path_b[-1]), True, node["children"][1]))
            stack.append((path_a, (x, y), drop, node["children"][0]))
            continue
        ix = cycle.index(x)
        step = 1 if cycle[(ix + 1) % k] != y else -1
        iz = (ix + step) % k
        z, w = cycle[iz], cycle[(iz + step) % k]
        inner = _inside_neighbours(pg.rotation[z], cycle[iz - 1], cycle[(iz + 1) % k], traced)
        forest.add(edge(z, w))
        arcs.append((z, x))
        if not inner:
            node["case"], node["triangle"] = "base", sorted(cycle)
            if not drop:
                forest.add(edge(x, y))
            continue
        node["case"], node["vertex"], node["child"] = "ear", z, {}
        arcs.extend((u, z) for u in inner)
        stack.append((cycle[:iz] + inner + cycle[iz + 1 :], (x, y), drop, node["child"]))
    return {
        "handle": [x0, y0],
        "forest": [list(e) for e in sorted(forest)],
        "arcs": [list(a) for a in sorted(arcs)],
        "trace": root,
    }


def _chord_list_instances():
    """(plane graph, handle) pairs: random boundaries in both handle
    directions, reversed outer walks, fans, zigzag strips and ear-heavy
    boundary-3 inputs."""
    for n, seed in ((7, 1), (20, 2), (55, 3), (140, 4)):
        for b in sorted({3, 4, min(8, n), max(3, n // 3), n // 2, n - 1, n}):
            pg = random_near_triangulation(n, b, seed * 1000 + b)
            o = pg.outer_face
            for handle in ((o[0], o[1]), (o[1], o[0]), (o[-1], o[0])):
                yield pg, handle
            flipped = build_plane_graph(pg.graph.vertices, pg.graph.edges, pg.rotation, o[::-1])
            yield flipped, (o[2], o[1])
    for n in (3, 4, 5, 8, 13, 31, 64):
        pg, (x, y) = _fan(n)
        yield pg, (x, y)
        yield pg, (y, x)
        yield pg, (pg.outer_face[1], pg.outer_face[2])
    for n in (4, 5, 9, 16, 33, 70):
        for rng in (None, Rng(n)):
            pg, (x, y) = _zigzag(n, rng)
            yield pg, (x, y)
            yield pg, (y, x)
    for seed in range(60):
        pg = random_near_triangulation(12 + 2 * seed, 3, 7000 + seed)
        yield pg, (pg.outer_face[seed % 3], pg.outer_face[(seed + 1) % 3])


def _assert_same_as_reference(pg, handle):
    """decompose matches the reference: handle, forest and arcs as they
    are, the flat trace against the reference's nested one flattened, and
    the nested view against the reference's nested trace."""
    d = decompose(pg, handle)
    ref = _reference_decompose(pg, handle)
    got = d.to_json_dict()
    assert got.pop("trace") == _flatten(ref["trace"])
    assert got == {k: v for k, v in ref.items() if k != "trace"}
    assert d.trace == ref["trace"]


def test_chord_lists_match_rescanning_reference():
    count = 0
    for pg, handle in _chord_list_instances():
        _assert_same_as_reference(pg, handle)
        count += 1
    assert count == 205


# drawn inputs for the same comparison: each takes a drawn boundary edge as
# its handle, in a drawn direction


def _drawn_handle(data, pg):
    o = pg.outer_face
    i = data.draw(st.integers(min_value=0, max_value=len(o) - 1))
    x, y = o[i], o[(i + 1) % len(o)]
    return (x, y) if data.draw(st.booleans()) else (y, x)


@settings(max_examples=40, deadline=None)
@given(
    st.data(),
    st.integers(min_value=3, max_value=150),
    st.integers(min_value=0, max_value=10**6),
)
def test_shelling_matches_reference_on_fans_and_strips(data, n, seed):
    pg, _ = _fan(n) if data.draw(st.booleans()) else _zigzag(n, Rng(seed))
    _assert_same_as_reference(pg, _drawn_handle(data, pg))


@settings(max_examples=40, deadline=None)
@given(
    st.data(),
    st.integers(min_value=3, max_value=120),
    st.integers(min_value=0, max_value=10**6),
)
def test_shelling_matches_reference_on_random_near_triangulations(data, n, seed):
    b = data.draw(st.integers(min_value=3, max_value=n))
    pg = random_near_triangulation(n, b, seed)
    _assert_same_as_reference(pg, _drawn_handle(data, pg))


@settings(max_examples=30, deadline=None)
@given(
    st.data(),
    st.integers(min_value=3, max_value=120),
    st.integers(min_value=0, max_value=10**6),
)
def test_shelling_matches_reference_on_reversed_outer_walks(data, n, seed):
    b = data.draw(st.integers(min_value=3, max_value=n))
    pg = random_near_triangulation(n, b, seed)
    flipped = build_plane_graph(
        pg.graph.vertices, pg.graph.edges, pg.rotation, pg.outer_face[::-1]
    )
    _assert_same_as_reference(flipped, _drawn_handle(data, flipped))


def test_twenty_thousand_vertex_fan_and_strip_decompose_and_verify():
    # 20 000 nested chord steps each; no time is asserted
    for pg, handle in (_fan(20000), _zigzag(20000, Rng(5))):
        assert verify_decomposition(pg, decompose(pg, handle)).verdict


def _remainder_coefficient(g, forest, orientation):
    """The coefficient of x^(out-degrees of the orientation) in the graph
    polynomial of g - E(forest)."""
    rest = Graph.build(g.vertices, g.edges - forest)
    return poly_coefficient(rest, orientation.out_degrees())


@pytest.mark.parametrize("n", [8, 60, 2000])
def test_certificates_are_alon_tarsi_witnesses_through_the_polynomial(n):
    # the positive theorem's witness: D is an acyclic orientation of
    # G - E(F), the only one with its out-degrees, so the coefficient of
    # x^outdeg(D) in the graph polynomial of G - E(F) is +-1 (Alon-Tarsi)
    tri = random_near_triangulation(n, 8, n)
    for pg, handle in (_fan(n), _zigzag(n, Rng(n)), (tri, tri.outer_face[:2])):
        d = decompose(pg, handle)
        assert _remainder_coefficient(pg.graph, d.forest, d.orientation) in (1, -1), handle
        sub = _sparse(pg)
        forest, orientation = decompose_any_planar(sub)
        assert _remainder_coefficient(sub.graph, forest, orientation) in (1, -1), handle


# ---------------------------------------------------------------------------
# the out-degree bounds are what a certificate one arc over them fails on


def _one_arc_over(pg, d, on_boundary):
    """The first vertex v on the boundary (out-degree 1) or inside
    (out-degree 2) with a forest edge vu such that u does not reach v in
    the orientation, and the certificate with vu turned into the arc v->u:
    still a forest plus an acyclic orientation partitioning the edges."""
    boundary = set(pg.outer_face)
    out = d.orientation.out_degrees()
    heads: dict = {}
    for t, h in d.orientation.arcs:
        heads.setdefault(t, []).append(h)
    for v in sorted(pg.graph.vertices):
        if (v in boundary) != on_boundary or out[v] != (1 if on_boundary else 2):
            continue
        for e in sorted(d.forest):
            if v not in e:
                continue
            u = e[1] if e[0] == v else e[0]
            seen, todo = {u}, [u]
            while todo:
                for w in heads.get(todo.pop(), ()):
                    if w not in seen:
                        seen.add(w)
                        todo.append(w)
            if v not in seen:
                arcs = Orientation.build(pg.graph, d.orientation.arcs | {(v, u)})
                return v, Decomposition(d.handle, d.forest - {e}, arcs, d.steps)
    raise AssertionError("no forest edge can become an arc")


@pytest.mark.parametrize(
    "on_boundary, detail",
    [(True, "out-degree 2 exceeds bound 1"), (False, "out-degree 3 exceeds bound 2")],
)
def test_verifier_fails_a_certificate_one_arc_over_the_bound(on_boundary, detail):
    pg = random_near_triangulation(40, 8, 3)
    d = decompose(pg, (pg.outer_face[0], pg.outer_face[1]))
    v, bad = _one_arc_over(pg, d, on_boundary)
    report = verify_decomposition(pg, bad)
    assert not report.verdict
    assert report.detail == detail and report.counterexample == v
    # the bound is the only check it fails
    assert check_forest_orientation(pg.graph.edges, bad.forest, bad.orientation.arcs, lambda _: 3).verdict


# ---------------------------------------------------------------------------
# face triangulation against the walk-copying loop it replaced


def _reference_triangulate(pg):
    """Chord each long face at the first free two-step corner from its
    start (else the first free pair), copying the rest of the walk after
    every chord."""
    rotation = {v: list(nbrs) for v, nbrs in pg.rotation.items()}
    edges = set(pg.graph.edges)
    faces = [list(f) for f in pg.faces]

    def insert_after(v, anchor, new):
        rotation[v].insert(rotation[v].index(anchor) + 1, new)

    pending = [f for f in faces if len(f) > 3]
    done = [f for f in faces if len(f) <= 3]
    while pending:
        walk = pending.pop()
        k = len(walk)
        pick = None
        for i in range(k):
            a, c = walk[i], walk[(i + 2) % k]
            if a != c and edge(a, c) not in edges:
                pick = (i, (i + 2) % k)
                break
        if pick is None:
            for i in range(k):
                for j in range(i + 2, k):
                    if (j + 1) % k == i:
                        continue
                    a, c = walk[i], walk[j]
                    if a != c and edge(a, c) not in edges:
                        pick = (i, j)
                        break
                if pick is not None:
                    break
        if pick is None:
            raise ArtifactError(f"cannot triangulate face {walk}")
        i, j = pick
        a, c = walk[i], walk[j]
        insert_after(a, walk[i - 1], c)
        insert_after(c, walk[j - 1], a)
        edges.add(edge(a, c))
        walk1 = walk[i : j + 1] if i < j else walk[i:] + walk[: j + 1]
        walk2 = walk[j:] + walk[: i + 1] if i < j else walk[j : i + 1]
        for piece in (walk1, walk2):
            (pending if len(piece) > 3 else done).append(piece)
    rot = {v: tuple(nbrs) for v, nbrs in rotation.items()}
    return build_plane_graph(pg.graph.vertices, edges, rot, tuple(done[0]))


def _random_sparse(pg, rng, keep):
    """Connected plane subgraph: boundary, a BFS tree, and each other edge
    with probability `keep`."""
    outer = pg.outer_face
    kept = {edge(outer[i], outer[(i + 1) % len(outer)]) for i in range(len(outer))}
    seen, queue = {outer[0]}, [outer[0]]
    for u in queue:
        for w in pg.rotation[u]:
            if w not in seen:
                seen.add(w)
                kept.add(edge(u, w))
                queue.append(w)
    kept |= {e for e in sorted(pg.graph.edges) if rng.random() < keep}
    rotation = {v: [w for w in nbrs if edge(v, w) in kept] for v, nbrs in pg.rotation.items()}
    return build_plane_graph(pg.graph.vertices, kept, rotation, outer)


def _cycle_plane(n, pendants=()):
    """Cycle c0 .. c(n-1), plus for each (i, side) a pendant vertex on c_i
    in the face on that side (0 or 1)."""
    names = [f"c{i:03d}" for i in range(n)]
    rotation = {v: [names[i - 1], names[(i + 1) % n]] for i, v in enumerate(names)}
    edges = [edge(names[i], names[(i + 1) % n]) for i in range(n)]
    for t, (i, side) in enumerate(pendants):
        p = f"p{t:03d}"
        rotation[p] = [names[i]]
        rotation[names[i]].insert(1 + side, p)
        edges.append(edge(names[i], p))
    vertices = names + [f"p{t:03d}" for t in range(len(pendants))]
    return build_plane_graph(vertices, edges, rotation, names)


def _pendants_both_sides():
    """Square a, d, e, f with a pendant of a in each face: both walks
    start a, pendant, a, a corner whose ends coincide (the corner lemma's
    case (a))."""
    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("d", "e"), ("e", "f"), ("a", "f")]
    rotation = {"a": ("d", "b", "f", "c"), "b": ("a",), "c": ("a",),
                "d": ("a", "e"), "e": ("d", "f"), "f": ("e", "a")}
    return build_plane_graph("abcdef", edges, rotation, ("a", "b", "a", "f", "e", "d"))


def _bowtie():
    """Triangles abc and ade joined at a: the outer walk a, b, c, a, d, e
    repeats a, and its first two corners are edges already (case (b))."""
    edges = [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d"), ("d", "e"), ("a", "e")]
    rotation = {"a": ("b", "c", "d", "e"), "b": ("a", "c"), "c": ("a", "b"),
                "d": ("a", "e"), "e": ("a", "d")}
    return build_plane_graph("abcde", edges, rotation, ("a", "b", "c", "a", "d", "e"))


def _triangulation_instances():
    for n, seed in ((8, 1), (30, 2), (90, 3)):
        for b in sorted({3, n // 2, n}):
            pg = random_near_triangulation(n, b, seed * 100 + b)
            for keep in (0, 0.15, 0.5):
                for r in range(3):
                    yield _random_sparse(pg, Rng(seed * 1000 + r), keep)
    for n in (3, 4, 5, 6, 11, 40):
        yield _cycle_plane(n)
        yield _cycle_plane(n, [(0, 0)])
        yield _cycle_plane(n, [(0, 1)])
        yield _cycle_plane(n, [(i, i % 2) for i in range(0, n, 2)])
        yield _cycle_plane(n, [(n // 2, 0), (n // 2, 0), (n // 2, 1)])
    yield _pendants_both_sides()
    yield _bowtie()


def _retraced(aug):
    """The augmented embedding as the generic loader builds it: the oracle
    for the one `_triangulate_embedding` builds without a re-trace."""
    return build_plane_graph(aug.graph.vertices, aug.graph.edges, aug.rotation, aug.outer_face)


def test_triangulation_matches_walk_copying_reference():
    count = 0
    for pg in _triangulation_instances():
        g = pg.graph
        got = _triangulate_embedding(g.vertices, g.edges, pg.rotation, pg.faces)
        assert got == _reference_triangulate(pg)
        assert got == _retraced(got)
        count += 1
    assert count == 113


def test_any_planar_certificates_verify_on_triangulation_inputs():
    # the whole certificate, forest acyclicity included, on every input
    count = 0
    for pg in _triangulation_instances():
        forest, orientation = decompose_any_planar(pg)
        assert check_forest_orientation(pg.graph.edges, forest, orientation.arcs, lambda v: 2).verdict
        count += 1
    assert count == 113


def test_triangulation_of_each_component_equals_its_retrace(monkeypatch):
    # a sparse random subgraph and a pendant cycle side by side: the
    # components path hands each vertex set over unsorted
    parts = [_random_sparse(random_near_triangulation(30, 15, 7), Rng(7), 0.15),
             _cycle_plane(6, [(0, 0), (3, 0)])]
    rotation = {v: r for pg in parts for v, r in pg.rotation.items()}
    pg = build_plane_graph(list(rotation), [e for p in parts for e in p.graph.edges],
                           rotation, parts[0].outer_face)
    assert not pg.connected
    augs = []

    def spy(aug, handle):
        augs.append(aug)
        return decompose(aug, handle)

    monkeypatch.setattr(dec, "decompose", spy)
    forest, orientation = decompose_any_planar(pg)
    assert check_plane_certificate(pg.graph.edges, forest, orientation.arcs).verdict
    assert len(augs) == 2
    for aug in augs:
        assert aug == _retraced(aug)
        assert all(len(f) == 3 for f in aug.faces)


def test_triangulation_refuses_faces_the_rotation_does_not_trace():
    # faces traced from one rotation, passed with its mirror image
    count = 0
    for pg in itertools.islice(_triangulation_instances(), 81):  # the random sparse ones
        g = pg.graph
        mirrored = {v: r[::-1] for v, r in pg.rotation.items()}
        with pytest.raises(ArtifactError, match="does not follow the rotation"):
            _triangulate_embedding(g.vertices, g.edges, mirrored, pg.faces)
        count += 1
    assert count == 81
    # or with two neighbours swapped round the pendant's corner, the chord
    # c000-c002's first end (checked against p) or its second (against d)
    for i, v in ((0, "c000"), (2, "c002")):
        pg = _cycle_plane(4, [(i, 0)])
        before, pendant, after = pg.rotation[v]
        assert pendant == "p000"
        swapped = {**pg.rotation, v: (pendant, before, after)}
        with pytest.raises(ArtifactError, match=r"face \['c000', 'c003', 'c002', 'c001'\] does not "
                                                r"follow the rotation at 'c000' and 'c002'"):
            _triangulate_embedding(pg.graph.vertices, pg.graph.edges, swapped, pg.faces)


def test_triangulation_refuses_a_walk_without_a_two_step_corner():
    # not a face: both diagonals of the 4-walk are edges of K4; the corner
    # search stops after one turn instead of clipping forever
    k4 = [edge(u, v) for u, v in ("ab", "ac", "ad", "bc", "bd", "cd")]
    with pytest.raises(ArtifactError, match="no two-step corner"):
        _triangulate_embedding("abcd", k4, dict.fromkeys("abcd", ()), [tuple("abcd")])
