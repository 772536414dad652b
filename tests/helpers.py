"""Shared test fixtures and the oracles that only tests use."""

from itertools import combinations, product

from atforest import gadgets
from atforest.alon_tarsi import ParityCount
from atforest.check import check_forest_orientation
from atforest.choosability import ListAssignment, is_l_colorable
from atforest.errors import ArtifactError, CapExceeded
from atforest.graph import (
    Graph,
    Orientation,
    PlaneGraph,
    _matching_face,
    _trace_all_faces,
    _turn_maps,
    build_plane_graph,
    edge,
    k4s,
)
from atforest.report import VerificationReport
from atforest.testkit import Rng, plane_graph_from_triangles


def quad_with_chord():
    """4-cycle x-y-u-v with chord yv, outer walk designated as x,y,u,v."""
    pg = plane_graph_from_triangles(
        ["x", "y", "u", "v"],
        [("v", "x", "y"), ("y", "u", "v")],
        ("x", "v", "u", "y"),
    )
    return build_plane_graph(
        sorted(pg.graph.vertices), pg.graph.edges, pg.rotation, ["x", "y", "u", "v"]
    )


def is_acyclic(arcs) -> bool:
    """The arcs have no directed cycle, by the checker's rule: they pass
    as a certificate of their own edges with an empty forest and no
    binding out-degree bound (two arcs on one edge fail, a 2-cycle)."""
    arcs = set(arcs)
    edges = {edge(t, h) for t, h in arcs}
    return check_forest_orientation(edges, frozenset(), arcs, lambda v: len(arcs)).verdict


def has_edge(g: Graph, u: str, v: str) -> bool:
    return edge(u, v) in g.edges


def subgraph_without_edges(g: Graph, removed) -> Graph:
    return Graph(g.vertices, g.edges - {edge(u, v) for u, v in removed})


def find_k4(g: Graph):
    """Lexicographically first 4-clique, or None."""
    return next(k4s(g), None)


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


ORACLE_ARC_CAP = 20  # brute_force_eulerian_diff_oracle visits 2^m subsets


def brute_force_eulerian_diff_oracle(d: Orientation) -> ParityCount:
    """Independent parity count: plain DFS over arcs carrying the per-vertex
    out-minus-in degree vector.  Cross-checks alon_tarsi.eulerian_diff."""
    arcs = sorted(d.arcs)
    if len(arcs) > ORACLE_ARC_CAP:
        raise CapExceeded(f"{len(arcs)} arcs exceeds oracle cap {ORACLE_ARC_CAP}")
    counts = [0, 0]  # even, odd

    def rec(i: int, balance: dict, size: int) -> None:
        if i == len(arcs):
            if all(x == 0 for x in balance.values()):
                counts[size % 2] += 1
            return
        rec(i + 1, balance, size)
        t, h = arcs[i]
        balance[t] = balance.get(t, 0) + 1
        balance[h] = balance.get(h, 0) - 1
        rec(i + 1, balance, size + 1)
        balance[t] -= 1
        balance[h] += 1

    rec(0, {}, 0)
    return ParityCount(counts[0], counts[1])


# set-based references for the mask-based gadget verifiers: one edge set
# per case, checked edge by edge.  They call `gadgets._extract_from_copy`
# (with the case's 12-bit mask) and `gadgets._path_configs` through the
# module, so a test that patches those patches both sides.

def _edge_set_max_degree(edges) -> int:
    degree: dict = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return max(degree.values(), default=0)


def reference_lemma2() -> VerificationReport:
    """`gadgets.verify_lemma2` with an edge set H and a degree dict per
    subset of the 12 free J3 edges."""
    g, copy = gadgets.build_j3()
    cliques = [{edge(u, v) for u, v in combinations(q, 2)} for q in k4s(g)]
    free = gadgets._edges(copy, gadgets._J3_FREE)
    examined = 0
    tally = {"k4": 0, "j_piece": 0}
    for mask in range(1 << len(free)):
        h = {free[i] for i in range(len(free)) if mask >> i & 1}
        if _edge_set_max_degree(h) > 3:
            continue
        examined += 1
        if any(c.isdisjoint(h) for c in cliques):
            tally["k4"] += 1
            continue
        got = gadgets._extract_from_copy(copy, mask)
        if got is None or got[0] != "j":
            return VerificationReport(
                False,
                "no K4 and no anchored J1/J2 piece",
                counterexample=sorted(list(e) for e in h),
                stats={"cases_examined": examined},
            )
        tally["j_piece"] += 1
    return VerificationReport(
        True,
        "every deletion leaves K4 or an anchored piece",
        stats={"cases_examined": examined, **tally},
    )


def _named_configs(path: tuple) -> list:
    """`gadgets._path_configs` laid over one path: each (center mask,
    link mask) entry as its center set and its set of link edges."""
    links = [edge(u, v) for u, v in zip(path, path[1:])]
    return [
        ({path[i] for i in range(4) if cmask >> i & 1}, {links[i] for i in range(3) if lmask >> i & 1})
        for cmask, lmask in gadgets._path_configs()
    ]


def reference_lemma6() -> VerificationReport:
    """`gadgets.verify_lemma6` with vertex and edge sets: per attachment
    pair and path, each configuration is tested by set membership."""
    a = gadgets.build_a()
    a_paths = [tuple(a[r] for r in p) for p in gadgets._A_PATHS]
    paths = [
        (set(p), [(u, v, edge(u, v)) for u, v in zip(p, p[1:])], _named_configs(p))
        for p in a_paths
    ]
    attach_options = [None] + [v for p in a_paths for v in p]
    examined = 0
    for cx in attach_options:
        for cy in attach_options:
            ends = (cx, cy)
            total = 1
            blocked_all = True
            blocked_example = []
            for path_verts, links, cfgs in paths:
                x_on, y_on = cx in path_verts, cy in path_verts
                compatible = 0
                blocked_cfg = None
                for cset, chosen in cfgs:
                    if x_on and cx not in cset:
                        continue
                    if y_on and cy not in cset:
                        continue
                    compatible += 1
                    hit = all(e in chosen or u in ends or v in ends for u, v, e in links)
                    if hit and blocked_cfg is None:
                        blocked_cfg = (cset, chosen)
                total *= compatible
                if blocked_cfg is None:
                    blocked_all = False
                else:
                    blocked_example.append(blocked_cfg)
            examined += total
            if blocked_all and total > 0:
                forest_edges = set()
                centers = set()
                for cset, chosen in blocked_example:
                    forest_edges |= chosen
                    centers |= cset
                if cx is not None:
                    forest_edges.add(edge(a["a"], cx))
                if cy is not None:
                    forest_edges.add(edge(a["b"], cy))
                return VerificationReport(
                    False,
                    "a star forest kills every K4 candidate",
                    counterexample={
                        "forest": sorted(list(e) for e in forest_edges),
                        "centers": sorted(centers),
                    },
                    stats={"cases_examined": examined},
                )
    return VerificationReport(
        True,
        "K4 survives every star forest with centers off the handle",
        stats={"cases_examined": examined},
    )


def reference_theorem7_core() -> VerificationReport:
    """`gadgets.verify_theorem7_core` with a center set and a forest edge
    set per case; the K4s come from `gadgets._k4_edge_sets`."""
    g = gadgets.build_d()
    verts = list(g.vertices)
    cliques = gadgets._k4_edge_sets(g)
    examined = 0
    for bits in range(1 << len(verts)):
        centers = {verts[i] for i in range(len(verts)) if bits >> i & 1}
        if any(u not in centers and v not in centers for u, v in g.edges):
            continue
        outside = sorted(set(verts) - centers)
        leaf_options = [
            [None] + sorted(edge(v, u) for u in g.adjacency[v] if u in centers)
            for v in outside
        ]
        for picks in product(*leaf_options):
            forest = {e for e in picks if e is not None}
            examined += 1
            if not any(es.isdisjoint(forest) for es in cliques):
                return VerificationReport(
                    False,
                    "a center configuration kills every K4",
                    counterexample={
                        "centers": sorted(centers),
                        "forest": sorted(list(e) for e in forest),
                    },
                    stats={"cases_examined": examined},
                )
    return VerificationReport(
        True,
        "K4 survives every center-covered deletion",
        stats={"cases_examined": examined},
    )


# name-set references for the sampled theorem2 / corollary3 loop: the
# greedy keeps a set of edge names, each sample intersects it with every
# S gadget's edges, and the obstruction is extracted edge by edge.  They
# share nothing with the package's position-based loop but the builders,
# `Rng` and `_assemble_member`.

def reference_indexed_host(vertices, edges: list, forbidden) -> tuple:
    index = {v: i for i, v in enumerate(vertices)}
    triples = [(index[u], index[v], (u, v)) for u, v in edges]
    forbidden = forbidden or ()
    return triples, [3 if v in forbidden else 0 for v in vertices]


def reference_random_max_degree_subgraph(triples: list, degrees: list, rng: Rng) -> set:
    order = list(triples)
    rng.shuffle(order)
    degree = list(degrees)
    out = []
    keep = out.append
    for i, j, e in order:
        du = degree[i]
        if du < 3:
            dv = degree[j]
            if dv < 3:
                keep(e)
                degree[i] = du + 1
                degree[j] = dv + 1
    return set(out)


def reference_extract_from_copy(copy: dict, h: set):
    for p, q in gadgets._J3_LINKS:
        if edge(copy[p], copy[q]) not in h:
            return ("k4", (copy["a"], copy["b"], copy[p], copy[q]))
    for m, (attach, p, q) in gadgets._J3_APEXES.items():
        if edge(copy[m], copy[p]) not in h and edge(copy[m], copy[q]) not in h:
            return ("j", attach, copy[p], copy[q], copy[m])
    return None


def reference_extract_obstruction(s, h: set):
    """`gadgets.extract_obstruction` on edge-name sets."""
    for e in h:
        if not (isinstance(e, tuple) and len(e) == 2):
            raise ArtifactError("deleted set holds a member that is not a pair of names")
    for u, v in h:
        if not (isinstance(u, str) and isinstance(v, str)):
            raise ArtifactError("deleted set holds a name that is not a string")
    h = {edge(u, v) for u, v in h}
    unknown = sorted(e for e in h if e not in s.graph.edges)
    if unknown:
        raise ArtifactError(f"edge {unknown[0]} not in the gadget")
    if any(s.a in e for e in h):
        raise ArtifactError("deleted set touches the protected handle end")
    if _edge_set_max_degree(h) > 3:
        raise ArtifactError("deleted set has maximum degree > 3")

    # a copy is clear when no edge of h joins b to one of its vertices
    joined = {u if v == s.b else v for u, v in h if s.b in (u, v)}
    clear = [c for c in s.copies if joined.isdisjoint(c.values())]
    if len(clear) < 6:
        raise ArtifactError("fewer than six clear copies; pigeonhole violated")

    pieces = []
    for copy in clear:
        got = reference_extract_from_copy(copy, h)
        if got[0] == "k4":
            return gadgets.Obstruction("k4", got[1])
        pieces.append(got)
        if len(pieces) == 6:
            break

    verts, witness, lists = gadgets._assemble_member(
        s.a, s.b, [(attach, p, q, m) for _, attach, p, q, m in pieces]
    )
    selector = "".join(attach for _, attach, _, _, _ in pieces)
    return gadgets.Obstruction("j_member", tuple(verts), selector, witness, lists, tuple(pieces))


def reference_sampled_obstructions(n: int, rng: Rng, host: Graph, s_gadgets: tuple, forbidden):
    """`gadgets._sampled_obstructions` on edge-name sets: per sample, the
    index of the first S gadget whose handle end a keeps all its edges and
    its obstruction, or None and the reason there is none."""
    triples, degrees = reference_indexed_host(host.vertices, sorted(host.edges), forbidden)
    for i in range(n):
        h = reference_random_max_degree_subgraph(triples, degrees, rng.split(i))
        for t, s in enumerate(s_gadgets):
            h_local = h & s.graph.edges
            if not any(s.a in e for e in h_local):
                break
        else:
            yield None, "center degree exceeds 3"
            continue
        yield t, reference_extract_obstruction(s, h_local)


# per-element references for the whole-set checks of `Graph.build` and
# `build_plane_graph`: the same checks one edge, vertex and component at a
# time, in the order that fixes which fault is named first.

def reference_graph_build(vertices, edges) -> Graph:
    vs = tuple(sorted(vertices))
    if len(vs) != len(set(vs)):
        raise ArtifactError("duplicate vertex identifiers")
    vset = set(vs)
    es = set()
    for u, v in edges:
        e = edge(u, v)
        if e[0] not in vset or e[1] not in vset:
            raise ArtifactError(f"edge {e} has an unlisted endpoint")
        if e in es:
            raise ArtifactError(f"edge {e} listed twice")
        es.add(e)
    return Graph(vs, frozenset(es))


def reference_build_plane_graph(vertices, edges, rotation: dict, outer_face) -> PlaneGraph:
    g = reference_graph_build(vertices, edges)
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

    # Euler's formula per connected component
    parts = reference_components(g, faces)
    for i, (vs, es, fs) in enumerate(parts):
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
    return PlaneGraph(g, rot, outer, tuple(faces), *match, len(parts) == 1)


def reference_components(g: Graph, faces) -> list:
    """`graph.components` with a depth-first search that labels one
    neighbour at a time."""
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
