"""Shared test fixtures and the oracles that only tests use."""

from atforest.alon_tarsi import ParityCount
from atforest.check import check_forest_orientation
from atforest.choosability import ListAssignment, is_l_colorable
from atforest.errors import CapExceeded
from atforest.graph import Graph, Orientation, build_plane_graph, edge, k4s
from atforest.testkit import plane_graph_from_triangles


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
