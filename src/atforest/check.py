"""Independent checks of every certificate the package emits.

Each rule has its one definition here (`decompose` and `gadgets` call two
of them on what they build), and this module imports no producer, only
the standard library and `report`: it shares no helper with the code it
judges ("Certifying algorithms", McConnell, Mehlhorn, Naeher, Schweitzer,
2011).  Edges are a set of sorted pairs, as `Graph.edges` holds them;
forest pairs are sorted too, and arcs are (tail, head) pairs, both in any
collection, repeats counted.
"""

from __future__ import annotations

from .report import VerificationReport, _echo


def _partition(edges, forest, arcs) -> bool:
    """The forest pairs and the arcs' edges split `edges`: each is over an
    edge, and no edge is under two of them (an entry listed twice, or both
    ways, is under one edge twice)."""
    under = {(t, h) if t < h else (h, t) for t, h in arcs}
    under.update(forest)
    return len(under) == len(forest) + len(arcs) == len(edges) and edges.issuperset(under)


def _orient(arcs) -> tuple:
    """(tail -> its heads, whether the arcs are acyclic).  Acyclicity is
    Kahn's rule over the tails: a directed cycle has no other vertex."""
    succ: dict = {}
    indeg: dict = {}
    for t, h in arcs:
        succ.setdefault(t, []).append(h)
        indeg[h] = indeg.get(h, 0) + 1
    ready = [v for v in succ if v not in indeg]
    done = 0
    while ready:
        done += 1
        for w in succ[ready.pop()]:
            indeg[w] -= 1
            if indeg[w] == 0 and w in succ:
                ready.append(w)
    return succ, done == len(succ)


def check_forest_orientation(edges, forest, arcs, bound) -> VerificationReport:
    """Forest and arcs partition the edges, the forest has no cycle (union-
    find with path halving), every vertex v has out-degree at most bound(v)
    (the least vertex over it is named), and the arcs are acyclic."""
    stats = {"forest_edges": len(forest), "arcs": len(arcs)}
    if not _partition(edges, forest, arcs):
        return VerificationReport(False, "forest and arcs do not partition the edge set", stats=stats)
    parent: dict = {}
    for u, v in forest:
        while (p := parent.get(u, u)) != u:
            parent[u] = u = parent.get(p, p)
        while (p := parent.get(v, v)) != v:
            parent[v] = v = parent.get(p, p)
        if u == v:
            return VerificationReport(False, "forest contains a cycle", stats=stats)
        parent[u] = v
    succ, acyclic = _orient(arcs)
    over = [v for v, heads in succ.items() if len(heads) > bound(v)]
    if over:
        v = min(over)
        detail = f"out-degree {len(succ[v])} exceeds bound {bound(v)}"
        return VerificationReport(False, detail, counterexample=v, stats=stats)
    if not acyclic:
        return VerificationReport(False, "orientation has a directed cycle", stats=stats)
    return VerificationReport(True, "forest plus acyclic orientation within bounds", stats=stats)


def check_plane_certificate(edges, forest, arcs, handle=None, outer_face=()) -> VerificationReport:
    """The paper's bounds.  With a handle xy: out-degree 0 at x and y, 1 on
    `outer_face` and 2 inside, and xy in the forest (reported before any
    other fault, as a file may name a handle that is no edge).  Without
    one: 2 everywhere, and `outer_face` is not read.  An acyclic
    orientation's one Eulerian sub-digraph is the empty one, so no parity
    count is needed."""
    ends = () if handle is None else tuple(handle)
    boundary = set(outer_face) if ends else ()
    report = check_forest_orientation(
        edges, forest, arcs, lambda v: 0 if v in ends else 1 if v in boundary else 2
    )
    if ends and (min(ends), max(ends)) not in forest:
        return VerificationReport(False, "handle missing from forest", stats=report.stats)
    return report


def _names(item, what: str) -> tuple:
    """Two distinct names, each a string or an integer read as its decimal
    string, as in a graph file (a boolean is no name)."""
    if isinstance(item, list) and len(item) == 2 and all(
            isinstance(v, str) or type(v) is int for v in item):
        pair = tuple(map(str, item))
        if pair[0] != pair[1]:
            return pair
    raise ValueError(f"{what} {_echo(repr(item), str)} is not two distinct vertex names")


def read_certificate(data) -> tuple:
    """(forest as sorted pairs, arcs, handle or None) of a certificate's
    JSON.  Both lists keep every entry as listed, repeats too, so that the
    partition rule judges them; a file that is no certificate (a list
    missing, an entry or the handle not two names) raises ValueError with
    a sentence."""
    pairs = {}
    for key in ("forest", "arcs"):
        if not isinstance(data, dict) or not isinstance(data.get(key), list):
            raise ValueError(f"the certificate has no {key!r} array")
        pairs[key] = [_names(item, f"{key} entry") for item in data[key]]
    handle = None if data.get("handle") is None else _names(data["handle"], "the handle")
    return [(min(e), max(e)) for e in pairs["forest"]], pairs["arcs"], handle


def check_at_witness(edges, arcs, k: int, eulerian_diff) -> VerificationReport:
    """An Alon-Tarsi witness for k: one arc on each edge, out-degree below k,
    and unequal (even, odd) counts of spanning Eulerian sub-digraphs: (1, 0)
    if acyclic (the empty one only), else `eulerian_diff()`.  That is the
    kernel `alon_tarsi.eulerian_diff`, which this module may not import:
    the one kernel in the trusted base of this check."""
    succ, acyclic = _orient(arcs)
    worst = max(map(len, succ.values()), default=0)
    even, odd = (1, 0) if acyclic else eulerian_diff()
    ok = worst < k and even != odd and _partition(edges, (), arcs)
    detail = (f"witness has out-degree {worst} (budget {k - 1}), "
              f"even - odd = {even - odd}, {len(arcs)} of {len(edges)} edges")
    return VerificationReport(ok, detail, stats={"max_out_degree": worst, "even": even, "odd": odd})


def check_coloring(edges, lists, coloring) -> VerificationReport:
    """A proper colouring from the lists: every vertex of `lists` (vertex ->
    its colours) and no other has a colour from its own list, and no edge
    has one colour at both ends; the least faulty vertex or edge is named."""
    off = [v for v in lists.keys() | coloring.keys() if coloring.get(v) not in lists.get(v, ())]
    if off:
        v = min(off)
        return VerificationReport(False, f"vertex {v!r} is not coloured from its list", counterexample=v)
    same = [e for e in edges if coloring.get(e[0]) == coloring.get(e[1])]
    if same:
        u, v = min(same)
        return VerificationReport(False, f"edge {(u, v)} has colour {coloring.get(u)!r} at both ends",
                                  counterexample=[u, v])
    return VerificationReport(True, "proper colouring from the lists")


def check_star_forest(edges, centers, host_edges) -> VerificationReport:
    """Each edge is one of `host_edges` and joins a center to a leaf, no
    leaf twice."""
    leaves: set = set()
    for u, v in edges:
        if ((u, v) if u < v else (v, u)) not in host_edges:
            return VerificationReport(False, f"edge {(u, v)} not in host", counterexample=[u, v])
        in_u = u in centers
        if in_u == (v in centers):
            return VerificationReport(False, "edge must join a center to a leaf", counterexample=[u, v])
        leaf = v if in_u else u
        if leaf in leaves:
            return VerificationReport(False, "leaf in two components", counterexample=leaf)
        leaves.add(leaf)
    return VerificationReport(True, "star forest")
