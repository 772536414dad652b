"""The benchmark's own checks, independent of the package's verifiers.

They read only plain data (edge lists, arcs, the parsed input JSON) and
share no code with `atforest`, so a defect in the package's checker
cannot hide a wrong certificate.  Nothing here recurses, so inputs of
any depth can be checked.
"""

from __future__ import annotations


def _pair(u: str, v: str) -> tuple:
    return (u, v) if u < v else (v, u)


def certificate_problem(edges, forest, arcs, out_bound, handle=None) -> str | None:
    """Why (forest, arcs) is not a forest-plus-acyclic-orientation
    certificate of the graph with these edges, or None if it is.

    `out_bound(v)` is the largest out-degree allowed at v; a given
    `handle` edge must lie in the forest.
    """
    graph_edges = {_pair(u, v) for u, v in edges}
    forest_edges = [_pair(u, v) for u, v in forest]
    arc_edges = [_pair(t, h) for t, h in arcs]
    fset, aset = set(forest_edges), set(arc_edges)
    if len(fset) != len(forest_edges) or len(aset) != len(arc_edges):
        return "an edge is listed twice"
    if fset & aset:
        return "an edge is both in the forest and oriented"
    if fset | aset != graph_edges:
        return "forest and arcs do not partition the edge set"
    if handle is not None and _pair(*handle) not in fset:
        return "handle missing from forest"

    parent: dict = {}

    def root(v):
        while parent.get(v, v) != v:
            parent[v] = parent.get(parent[v], parent[v])
            v = parent[v]
        return v

    for u, v in forest_edges:
        ru, rv = root(u), root(v)
        if ru == rv:
            return f"forest edge {u}-{v} closes a cycle"
        parent[ru] = rv

    out: dict = {}
    indeg: dict = {}
    succ: dict = {}
    for t, h in arcs:
        out[t] = out.get(t, 0) + 1
        indeg[h] = indeg.get(h, 0) + 1
        succ.setdefault(t, []).append(h)
    for v, k in out.items():
        if k > out_bound(v):
            return f"out-degree {k} at {v} exceeds {out_bound(v)}"

    # Kahn: every vertex with arcs must be removable
    touched = set(out) | set(indeg)
    ready = [v for v in touched if v not in indeg]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for w in succ.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    if removed != len(touched):
        return "orientation has a directed cycle"
    return None


def near_triangulation_bound(outer_face: list, handle: tuple):
    """Out-degree bounds of a nice orientation: 0 on the handle, 1 on the
    rest of the boundary, 2 inside."""
    boundary = set(outer_face)
    ends = set(handle)
    return lambda v: 0 if v in ends else (1 if v in boundary else 2)


def trace_steps(trace: dict) -> dict:
    """Case counts of a nested decomposition trace, walked with a stack."""
    counts: dict = {}
    stack = [trace]
    while stack:
        node = stack.pop()
        case = node.get("case")
        counts[case] = counts.get(case, 0) + 1
        stack.extend(node.get("children", ()))
        if "child" in node:
            stack.append(node["child"])
    return counts


def has_list_coloring(edges, lists: dict) -> bool:
    """Plain backtracking, most-constrained order fixed up front, with an
    explicit stack of per-vertex color cursors."""
    adj: dict = {v: set() for v in lists}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    order = sorted(lists, key=lambda v: (-len(adj[v]), v))
    colors = [sorted(lists[v]) for v in order]
    chosen: dict = {}
    cursor = [0] * len(order)
    i = 0
    while 0 <= i < len(order):
        v = order[i]
        chosen.pop(v, None)
        while cursor[i] < len(colors[i]):
            c = colors[i][cursor[i]]
            cursor[i] += 1
            if all(chosen.get(w) != c for w in adj[v]):
                chosen[v] = c
                break
        if v in chosen:
            i += 1
        else:
            cursor[i] = 0
            i -= 1
    return i == len(order)


def at_number_range(vertices, edges) -> tuple:
    """Bounds any Alon-Tarsi number must meet: at least 1 + ceil(m / n)
    (some vertex has out-degree >= m / n) and 3 when there is a triangle;
    at most degeneracy + 1 (an acyclic orientation along a smallest-last
    order)."""
    adj: dict = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    n, m = len(adj), len(edges)
    lower = 1 + -(-m // n) if m else 1
    if any(adj[u] & adj[v] for u, v in edges):
        lower = max(lower, 3)
    degree = {v: len(adj[v]) for v in adj}
    alive = set(adj)
    degeneracy = 0
    while alive:
        v = min(alive, key=lambda u: (degree[u], u))
        degeneracy = max(degeneracy, degree[v])
        alive.discard(v)
        for w in adj[v]:
            if w in alive:
                degree[w] -= 1
    return lower, degeneracy + 1
