"""Eulerian sub-digraph parity counts, graph polynomial coefficients, and
exact Alon-Tarsi numbers for small graphs.

The central identity: for an orientation D with out-degree vector used as
a monomial exponent, the absolute coefficient of that monomial in the
graph polynomial equals |even - odd| over spanning Eulerian sub-digraphs
of D.  An acyclic D has difference 1 (only the empty sub-digraph, which
counts as even).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from .errors import CapExceeded, DegreeMismatch, ParityCapExceeded
from .graph import Graph, Orientation

# the largest inputs each enumeration takes, sized so that every acceptance
# check finishes in seconds; a larger one raises CapExceeded (CLI exit 3)
PARITY_ARC_CAP = 24  # eulerian_diff
COEFFICIENT_EDGE_CAP = 40  # poly_coefficient
ORIENTATION_EDGE_CAP = 20  # find_at_orientation's exhaustive search


@dataclass(frozen=True)
class ParityCount:
    even_count: int
    odd_count: int

    @property
    def diff(self) -> int:
        return self.even_count - self.odd_count


def eulerian_diff(d: Orientation) -> ParityCount:
    """Count arc subsets with in-degree = out-degree at every vertex, split
    by parity of the subset size.

    Exhaustive over all subsets, organized as a prefix scan over arcs with
    per-vertex imbalance states; states that cannot rebalance with the
    remaining arcs are dropped.
    """
    arcs = sorted(d.arcs)
    m = len(arcs)
    if m > PARITY_ARC_CAP:
        raise ParityCapExceeded(f"{m} arcs exceeds parity cap {PARITY_ARC_CAP}")
    verts = sorted({v for a in arcs for v in a})
    index = {v: i for i, v in enumerate(verts)}
    rem = [0] * len(verts)  # arcs at each vertex not scanned yet
    for t, h in arcs:
        rem[index[t]] += 1
        rem[index[h]] += 1

    zero = (0,) * len(verts)
    states: dict = {zero: (1, 0)}
    for t, h in arcs:
        ti, hi = index[t], index[h]
        rem[ti] -= 1
        rem[hi] -= 1
        rt, rh = rem[ti], rem[hi]
        # every kept state has |state[v]| <= rem[v] at every v, and this arc
        # changes state and rem only at its tail and head, so only those two
        # coordinates can break the bound
        nxt: dict = {}
        for state, (ev, od) in states.items():
            st, sh = state[ti], state[hi]
            # exclude the arc
            if abs(st) <= rt and abs(sh) <= rh:
                e0, o0 = nxt.get(state, (0, 0))
                nxt[state] = (e0 + ev, o0 + od)
            # include the arc: parity flips
            if abs(st + 1) <= rt and abs(sh - 1) <= rh:
                s = list(state)
                s[ti] = st + 1
                s[hi] = sh - 1
                key = tuple(s)
                e0, o0 = nxt.get(key, (0, 0))
                nxt[key] = (e0 + od, o0 + ev)
        states = nxt
    ev, od = states.get(zero, (0, 0))
    return ParityCount(ev, od)


def poly_coefficient(g: Graph, eta: dict) -> int:
    """Exact coefficient of the monomial with exponent vector eta in the
    product over edges uv (u < v) of (x_v - x_u).

    Signed enumeration over per-edge factor choices, with partial products
    merged by their exponent prefix and branches over the target pruned.
    """
    if set(eta) != set(g.vertices):
        raise DegreeMismatch("exponent vector must cover exactly the vertex set")
    if any(e < 0 for e in eta.values()):
        raise DegreeMismatch("exponents must be non-negative")
    edges = sorted(g.edges)
    if sum(eta.values()) != len(edges):
        raise DegreeMismatch(
            f"sum of exponents {sum(eta.values())} != edge count {len(edges)}"
        )
    if len(edges) > COEFFICIENT_EDGE_CAP:
        raise CapExceeded(f"{len(edges)} edges exceeds coefficient cap")
    index = {v: i for i, v in enumerate(g.vertices)}
    target = tuple(eta[v] for v in g.vertices)

    states: dict = {tuple(0 for _ in g.vertices): 1}
    for u, v in edges:  # u < v: +x_v or -x_u
        iu, iv = index[u], index[v]
        nxt: dict = defaultdict(int)
        for state, coef in states.items():
            if state[iv] < target[iv]:
                s = list(state)
                s[iv] += 1
                nxt[tuple(s)] += coef
            if state[iu] < target[iu]:
                s = list(state)
                s[iu] += 1
                nxt[tuple(s)] -= coef
        states = {s: c for s, c in nxt.items() if c != 0}
    return states.get(target, 0)


def _degeneracy_order(g: Graph) -> tuple:
    """Smallest-last vertex order and the degeneracy, lex tie-break."""
    degrees = {v: g.degree(v) for v in g.vertices}
    alive = set(g.vertices)
    order = []
    degeneracy = 0
    while alive:
        v = min(alive, key=lambda u: (degrees[u], u))
        degeneracy = max(degeneracy, degrees[v])
        order.append(v)
        alive.discard(v)
        for w in g.adjacency[v]:
            if w in alive:
                degrees[w] -= 1
    order.reverse()  # each vertex sees at most `degeneracy` later neighbors
    return order, degeneracy


def acyclic_orientation(g: Graph) -> tuple:
    """Acyclic orientation from the degeneracy order; returns it with its
    maximum out-degree (= degeneracy)."""
    order, degeneracy = _degeneracy_order(g)
    pos = {v: i for i, v in enumerate(order)}
    arcs = [(u, v) if pos[u] < pos[v] else (v, u) for u, v in sorted(g.edges)]
    return Orientation.build(g, arcs), degeneracy


def find_at_orientation(g: Graph, k: int) -> Optional[Orientation]:
    """An orientation with max out-degree < k and unequal even/odd Eulerian
    sub-digraph counts, or None if none exists.

    Tries the acyclic shortcut first (difference 1 whenever the degeneracy
    fits the budget), then exhausts all orientations within the out-degree
    budget in a fixed order.
    """
    if k < 1:
        return None
    d, degeneracy = acyclic_orientation(g)
    if degeneracy <= k - 1:
        return d
    edges = sorted(g.edges)
    if len(edges) > ORIENTATION_EDGE_CAP:
        raise CapExceeded(f"{len(edges)} edges exceeds orientation search cap")
    out = {v: 0 for v in g.vertices}
    chosen: list = []

    def search(i: int) -> Optional[Orientation]:
        if i == len(edges):
            cand = Orientation.build(g, chosen)
            if eulerian_diff(cand).diff != 0:
                return cand
            return None
        u, v = edges[i]
        for tail, head in ((u, v), (v, u)):
            if out[tail] < k - 1:
                out[tail] += 1
                chosen.append((tail, head))
                found = search(i + 1)
                if found is not None:
                    return found
                chosen.pop()
                out[tail] -= 1
        return None

    return search(0)


def at_number(g: Graph) -> int:
    """Least k admitting an orientation with out-degrees < k and nonzero
    Eulerian parity difference.  Terminates: degeneracy + 1 always works."""
    k = 1
    while True:
        if find_at_orientation(g, k) is not None:
            return k
        k += 1
