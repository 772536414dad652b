"""Eulerian sub-digraph parity counts, graph polynomial coefficients, and
exact Alon-Tarsi numbers for small graphs.

The central identity: for an orientation D with out-degree vector used as
a monomial exponent, the absolute coefficient of that monomial in the
graph polynomial equals |even - odd| over spanning Eulerian sub-digraphs
of D.  An acyclic D has difference 1 (only the empty sub-digraph, which
counts as even).

Both sides count sets of arc reversals that reach a given out-degree
vector, by the parity of their size, so one kernel (`_flip_counts`)
computes both.  Given out-degree bounds rather than one target, the same
scan counts every out-degree vector within a budget at once, which is the
whole Alon-Tarsi search.  Its cost is capped by the size of its live
table (`TABLE_CAP`), the one limit of this module, not by the number of
arcs or of out-degree sequences.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from .errors import CapExceeded, DegreeMismatch
from .graph import Graph, Orientation

# the most slots (live states x coordinates per state) the `_flip_counts`
# table may hold after an arc; a larger one raises CapExceeded (CLI exit 3)
TABLE_CAP = 1 << 22


@dataclass(frozen=True)
class ParityCount:
    even_count: int
    odd_count: int

    @property
    def diff(self) -> int:
        return self.even_count - self.odd_count


def _frontier_order(pairs) -> list:
    """The pairs (arcs or edges) in an order that finishes each vertex early.

    Vertices are placed greedily: next comes the one that brings in the
    fewest new vertices (itself and its neighbours, unless placed or next
    to a placed one), ties broken on the name.  A pair is scanned as soon
    as both its ends are placed: sorted by (later position, earlier
    position).
    """
    adj: dict = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    unseen = {v: len(nbrs) + 1 for v, nbrs in adj.items()}  # in v and N(v)
    rest = sorted(adj)  # the unplaced vertices, in name order
    pos: dict = {}
    seen: set = set()  # placed vertices and their neighbours
    while rest:
        v = min(rest, key=unseen.__getitem__)  # the first least: by name
        rest.remove(v)
        pos[v] = len(pos)
        for x in (v, *adj[v]):
            if x not in seen:
                seen.add(x)
                for w in (x, *adj[x]):
                    unseen[w] -= 1

    def key(pair):
        i, j = pos[pair[0]], pos[pair[1]]
        return (i, j) if i > j else (j, i)

    return sorted(pairs, key=key)


def _layout(verts: list, hi: dict) -> tuple:
    """How an out-degree vector over the sorted `verts` packs into one int:
    each out-degree in a field of max(hi).bit_length() bits, the first
    vertex in the highest field, so ints order as the vectors do
    lexicographically.  (width, the shift of each vertex's field)."""
    width = max((hi[v] for v in verts), default=0).bit_length()
    return width, {v: width * i for i, v in enumerate(reversed(verts))}


def _unpack(key: int, verts: list, hi: dict) -> dict:
    """The out-degree vector in a key of `_flip_counts(arcs, lo, hi)`, whose
    arcs have the sorted vertices `verts`."""
    width, shift = _layout(verts, hi)
    return {v: key >> s & ((1 << width) - 1) for v, s in shift.items()}


def _flip_counts(arcs: list, lo: dict, hi: dict) -> dict:
    """The subsets of arcs whose reversal leaves an out-degree between lo[v]
    and hi[v] at every vertex v of the arcs, counted by the parity of their
    size: a table from the out-degree vector, packed by `_layout`, to
    [even, odd].

    One scan over the arcs in the order given (callers pass
    `_frontier_order`).  A state is the vector of out-degrees so far, kept
    with its [even, odd] counts; an arc t -> h is either kept (+1 at t) or
    reversed (+1 at h, the counts swap).  A state is dropped when the end
    that gains goes above hi, or the other end is below lo by more than
    the arcs still to scan there.  The live table (states x coordinates per
    state) is checked against TABLE_CAP after each arc.
    """
    verts = sorted({v for a in arcs for v in a})
    width, shift = _layout(verts, hi)
    mask = (1 << width) - 1
    rem = dict.fromkeys(verts, 0)  # arcs at each vertex not scanned yet
    for t, h in arcs:
        rem[t] += 1
        rem[h] += 1

    states: dict = {0: [1, 0]}
    for t, h in arcs:
        rem[t] -= 1
        rem[h] -= 1
        at, ah = shift[t], shift[h]
        up_t, up_h = 1 << at, 1 << ah
        top_t, top_h = hi[t], hi[h]
        # the least out-degree from which each end can still reach lo;
        # only the two ends of this arc change state or rem
        need_t, need_h = lo[t] - rem[t], lo[h] - rem[h]
        nxt: dict = {}
        get = nxt.get
        for state, (ev, od) in states.items():
            st, sh = state >> at & mask, state >> ah & mask
            if st < top_t and sh >= need_h:  # keep t -> h
                key = state + up_t
                pair = get(key)
                if pair is None:
                    nxt[key] = [ev, od]
                else:
                    pair[0] += ev
                    pair[1] += od
            if sh < top_h and st >= need_t:  # reverse it: parity flips
                key = state + up_h
                pair = get(key)
                if pair is None:
                    nxt[key] = [od, ev]
                else:
                    pair[0] += od
                    pair[1] += ev
        states = nxt
        if len(states) * len(verts) > TABLE_CAP:
            raise CapExceeded(
                f"{len(states)} states of {len(verts)} vertices exceed "
                f"table cap {TABLE_CAP}"
            )
    return states


def _target_counts(arcs: list, target: dict) -> tuple:
    """(even, odd) of `_flip_counts` with lo = hi = target.  A final state
    is at most the target everywhere and sums to the arc count, which the
    target sums to at most, so the one entry that can survive is the
    target itself."""
    return tuple(next(iter(_flip_counts(arcs, target, target).values()), (0, 0)))


def eulerian_diff(d: Orientation) -> ParityCount:
    """Count arc subsets with in-degree = out-degree at every vertex, split
    by parity of the subset size.

    Such a subset is exactly a set of arcs whose reversal keeps every
    out-degree, so this is `_flip_counts` with the out-degrees of d as
    target.
    """
    return ParityCount(*_target_counts(_frontier_order(list(d.arcs)), d.out_degrees()))


def poly_coefficient(g: Graph, eta: dict) -> int:
    """Exact coefficient of the monomial with exponent vector eta in the
    product over edges uv (u < v) of (x_v - x_u).

    Each term of the product picks x_v (the arc v -> u) or -x_u (its
    reversal) from every factor, so the coefficient is even - odd from
    `_flip_counts` on the arcs v -> u with eta as target.
    """
    if set(eta) != set(g.vertices):
        raise DegreeMismatch("exponent vector must cover exactly the vertex set")
    if any(e < 0 for e in eta.values()):
        raise DegreeMismatch("exponents must be non-negative")
    if sum(eta.values()) != len(g.edges):
        raise DegreeMismatch(
            f"sum of exponents {sum(eta.values())} != edge count {len(g.edges)}"
        )
    even, odd = _target_counts(_frontier_order([(v, u) for u, v in g.edges]), eta)
    return even - odd


def _degeneracy_order(g: Graph) -> tuple:
    """Smallest-last vertex order, reversed, and the degeneracy: each vertex
    has at most `degeneracy` earlier neighbours.  Each step removes the
    least (degree, name), taken from a heap with lazy deletion."""
    degrees = {v: g.degree(v) for v in g.vertices}
    heap = [(d, v) for v, d in degrees.items()]
    heapq.heapify(heap)
    order = []
    degeneracy = 0
    while heap:
        d, v = heapq.heappop(heap)
        if degrees.get(v) != d:
            continue  # v was removed, or its degree has dropped since
        del degrees[v]
        degeneracy = max(degeneracy, d)
        order.append(v)
        for w in g.adjacency[v]:
            if w in degrees:
                degrees[w] -= 1
                heapq.heappush(heap, (degrees[w], w))
    order.reverse()
    return order, degeneracy


def acyclic_orientation(g: Graph) -> tuple:
    """Acyclic orientation with every edge pointing to its end that comes
    earlier in the degeneracy order; returns it with the degeneracy, which
    bounds its out-degrees."""
    order, degeneracy = _degeneracy_order(g)
    pos = {v: i for i, v in enumerate(order)}
    arcs = [(u, v) if pos[u] > pos[v] else (v, u) for u, v in sorted(g.edges)]
    return Orientation.build(g, arcs), degeneracy


def _realize(g: Graph, edges: list, eta: dict) -> Optional[Orientation]:
    """An orientation of g with out-degree eta[v] at every v, by
    backtracking over its edges in the given order; None if there is none.
    A loop, not a recursion: tried[i] counts the directions of edge i tried
    so far (as given, then reversed)."""
    need = dict(eta)  # out-degree still to give each vertex
    rem = {v: g.degree(v) for v in g.vertices}  # edges still to orient
    chosen: list = []
    tried = [0] * len(edges)
    i = 0
    while 0 <= i < len(edges):
        u, v = edges[i]
        if tried[i] == 0:
            rem[u] -= 1
            rem[v] -= 1
        else:  # back from a dead end: undo this edge's last direction
            need[chosen.pop()[0]] += 1
        while tried[i] < 2:
            tail, head = (u, v) if tried[i] == 0 else (v, u)
            tried[i] += 1
            if need[tail] > 0 and need[head] <= rem[head]:
                need[tail] -= 1
                chosen.append((tail, head))
                i += 1
                break
        else:  # both directions failed
            rem[u] += 1
            rem[v] += 1
            tried[i] = 0
            i -= 1
    return Orientation.build(g, chosen) if i == len(edges) else None


def find_at_orientation(g: Graph, k: int) -> Optional[Orientation]:
    """An orientation with max out-degree < k and unequal even/odd Eulerian
    sub-digraph counts, or None if none exists.

    None at once when |E| > (k - 1)|V|, since the out-degrees sum to |E|.
    Then tries the acyclic shortcut (difference 1 whenever the degeneracy
    fits the budget).  Otherwise one `_flip_counts` scan with out-degrees
    0 .. k - 1 counts every out-degree sequence eta within the budget at
    once: every orientation with out-degrees eta has |even - odd| equal to
    |coefficient of x^eta| in the graph polynomial (Alon-Tarsi), and
    `_realize` builds an orientation for the lexicographically least eta
    with even != odd.
    """
    if k < 1 or len(g.edges) > (k - 1) * len(g.vertices):
        return None
    d, degeneracy = acyclic_orientation(g)
    if degeneracy <= k - 1:
        return d
    edges = _frontier_order(list(g.edges))
    eta = _least_sequence(g, edges, k)
    return None if eta is None else _realize(g, edges, eta)


def _least_sequence(g: Graph, edges: list, k: int) -> Optional[dict]:
    """The lexicographically least out-degree sequence below k with even !=
    odd, from one budget scan over `edges` (in frontier order), or None.
    Every key of the table is reached by some orientation, so `_realize`
    finds one for it."""
    budget = dict.fromkeys(g.vertices, k - 1)
    table = _flip_counts([(v, u) for u, v in edges], dict.fromkeys(g.vertices, 0), budget)
    least = min((key for key, (even, odd) in table.items() if even != odd), default=None)
    if least is None:
        return None
    eta = dict.fromkeys(g.vertices, 0)  # vertices without edges take 0
    eta.update(_unpack(least, sorted({v for e in edges for v in e}), budget))
    return eta


def at_number(g: Graph) -> int:
    """Least k admitting an orientation with out-degrees < k and nonzero
    Eulerian parity difference.  Starts at ceil(|E| / |V|) + 1: the
    out-degrees sum to |E|, so some vertex has out-degree >= |E| / |V|.
    Ends by degeneracy + 1, which the acyclic orientation meets; below it
    each k takes one budget scan.  The degeneracy and the frontier order
    are computed once for all k."""
    m = len(g.edges)
    k = 1 + (-(-m // len(g.vertices)) if m else 0)
    _, degeneracy = _degeneracy_order(g)
    if degeneracy < k:
        return k
    edges = _frontier_order(list(g.edges))
    while k <= degeneracy and _least_sequence(g, edges, k) is None:
        k += 1
    return k
