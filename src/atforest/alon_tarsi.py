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
arcs or of out-degree sequences.  Each call numbers the vertices once, in
name order (`_frontier_order`); the kernel reads only those numbers.
`poly_coefficient` skips the scan when its exponent vector is the
out-degree vector of an acyclic orientation, read off by peeling sinks
(`_acyclic_sign`): no other orientation has that out-degree vector, so
the coefficient is that one orientation's sign, +-1.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from .errors import ArtifactError, CapExceeded
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


def _frontier_order(pairs) -> tuple:
    """Number the vertices of the pairs (arcs or edges) in name order, and
    order the pairs so that each vertex finishes early: (the sorted names,
    the pairs over those numbers in scan order).

    Vertices are placed greedily: next comes the one that brings in the
    fewest new vertices (itself and its neighbours, unless placed or next
    to a placed one: one AND of bit masks and a bit count), ties broken on
    the number, so on the name.  A pair is scanned as soon as both its
    ends are placed: sorted by (later position, earlier position).
    """
    names = sorted({v for pair in pairs for v in pair})
    n = len(names)
    num = {v: i for i, v in enumerate(names)}
    closed = [1 << i for i in range(n)]
    arcs = []
    for a, b in pairs:
        i, j = num[a], num[b]
        arcs.append((i, j))
        closed[i] |= 1 << j
        closed[j] |= 1 << i
    pos = [0] * n
    rest = list(range(n))  # the unplaced vertices, in number order
    unseen = (1 << n) - 1  # neither placed nor next to a placed vertex
    for p in range(n):
        least = n + 1
        for u in rest:
            count = (closed[u] & unseen).bit_count()
            if count < least:  # the first least: by number
                least, v = count, u
        rest.remove(v)
        pos[v] = p
        unseen &= ~closed[v]

    def key(arc):
        i, j = pos[arc[0]], pos[arc[1]]
        return i * n + j if i > j else j * n + i

    return names, sorted(arcs, key=key)


def _flip_counts(arcs: list, lo: list, hi: list) -> dict:
    """The subsets of arcs whose reversal leaves an out-degree between lo[v]
    and hi[v] at every vertex v, counted by the parity of their size: a
    table from the out-degree vector, packed into one int, to [even, odd].
    The vertices are the numbers 0 .. len(hi) - 1 of a `_frontier_order`
    numbering, and lo and hi are lists over them.  Packing: each
    out-degree in a field of max(hi).bit_length() bits, vertex 0 (the least
    name) in the highest field, so ints order as the vectors do
    lexicographically.

    One scan over the arcs in the order given (callers pass
    `_frontier_order`).  A state is the vector of out-degrees so far, kept
    with its [even, odd] counts; an arc t -> h is either kept (+1 at t) or
    reversed (+1 at h, the counts swap).  A state is dropped when the end
    that gains goes above hi, or the other end is below lo by more than
    the arcs still to scan there.  The live table (states x coordinates per
    state) is checked against TABLE_CAP after each arc.
    """
    n = len(hi)
    width = max(hi, default=0).bit_length()
    mask = (1 << width) - 1
    shift = [width * (n - 1 - v) for v in range(n)]
    rem = [0] * n  # arcs at each vertex not scanned yet
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
        if len(states) * n > TABLE_CAP:
            raise CapExceeded(
                f"{len(states)} states of {n} vertices exceed "
                f"table cap {TABLE_CAP}"
            )
    return states


def _target_counts(arcs: list, target: list) -> tuple:
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
    names, arcs = _frontier_order(list(d.arcs))
    out = d.out_degrees()
    return ParityCount(*_target_counts(arcs, [out[v] for v in names]))


def poly_coefficient(g: Graph, eta: dict) -> int:
    """Exact coefficient of the monomial with exponent vector eta in the
    product over edges uv (u < v) of (x_v - x_u).

    Each term of the product picks x_v (the arc v -> u) or -x_u (its
    reversal) from every factor, so the coefficient is even - odd from
    `_flip_counts` on the arcs v -> u with eta as target.  First, since
    an acyclic orientation is the only orientation with its out-degree
    vector, an eta that `_acyclic_sign` peels to the end gives that
    orientation's sign, +-1, with no scan.
    """
    if set(eta) != set(g.vertices):
        raise ArtifactError("exponent vector must cover exactly the vertex set")
    if any(e < 0 for e in eta.values()):
        raise ArtifactError("exponents must be non-negative")
    if sum(eta.values()) != len(g.edges):
        raise ArtifactError(
            f"sum of exponents {sum(eta.values())} != edge count {len(g.edges)}"
        )
    sign = _acyclic_sign(g, eta)
    if sign is not None:
        return sign
    names, arcs = _frontier_order([(v, u) for u, v in g.edges])
    even, odd = _target_counts(arcs, [eta[v] for v in names])
    return even - odd


def _acyclic_sign(g: Graph, eta: dict) -> Optional[int]:
    """The coefficient of x^eta if eta is the out-degree vector of an
    acyclic orientation of g, else None.

    Peels sinks: a vertex that needs out-degree 0 takes each edge to an
    unpeeled neighbour as an arc into it, and that neighbour needs one
    less, as in every orientation with out-degrees eta.  When all go, that
    orientation is the only one, and its sign counts the arcs u -> s with
    u < s (each the factor's -x_u).  None when no exponent is 0, a need
    drops below 0 or the peel stops early; the peel's order does not matter.
    """
    sinks = [v for v, e in eta.items() if e == 0]
    if not sinks:
        return None
    need = dict(eta)
    adjacency = g.adjacency
    up = 0  # arcs u -> s with u < s
    while sinks:
        s = sinks.pop()
        del need[s]
        for u in adjacency[s]:
            e = need.get(u)
            if e is None:  # peeled already
                continue
            if e == 0:  # u cannot give s the arc
                return None
            need[u] = e - 1
            if e == 1:
                sinks.append(u)
            up += u < s
    return None if need else -1 if up & 1 else 1


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
    names, arcs = _frontier_order([(v, u) for u, v in g.edges])
    eta = _least_sequence(g, names, arcs, k)
    # the edges u - v (u < v) in frontier order, each first tried as u -> v
    return None if eta is None else _realize(g, [(names[h], names[t]) for t, h in arcs], eta)


def _least_sequence(g: Graph, names: list, arcs: list, k: int) -> Optional[dict]:
    """The lexicographically least out-degree sequence below k with even !=
    odd, from one budget scan over the number `arcs` (in frontier order)
    of `names`, or None.  Every key of the table is reached by some
    orientation, so `_realize` finds one for it."""
    table = _flip_counts(arcs, [0] * len(names), [k - 1] * len(names))
    least = min((key for key, (even, odd) in table.items() if even != odd), default=None)
    if least is None:
        return None
    width = (k - 1).bit_length()  # the packing of `_flip_counts`, decoded
    eta = dict.fromkeys(g.vertices, 0)  # vertices without edges take 0
    for v in reversed(names):  # the last name in the lowest field
        eta[v] = least & ((1 << width) - 1)
        least >>= width
    return eta


def at_number(g: Graph) -> int:
    """Least k admitting an orientation with out-degrees < k and nonzero
    Eulerian parity difference.  Starts at ceil(|E| / |V|) + 1: the
    out-degrees sum to |E|, so some vertex has out-degree >= |E| / |V|.
    Ends by degeneracy + 1, which the acyclic orientation meets; below it
    each k takes one budget scan, asked only whether some entry has even
    != odd.  The degeneracy and the frontier order are computed once."""
    m = len(g.edges)
    k = 1 + (-(-m // len(g.vertices)) if m else 0)
    _, degeneracy = _degeneracy_order(g)
    if degeneracy < k:
        return k
    names, arcs = _frontier_order([(v, u) for u, v in g.edges])
    n = len(names)
    for k in range(k, degeneracy + 1):
        if any(even != odd for even, odd in _flip_counts(arcs, [0] * n, [k - 1] * n).values()):
            return k
    return degeneracy + 1
