"""Eulerian parity counts, polynomial coefficients, and exact bound values."""

import hashlib
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atforest.alon_tarsi as alon_tarsi
from atforest.alon_tarsi import (
    ParityCount,
    _degeneracy_order,
    _flip_counts,
    _frontier_order,
    _realize,
    _target_counts,
    _unpack,
    acyclic_orientation,
    at_number,
    eulerian_diff,
    find_at_orientation,
    poly_coefficient,
)
from atforest.errors import CapExceeded, DegreeMismatch
from atforest.graph import Graph, Orientation, edge
from atforest.testkit import (
    Rng,
    random_graph,
    random_near_triangulation,
    random_orientation,
)
from helpers import (
    brute_force_eulerian_diff_oracle,
    chromatic_number,
    is_acyclic,
    subgraph_without_edges,
)


def cycle(names):
    return Graph.build(names, list(zip(names, names[1:])) + [(names[0], names[-1])])


def k_complete(names):
    return Graph.build(names, [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]])


def test_acyclic_orientation_has_difference_one():
    g = k_complete("abcd")
    d, deg = acyclic_orientation(g)
    assert is_acyclic(d.arcs) and deg == 3
    assert eulerian_diff(d) == ParityCount(1, 0)


def test_directed_triangle_parity():
    g = cycle("abc")
    d = Orientation.build(g, [("a", "b"), ("b", "c"), ("c", "a")])
    # the empty sub-digraph (even) and the full 3-cycle (odd)
    assert eulerian_diff(d) == ParityCount(1, 1)


def test_directed_four_cycle_parity():
    g = cycle("abcd")
    d = Orientation.build(g, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    # empty and the full 4-cycle, both even
    assert eulerian_diff(d) == ParityCount(2, 0)


def test_parity_cap_enforced(monkeypatch):
    g = random_graph(8, 1.0, 0)  # K8: 28 arcs, once over an arc-count cap
    d = random_orientation(g, Rng(0))
    assert eulerian_diff(d) == _reference_parity(d)
    # a table cap below K8's live table: 8 coordinates, more than 2 states
    monkeypatch.setattr(alon_tarsi, "TABLE_CAP", 16)
    with pytest.raises(CapExceeded):
        eulerian_diff(d)


def test_triangle_coefficient_sign():
    # (x2-x1)(x3-x1)(x3-x2): the only x1^2 x2 term is (-x1)(-x1)(-x2)
    g = cycle(["1", "2", "3"])
    assert poly_coefficient(g, {"1": 2, "2": 1, "3": 0}) == -1
    assert poly_coefficient(g, {"1": 0, "2": 1, "3": 2}) == 1


def test_coefficient_rejects_bad_exponents():
    g = cycle("abc")
    with pytest.raises(DegreeMismatch):
        poly_coefficient(g, {"a": 1, "b": 1})  # missing vertex
    with pytest.raises(DegreeMismatch):
        poly_coefficient(g, {"a": 1, "b": 1, "c": 2})  # wrong total


def test_identity_coefficient_equals_parity_difference():
    """|coefficient at the out-degree vector| == |even - odd| for random
    orientations."""
    for seed in range(30):
        g = random_graph(6, 0.6, seed)
        if not g.edges:
            continue
        d = random_orientation(g, Rng(seed))
        coeff = poly_coefficient(g, d.out_degrees())
        assert abs(coeff) == abs(eulerian_diff(d).diff), seed


def test_oracle_agreement():
    for seed in range(40):
        g = random_graph(6, 0.5, seed + 1000)
        d = random_orientation(g, Rng(seed))
        assert eulerian_diff(d) == brute_force_eulerian_diff_oracle(d)


# ---------------------------------------------------------------------------
# pinned parity counts above the oracle's reach: 17 .. 24 arcs (digest
# computed with the suffix-table scan this replaced)

PARITY_DIGEST = "8ba11b1a5528175589dfe46a15247becaa2b3d2cda287ab3d7166f4e373a7089"

# (n, boundary) near-triangulations with 3n - 3 - b = 17 .. 24 edges
_PARITY_SHAPES = [(8, 4), (8, 3), (9, 5), (9, 4), (9, 3), (10, 5), (10, 4), (10, 3)]


def _pinned_orientations():
    for seed in range(96):
        n, b = _PARITY_SHAPES[seed % len(_PARITY_SHAPES)]
        g = random_near_triangulation(n, b, 9000 + seed).graph
        yield random_orientation(g, Rng(seed))
    seed = found = 0
    while found < 32:  # non-planar ones too
        g = random_graph(9, 0.55, 9500 + seed)
        seed += 1
        if 17 <= len(g.edges) <= 24:
            found += 1
            yield random_orientation(g, Rng(seed))


def test_parity_counts_match_pinned_digest():
    h = hashlib.sha256()
    sizes = set()
    for d in _pinned_orientations():
        pc = eulerian_diff(d)
        sizes.add(len(d.arcs))
        h.update(f"{len(d.arcs)} {pc.even_count} {pc.odd_count}\n".encode())
    assert sizes == set(range(17, 25))
    assert h.hexdigest() == PARITY_DIGEST


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_deletion_recurrence(seed):
    """Dropping one edge uv (u < v): the coefficient splits into the
    v-branch minus the u-branch."""
    g = random_graph(5, 0.6, seed)
    if not g.edges:
        return
    d = random_orientation(g, Rng(seed))
    eta = d.out_degrees()
    u, v = sorted(g.edges)[seed % len(g.edges)]
    rest = subgraph_without_edges(g, [(u, v)])

    def minus(vertex):
        out = dict(eta)
        out[vertex] -= 1
        return out

    left = poly_coefficient(g, eta)
    terms = []
    for vertex in (v, u):
        reduced = minus(vertex)
        terms.append(
            0 if reduced[vertex] < 0 else poly_coefficient(rest, reduced)
        )
    assert left == terms[0] - terms[1]


def test_exact_at_values():
    assert at_number(cycle("abc")) == 3
    assert at_number(k_complete("abcd")) == 4
    assert at_number(cycle("abcd")) == 2
    assert at_number(cycle("abcde")) == 3


def test_cycle_at_values_by_parity():
    assert at_number(cycle("abcdef")) == 2
    assert at_number(cycle("abcdefg")) == 3


def test_complete_graph_at_number():
    # AT(K_n) = n; K7's search runs the budget scan at k = 4, 5 and 6
    assert at_number(k_complete("abcdefg")) == 7


def test_find_at_orientation_c4_k2_is_a_directed_cycle():
    g = cycle("abcd")
    d = find_at_orientation(g, 2)
    assert d is not None
    assert all(c == 1 for c in d.out_degrees().values())
    assert eulerian_diff(d).diff != 0


def test_find_at_orientation_respects_budget_and_cap(monkeypatch):
    g = cycle("abc")
    assert find_at_orientation(g, 2) is None  # AT(K3) = 3
    big = random_graph(10, 0.9, 1)  # 43 edges, degeneracy 8
    # the least k that passes the density test, below the degeneracy: the
    # budget scan runs and finds no sequence with even != odd
    k = -(-len(big.edges) // len(big.vertices)) + 1
    assert k == 6 and acyclic_orientation(big)[1] > k - 1
    assert find_at_orientation(big, k) is None
    assert find_at_orientation(big, 3) is None  # |E| > 2|V|, decided first
    # the table cap is the one limit: below this scan's live table it raises
    monkeypatch.setattr(alon_tarsi, "TABLE_CAP", 1000)
    with pytest.raises(CapExceeded):
        find_at_orientation(big, k)
    assert find_at_orientation(big, 3) is None  # no scan, so no cap


def test_at_number_at_least_chromatic_number():
    for seed in range(15):
        g = random_graph(6, 0.5, seed)
        if not g.edges:
            continue
        assert at_number(g) >= chromatic_number(g)


# ---------------------------------------------------------------------------
# the frontier kernels and the sequence search against the kernels they
# replaced, kept here as references


def _reference_parity(d):
    """Even/odd Eulerian sub-digraph counts by a scan over the arcs in
    frontier order with per-vertex imbalance states, pruned on
    |imbalance| <= arcs still to scan."""
    arcs = _frontier_order(list(d.arcs))
    verts = sorted({v for a in arcs for v in a})
    index = {v: i for i, v in enumerate(verts)}
    rem = [0] * len(verts)
    for t, h in arcs:
        rem[index[t]] += 1
        rem[index[h]] += 1
    zero = (0,) * len(verts)
    states = {zero: (1, 0)}
    for t, h in arcs:
        ti, hi = index[t], index[h]
        rem[ti] -= 1
        rem[hi] -= 1
        rt, rh = rem[ti], rem[hi]
        nxt = {}
        for state, (ev, od) in states.items():
            st, sh = state[ti], state[hi]
            if abs(st) <= rt and abs(sh) <= rh:  # exclude the arc
                e0, o0 = nxt.get(state, (0, 0))
                nxt[state] = (e0 + ev, o0 + od)
            if abs(st + 1) <= rt and abs(sh - 1) <= rh:  # include it
                s = list(state)
                s[ti] = st + 1
                s[hi] = sh - 1
                key = tuple(s)
                e0, o0 = nxt.get(key, (0, 0))
                nxt[key] = (e0 + od, o0 + ev)
        states = nxt
    return ParityCount(*states.get(zero, (0, 0)))


def _reference_degeneracy_order(g):
    """Smallest-last order by a linear scan for the least (degree, name)."""
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
    order.reverse()
    return order, degeneracy


def _reference_coefficient(g, eta):
    """Coefficient by a scan over the sorted edges with full exponent
    tuples, pruned only above the target."""
    index = {v: i for i, v in enumerate(g.vertices)}
    target = tuple(eta[v] for v in g.vertices)
    states = {tuple(0 for _ in g.vertices): 1}
    for u, v in sorted(g.edges):
        iu, iv = index[u], index[v]
        nxt = defaultdict(int)
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


def _reference_find(g, k):
    """Exhaustive search over every orientation within the out-degree
    budget, without the acyclic shortcut."""
    edges = sorted(g.edges)
    out = {v: 0 for v in g.vertices}
    chosen = []

    def search(i):
        if i == len(edges):
            cand = Orientation.build(g, chosen)
            return cand if eulerian_diff(cand).diff != 0 else None
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

    return search(0) if k >= 1 else None


def _reference_at_number(g):
    k = 1
    while _reference_find(g, k) is None:
        k += 1
    return k


def _sequences(g, k):
    """Out-degree sequences eta with eta[v] <= min(k - 1, deg v) summing to
    |E|, in lexicographic order over the vertices that have edges."""
    verts = [v for v in g.vertices if g.degree(v)]  # the rest take 0
    caps = [min(k - 1, g.degree(v)) for v in verts]
    room = [0] * (len(verts) + 1)  # room[i]: the most vertices i.. can take
    for i in range(len(verts) - 1, -1, -1):
        room[i] = room[i + 1] + caps[i]
    chosen = []

    def extend(i, left):
        if i == len(verts):
            eta = dict.fromkeys(g.vertices, 0)
            eta.update(zip(verts, chosen))
            yield eta
            return
        for e in range(max(0, left - room[i + 1]), min(caps[i], left) + 1):
            chosen.append(e)
            yield from extend(i + 1, left - e)
            chosen.pop()

    return extend(0, len(g.edges))


def _reference_realize(g, edges, eta):
    """The recursive form of _realize: one call per edge."""
    need = dict(eta)
    rem = {v: g.degree(v) for v in g.vertices}
    chosen = []

    def search(i):
        if i == len(edges):
            return True
        u, v = edges[i]
        rem[u] -= 1
        rem[v] -= 1
        for tail, head in ((u, v), (v, u)):
            if need[tail] > 0 and need[head] <= rem[head]:
                need[tail] -= 1
                chosen.append((tail, head))
                if search(i + 1):
                    return True
                chosen.pop()
                need[tail] += 1
        rem[u] += 1
        rem[v] += 1
        return False

    return Orientation.build(g, chosen) if search(0) else None


def _sequence_find(g, k):
    """find_at_orientation as one exact coefficient per out-degree sequence
    within the budget, in lexicographic order, and an orientation built for
    the first that is nonzero."""
    if k < 1 or len(g.edges) > (k - 1) * len(g.vertices):
        return None
    d, degeneracy = acyclic_orientation(g)
    if degeneracy <= k - 1:
        return d
    for eta in _sequences(g, k):
        if _reference_coefficient(g, eta):
            return _reference_realize(g, _frontier_order(list(g.edges)), eta)
    return None


def _small_graphs():
    for seed in range(60):
        yield random_graph(4 + seed % 3, (0.4, 0.6, 0.8)[seed // 3 % 3], 7000 + seed)
    for seed in range(12):
        yield random_near_triangulation(5 + seed % 2, 3 + seed % 3, 7100 + seed).graph
    for seed in range(12):  # bipartite, where the acyclic shortcut often misses
        g = random_graph(6 + seed % 2, 0.8, 7200 + seed)
        half = set(g.vertices[::2])
        yield Graph.build(g.vertices, [e for e in g.edges if (e[0] in half) != (e[1] in half)])


def test_degeneracy_order_matches_reference():
    graphs = [random_graph(5 + seed % 30, (0.1, 0.3, 0.6)[seed % 3], seed) for seed in range(60)]
    graphs += [random_near_triangulation(10 + 7 * seed, 3 + seed % 8, seed).graph for seed in range(30)]
    for g in graphs:
        assert _degeneracy_order(g) == _reference_degeneracy_order(g)


def test_acyclic_orientation_stays_within_degeneracy():
    # each edge points to its end earlier in the reversed smallest-last order
    for seed in range(300):
        g = random_graph(4 + seed % 12, (0.2, 0.4, 0.7)[seed % 3], 8000 + seed)
        d, degeneracy = acyclic_orientation(g)
        assert is_acyclic(d.arcs) and {edge(t, h) for t, h in d.arcs} == g.edges
        assert max(d.out_degrees().values()) <= degeneracy, seed
    names = ["v000", "v001", "v002", "v003", "v004"]
    g = Graph.build(names, [("v000", "v002"), ("v000", "v004"), ("v001", "v002"),
                            ("v002", "v003"), ("v002", "v004"), ("v003", "v004")])
    d, degeneracy = acyclic_orientation(g)
    assert degeneracy == 2 and max(d.out_degrees().values()) == 2
    d = find_at_orientation(g, 3)
    assert d is not None and max(d.out_degrees().values()) <= 2


def test_parity_matches_reference_beyond_the_digest():
    # 25 .. 40 arcs: above the oracle's 20 and the pinned digest's 24
    sizes = set()
    for seed in range(24):
        n, b = 11 + seed % 5, 3 + seed // 5 % 4  # 3n - 3 - b = 24 .. 39 edges
        g = random_near_triangulation(n, b, 9600 + seed).graph
        if len(g.edges) >= 25:
            d = random_orientation(g, Rng(seed))
            sizes.add(len(d.arcs))
            assert eulerian_diff(d) == _reference_parity(d), seed
    seed = found = 0
    while found < 16:  # non-planar ones too
        g = random_graph(10, 0.7, 9700 + seed)
        seed += 1
        if 25 <= len(g.edges) <= 40:
            found += 1
            d = random_orientation(g, Rng(seed))
            sizes.add(len(d.arcs))
            assert eulerian_diff(d) == _reference_parity(d), seed
    assert min(sizes) == 25 and max(sizes) == 39


def test_coefficient_matches_reference():
    rng = Rng(11)
    vectors = 0
    for g in _small_graphs():
        m = len(g.edges)
        if not m:
            continue
        etas = [random_orientation(g, rng).out_degrees()]
        for _ in range(4):  # random vectors, many realized by no orientation
            eta = {v: 0 for v in g.vertices}
            for _ in range(m):
                eta[g.vertices[rng.randrange(len(g.vertices))]] += 1
            etas.append(eta)
        # all of |E| on one vertex of smaller degree: realized by none
        v = min(g.vertices, key=g.degree)
        etas.append({u: (m if u == v else 0) for u in g.vertices})
        for eta in etas:
            assert poly_coefficient(g, eta) == _reference_coefficient(g, eta), eta
            vectors += 1
    assert vectors > 300


def test_at_search_matches_reference():
    # a budget that admits an orientation admits it for every larger k, so
    # the reference finds one exactly from its at_number on
    for g in _small_graphs():
        expected = _reference_at_number(g)
        assert at_number(g) == expected
        for k in range(1, 5):
            d = find_at_orientation(g, k)
            assert (d is None) == (k < expected), k
            if d is not None:
                assert {edge(t, h) for t, h in d.arcs} == g.edges
                assert max(d.out_degrees().values()) < k
                assert eulerian_diff(d).diff != 0


def test_at_number_orders_each_graph_once(monkeypatch):
    # the same values as asking find_at_orientation for k = 1, 2, ..., with
    # one degeneracy order and at most one frontier order per graph
    graphs = list(_small_graphs())
    graphs += [random_near_triangulation(9 + seed, 3 + seed % 4, 7300 + seed).graph
               for seed in range(6)]
    expected = []
    for g in graphs:
        k = 1
        while find_at_orientation(g, k) is None:
            k += 1
        expected.append(k)
    calls = defaultdict(int)
    for name in ("_degeneracy_order", "_frontier_order"):
        def counted(*args, _original=getattr(alon_tarsi, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(alon_tarsi, name, counted)
    searched = 0
    for g, k in zip(graphs, expected):
        calls.clear()
        assert at_number(g) == k
        assert calls["_degeneracy_order"] == 1 and calls["_frontier_order"] <= 1
        searched += calls["_frontier_order"]
    assert searched > 10  # the budget scan ran, not only the acyclic shortcut


def test_find_at_orientation_matches_sequence_search():
    # the same arcs, or None, as the per-sequence loop the budget scan
    # replaced, on the small graphs and the at-kernels benchmark shapes;
    # cycles, complete and larger bipartite graphs add scans at k < AT
    graphs = list(_small_graphs())
    for seed in range(4):
        for n in (6, 7):
            for b in range(3, n + 1):
                graphs.append(random_near_triangulation(n, b, 7300 + 10 * seed + n).graph)
    graphs += [cycle([f"c{i}" for i in range(n)]) for n in range(4, 10)]
    graphs += [k_complete("abcdefg"[:n]) for n in range(4, 8)]
    for seed in range(12):
        g = random_graph(8, 0.8, 7400 + seed)
        half = set(g.vertices[::2])
        graphs.append(Graph.build(g.vertices, [e for e in g.edges if (e[0] in half) != (e[1] in half)]))
    scans = found = 0
    for g in graphs:
        degeneracy = acyclic_orientation(g)[1]
        for k in range(1, 6):
            d = find_at_orientation(g, k)
            expected = _sequence_find(g, k)
            assert (d is None) == (expected is None), (g, k)
            if d is not None:
                assert d.arcs == expected.arcs, (g, k)
            if k - 1 < degeneracy and len(g.edges) <= (k - 1) * len(g.vertices):
                scans += 1
                found += d is not None
    # both outcomes of the budget scan occur
    assert found > 15 and scans - found > 15, (scans, found)


def test_realize_matches_recursive_reference():
    # the same orientation, or None, on every out-degree sequence within
    # budget 3 of the small graphs
    realized = failed = 0
    for g in _small_graphs():
        edges = _frontier_order(list(g.edges))
        for eta in _sequences(g, 4):
            got, want = _realize(g, edges, eta), _reference_realize(g, edges, eta)
            assert (got is None) == (want is None), (g, eta)
            if got is not None:
                assert got.arcs == want.arcs, (g, eta)
            realized += got is not None
            failed += got is None
    assert realized > 100 and failed > 100, (realized, failed)


def test_realize_depth_does_not_grow_with_n():
    names = [f"c{i:04d}" for i in range(3000)]
    g = cycle(names)
    d = _realize(g, sorted(g.edges), dict.fromkeys(names, 1))
    # out-degree 1 everywhere on a cycle: one of the two directed cycles
    assert d is not None and set(d.out_degrees().values()) == {1}
    assert not is_acyclic(d.arcs)


def test_at_number_triangulation_starts_at_the_density_bound():
    # 21 edges on 9 vertices: k <= 3 is ruled out before any search, and
    # the acyclic shortcut settles k = 4
    g = random_near_triangulation(9, 3, 5).graph
    assert len(g.edges) == 21
    assert at_number(g) == 4


def test_find_at_orientation_ignores_isolated_vertices():
    names = list("abcd") + [f"z{i:04d}" for i in range(1500)]
    g = Graph.build(names, [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    d = find_at_orientation(g, 2)  # the shortcut misses: degeneracy 2
    assert d is not None and max(d.out_degrees().values()) == 1
    assert at_number(g) == 2


# ---------------------------------------------------------------------------
# the packed-int kernel and the name-order frontier placement against the
# tuple-keyed kernel and the (count, name) placement they replaced


def _reference_frontier_order(pairs):
    """Placement by the least (new vertices, name) tuple over the unplaced
    vertices; pairs sorted by (later position, earlier position)."""
    adj = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    unseen = {v: len(nbrs) + 1 for v, nbrs in adj.items()}
    pos = {}
    seen = set()
    while len(pos) < len(adj):
        _, v = min((c, u) for u, c in unseen.items() if u not in pos)
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


def _reference_flip_counts(arcs, lo, hi, sizes=None):
    """The same scan with out-degree tuples over the sorted vertices as
    keys and (even, odd) tuples as values; the same TABLE_CAP check after
    each arc.  Appends the table size after each arc to `sizes`."""
    verts = sorted({v for a in arcs for v in a})
    index = {v: i for i, v in enumerate(verts)}
    low = tuple(lo[v] for v in verts)
    high = tuple(hi[v] for v in verts)
    rem = [0] * len(verts)
    for t, h in arcs:
        rem[index[t]] += 1
        rem[index[h]] += 1
    states = {(0,) * len(verts): (1, 0)}
    for t, h in arcs:
        i, j = index[t], index[h]
        rem[i] -= 1
        rem[j] -= 1
        need_t, need_h = low[i] - rem[i], low[j] - rem[j]
        nxt = {}
        for state, (ev, od) in states.items():
            st, sh = state[i], state[j]
            if st < high[i] and sh >= need_h:
                s = list(state)
                s[i] = st + 1
                e0, o0 = nxt.get(tuple(s), (0, 0))
                nxt[tuple(s)] = (e0 + ev, o0 + od)
            if sh < high[j] and st >= need_t:
                s = list(state)
                s[j] = sh + 1
                e0, o0 = nxt.get(tuple(s), (0, 0))
                nxt[tuple(s)] = (e0 + od, o0 + ev)
        states = nxt
        if sizes is not None:
            sizes.append(len(states))
        if len(states) * len(verts) > alon_tarsi.TABLE_CAP:
            raise CapExceeded(
                f"{len(states)} states of {len(verts)} vertices exceed "
                f"table cap {alon_tarsi.TABLE_CAP}"
            )
    return states


def _decoded(table, arcs, hi):
    """The packed table as {out-degree tuple: (even, odd)}, in key order."""
    verts = sorted({v for a in arcs for v in a})
    out = {}
    for key in sorted(table):
        eta = _unpack(key, verts, hi)
        out[tuple(eta[v] for v in verts)] = tuple(table[key])
    return out


def _kernel_graphs():
    for seed in range(16):  # near-triangulations
        yield random_near_triangulation(6 + seed % 5, 3 + seed % 4, 7500 + seed).graph
    for seed in range(12):  # dense random graphs
        yield random_graph(6 + seed % 3, (0.7, 0.85, 1.0)[seed % 3], 7600 + seed)


def _assert_same_table(arcs, lo, hi):
    got, want = _flip_counts(arcs, lo, hi), _reference_flip_counts(arcs, lo, hi)
    decoded = _decoded(got, arcs, hi)
    assert decoded == want
    # int order is the tuples' lexicographic order
    assert list(decoded) == sorted(want)
    return len(want)


def test_budget_tables_match_tuple_reference():
    entries = 0
    for g in _kernel_graphs():
        arcs = [(v, u) for u, v in _reference_frontier_order(list(g.edges))]
        for k in (2, 3, 4):
            hi = dict.fromkeys(g.vertices, k - 1)
            entries += _assert_same_table(arcs, dict.fromkeys(g.vertices, 0), hi)
    assert entries > 20000, entries


def test_target_pairs_match_tuple_reference():
    rng = Rng(17)
    nonzero = 0
    for g in _kernel_graphs():
        for _ in range(3):
            d = random_orientation(g, rng)
            arcs = _frontier_order(list(d.arcs))
            eta = d.out_degrees()
            want = next(iter(_reference_flip_counts(arcs, eta, eta).values()), (0, 0))
            assert _target_counts(arcs, eta) == want
            # the same target on the arcs v -> u of the graph polynomial
            arcs = _frontier_order([(v, u) for u, v in g.edges])
            want = next(iter(_reference_flip_counts(arcs, eta, eta).values()), (0, 0))
            assert _target_counts(arcs, eta) == want
            nonzero += want[0] != want[1]
    assert nonzero > 20, nonzero


@pytest.mark.parametrize("top", [1, 2, 3, 4, 7, 8])
def test_field_width_edges(top):
    # the center of an 8-leaf star may reach out-degree `top`, each leaf
    # 1: fields of width top.bit_length(), full at 1, 3 and 7 (2**w - 1)
    # and one bit wider at 2, 4 and 8 (2**w)
    names = ["c"] + [f"l{i}" for i in range(8)]
    arcs = [("c", leaf) for leaf in names[1:]]
    hi = {v: (top if v == "c" else 1) for v in names}
    _assert_same_table(arcs, dict.fromkeys(names, 0), hi)
    table = _reference_flip_counts(arcs, dict.fromkeys(names, 0), hi)
    assert max(eta[0] for eta in table) == top
    # K9 with one vertex at out-degree `top`, as a target
    k9 = random_graph(9, 1.0, 0)
    v = k9.vertices[0]
    arcs = [(v, u) for u in k9.vertices[1:1 + top]] + [(u, v) for u in k9.vertices[1 + top:]]
    arcs += [(a, b) for a, b in sorted(k9.edges) if v not in (a, b)]
    eta = Orientation.build(k9, arcs).out_degrees()
    assert eta[v] == top
    order = _frontier_order(arcs)
    assert _target_counts(order, eta) == next(iter(_reference_flip_counts(order, eta, eta).values()))


class _Counted(list):
    """A list that counts the items its latest iteration has yielded."""

    def __iter__(self):
        self.taken = 0
        for item in list.__iter__(self):
            self.taken += 1
            yield item


def test_cap_fires_at_the_same_arc(monkeypatch):
    # a cap just below and at the table after arc j: both kernels raise the
    # same sentence at the first arc whose table outgrows it, or none
    cases = []
    for g in list(_kernel_graphs())[::3]:
        arcs = _Counted((v, u) for u, v in _frontier_order(list(g.edges)))
        lo, hi = dict.fromkeys(g.vertices, 0), dict.fromkeys(g.vertices, 3)
        sizes = []
        _reference_flip_counts(arcs, lo, hi, sizes)  # under the real cap
        cases.append((arcs, lo, hi, sizes))
    fired = 0
    for arcs, lo, hi, sizes in cases:
        n = len({v for a in arcs for v in a})
        for j in (len(sizes) // 3, len(sizes) // 2, sizes.index(max(sizes))):
            for cap in (sizes[j] * n - 1, sizes[j] * n):  # below it, and at it
                monkeypatch.setattr(alon_tarsi, "TABLE_CAP", cap)
                first = next((i for i, size in enumerate(sizes) if size * n > cap), None)
                for kernel in (_reference_flip_counts, _flip_counts):
                    if first is None:  # a table at the cap passes
                        kernel(arcs, lo, hi)
                        continue
                    with pytest.raises(CapExceeded, match=f"^{sizes[first]} states of {n} vertices "
                                                          f"exceed table cap {cap}$"):
                        kernel(arcs, lo, hi)
                    assert arcs.taken == first + 1, kernel
                fired += first is not None
    assert fired > 20


def _frontier_inputs():
    rng = Rng(23)
    for seed in range(600):
        n = 3 + seed % 14
        yield sorted(random_graph(n, (0.15, 0.3, 0.5, 0.8, 1.0)[seed % 5], 7700 + seed).edges)
    for seed in range(150):
        yield sorted(random_near_triangulation(5 + seed % 20, 3 + seed % 5, 7800 + seed).graph.edges)
    for n in range(3, 40):  # cycles, stars and paths: ties everywhere
        names = [f"v{i:02d}" for i in range(n)]
        yield list(zip(names, names[1:])) + [(names[0], names[-1])]
        yield [(names[0], v) for v in names[1:]]
        yield list(zip(names[::2], names[1::2]))  # a matching
    for seed in range(100):  # shuffled pairs, and arcs of random orientations
        edges = sorted(random_graph(4 + seed % 9, 0.5, 7900 + seed).edges)
        rng.shuffle(edges)
        yield edges
        yield list(random_orientation(Graph.build(sorted({v for e in edges for v in e}), edges), rng).arcs)


def test_frontier_order_matches_tuple_placement():
    count = 0
    for pairs in _frontier_inputs():
        for given in (pairs, [(b, a) for a, b in pairs]):
            assert _frontier_order(given) == _reference_frontier_order(given), given
            count += 1
    assert count >= 2000, count
