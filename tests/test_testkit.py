"""Deterministic PRNG streams and seeded generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atforest.errors import ArtifactError
from atforest.gadgets import _LANES
from atforest.graph import edge, validate_near_triangulation
from atforest.testkit import (
    _GOLDEN,
    _M64,
    _STAR,
    Rng,
    _splitmix64,
    plane_graph_from_triangles,
    random_graph,
    random_near_triangulation,
    random_orientation,
)


def test_rng_streams_are_reproducible():
    a = [Rng(123).next_u64() for _ in range(5)]
    b = [Rng(123).next_u64() for _ in range(5)]
    assert a == b
    assert [Rng(124).next_u64() for _ in range(5)] != a


def test_rng_split_gives_independent_substreams():
    root = Rng(9)
    c1 = root.split(0)
    c2 = root.split(1)
    assert [c1.next_u64() for _ in range(3)] != [c2.next_u64() for _ in range(3)]
    # splitting does not advance the parent
    root2 = Rng(9)
    root2.split(0)
    assert root.next_u64() == root2.next_u64()


def _reference_split(rng, label):
    """Rng.split's seeding rule written out: splitmix64 of the parent state
    xor splitmix64 of the label, a zero state replaced by _GOLDEN."""
    child = Rng.__new__(Rng)
    s = _splitmix64(rng.state ^ _splitmix64(label & _M64))
    child.state = s if s != 0 else _GOLDEN
    return child


def test_split_follows_its_seeding_rule():
    # the last parent's child at label 0 would start from the zero state
    zero = Rng(0)
    zero.state = (_M64 + 1 - _GOLDEN) ^ _splitmix64(0)
    assert _splitmix64(zero.state ^ _splitmix64(0)) == 0
    for parent in (Rng(0), Rng(9), Rng(_M64), Rng(7).split(3), zero):
        for label in (0, 1, -1, 2**64 + 5, 10**6):
            got, want = parent.split(label), _reference_split(parent, label)
            assert got.state == want.state, (parent.state, label)
            assert [got.next_u64() for _ in range(50)] == [want.next_u64() for _ in range(50)]
    assert zero.split(0).state == _GOLDEN


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=1, max_value=1000))
def test_randrange_stays_in_range(seed, n):
    rng = Rng(seed)
    for _ in range(20):
        assert 0 <= rng.randrange(n) < n


# Rng.randrange's rejection rule and Rng.shuffle, written out over
# next_u64 draws

def _reference_randrange(rng, n):
    limit = (1 << 64) - 1 - (1 << 64) % n
    while True:
        x = rng.next_u64()
        if x <= limit:
            return x % n


def _reference_shuffle(rng, items):
    for i in range(len(items) - 1, 0, -1):
        j = _reference_randrange(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def test_inline_draws_match_next_u64_reference():
    # at n = 2**63 + 1 about half the draws are rejected
    for n in (1, 2, 3, 7, 1000, 2**31, 2**63 + 1, 2**64 - 3):
        for seed in range(5):
            fast, ref = Rng(seed), Rng(seed)
            assert [fast.randrange(n) for _ in range(200)] == [
                _reference_randrange(ref, n) for _ in range(200)
            ], (n, seed)
            assert fast.state == ref.state, (n, seed)
        if n == 2**63 + 1:
            plain = Rng(seed)
            for _ in range(200):
                plain.next_u64()
            assert plain.state != ref.state  # the rejection loop ran
    for length in range(1001):
        fast, ref = Rng(length), Rng(length)
        a, b = list(range(length)), list(range(length))
        fast.shuffle(a)
        _reference_shuffle(ref, b)
        assert a == b and fast.state == ref.state, length


def test_coins_match_next_u64_reference():
    for k in (0, 1, 2, 63, 224, 1000):
        for seed in range(5):
            fast, ref = Rng(seed), Rng(seed)
            assert fast.coins(k) == [_reference_randrange(ref, 2) for _ in range(k)], (k, seed)
            assert fast.state == ref.state, (k, seed)


def test_random_orientation_draws_one_coin_per_sorted_edge():
    g = random_graph(12, 0.5, 7)
    d = random_orientation(g, Rng(3))
    ref = Rng(3)
    arcs = {(u, v) if _reference_randrange(ref, 2) == 0 else (v, u) for u, v in sorted(g.edges)}
    assert d.arcs == arcs


# xorshift64* run backwards, to build a state whose next output is chosen

def _undo_xor_shift(x, shift, left):
    """Invert x ^= (x << shift) & M64 (left) or x ^= x >> shift."""
    y = x
    for _ in range(64 // shift + 1):
        y = x ^ (((y << shift) & _M64) if left else (y >> shift))
    return y


def _state_before(output):
    """The state from which next_u64() returns `output` (nonzero)."""
    x = output * pow(_STAR, -1, 1 << 64) & _M64
    x = _undo_xor_shift(x, 27, False)
    x = _undo_xor_shift(x, 25, True)
    return _undo_xor_shift(x, 12, False)


def test_shuffle_rejection_branch_matches_reference():
    # the first draw of a shuffle of n items is randrange(n): its limit is
    # M64 - 2**64 % n, and the fast accept takes draws up to M64 - n
    for n in (3, 5, 7, 100, 941, 1000):
        excess = (1 << 64) % n
        limit, safe = _M64 - excess, _M64 - n
        for first in (_M64, limit + 1, limit, safe + 1, safe, 12345):
            probe = Rng(0)
            probe.state = _state_before(first)
            assert probe.next_u64() == first
            fast, ref = Rng(0), Rng(0)
            fast.state = ref.state = _state_before(first)
            a, b = list(range(n)), list(range(n))
            fast.shuffle(a)
            _reference_shuffle(ref, b)
            assert a == b and fast.state == ref.state, (n, first)
            plain = Rng(0)
            plain.state = _state_before(first)
            for _ in range(n - 1):
                plain.next_u64()
            # a rejected first draw costs one more step than n - 1
            assert (plain.state != ref.state) == (first > limit), (n, first)


# lockstep batches: every lane's copy, coins and final state are those of
# the next_u64 forms, on batches narrower and wider than the samplers' lane
# count; shuffle and coins are one-lane batches

def test_lockstep_draws_are_next_u64_draws():
    batch, refs = [Rng(s) for s in range(5)], [Rng(s) for s in range(5)]
    draws = Rng.lockstep(batch, 7)
    assert [list(d) for d in draws] == [[r.next_u64() for _ in range(7)] for r in refs]
    assert [r.state for r in batch] == [r.state for r in refs]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, _M64), min_size=1, max_size=_LANES + 8), st.sampled_from((0, 1, 2, 940)))
def test_lockstep_batches_match_shuffle_and_coins(seeds, length):
    items = [("item", k) for k in range(length)]
    batch = [Rng(s) for s in seeds]
    copies = Rng.shuffled_copies(batch, items)
    for s, got, r in zip(seeds, copies, batch):
        ref, want = Rng(s), list(items)
        _reference_shuffle(ref, want)
        assert got == want and r.state == ref.state, s
    assert items == [("item", k) for k in range(length)]
    batch = [Rng(s) for s in seeds]
    for s, got, r in zip(seeds, Rng.coin_lists(batch, length), batch):
        ref = Rng(s)
        assert got == [_reference_randrange(ref, 2) for _ in range(length)] and r.state == ref.state, s


def test_shuffled_copies_redo_a_lane_that_may_reject():
    # a first draw of 2**64 - 1 is above the fast-accept bound of every
    # length; randrange(n) rejects it unless n divides 2**64, and then the
    # lane takes one more step than n - 1
    for length in (2, 3, 940):
        forced = Rng(0)
        forced.state = _state_before(_M64)
        batch = [Rng(1), forced, Rng(2)]
        states = [r.state for r in batch]
        copies = Rng.shuffled_copies(batch, list(range(length)))
        for state, got, r in zip(states, copies, batch):
            ref, want = Rng(0), list(range(length))
            ref.state = state
            _reference_shuffle(ref, want)
            assert got == want and r.state == ref.state, (length, state)
        plain = Rng(0)
        plain.state = states[1]
        for _ in range(length - 1):
            plain.next_u64()
        assert (plain.state != forced.state) == ((1 << 64) % length != 0), length


def test_shuffle_is_a_permutation():
    rng = Rng(5)
    items = list(range(50))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items


def test_random_near_triangulation_invariants():
    for n, b, seed in [(4, 3, 0), (10, 5, 1), (30, 12, 2), (100, 3, 3), (60, 9, 42)]:
        pg = random_near_triangulation(n, b, seed)
        assert len(pg.graph.vertices) == n
        assert len(pg.outer_face) == b
        assert len(pg.graph.edges) == 3 * n - 3 - b
        assert validate_near_triangulation(pg).verdict, (n, b, seed)


def test_random_near_triangulation_deterministic():
    a = random_near_triangulation(40, 7, 11)
    b = random_near_triangulation(40, 7, 11)
    assert a.graph == b.graph and a.rotation == b.rotation


def test_random_near_triangulation_rejects_bad_parameters():
    with pytest.raises(ArtifactError, match="^need 3 <= boundary_len <= n, got n=2, b=3$"):
        random_near_triangulation(2, 3, 0)
    with pytest.raises(ArtifactError, match="^need 3 <= boundary_len <= n, got n=5, b=6$"):
        random_near_triangulation(5, 6, 0)


def test_random_graph_deterministic_and_simple():
    g1 = random_graph(12, 0.3, 5)
    g2 = random_graph(12, 0.3, 5)
    assert g1 == g2
    assert all(u != v for u, v in g1.edges)


def test_random_graph_rejects_bad_parameters():
    for n, p in ((0, 0.5), (3, -0.1), (3, 1.5)):
        with pytest.raises(ArtifactError, match=f"^bad parameters n={n}, p={p}$"):
            random_graph(n, p, 0)


def test_randrange_rejects_an_empty_range():
    for n in (0, -1):
        with pytest.raises(ArtifactError, match="^randrange needs n >= 1$"):
            Rng(1).randrange(n)


def test_plane_graph_from_triangles_keeps_an_isolated_vertex():
    pg = plane_graph_from_triangles(["x", "y", "z", "w"], [("z", "x", "y")], ("x", "z", "y"))
    assert pg.rotation["w"] == () and ("w",) in pg.faces and not pg.connected


def test_random_orientation_covers_every_edge_once():
    g = random_graph(10, 0.5, 3)
    d = random_orientation(g, Rng(0))
    assert {edge(t, h) for t, h in d.arcs} == g.edges
    assert len(d.arcs) == len(g.edges)
