"""Deterministic PRNG streams and seeded generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atforest.errors import BadParameters
from atforest.graph import validate_near_triangulation
from atforest.testkit import (
    Rng,
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


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**63), st.integers(min_value=1, max_value=1000))
def test_randrange_stays_in_range(seed, n):
    rng = Rng(seed)
    for _ in range(20):
        assert 0 <= rng.randrange(n) < n


# the next_u64 forms that Rng.randrange and Rng.shuffle inline

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
    with pytest.raises(BadParameters):
        random_near_triangulation(2, 3, 0)
    with pytest.raises(BadParameters):
        random_near_triangulation(5, 6, 0)


def test_random_graph_deterministic_and_simple():
    g1 = random_graph(12, 0.3, 5)
    g2 = random_graph(12, 0.3, 5)
    assert g1 == g2
    assert all(u != v for u, v in g1.edges)


def test_random_orientation_covers_every_edge_once():
    g = random_graph(10, 0.5, 3)
    d = random_orientation(g, Rng(0))
    assert d.underlying_edges() == g.edges
    assert len(d.arcs) == len(g.edges)
