"""List-coloring search and the non-3-choosable list construction."""

import re
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atforest.choosability import (
    ALPHA,
    BETA,
    GAMMA,
    OMEGA,
    ListAssignment,
    build_lemma1_lists,
    is_l_colorable,
    verify_witness_not_k_choosable,
)
from atforest.errors import ArtifactError
from atforest.graph import Graph
from atforest.testkit import Rng, random_graph
from helpers import chromatic_number, has_edge


def cycle(names):
    return Graph.build(names, list(zip(names, names[1:])) + [(names[0], names[-1])])


def uniform_lists(g, colors):
    return ListAssignment.build({v: list(colors) for v in g.vertices})


def test_k3_with_two_colors_uncolorable():
    assert is_l_colorable(cycle("abc"), uniform_lists(cycle("abc"), "12")) is None


def test_lists_must_cover_the_vertex_set():
    g = cycle("abc")
    with pytest.raises(ArtifactError, match="cover exactly"):
        is_l_colorable(g, ListAssignment.build({"a": ["1"], "b": ["2"]}))


def test_c4_with_two_colors_alternates():
    g = cycle("abcd")
    coloring = is_l_colorable(g, uniform_lists(g, "12"))
    assert coloring is not None
    for u, v in g.edges:
        assert coloring[u] != coloring[v]


def test_is_l_colorable_matches_exhaustive_search():
    for seed in range(15):
        g = random_graph(6, 0.5, seed)
        lists = ListAssignment.build(
            {v: ["1", "2"] if int(v[-1]) % 2 else ["2", "3"] for v in g.vertices}
        )
        domains = [sorted(lists.as_dict()[v]) for v in g.vertices]
        brute = any(
            all(
                assign[i] != assign[j]
                for i, u in enumerate(g.vertices)
                for j, v in enumerate(g.vertices)
                if i < j and has_edge(g, u, v)
            )
            for assign in product(*domains)
        )
        assert (is_l_colorable(g, lists) is not None) == brute, seed


def test_single_piece_alone_is_colorable():
    """One wheel piece with its copy-1 lists still admits a coloring; all
    six permutations together are what blocks every choice."""
    g = Graph.build(
        ["a", "b", "c1", "d1", "e1"],
        [("a", "b"), ("a", "c1"), ("b", "c1"), ("a", "e1"), ("b", "e1"),
         ("c1", "d1"), ("d1", "e1"), ("a", "d1")],
    )
    lists = ListAssignment.build(
        {
            "a": (ALPHA, BETA, GAMMA),
            "b": (ALPHA, BETA, GAMMA),
            "c1": (ALPHA, BETA, GAMMA),
            "e1": (ALPHA, BETA, OMEGA),
            "d1": (ALPHA, GAMMA, OMEGA),
        }
    )
    coloring = is_l_colorable(g, lists)
    assert coloring is not None


def test_build_lists_shapes():
    g, lists = build_lemma1_lists("aaaaaa")
    assert len(g.vertices) == 20 and len(g.edges) == 43
    assert all(len(cols) == 3 for _, cols in lists.lists)
    ga, la = build_lemma1_lists("aaaaaa")
    gb, lb = build_lemma1_lists("ababab")
    assert ga == gb or ga != gb  # graphs differ only in d_i attachment edges
    da, db = la.as_dict(), lb.as_dict()
    diff = {v for v in da if da[v] != db[v]}
    assert diff == {"d2", "d4", "d6"}


def test_bad_selectors_rejected():
    for bad in ("aaa", "abcabc", "aaaaaaa", ""):
        message = f"selector must be a length-6 word over {{a,b}}: {bad!r}"
        with pytest.raises(ArtifactError, match=f"^{re.escape(message)}$"):
            build_lemma1_lists(bad)


def test_witness_verification_pass_and_fail():
    g, lists = build_lemma1_lists("aaaaaa")
    assert verify_witness_not_k_choosable(g, lists, 3).verdict
    c4 = cycle("abcd")
    rep = verify_witness_not_k_choosable(c4, uniform_lists(c4, "12"), 2)
    assert not rep.verdict and rep.counterexample  # colorable
    short = ListAssignment.build(
        {v: ["1", "2"] if v != "a" else ["1", "2", "3"] for v in c4.vertices}
    )
    assert not verify_witness_not_k_choosable(c4, short, 3).verdict  # size


def test_witness_with_one_short_list_fails_on_its_size():
    # cutting a list only removes colourings, so only the size check can fail
    g, lists = build_lemma1_lists("abaabb")
    cut = {v: cols[:2] if v == "d3" else cols for v, cols in lists.lists}
    short = ListAssignment.build(cut)
    assert is_l_colorable(g, short) is None
    report = verify_witness_not_k_choosable(g, short, 3)
    assert not report.verdict
    assert report.detail == "list at 'd3' has size 2, not 3"
    assert report.counterexample == "d3"


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=63))
def test_all_selectors_not_choosable(idx):
    word = "".join("ab"[idx >> j & 1] for j in range(6))
    g, lists = build_lemma1_lists(word)
    assert verify_witness_not_k_choosable(g, lists, 3).verdict


def test_factorized_copy_colorability_oracle():
    """Fixing the two handle colors, colorability factorizes over the six
    pieces; the factorized verdict must match the global search."""
    for word in ("aaaaaa", "bbbbbb", "abbaba"):
        g, lists = build_lemma1_lists(word)
        lmap = lists.as_dict()
        global_ok = is_l_colorable(g, lists) is not None
        factored_ok = False
        for ca in sorted(lmap["a"]):
            for cb in sorted(lmap["b"]):
                if ca == cb:
                    continue
                pieces_ok = True
                for i in range(1, 7):
                    c, d, e = f"c{i}", f"d{i}", f"e{i}"
                    attach = word[i - 1]
                    anchor = ca if attach == "a" else cb
                    piece_ok = False
                    for cc in lmap[c] - {ca, cb}:
                        for ce in lmap[e] - {ca, cb}:
                            for cd in lmap[d] - {cc, ce, anchor}:
                                piece_ok = True
                    if not piece_ok:
                        pieces_ok = False
                        break
                if pieces_ok:
                    factored_ok = True
        assert factored_ok == global_ok


def test_chromatic_numbers():
    assert chromatic_number(Graph.build("abcd", [(u, v) for i, u in enumerate("abcd") for v in "abcd"[i + 1:]])) == 4
    assert chromatic_number(cycle("abcde")) == 3
    petersen_edges = [
        ("o0", "o1"), ("o1", "o2"), ("o2", "o3"), ("o3", "o4"), ("o0", "o4"),
        ("i0", "i2"), ("i2", "i4"), ("i4", "i1"), ("i1", "i3"), ("i3", "i0"),
        ("o0", "i0"), ("o1", "i1"), ("o2", "i2"), ("o3", "i3"), ("o4", "i4"),
    ]
    petersen = Graph.build([f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)], petersen_edges)
    assert chromatic_number(petersen) == 3


def _reference_is_l_colorable(g, l):
    """The recursive search the loop replaced: one call per vertex."""
    lists = l.as_dict()
    order = list(g.vertices)
    domains = {v: sorted(lists[v]) for v in order}
    adj = g.adjacency
    coloring = {}

    def assign(i):
        if i == len(order):
            return True
        v = order[i]
        for color in domains[v]:
            if any(coloring.get(w) == color for w in adj[v]):
                continue
            coloring[v] = color
            dead = False
            for w in adj[v]:
                if w not in coloring and all(
                    c == color or any(coloring.get(u) == c for u in adj[w])
                    for c in domains[w]
                ):
                    dead = True
                    break
            if not dead and assign(i + 1):
                return True
            del coloring[v]
        return False

    return dict(coloring) if assign(0) else None


def _reference_chromatic_number(g):
    """The separate recursive backtracker chromatic_number had: vertices by
    decreasing degree, a new color only when all used ones fail."""
    if not g.edges:
        return 1 if g.vertices else 0
    order = sorted(g.vertices, key=lambda v: -g.degree(v))
    adj = g.adjacency

    def colorable(k):
        coloring = {}

        def rec(i, used):
            if i == len(order):
                return True
            v = order[i]
            for c in range(min(used + 1, k)):
                if any(coloring.get(w) == c for w in adj[v]):
                    continue
                coloring[v] = c
                if rec(i + 1, max(used, c + 1)):
                    return True
                del coloring[v]
            return False

        return rec(0, 0)

    return next(k for k in range(2, len(g.vertices) + 1) if colorable(k))


def test_coloring_search_matches_recursive_reference():
    rng = Rng(8100)
    for seed in range(300):
        g = random_graph(4 + seed % 6, (0.3, 0.5, 0.7)[seed % 3], 8100 + seed)
        lists = ListAssignment.build(
            {v: [c for c in "abcd" if rng.randrange(3)] or ["a"] for v in g.vertices}
        )
        got = is_l_colorable(g, lists)
        assert got == _reference_is_l_colorable(g, lists)
        # the same vertex order as well as the same colors
        assert got is None or list(got) == list(g.vertices)
    for seed in range(150):
        g = random_graph(3 + seed % 7, (0.3, 0.5, 0.8)[seed % 3], 8500 + seed)
        assert chromatic_number(g) == _reference_chromatic_number(g)


@st.composite
def graphs_with_lists(draw):
    """A graph on up to 9 vertices and lists of 0-4 colors from five."""
    names = [f"v{i}" for i in range(draw(st.integers(min_value=0, max_value=9)))]
    pairs = [(u, w) for i, u in enumerate(names) for w in names[i + 1:]]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    color_lists = st.lists(st.sampled_from("abcde"), max_size=4, unique=True)
    return Graph.build(names, edges), ListAssignment.build({v: draw(color_lists) for v in names})


@settings(max_examples=300, deadline=None)
@given(graphs_with_lists())
def test_propagating_search_returns_the_reference_coloring(instance):
    g, lists = instance
    got, want = is_l_colorable(g, lists), _reference_is_l_colorable(g, lists)
    assert got == want
    assert got is None or list(got) == list(want)  # the same key order too
    assert chromatic_number(g) == _reference_chromatic_number(g)


def _dead_singleton_pair(k, last):
    """k disjoint edges with 3-lists, then the edge y0 y1 with lists {1}
    and `last`; y0 and y1 come last in the sorted order."""
    xs = [f"x{i:03d}" for i in range(2 * k)]
    g = Graph.build(xs + ["y0", "y1"], list(zip(xs[::2], xs[1::2])) + [("y0", "y1")])
    lists = {v: ["1", "2", "3"] for v in xs}
    lists["y0"], lists["y1"] = ["1"], last
    return g, ListAssignment.build(lists)


@pytest.mark.parametrize("last", [["1"], []])
def test_dead_vertex_is_found_before_any_branching(last):
    # without propagation the search would try all 6^19 colorings of the
    # 19 free edges before it reached y0 and y1
    g, lists = _dead_singleton_pair(19, last)
    assert len(g.vertices) == 40
    start = time.perf_counter()
    assert is_l_colorable(g, lists) is None
    assert time.perf_counter() - start < 1.0


def test_coloring_search_depth_does_not_grow_with_n():
    names = [f"v{i:04d}" for i in range(3000)]
    path = Graph.build(names, list(zip(names, names[1:])))
    lists = ListAssignment.build({v: ["1", "2", "3"] for v in names})
    coloring = is_l_colorable(path, lists)
    assert coloring is not None and all(coloring[u] != coloring[v] for u, v in path.edges)
    assert chromatic_number(path) == 2


def test_list_json_round_trip():
    _, lists = build_lemma1_lists("ababab")
    back = ListAssignment.from_json_dict(lists.to_json_dict())
    assert back == lists
