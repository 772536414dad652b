"""Gadget builders, star forests, exhaustive and sampled verifiers."""

import hashlib
import json
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atforest import gadgets
from atforest.check import check_star_forest
from atforest.choosability import ListAssignment, verify_witness_not_k_choosable
from atforest.errors import ArtifactError
from atforest.gadgets import (
    _A,
    _J3,
    _J3_FREE,
    _J3_LINKS,
    StarForest,
    _edges,
    _indexed_host,
    _random_max_degree_subgraph,
    build_d,
    build_g1,
    build_g2,
    build_gadget,
    build_j3,
    build_s,
    extract_obstruction,
    random_star_forest,
    verify_lemma1,
    verify_lemma1_all,
    verify_lemma2,
    verify_lemma6,
    verify_sampled,
    verify_theorem7_core,
)
from atforest.graph import edge, graph_to_json_dict
from atforest.testkit import Rng, random_graph
from helpers import (
    find_k4,
    has_edge,
    reference_extract_obstruction,
    reference_lemma2,
    reference_lemma6,
    reference_sampled_obstructions,
    reference_theorem7_core,
    subgraph_without_edges,
)

EXPECTED_SIZES = {
    "J1": (5, 8),
    "J2": (5, 8),
    "J3": (11, 27),
    "S": (83, 235),
    "G1": (329, 940),
    "A": (14, 34),
    "D": (8, 18),
    "G2": (224, 612),
}


def test_gadget_sizes_and_planarity_bound():
    for name, (nv, ne) in EXPECTED_SIZES.items():
        g = build_gadget(name)
        assert (len(g.vertices), len(g.edges)) == (nv, ne), name
        assert ne <= 3 * nv - 6, name
    fam = build_gadget("JFamily", "abbaba")
    assert (len(fam.vertices), len(fam.edges)) == (20, 43)


def test_gluing_premises_on_the_role_dicts():
    s = build_s()
    for c1, c2 in combinations(s.copies, 2):  # the J3 copies of S meet in ab
        assert set(c1.values()) & set(c2.values()) == {s.a, s.b}
    g1, s_gadgets = build_g1()
    for s1, s2 in combinations(s_gadgets, 2):  # the S gadgets of G1 meet in c
        assert set(s1.graph.vertices) & set(s2.graph.vertices) == {"c"}
    g2, a_copies = build_g2()
    for c1, c2 in combinations(a_copies, 2):  # the A copies of G2 meet in handle ends
        assert set(c1.values()) & set(c2.values()) == {c1["a"], c1["b"]} & {c2["a"], c2["b"]}
    # each edge of D is the handle of one A copy
    assert sorted(edge(c["a"], c["b"]) for c in a_copies) == sorted(build_d().edges)
    # each copy's renamed template edges lie in the glued graph, and the
    # copies cover all of it
    g1_copies = [c for t in s_gadgets for c in t.copies]
    for g, table, copies in ((s.graph, _J3, s.copies), (g1, _J3, g1_copies), (g2, _A, a_copies)):
        covered = set()
        for copy in copies:
            renamed = set(_edges(copy, table))
            assert len(renamed) == len(table) and renamed <= g.edges
            covered |= renamed
        assert covered == g.edges
        assert {v for c in copies for v in c.values()} == set(g.vertices)


def test_g1_is_the_glue_of_its_36_j3_copies():
    # G1 is the union of its four S graphs; gluing the 36 J3 copies of
    # those S gadgets in one `_glue` builds the same graph
    g1, s_gadgets = build_g1()
    copies = [c for s in s_gadgets for c in s.copies]
    assert len(copies) == 36
    assert g1 == gadgets._glue(_J3, copies)


def test_unknown_gadget_and_missing_selector():
    with pytest.raises(ArtifactError, match="^unknown gadget 'nosuch'$"):
        build_gadget("nosuch")
    with pytest.raises(ArtifactError, match="^JFamily needs --selector, a length-6 word"):
        build_gadget("JFamily")


def test_random_star_forest_always_validates():
    g = build_gadget("A")
    for i in range(50):
        f = random_star_forest(g, Rng(i))
        assert check_star_forest(f.edges, f.centers, g.edges).verdict


def test_lemma2_exhaustive():
    report = verify_lemma2()
    assert report.verdict
    assert report.stats["cases_examined"] == 2437
    # stable across runs
    assert verify_lemma2().stats["cases_examined"] == 2437


def test_lemma2_pinned_cases():
    g, copy = build_j3()
    # nothing deleted: K4 on {a, b, c, d}
    assert find_k4(g) == ("a", "b", "c", "d")
    # all four path edges deleted: wheel piece on {a, b, d, h, e}
    h = set(_edges(copy, _J3_LINKS))
    remaining = subgraph_without_edges(g, h)
    assert find_k4(remaining) is None
    from atforest.gadgets import _extract_from_copy

    mask = sum(1 << _J3_FREE.index(link) for link in _J3_LINKS)
    kind, attach, p, q, m = _extract_from_copy(copy, mask)
    assert kind == "j" and attach == "a" and {p, q, m} == {"d", "e", "h"}


def test_lemma1_delegation():
    assert verify_lemma1("aaaaaa").verdict
    assert verify_lemma1("bbbbbb").verdict
    with pytest.raises(ArtifactError, match="^selector must be a length-6 word over .*: 'ab'$"):
        verify_lemma1("ab")


def test_sampled_theorem7_reports_invalid_star_forest(monkeypatch):
    calls = []

    def not_a_star(g, coins, rng):
        calls.append(rng)
        a, b = sorted(g.edges)[0]
        return StarForest(frozenset({edge(a, b)}), frozenset())

    monkeypatch.setattr(gadgets, "_star_forest", not_a_star)
    report = verify_sampled("theorem7", 5, 1)
    assert not report.verdict and "not a star forest" in report.detail
    assert report.stats["samples"] == 1
    # sampling stops at the first failure
    assert len(calls) == 1


def test_lemma6_exhaustive():
    report = verify_lemma6()
    assert report.verdict
    assert report.stats["cases_examined"] == 5433984
    assert verify_lemma6().stats["cases_examined"] == report.stats["cases_examined"]


def test_theorem7_core_exhaustive():
    report = verify_theorem7_core()
    assert report.verdict and report.stats["cases_examined"] == 765


# the exhaustive verifiers run on bit masks; the set-based references in
# helpers give the same full report (verdict, detail, counts, tally and
# counterexample), on the real gadgets and on forced failures

def _assert_same_report(fast, ref):
    got, want = fast(), ref()
    assert got == want, fast.__name__
    assert got.to_json_dict() == want.to_json_dict(), fast.__name__


def test_mask_verifiers_match_set_references():
    _assert_same_report(verify_lemma2, reference_lemma2)
    _assert_same_report(verify_lemma6, reference_lemma6)
    _assert_same_report(verify_theorem7_core, reference_theorem7_core)
    assert verify_lemma2().stats == {"cases_examined": 2437, "k4": 2392, "j_piece": 45}


def test_lemma2_failure_matches_set_reference(monkeypatch):
    def no_piece(copy, mask):
        return None

    monkeypatch.setattr(gadgets, "_extract_from_copy", no_piece)
    report = verify_lemma2()
    assert not report.verdict and report.counterexample
    _assert_same_report(verify_lemma2, reference_lemma2)

    monkeypatch.setattr(gadgets, "_extract_from_copy", lambda copy, mask: ("k4", ()))
    assert not verify_lemma2().verdict
    _assert_same_report(verify_lemma2, reference_lemma2)


def test_lemma6_failure_matches_set_reference(monkeypatch):
    configs = gadgets._path_configs

    def with_all_links():
        # no centers yet every link taken: not a star forest, and it
        # blocks every K4 through its path
        return configs() + [(0, 0b111)]

    monkeypatch.setattr(gadgets, "_path_configs", with_all_links)
    report = verify_lemma6()
    assert not report.verdict and report.counterexample["forest"]
    _assert_same_report(verify_lemma6, reference_lemma6)

    # two blocking entries: each path's first one in table order is reported
    monkeypatch.setattr(gadgets, "_path_configs", lambda: with_all_links() + [(0b0101, 0b111)])
    assert verify_lemma6().counterexample["centers"] == []
    _assert_same_report(verify_lemma6, reference_lemma6)


def test_theorem7_core_failure_matches_set_reference(monkeypatch):
    # one "clique", the edge ab: the first forest that takes ab kills it
    monkeypatch.setattr(gadgets, "_k4_edge_sets", lambda g: [{("a", "b")}])
    report = verify_theorem7_core()
    assert not report.verdict and ["a", "b"] in report.counterexample["forest"]
    _assert_same_report(verify_theorem7_core, reference_theorem7_core)


def test_extract_obstruction_empty_deletion_gives_k4():
    s = build_s()
    ob = extract_obstruction(s, set())
    assert ob.kind == "k4"
    quad = set(ob.vertices)
    assert all(has_edge(s.graph, u, v) for u, v in combinations(sorted(quad), 2))


def test_extract_obstruction_path_deletion_gives_family_member():
    s = build_s()
    h = set()
    for copy in s.copies:
        h.update(_edges(copy, _J3_LINKS))
    ob = extract_obstruction(s, h)
    assert ob.kind == "j_member"
    assert len(ob.graph.vertices) == 20 and len(ob.graph.edges) == 43
    assert ob.graph.edges <= s.graph.edges
    assert not (ob.graph.edges & h)
    assert verify_witness_not_k_choosable(ob.graph, ob.lists, 3).verdict


def test_extract_obstruction_skips_copies_joined_to_b():
    s = build_s()
    h = {e for copy in s.copies for e in _edges(copy, _J3_LINKS)}
    h |= {edge(s.b, copy["d"]) for copy in s.copies[:3]}  # b-d is in each piece
    ob = extract_obstruction(s, h)
    assert ob.kind == "j_member" and not (ob.graph.edges & h)
    assert {v for p in ob.pieces for v in p[2:]} <= {v for c in s.copies[3:] for v in c.values()}


def test_extract_obstruction_preconditions():
    s = build_s()
    a_edge = next(e for e in s.graph.edges if s.a in e)
    with pytest.raises(ArtifactError, match="^deleted set touches the protected handle end$"):
        extract_obstruction(s, {a_edge})
    # degree-4 deletion set at one vertex
    e_vertex = s.copies[0]["e"]
    too_many = {e for e in _edges(s.copies[0], _J3_FREE) if e_vertex in e}
    assert len(too_many) >= 4
    with pytest.raises(ArtifactError, match="^deleted set has maximum degree > 3$"):
        extract_obstruction(s, too_many)
    with pytest.raises(ArtifactError, match=r"^edge \('a', 'nope'\) not in the gadget$"):
        extract_obstruction(s, {("a", "nope")})
    # of several unknown edges, the least is named, whatever the hash order
    with pytest.raises(ArtifactError, match=r"^edge \('a', 'nope'\) not in the gadget$"):
        extract_obstruction(s, {("c", "qq"), ("a", "nope"), ("b", "zzz")})
    # a name that is not a string cannot be ordered against one that is
    for h in ({("a", 1)}, {(2, 1)}, {("a", "c"), (None, "b")}):
        with pytest.raises(ArtifactError, match="^deleted set holds a name that is not a string$"):
            extract_obstruction(s, h)
    # a member that is not a pair is refused before it is unpacked: a
    # two-letter string is not the edge of its letters
    for h in ({("s1c", "s1d", "x")}, {"s1cs1d"}, {5}, {"ab"}):
        with pytest.raises(ArtifactError, match="^deleted set holds a member that is not a pair of names$"):
            extract_obstruction(s, h)
    # a max-degree-3 set joins b to at most three copies, so only the
    # S-level rule itself can see four
    edges = sorted(s.graph.edges)
    joined = {edge(s.b, copy["c"]) for copy in s.copies[5:]}
    with pytest.raises(ArtifactError, match="^fewer than six clear copies; pigeonhole violated$"):
        gadgets._pigeonhole(s, gadgets._s_layouts(edges, (s,))[0], [e in joined for e in edges])
    # every link and an edge at each apex deleted, as only a set with a
    # vertex of degree > 3 does: only the per-copy rule itself can see it
    assert gadgets._extract_from_copy(s.copies[0], (1 << len(_J3_FREE)) - 1) is None


# extract_obstruction turns a name set into per-copy masks; the name-set
# reference in helpers gives the same obstruction, or raises the same
# exception with the same message, on any edge set

_S = build_s()
_S_EDGES = sorted(_S.graph.edges)
_S_PATH_EDGES = {e for copy in _S.copies for e in _edges(copy, _J3_LINKS)}
_S_B_JOINED = _S_PATH_EDGES | {edge(_S.b, copy["d"]) for copy in _S.copies[:3]}


# per J3 copy: every path link deleted, and at most one apex edge
_PIECE_MASKS = [15] + [15 | 1 << k for k in range(len(_J3_LINKS), len(_J3_FREE))]


@st.composite
def _s_deletions(draw):
    """Any edges of S; edges off a; or per J3 copy a random `_J3_FREE` mask
    or one that leaves no K4, and now and then one b-edge.  Then maybe each
    edge reversed, and now and then an edge not in S."""
    kind = draw(st.sampled_from(("any", "off_a", "masks", "pieces")))
    if kind == "any":
        h = draw(st.sets(st.sampled_from(_S_EDGES), max_size=12))
    elif kind == "off_a":
        h = draw(st.sets(st.sampled_from([e for e in _S_EDGES if _S.a not in e]), max_size=60))
    else:
        masks = st.integers(0, 4095) if kind == "masks" else st.sampled_from(_PIECE_MASKS)
        h = set()
        for copy in _S.copies:
            mask = draw(masks)
            h |= {e for k, e in enumerate(_edges(copy, _J3_FREE)) if mask >> k & 1}
            if draw(st.sampled_from([False] * 5 + [True])):
                h.add(edge(_S.b, copy[draw(st.sampled_from("cdefgjk"))]))
    if draw(st.booleans()):
        h = {(v, u) for u, v in h}
    if draw(st.sampled_from([False] * 9 + [True])):
        h.add((_S.a, "nope"))
    return h


def _outcome(extract, h):
    try:
        return extract(_S, set(h))
    except ArtifactError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_s_deletions())
@example(set())
@example(_S_PATH_EDGES)
@example(_S_B_JOINED)
@example({("c", "qq"), ("a", "nope"), ("b", "zzz")})
@example({("a", 1), ("a", "nope")})
@example({("s1c", "s1d", "x")})
@example({"s1cs1d"})
@example({5})
@example({"ab", ("a", 1)})
def test_extract_obstruction_matches_name_set_reference(h):
    assert _outcome(extract_obstruction, h) == _outcome(reference_extract_obstruction, h)


def test_sampled_verifiers_deterministic_and_passing():
    for target in ("theorem7", "theorem2", "corollary3"):
        r1 = verify_sampled(target, 10, seed=99)
        r2 = verify_sampled(target, 10, seed=99)
        assert r1.verdict, target
        assert r1.stats == r2.stats
        assert r1.seed == 99


def _kept_edges(edges, kept):
    """The edges at the positions `_random_max_degree_subgraph` kept."""
    return {e for e, k in zip(edges, kept) if k}


def _shuffled_greedy(triples, degrees, rng):
    """`_random_max_degree_subgraph` over a copy of the triples that
    rng.shuffle shuffled: the one-lane batch of the sampler's
    `Rng.shuffled_copies`."""
    order = list(triples)
    rng.shuffle(order)
    return _random_max_degree_subgraph(order, degrees)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=2**40),
)
def test_random_max_degree_subgraph_is_maximal(n, p, seed, mask):
    g = random_graph(n, p, seed)
    forbidden = {v for i, v in enumerate(g.vertices) if mask >> i & 1}
    edges = sorted(g.edges)
    triples, degrees = _indexed_host(g.vertices, edges, forbidden)
    kept, final = _shuffled_greedy(triples, degrees, Rng(seed))
    h = _kept_edges(edges, kept)
    assert h <= g.edges
    degree = dict.fromkeys(g.vertices, 0)
    for u, v in h:
        degree[u] += 1
        degree[v] += 1
    assert final == [3 if v in forbidden else degree[v] for v in g.vertices]
    assert max(degree.values()) <= 3
    assert not any(u in forbidden or v in forbidden for u, v in h)
    # maximal: every edge left out has a forbidden or a full endpoint
    for u, v in g.edges - h:
        assert u in forbidden or v in forbidden or degree[u] == 3 or degree[v] == 3, (u, v)


def _delete_every_j3_path_edge(monkeypatch):
    # every sample deletes the path links of every J3 copy: the host's
    # sorted edge list, recorded as it is indexed, names the positions
    path_edges = set()
    for s in (build_s(),) + build_g1()[1]:
        for copy in s.copies:
            path_edges.update(_edges(copy, _J3_LINKS))
    host_edges = []
    indexed_host = gadgets._indexed_host

    def recording_host(vertices, edges, forbidden):
        host_edges[:] = edges
        return indexed_host(vertices, edges, forbidden)

    def delete_path_edges(order, degrees):
        kept = bytearray(e in path_edges for e in host_edges)
        degree = list(degrees)
        for i, j, p in order:
            degree[i] += kept[p]
            degree[j] += kept[p]
        return kept, degree

    monkeypatch.setattr(gadgets, "_indexed_host", recording_host)
    monkeypatch.setattr(gadgets, "_random_max_degree_subgraph", delete_path_edges)


def test_sampled_obstructions_reach_the_member_recheck(monkeypatch):
    _delete_every_j3_path_edge(monkeypatch)
    for target in ("theorem2", "corollary3"):
        report = verify_sampled(target, 4, seed=3)
        assert report.verdict, target
        assert report.stats == {"samples": 4, "k4": 0, "j_member": 4}, target


def test_sampled_obstructions_fail_on_colorable_member(monkeypatch):
    _delete_every_j3_path_edge(monkeypatch)
    assemble = gadgets._assemble_member

    def colorable_lists(a, b, pieces):
        verts, g, _ = assemble(a, b, pieces)
        lists = {v: (f"{v}.1", f"{v}.2", f"{v}.3") for v in g.vertices}
        return verts, g, ListAssignment.build(lists)

    monkeypatch.setattr(gadgets, "_assemble_member", colorable_lists)
    for target in ("theorem2", "corollary3"):
        report = verify_sampled(target, 4, seed=3)
        assert not report.verdict, target
        assert "assembled member is 3-choosable after all" in report.detail
        assert report.stats["samples"] == 1


def test_sampled_obstructions_refuse_a_degree_above_3(monkeypatch):
    greedy = gadgets._random_max_degree_subgraph
    calls = []

    def one_vertex_over(order, degrees):
        calls.append(order)
        kept, degree = greedy(order, degrees)
        degree[-1] = 4
        return kept, degree

    monkeypatch.setattr(gadgets, "_random_max_degree_subgraph", one_vertex_over)
    for target in ("theorem2", "corollary3"):
        calls.clear()
        report = verify_sampled(target, 1, seed=3)
        assert not report.verdict, target
        assert report.detail == "sample 0: deleted set has maximum degree > 3", target
        assert (report.stats, report.seed, report.counterexample) == ({"samples": 1}, 3, None), target
        assert len(calls) == 1, target


def test_sampled_obstructions_report_a_quiet_center_missing(monkeypatch):
    # from the third sample on, a greedy that keeps every edge: every S
    # keeps an a-edge, so no S is quiet at its handle end
    greedy = gadgets._random_max_degree_subgraph
    calls = []

    def keep_all_from_the_third(order, degrees):
        calls.append(order)
        if len(calls) < 3:
            return greedy(order, degrees)
        return bytearray([1]) * len(order), list(degrees)

    monkeypatch.setattr(gadgets, "_random_max_degree_subgraph", keep_all_from_the_third)
    for target in ("theorem2", "corollary3"):
        calls.clear()
        report = verify_sampled(target, 5, seed=11)
        assert not report.verdict, target
        assert report.detail == "sample 2: center degree exceeds 3", target
        assert (report.stats, report.seed, report.counterexample) == ({"samples": 3}, 11, None), target
        # sampling stops at the first failure
        assert len(calls) == 3, target


def test_sampled_theorem7_reports_a_forest_that_kills_every_k4(monkeypatch):
    # one "K4" made of every edge of G2: any non-empty forest hits it
    monkeypatch.setattr(gadgets, "_k4_edge_sets", lambda g: [set(g.edges)])
    report = verify_sampled("theorem7", 5, seed=13)
    forest = random_star_forest(build_g2()[0], Rng(13).split(0))
    assert forest.edges
    assert not report.verdict
    assert report.detail == "sample 0: star forest kills every K4"
    assert (report.stats, report.seed) == ({"samples": 1}, 13)
    assert report.counterexample == sorted(list(e) for e in forest.edges)


def test_sampled_zero_is_vacuous_pass():
    report = verify_sampled("theorem2", 0, seed=1)
    assert report.verdict and report.stats["samples"] == 0
    assert "vacuous" in report.detail


def test_sampled_unknown_target():
    with pytest.raises(ArtifactError, match="^unknown target 'nosuch'$"):
        verify_sampled("nosuch", 1, seed=1)
    with pytest.raises(ArtifactError, match="^unknown target 'nosuch'$"):
        verify_sampled("nosuch", 0, seed=1)


# pinned gadget reports: any change to a builder, an exhaustive count, a
# sampled verdict or an extracted obstruction shows up as a different digest

GADGET_REPORT_DIGEST = "8659cd7143b0cbfdec75125fcbdc66cdc4518559fd6b91f6e3db7edbecb0714d"


def _obstruction_json(ob):
    return {
        "kind": ob.kind,
        "vertices": list(ob.vertices),
        "selector": ob.selector,
        "graph": None if ob.graph is None else graph_to_json_dict(ob.graph),
        "lists": None if ob.lists is None else ob.lists.to_json_dict(),
        "pieces": [list(p) for p in ob.pieces],
    }


def _pinned_gadget_reports():
    for name in ("J1", "J2", "J3", "S", "G1", "A", "D", "G2"):
        yield graph_to_json_dict(build_gadget(name))
    yield graph_to_json_dict(build_gadget("JFamily", "abbaba"))
    for verifier in (verify_lemma1_all, verify_lemma2, verify_lemma6, verify_theorem7_core):
        yield verifier().to_json_dict()
    for target in ("theorem2", "theorem7", "corollary3"):
        for seed in (5, 2027):
            yield verify_sampled(target, 30, seed).to_json_dict()
    s = build_s()
    yield _obstruction_json(extract_obstruction(s, set()))
    path_edges = {e for copy in s.copies for e in _edges(copy, _J3_LINKS)}
    yield _obstruction_json(extract_obstruction(s, path_edges))


def test_gadget_reports_match_pinned_digest():
    h = hashlib.sha256()
    for item in _pinned_gadget_reports():
        h.update(json.dumps(item, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == GADGET_REPORT_DIGEST


# pinned sample streams: the sampled reports above tally only obstruction
# kinds, and every sample they draw yields a K4, so their digest cannot
# see a changed deletion set or star forest; this one hashes the samples

SAMPLE_STREAM_DIGEST = "b1e72821b1f3ab65a267b536bcd6a8b745fef1d587699c0e87c5b6e13f16d34a"


def _sample_streams():
    g1 = build_gadget("G1")
    s = build_s()
    g2 = build_gadget("G2")
    for seed in range(200):
        for g, forbidden in ((g1, None), (s.graph, {s.a})):
            edges = sorted(g.edges)
            triples, degrees = _indexed_host(g.vertices, edges, forbidden)
            kept, _ = _shuffled_greedy(triples, degrees, Rng(seed))
            yield sorted(_kept_edges(edges, kept))
        forest = random_star_forest(g2, Rng(seed))
        yield [sorted(forest.edges), sorted(forest.centers)]


def test_sample_streams_match_pinned_digest():
    h = hashlib.sha256()
    for item in _sample_streams():
        h.update(json.dumps(item).encode() + b"\n")
    assert h.hexdigest() == SAMPLE_STREAM_DIGEST


# the sampling kernels draw through Rng.randrange and through the lockstep
# batches behind coins and shuffle; these references draw through next_u64
# one draw at a time and check the outputs and the generator's final state,
# which the digest above does not see

def _reference_randrange(rng, n):
    limit = (1 << 64) - 1 - (1 << 64) % n
    while True:
        x = rng.next_u64()
        if x <= limit:
            return x % n


def _reference_star_forest(g, rng):
    centers = {v for v in g.vertices if _reference_randrange(rng, 2) == 0}
    chosen = set()
    for v in g.vertices:
        if v in centers:
            continue
        options = [None] + [u for u in g.neighbors[v] if u in centers]
        pick = options[_reference_randrange(rng, len(options))]
        if pick is not None:
            chosen.add(edge(v, pick))
    return StarForest(frozenset(chosen), frozenset(centers))


def _reference_max_degree_subgraph(vertices, edges, rng, forbidden):
    order = list(edges)
    for i in range(len(order) - 1, 0, -1):
        j = _reference_randrange(rng, i + 1)
        order[i], order[j] = order[j], order[i]
    degree = dict.fromkeys(vertices, 0)
    for v in forbidden or ():
        degree[v] = 3
    out = set()
    for u, v in order:
        if degree[u] < 3 and degree[v] < 3:
            out.add((u, v))
            degree[u] += 1
            degree[v] += 1
    return out


def test_random_star_forest_matches_reference_and_final_state():
    g2 = build_gadget("G2")
    for seed in range(20):
        fast, ref = Rng(seed), Rng(seed)
        assert random_star_forest(g2, fast) == _reference_star_forest(g2, ref), seed
        assert fast.state == ref.state, seed


def test_random_max_degree_subgraph_matches_reference_and_final_state():
    s = build_s()
    for g, forbidden in ((build_g1()[0], None), (s.graph, {s.a})):
        edges = sorted(g.edges)
        triples, degrees = _indexed_host(g.vertices, edges, forbidden)
        for seed in range(10):
            fast, ref = Rng(seed), Rng(seed)
            kept, _ = _shuffled_greedy(triples, degrees, fast)
            h = _kept_edges(edges, kept)
            assert h == _reference_max_degree_subgraph(g.vertices, edges, ref, forbidden), seed
            assert fast.state == ref.state, seed


# pinned per-sample obstructions: which S gadget each theorem2 and
# corollary3 sample uses and what it extracts there, which neither digest
# above sees.  The package's position-based loop must equal the name-set
# reference in helpers sample by sample, and the digest pins the reference.

SAMPLE_OBSTRUCTION_DIGEST = "3fec8c07a310dad6db03e34d9c0a382a353f439903bebd04ead4236475a627ff"


def _sampling_hosts():
    s = build_s()
    yield "theorem2", (*build_g1(), None)
    yield "corollary3", (s.graph, (s,), {s.a})


def test_sampled_obstructions_match_name_set_reference():
    for target, host in _sampling_hosts():
        for seed in range(50):
            got = list(gadgets._sampled_obstructions(25, Rng(seed), *host))
            want = list(reference_sampled_obstructions(25, Rng(seed), *host))
            assert got == want, (target, seed)


def test_sampled_obstructions_match_name_set_reference_across_batches():
    # two full lockstep batches and a partial third: sample i still draws
    # from rng.split(i) alone
    n = 2 * gadgets._LANES + 5
    for target, host in _sampling_hosts():
        for seed in (3, 8):
            got = list(gadgets._sampled_obstructions(n, Rng(seed), *host))
            assert got == list(reference_sampled_obstructions(n, Rng(seed), *host)), (target, seed)


def test_sampled_forests_are_random_star_forests_across_batches(monkeypatch):
    # the lockstep center coins give sample i the forest that
    # random_star_forest draws from rng.split(i) alone
    seen = []
    check = gadgets.check_star_forest

    def recording_check(edges, centers, host_edges):
        seen.append(StarForest(edges, centers))
        return check(edges, centers, host_edges)

    monkeypatch.setattr(gadgets, "check_star_forest", recording_check)
    n = 2 * gadgets._LANES + 5
    assert verify_sampled("theorem7", n, seed=4).verdict
    g2 = build_g2()[0]
    assert seen == [random_star_forest(g2, Rng(4).split(i)) for i in range(n)]


def test_sampled_obstructions_lie_in_the_host_minus_the_deleted_set():
    # each sample's deleted set H is drawn again the way the sampler draws
    # it; a K4's six pairs and a member's edges must be host edges not in H
    for target, (host, s_gadgets, forbidden) in _sampling_hosts():
        edges = sorted(host.edges)
        triples, degrees = _indexed_host(host.vertices, edges, forbidden)
        for seed in range(50):
            samples = gadgets._sampled_obstructions(25, Rng(seed), host, s_gadgets, forbidden)
            for i, (t, ob) in enumerate(samples):
                deleted, _ = _shuffled_greedy(triples, degrees, Rng(seed).split(i))
                left = host.edges - _kept_edges(edges, deleted)
                where = (target, seed, i)
                assert t is not None, where
                if ob.kind == "k4":
                    pairs = {edge(u, v) for u, v in combinations(ob.vertices, 2)}
                    assert len(pairs) == 6 and pairs <= left, where
                else:
                    assert ob.graph.edges <= left, where


def test_sampled_obstructions_match_pinned_digest():
    h = hashlib.sha256()
    for target, host in _sampling_hosts():
        for seed in range(50):
            for t, ob in reference_sampled_obstructions(25, Rng(seed), *host):
                item = [target, seed, t, ob if t is None else _obstruction_json(ob)]
                h.update(json.dumps(item, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == SAMPLE_OBSTRUCTION_DIGEST
