"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every expected value here is either computed by an independent oracle in
testkit, derived by exhaustive enumeration, or a directly assertable
triviality; none are hard-coded guesses.
"""

import time

import pytest

from atforest.alon_tarsi import (
    at_number,
    eulerian_diff,
    poly_coefficient,
)
from atforest.choosability import (
    ListAssignment,
    build_lemma1_lists,
    is_l_colorable,
    verify_witness_not_k_choosable,
)
from atforest.decompose import decompose, verify_decomposition
from atforest.graph import Graph, Orientation
from atforest.gadgets import (
    verify_lemma2,
    verify_lemma6,
    verify_sampled,
    verify_theorem7_core,
)
from atforest.testkit import (
    Rng,
    random_graph,
    random_near_triangulation,
    random_orientation,
)
from helpers import brute_force_eulerian_diff_oracle, chromatic_number, subgraph_without_edges


def announce(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def all_selectors():
    for idx in range(64):
        yield "".join("ab"[idx >> j & 1] for j in range(6))


def test_c1_bad_lists_unforceable(capsys):
    """All 64 glued-gadget list assignments admit no proper coloring."""
    start = time.time()
    failures = []
    for word in all_selectors():
        g, lists = build_lemma1_lists(word)
        if not verify_witness_not_k_choosable(g, lists, 3).verdict:
            failures.append(word)
    elapsed = time.time() - start
    ok = not failures and elapsed < 10
    announce(capsys, "C1", ok, f"{64 - len(failures)}/64 selectors uncolorable in {elapsed:.2f}s (< 10 s)")


def test_c2_deletion_robustness_exhaustive(capsys):
    start = time.time()
    report = verify_lemma2()
    elapsed = time.time() - start
    ok = report.verdict and elapsed < 10
    announce(
        capsys, "C2", ok,
        f"{report.stats['cases_examined']} max-degree-3 deletions all leave K4 or an anchored piece in {elapsed:.2f}s (< 10 s)",
    )


def test_c3_star_forests_cannot_kill_k4_in_a(capsys):
    start = time.time()
    report = verify_lemma6()
    elapsed = time.time() - start
    ok = report.verdict and elapsed < 60
    announce(
        capsys, "C3", ok,
        f"{report.stats['cases_examined']} star-forest cases keep a K4 in {elapsed:.2f}s (< 60 s)",
    )


def test_c4_center_covered_deletions_and_sampled_star_forests(capsys):
    start = time.time()
    core = verify_theorem7_core()
    core_elapsed = time.time() - start
    start = time.time()
    sampled = verify_sampled("theorem7", 1000, seed=20260825)
    sample_elapsed = time.time() - start
    ok = core.verdict and core_elapsed < 60 and sampled.verdict and sample_elapsed < 60
    announce(
        capsys, "C4", ok,
        f"core {core.stats['cases_examined']} cases in {core_elapsed:.2f}s (< 60 s); "
        f"sampled {sampled.stats['samples']}/1000 K4 survivors in {sample_elapsed:.2f}s (< 60 s)",
    )


def test_c5_sampled_obstruction_extraction(capsys):
    start = time.time()
    report = verify_sampled("theorem2", 100, seed=424242)
    elapsed = time.time() - start
    ok = report.verdict and report.stats["samples"] == 100 and elapsed < 120
    announce(
        capsys, "C5", ok,
        f"100/100 samples produced verified obstructions "
        f"(K4: {report.stats.get('k4', 0)}, family members: {report.stats.get('j_member', 0)}) "
        f"in {elapsed:.2f}s (< 120 s)",
    )


def test_c6_decomposition_on_random_near_triangulations(capsys):
    rng = Rng(60606)
    bad = []
    parity_checked = 0
    big_elapsed = None
    start = time.time()
    for i in range(100):
        if i == 0:
            n, b = 500, 12  # pinned worst case for the timing bound
        elif i % 5 == 1:
            n = 4 + rng.randrange(9)  # small cases keep parity brute force feasible
            b = min(3 + rng.randrange(10), n)
        else:
            n = 4 + rng.randrange(497)
            b = min(3 + rng.randrange(10), n)
        pg = random_near_triangulation(n, b, seed=9000 + i)
        t0 = time.time()
        d = decompose(pg, (pg.outer_face[0], pg.outer_face[1]))
        if i == 0:
            big_elapsed = time.time() - t0
        if not verify_decomposition(pg, d).verdict:
            bad.append((n, b, i, "structural"))
        if len(d.orientation.arcs) <= 22:
            parity_checked += 1
            pc = eulerian_diff(d.orientation)
            if pc.diff != 1:
                bad.append((n, b, i, "parity"))
    elapsed = time.time() - start
    ok = not bad and big_elapsed < 5
    announce(
        capsys, "C6", ok,
        f"100/100 decompositions structurally valid, n=500 case {big_elapsed:.2f}s (< 5 s), "
        f"{parity_checked} small instances parity-exact, total {elapsed:.2f}s",
    )


def c7_graphs():
    for i in range(200):
        n = 4 + i % 4  # 4..7 vertices
        yield random_graph(n, 0.45, seed=7000 + i)


def test_c7_coefficient_equals_parity_difference(capsys):
    start = time.time()
    mismatches = 0
    checked = 0
    for gi, g in enumerate(c7_graphs()):
        m = len(g.edges)
        if m == 0:
            continue
        if 2 ** m <= 1000:
            orientations = []
            edges = sorted(g.edges)
            for mask in range(2 ** m):
                arcs = [
                    (u, v) if mask >> j & 1 == 0 else (v, u)
                    for j, (u, v) in enumerate(edges)
                ]
                orientations.append(Orientation.build(g, arcs))
        else:
            rng = Rng(7700 + gi)
            orientations = [random_orientation(g, rng) for _ in range(50)]
        for d in orientations:
            checked += 1
            if abs(poly_coefficient(g, d.out_degrees())) != abs(eulerian_diff(d).diff):
                mismatches += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and elapsed < 120
    announce(
        capsys, "C7", ok,
        f"{checked} orientations across 200 graphs, {mismatches} mismatches in {elapsed:.2f}s (< 120 s)",
    )


def test_c8_exact_values_and_chromatic_lower_bound(capsys):
    def cyc(names):
        return Graph.build(names, list(zip(names, names[1:])) + [(names[0], names[-1])])

    k4 = Graph.build("abcd", [(u, v) for i, u in enumerate("abcd") for v in "abcd"[i + 1 :]])
    exact_ok = (
        at_number(cyc("abc")) == 3
        and at_number(k4) == 4
        and at_number(cyc("abcd")) == 2
        and at_number(cyc("abcde")) == 3
    )
    violations = []
    for g in c7_graphs():
        if not g.edges:
            continue
        if at_number(g) < chromatic_number(g):
            violations.append(g)
    ok = exact_ok and not violations
    announce(
        capsys, "C8", ok,
        f"exact values (3, 4, 2, 3) confirmed; lower bound held on all criterion-7 graphs "
        f"({len(violations)} violations)",
    )


def test_c9_deletion_recurrence(capsys):
    checked = 0
    failures = 0
    attempt = 0
    while checked < 100:
        g = random_graph(3 + attempt % 4, 0.7, seed=9900 + attempt)
        attempt += 1
        if not g.edges or len(g.edges) > 12:
            continue
        d = random_orientation(g, Rng(555 + attempt))
        eta = d.out_degrees()
        u, v = sorted(g.edges)[attempt % len(g.edges)]
        rest = subgraph_without_edges(g, [(u, v)])
        parts = []
        for vertex in (v, u):
            reduced = dict(eta)
            reduced[vertex] -= 1
            parts.append(0 if reduced[vertex] < 0 else poly_coefficient(rest, reduced))
        if poly_coefficient(g, eta) != parts[0] - parts[1]:
            failures += 1
        checked += 1
    announce(capsys, "C9", failures == 0, f"recurrence exact on {checked}/100 triples ({failures} failures)")


def test_c10_downstream_three_lists_always_colorable(capsys):
    colors = ["c1", "c2", "c3", "c4", "c5", "c6"]
    colored = 0
    failures = 0
    for i in range(20):
        n = 4 + i % 9  # 4..12 vertices
        pg = random_near_triangulation(n, min(3 + i % 7, n), seed=1100 + i)
        d = decompose(pg, (pg.outer_face[0], pg.outer_face[1]))
        remainder = subgraph_without_edges(pg.graph, d.forest)
        rng = Rng(31337 + i)
        for _ in range(500):
            lists = {}
            for v in remainder.vertices:
                pool = colors[:]
                rng.shuffle(pool)
                lists[v] = pool[:3]
            if is_l_colorable(remainder, ListAssignment.build(lists)) is None:
                failures += 1
            else:
                colored += 1
    announce(
        capsys, "C10", failures == 0,
        f"{colored}/10000 random 3-list assignments on forest-removed remainders colorable",
    )


def test_c11_parity_oracle_equivalence(capsys):
    mismatches = 0
    checked = 0
    attempt = 0
    while checked < 500:
        g = random_graph(4 + attempt % 3, 0.55, seed=11000 + attempt)
        attempt += 1
        if len(g.edges) > 16:
            continue
        d = random_orientation(g, Rng(777 + attempt))
        if eulerian_diff(d) != brute_force_eulerian_diff_oracle(d):
            mismatches += 1
        checked += 1
    announce(capsys, "C11", mismatches == 0, f"{checked}/500 orientations agree with the independent oracle ({mismatches} mismatches)")
