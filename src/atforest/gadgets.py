"""Planar gadget constructions and their machine verifications.

The pieces, glued along designated handle edges:

* J1/J2: 4-wheels sharing handle ab; six of them glued on ab form the
  family whose members are never 3-choosable.
* J3: ab joined to a 5-path c-d-e-f-g, with four apexes h, i, j, k, each
  adjacent to one of a/b and a consecutive path pair.  Deleting any
  max-degree-3 set of edges away from a, b leaves K4 or an anchored J1/J2.
* S: nine J3's glued on ab.  G1: a 4-star at c, one S per star edge.
* A: x, y adjacent and complete to three disjoint 4-paths; star forests
  centered away from x, y always leave a K4.
* D: K4 plus one apex per face.  G2: one A glued on each of D's 18 edges;
  no star forest of G2 can kill every K4.

J3, A and D are role tables, lists of edges over role names (`_J3`,
`_A`, `_D`).  A copy of one is a dict from role to vertex name: the
handle roles a and b take the names of the edge the copy is glued on,
every other role is prefix + role.  `_glue` builds J3, S, A, D and G2
with one `Graph.build` over their copies' renamed edges; G1 is the union
of its four S graphs.  J1/J2 are `choosability._assemble_member` with one
piece.

Exhaustive verification where the space is small (J3 subsets, A star
forests, D center configurations); the glued giants are checked through
the pigeonhole reduction plus seeded random sampling.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product
from math import prod
from operator import itemgetter
from typing import Optional

from .check import check_star_forest
from .choosability import (
    ListAssignment,
    _assemble_member,
    build_lemma1_lists,
    verify_witness_not_k_choosable,
)
from .errors import ArtifactError
from .graph import Graph, edge, k4s
from .report import VerificationReport
from .testkit import Rng


# ---------------------------------------------------------------------------
# star forests

@dataclass(frozen=True)
class StarForest:
    edges: frozenset  # frozenset[Edge]
    centers: frozenset  # designated star centers (covers K2 components)


def random_star_forest(g: Graph, rng: Rng) -> StarForest:
    """Random center election, one coin per vertex, then the leaf draws of
    `_star_forest`."""
    return _star_forest(g, rng.coins(len(g.vertices)), rng)


def _star_forest(g: Graph, coins, rng: Rng) -> StarForest:
    """Centers at the vertices whose coin is 0, then each non-center
    greedily picks at most one adjacent center: k = randrange(1 + its
    adjacent centers) picks none at k = 0."""
    vertices = g.vertices
    centers = {v for v, coin in zip(vertices, coins) if not coin}
    chosen = set()
    neighbors = g.neighbors
    for v in vertices:
        if v in centers:
            continue
        options = [u for u in neighbors[v] if u in centers]
        k = rng.randrange(len(options) + 1)
        if k:
            u = options[k - 1]
            chosen.add((v, u) if v < u else (u, v))
    return StarForest(frozenset(chosen), frozenset(centers))


# ---------------------------------------------------------------------------
# builders

_J3_PATH = "cdefg"
# apex -> (attachment, consecutive path pair)
_J3_APEXES = {"h": ("a", "d", "e"), "i": ("a", "e", "f"),
              "j": ("b", "d", "e"), "k": ("b", "e", "f")}
_J3_LINKS = list(zip(_J3_PATH, _J3_PATH[1:]))
# the twelve edges touching neither a nor b, in Lemma 2's bit order
_J3_FREE = _J3_LINKS + [(m, r) for m, (_, p, q) in _J3_APEXES.items() for r in (p, q)]
_J3 = ([("a", "b")] + [(end, r) for r in _J3_PATH for end in "ab"] + _J3_FREE
       + [(m, attach) for m, (attach, _, _) in _J3_APEXES.items()])
# the edges at a and at b (ab in both): a deleted b-edge joins b to its copy
_J3_AT_A, _J3_AT_B = ([e for e in _J3 if end in e] for end in "ab")

_A_PATHS = [tuple(f"{i}{j}" for j in range(1, 5)) for i in range(1, 4)]
_A = ([("a", "b")] + [link for p in _A_PATHS for link in zip(p, p[1:])]
      + [(end, r) for p in _A_PATHS for r in p for end in "ab"])

# the K4 on a, b, c, d, and an apex z<face> joined to each face's three vertices
_D = (list(combinations("abcd", 2))
      + [("z" + "".join(face), v) for face in combinations("abcd", 3) for v in face])


def _copy(table: list, a: str, b: str, prefix: str) -> dict:
    roles = dict.fromkeys(r for pair in table for r in pair)
    return {r: a if r == "a" else b if r == "b" else prefix + r for r in roles}


def _edges(copy: dict, table: list) -> list:
    return [edge(copy[p], copy[q]) for p, q in table]


def _glue(table: list, copies) -> Graph:
    """One graph from the renamed table edges of every copy."""
    edges = set()
    for copy in copies:
        edges.update(_edges(copy, table))
    return Graph.build({v for e in edges for v in e}, edges)


def build_j3() -> tuple:
    copy = _copy(_J3, "a", "b", "")
    return _glue(_J3, [copy]), copy


@dataclass(frozen=True)
class SGadget:
    graph: Graph
    a: str
    b: str
    copies: tuple  # 9 J3 role dicts


def build_s(a: str = "a", b: str = "b", prefix: str = "s") -> SGadget:
    copies = tuple(_copy(_J3, a, b, f"{prefix}{j}") for j in range(1, 10))
    return SGadget(_glue(_J3, copies), a, b, copies)


def build_g1() -> tuple:
    """A 4-star at c with one S per star edge c-v_i, handle end a = c:
    the glued graph and its four S gadgets."""
    s_gadgets = tuple(build_s("c", f"v{i}", prefix=f"g{i}s") for i in range(1, 5))
    # the union of the four S graphs, each already built and checked
    vertices = sorted({v for s in s_gadgets for v in s.graph.vertices})
    return Graph(tuple(vertices), frozenset().union(*(s.graph.edges for s in s_gadgets))), s_gadgets


def build_a(x: str = "x", y: str = "y", prefix: str = "p") -> dict:
    """The role dict of an A glued on xy: its handle roles a, b are x, y."""
    return _copy(_A, x, y, prefix)


def build_d() -> Graph:
    return _glue(_D, [_copy(_D, "a", "b", "")])


def build_g2() -> tuple:
    """One A glued on each edge of D, with that edge as its handle: the
    glued graph and the A role dicts.  The handles cover D."""
    copies = [build_a(u, v, prefix=f"A_{u}_{v}_p") for u, v in sorted(build_d().edges)]
    return _glue(_A, copies), copies


_GADGET_BUILDERS = {
    "J1": lambda: _assemble_member("a", "b", [("a", "c", "e", "d")])[1],
    "J2": lambda: _assemble_member("a", "b", [("b", "c", "e", "d")])[1],
    "J3": lambda: build_j3()[0],
    "S": lambda: build_s().graph,
    "G1": lambda: build_g1()[0],
    "A": lambda: _glue(_A, [build_a()]),
    "D": build_d,
    "G2": lambda: build_g2()[0],
}


def build_gadget(gadget_id: str, selector: Optional[str] = None) -> Graph:
    """Gadget graph by name; JFamily needs a length-6 selector over {a,b}."""
    if gadget_id.lower() == "jfamily":
        if selector is None:
            raise ArtifactError("JFamily needs --selector, a length-6 word over {a,b}")
        return build_lemma1_lists(selector)[0]
    builder = _GADGET_BUILDERS.get(gadget_id.upper())
    if builder is None:
        raise ArtifactError(f"unknown gadget {gadget_id!r}")
    if selector is not None:
        raise ArtifactError(f"only JFamily takes a selector, not {gadget_id!r}")
    return builder()


# ---------------------------------------------------------------------------
# per-copy extraction inside a J3 whose handle-incident edges survive

@dataclass
class Obstruction:
    kind: str  # "k4" | "j_member"
    vertices: tuple
    selector: str = ""
    graph: Optional[Graph] = None
    lists: Optional[ListAssignment] = None
    pieces: tuple = ()


def _k4_edge_sets(g: Graph) -> list:
    # k4s yields sorted quadruples, so every pair is already an edge
    return [set(combinations(q, 2)) for q in k4s(g)]


def _extract_from_copy(copy: dict, mask: int):
    """K4 or a surviving J1/J2 piece inside one J3 copy whose a- and
    b-incident edges survive, else None (a deleted vertex of degree > 3).
    `mask` marks the copy's deleted `_J3_FREE` edges in Lemma 2's bit
    order: the path links in bits 0-3, then each apex's two path edges."""
    for bit, (p, q) in enumerate(_J3_LINKS):
        if not mask >> bit & 1:
            return ("k4", (copy["a"], copy["b"], copy[p], copy[q]))
    for t, (m, (attach, p, q)) in enumerate(_J3_APEXES.items()):
        if not mask >> (len(_J3_LINKS) + 2 * t) & 3:
            return ("j", attach, copy[p], copy[q], copy[m])
    return None


def _s_layouts(edges: list, s_gadgets) -> list:
    """Each S gadget laid out on the positions of the sorted edge list
    `edges`: a getter of its a-edges, and per J3 copy a getter of its
    b-edges and the positions of its `_J3_FREE` edges in bit order."""
    position = {e: p for p, e in enumerate(edges)}
    return [
        (itemgetter(*{position[e] for copy in s.copies for e in _edges(copy, _J3_AT_A)}),
         [itemgetter(*(position[e] for e in _edges(copy, _J3_AT_B))) for copy in s.copies],
         [[position[e] for e in _edges(copy, _J3_FREE)] for copy in s.copies])
        for s in s_gadgets
    ]


def _pigeonhole(s: SGadget, layout: tuple, deleted) -> Obstruction:
    """The reduction on S (`layout` from `_s_layouts`, `deleted` 1 at each
    deleted edge, of maximum degree <= 3): at least six J3 copies must be
    clear, joined to b by no deleted edge; in order they give a K4 or the
    first six pieces, assembled into a family member with its bad lists."""
    _, b_edges, free = layout
    clear = [j for j, b in enumerate(b_edges) if not any(b(deleted))]
    if len(clear) < 6:
        raise ArtifactError("fewer than six clear copies; pigeonhole violated")

    pieces = []
    for j in clear:
        got = _extract_from_copy(s.copies[j], sum(deleted[p] << k for k, p in enumerate(free[j])))
        if got[0] == "k4":
            return Obstruction("k4", got[1])
        pieces.append(got)
        if len(pieces) == 6:
            break

    verts, witness, lists = _assemble_member(
        s.a, s.b, [(attach, p, q, m) for _, attach, p, q, m in pieces]
    )
    selector = "".join(attach for _, attach, _, _, _ in pieces)
    return Obstruction("j_member", tuple(verts), selector, witness, lists, tuple(pieces))


def extract_obstruction(s: SGadget, h: set) -> Obstruction:
    """Apply the pigeonhole reduction to an S gadget: pick at least six J3
    copies whose b-incident edges avoid h, extract per copy, and return a
    K4 or an assembled six-piece family member with its bad lists."""
    if any(type(e) is not tuple or len(e) != 2 for e in h):
        raise ArtifactError("deleted set holds a member that is not a pair of names")
    if any(type(v) is not str for e in h for v in e):
        raise ArtifactError("deleted set holds a name that is not a string")
    h = {edge(u, v) for u, v in h}
    unknown = h - s.graph.edges
    if unknown:
        raise ArtifactError(f"edge {min(unknown)} not in the gadget")
    if any(s.a in e for e in h):
        raise ArtifactError("deleted set touches the protected handle end")
    if max(Counter(v for e in h for v in e).values(), default=0) > 3:
        raise ArtifactError("deleted set has maximum degree > 3")
    edges = sorted(s.graph.edges)
    return _pigeonhole(s, _s_layouts(edges, (s,))[0], bytearray(e in h for e in edges))


# ---------------------------------------------------------------------------
# exhaustive verifiers

def verify_lemma1(selector: str) -> VerificationReport:
    """The glued six-piece gadget with its constructed 3-lists admits no
    proper coloring."""
    g, lists = build_lemma1_lists(selector)
    rep = verify_witness_not_k_choosable(g, lists, 3)
    rep.stats["selector"] = selector
    return rep


def verify_lemma1_all() -> VerificationReport:
    """verify_lemma1 over all 64 attachment words."""
    words = ["".join("ab"[i >> j & 1] for j in range(6)) for i in range(64)]
    fails = [w for w in words if not verify_lemma1(w).verdict]
    return VerificationReport(
        not fails,
        "all 64 selectors verified" if not fails else "selectors failed",
        counterexample=fails or None,
        stats={"cases_examined": 64},
    )


def verify_lemma2() -> VerificationReport:
    """Exhaustive over all max-degree-3 subsets H of the 12 J3 edges not
    touching a or b: J3 - E(H) contains K4 or an anchored J1/J2 piece.

    H is a 12-bit mask over the copy's `_J3_FREE` edges.  Its degree at a
    vertex is the bit count of the mask against the vertex's incident-edge
    mask (only a vertex on more than three free edges can exceed 3), and a
    K4 survives when the mask misses the K4's edges.  The cases that hit
    every K4 go to `_extract_from_copy` as masks.
    """
    g, copy = build_j3()
    free = _edges(copy, _J3_FREE)
    bits = {e: 1 << i for i, e in enumerate(free)}
    incident: dict = {}
    for (u, v), b in bits.items():
        incident[u] = incident.get(u, 0) | b
        incident[v] = incident.get(v, 0) | b
    cases = range(1 << len(free))
    for m in incident.values():
        if m.bit_count() > 3:  # on four or more free edges
            cases = [mask for mask in cases if (mask & m).bit_count() <= 3]
    # the cases that hit every K4 must leave an anchored piece
    no_k4 = cases
    for es in _k4_edge_sets(g):
        c = sum(bits.get(e, 0) for e in es)
        no_k4 = [mask for mask in no_k4 if mask & c]
    for mask in no_k4:
        got = _extract_from_copy(copy, mask)
        if got is None or got[0] != "j":
            return VerificationReport(
                False,
                "no K4 and no anchored J1/J2 piece",
                counterexample=sorted(list(e) for e, b in bits.items() if mask & b),
                stats={"cases_examined": cases.index(mask) + 1},
            )
    return VerificationReport(
        True,
        "every deletion leaves K4 or an anchored piece",
        stats={"cases_examined": len(cases), "k4": len(cases) - len(no_k4),
               "j_piece": len(no_k4)},
    )


def _path_configs() -> list:
    """The (center mask, link mask) pairs of one 4-path that are locally
    consistent with a star forest (each chosen link joins a center to a
    leaf, no leaf twice); bit i is position i, or link i = (i, i + 1)."""
    configs = []
    for centers in product((0, 1), repeat=4):
        for picks in product((0, 1), repeat=3):
            links = [i for i in range(3) if picks[i]]
            # link i's leaf is i + 1 when position i is its center
            leaves = {i + centers[i] for i in links if centers[i] != centers[i + 1]}
            if len(leaves) == len(links):
                configs.append((sum(c << i for i, c in enumerate(centers)),
                                sum(p << i for i, p in enumerate(picks))))
    return configs


def verify_lemma6() -> VerificationReport:
    """Exhaustive over all star forests of A whose centers avoid x and y.

    A forest is x's leaf edge, y's leaf edge and one configuration per
    4-path, chosen independently, and a case fails only if every path
    blocks, that is, kills each K4 {x, y, u, v} on it.  The paths share one
    `_path_configs` table: on a path, the entries that center its ends
    `need` fit, and a fit that takes every link no end touches blocks.
    An end is bit 4k + i for position i of path k, or 0 for none.
    Two ends leave a path without one, where only an entry taking all
    three links blocks; so if any case fails, the first (no ends) fails,
    on the table's first such entry, and the verdict is whether it exists.
    """
    table = _path_configs()
    blocking = next((c for c, links in table if links == 0b111), None)
    if blocking is not None:
        a = build_a()
        paths = [[a[r] for r in p] for p in _A_PATHS]
        return VerificationReport(
            False, "a star forest kills every K4 candidate",
            counterexample={"forest": sorted(list(edge(p[i], p[i + 1])) for p in paths for i in range(3)),
                            "centers": sorted(p[i] for p in paths for i in range(4) if blocking >> i & 1)},
            stats={"cases_examined": len(table) ** len(_A_PATHS)},
        )
    fits = [sum(c & need == need for c, _ in table) for need in range(16)]
    attach_options = [0] + [1 << j for j in range(4 * len(_A_PATHS))]
    examined = sum(prod(fits[(cx | cy) >> 4 * k & 15] for k in range(len(_A_PATHS)))
                   for cx in attach_options for cy in attach_options)
    return VerificationReport(
        True,
        "K4 survives every star forest with centers off the handle",
        stats={"cases_examined": examined},
    )


def verify_theorem7_core() -> VerificationReport:
    """Exhaustive over center sets C covering every edge of D and leaf-edge
    sets F crossing C, with each leaf used once: D - F keeps a K4.

    C is a mask over D's vertices and F a mask over its edges, so a K4
    survives when F misses the K4's edges."""
    g = build_d()
    verts = list(g.vertices)
    vbit = {v: 1 << i for i, v in enumerate(verts)}
    ebit = {e: 1 << i for i, e in enumerate(sorted(g.edges))}
    center_sets = range(1 << len(verts))
    for u, v in g.edges:
        cover = vbit[u] | vbit[v]
        center_sets = [c for c in center_sets if c & cover]
    cliques = [sum(ebit[e] for e in es) for es in _k4_edge_sets(g)]
    examined = 0
    for bits in center_sets:
        leaf_options = [
            # sorted neighbours give the edges at v in sorted order
            [0] + [ebit[edge(v, u)] for u in g.neighbors[v] if vbit[u] & bits]
            for v in verts if not vbit[v] & bits
        ]
        for picks in product(*leaf_options):
            forest = sum(picks)
            examined += 1
            if all(forest & c for c in cliques):
                return VerificationReport(
                    False,
                    "a center configuration kills every K4",
                    counterexample={
                        "centers": [v for v in verts if vbit[v] & bits],
                        "forest": sorted(list(e) for e, b in ebit.items() if forest & b),
                    },
                    stats={"cases_examined": examined},
                )
    return VerificationReport(
        True,
        "K4 survives every center-covered deletion",
        stats={"cases_examined": examined},
    )


# ---------------------------------------------------------------------------
# seeded sampling over the glued giants

def _indexed_host(vertices, edges: list, forbidden: Optional[set]) -> tuple:
    """The host for `_random_max_degree_subgraph`: its sorted edge list
    `edges` as (i, j, p) triples, the positions of the ends in `vertices`
    and of the edge in `edges`, and the starting degrees, 3 at a forbidden
    vertex (a full vertex takes no edge) and 0 elsewhere."""
    index = {v: i for i, v in enumerate(vertices)}
    triples = [(index[u], index[v], p) for p, (u, v) in enumerate(edges)]
    forbidden = forbidden or ()
    return triples, [3 if v in forbidden else 0 for v in vertices]


def _random_max_degree_subgraph(order: list, degrees: list) -> tuple:
    """Greedy maximal edge set with all degrees <= 3 over `order`, a
    shuffled copy of an `_indexed_host`'s triples, from its starting
    degrees: a bytearray with 1 at each kept edge's position, and the
    final degrees."""
    degree = list(degrees)
    kept = bytearray(len(order))
    for i, j, p in order:
        du = degree[i]
        if du < 3:
            dv = degree[j]
            if dv < 3:
                kept[p] = 1
                degree[i] = du + 1
                degree[j] = dv + 1
    return kept, degree


def verify_sampled(target: str, n: int, seed: int) -> VerificationReport:
    """Seeded random sampling over the constructions too large to exhaust.
    Each sample's outcome from `_SAMPLERS[target]` is a tally key and None,
    or a problem and its counterexample, which ends the run with FAIL."""
    if target not in _SAMPLERS:
        raise ArtifactError(f"unknown target {target!r}")
    if n < 0:
        raise ArtifactError("sample count must be non-negative")
    if n == 0:
        return VerificationReport(
            True, "vacuous pass: zero samples requested", stats={"samples": 0}, seed=seed
        )
    sampler, keys, passed = _SAMPLERS[target]
    tally = dict.fromkeys(keys, 0)
    for i, (outcome, counterexample) in enumerate(sampler(n, Rng(seed))):
        if outcome not in tally:
            return VerificationReport(
                False, f"sample {i}: {outcome}", counterexample=counterexample,
                stats={"samples": i + 1}, seed=seed,
            )
        tally[outcome] += 1
    return VerificationReport(True, passed, stats={"samples": n, **tally}, seed=seed)


_LANES = 32  # samples whose streams one `Rng.lockstep` batch advances


def _substream_batches(n: int, rng: Rng):
    """The substreams rng.split(i) for i < n, `_LANES` at a time."""
    for start in range(0, n, _LANES):
        yield [rng.split(i) for i in range(start, min(n, start + _LANES))]


def _forest_outcomes(n: int, rng: Rng):
    """Per sample i, `random_star_forest(g2, rng.split(i))`, its center
    coins drawn in lockstep with the rest of its batch: "survivors" if it
    is a star forest that misses some K4, else the problem and its edges."""
    g2 = build_g2()[0]
    cliques = _k4_edge_sets(g2)
    forests = (_star_forest(g2, coins, r)
               for rngs in _substream_batches(n, rng)
               for r, coins in zip(rngs, Rng.coin_lists(rngs, len(g2.vertices))))
    for forest in forests:
        valid = check_star_forest(forest.edges, forest.centers, g2.edges)
        if valid.verdict and any(es.isdisjoint(forest.edges) for es in cliques):
            yield "survivors", None
        else:
            problem = ("star forest kills every K4" if valid.verdict
                       else f"sampled edge set is not a star forest: {valid.detail}")
            yield problem, sorted(list(e) for e in forest.edges)


def _deletion_outcomes(n: int, rng: Rng, host: Graph, s_gadgets: tuple, forbidden: Optional[set]):
    """Per sample of `_sampled_obstructions`, its obstruction's kind, a
    j_member once `verify_witness_not_k_choosable` re-checks its lists;
    else the problem and its counterexample."""
    for t, obstruction in _sampled_obstructions(n, rng, host, s_gadgets, forbidden):
        if t is None:
            yield obstruction, None
        elif obstruction.kind == "k4":
            yield "k4", None
        else:
            recheck = verify_witness_not_k_choosable(obstruction.graph, obstruction.lists, 3)
            yield (("j_member", None) if recheck.verdict
                   else ("assembled member is 3-choosable after all", recheck.counterexample))


# target -> (sampler of per-sample outcomes from (n, rng), tally keys, PASS
# detail).  theorem2: random maximal max-degree-3 subgraphs of G1, the
# obstruction extracted through the quiet S copy at the star center.
# theorem7: random star forests of G2, K4 survival.  corollary3: random
# deletions on a single S avoiding its handle end a.
_SAMPLERS = {
    "theorem2": (lambda n, rng: _deletion_outcomes(n, rng, *build_g1(), None),
                 ("k4", "j_member"), "every sample produced a verified obstruction"),
    "theorem7": (_forest_outcomes, ("survivors",), "K4 survived every sampled star forest"),
    "corollary3": (lambda n, rng: _deletion_outcomes(n, rng, (s := build_s()).graph, (s,), {s.a}),
                   ("k4", "j_member"), "every sample produced an obstruction"),
}


def _sampled_obstructions(n: int, rng: Rng, host: Graph, s_gadgets: tuple,
                          forbidden: Optional[set]):
    """Per sample i, a random maximal max-degree-3 deletion from the host
    drawn from rng.split(i), its shuffle drawn in lockstep with the rest of
    its batch: the index of the first S gadget whose handle end a keeps all
    its edges and its obstruction, or None and the reason there is none: a
    vertex of degree > 3, or no such S."""
    edges = sorted(host.edges)
    triples, degrees = _indexed_host(host.vertices, edges, forbidden)
    layouts = _s_layouts(edges, s_gadgets)
    orders = (order for rngs in _substream_batches(n, rng)
              for order in Rng.shuffled_copies(rngs, triples))
    for order in orders:
        deleted, degree = _random_max_degree_subgraph(order, degrees)
        t = next((t for t, (a_edges, _, _) in enumerate(layouts) if not any(a_edges(deleted))), None)
        if max(degree) > 3:
            yield None, "deleted set has maximum degree > 3"
        elif t is None:
            yield None, "center degree exceeds 3"
        else:
            yield t, _pigeonhole(s_gadgets[t], layouts[t], deleted)
