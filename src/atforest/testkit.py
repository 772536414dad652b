"""Seeded generators for the CLI, the benchmark, tests and acceptance runs.

The PRNG is an in-repo xorshift64* so that streams are identical across
platforms and Python versions.  Substreams are derived with `split` so
concurrent consumers cannot perturb each other.  There is one scalar
step, `next_u64`, which `random` and `randrange` draw through; one batch
step, `lockstep`; and one seeding rule, `Rng(seed)`, which `split` uses.
`tests/test_testkit.py` pins batch draws, rejections and splits to
references written out over `next_u64` and splitmix64.

`Rng.lockstep` advances a list of generators together: each holds the low
half of its own 128-bit lane of one int, so one big-int xorshift step and
one product by the multiplier draw from every lane at once (a state and
the multiplier are both below 2**64, so their product stays in its lane).
`shuffled_copies` and `coin_lists` shuffle and toss coins over such a
batch; `shuffle` and `coins` are their one-lane batches.  A lane with a
draw that randrange might reject (one above the shuffle's fast-accept
bound, about one 940-item shuffle in 2**44) goes back to its original
state and draws its shuffle with `randrange`.
"""

from __future__ import annotations

import sys
from array import array

from .errors import ArtifactError
from .graph import Graph, Orientation, PlaneGraph, build_plane_graph, edge

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STAR = 0x2545F4914F6CDD1D  # xorshift64* output multiplier


def _splitmix64(x: int) -> int:
    z = (x + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class Rng:
    """xorshift64* with splitmix64 seeding."""

    def __init__(self, seed: int):
        s = _splitmix64(seed & _M64)
        self.state = s if s != 0 else _GOLDEN

    def next_u64(self) -> int:
        x = self.state
        x ^= (x >> 12)
        x ^= (x << 25) & _M64
        x ^= (x >> 27)
        self.state = x
        return (x * _STAR) & _M64

    def random(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ArtifactError("randrange needs n >= 1")
        # rejection sampling for an unbiased draw
        limit = _M64 - (_M64 + 1) % n
        while True:
            y = self.next_u64()
            if y <= limit:
                return y % n

    def coins(self, k: int) -> list:
        """k fair coins, each equal to randrange(2): a one-lane `coin_lists`."""
        return Rng.coin_lists([self], k)[0]

    def shuffle(self, items: list) -> None:
        """Fisher-Yates with j = randrange(n) for n from the top: a one-lane
        `shuffled_copies`."""
        items[:] = Rng.shuffled_copies([self], items)[0]

    @staticmethod
    def lockstep(rngs: list, steps: int) -> list:
        """Per generator in `rngs`, its next `steps` draws, as a 'Q'
        memoryview into one buffer of every draw, with every generator
        advanced together and left in the state its scalar draws leave.
        Within a lane of x the state is the low 64 bits, so each shift is
        masked back to them (`low`)."""
        lanes = len(rngs)
        width = 16 * lanes
        low = int.from_bytes((b"\xff" * 8 + bytes(8)) * lanes, "little")
        x = sum(r.state << 128 * i for i, r in enumerate(rngs))
        star = _STAR
        rows = array("Q", [0]) * (2 * lanes * steps)
        view = memoryview(rows).cast("B")
        for o in range(0, width * steps, width):
            x ^= x >> 12 & low
            x ^= x << 25 & low
            x ^= x >> 27 & low
            view[o:o + width] = (x * star).to_bytes(width, "little")
        if sys.byteorder == "big": rows.byteswap()  # written little-endian
        for i, r in enumerate(rngs):
            r.state = x >> 128 * i & _M64
        # a row holds each lane's draw in its low word and 0 in its high one
        return [memoryview(rows)[2 * i::2 * lanes] for i in range(lanes)]

    @staticmethod
    def shuffled_copies(rngs: list, items: list) -> list:
        """Per generator in `rngs`, a copy of `items` shuffled by Fisher-Yates
        with j = randrange(n) for n from the top, drawn in lockstep.  Every
        rejection limit M64 - 2**64 % n with n <= len(items) exceeds `safe`,
        so a lane with no draw above it takes each draw as is; any other lane
        goes back to its saved state and draws with randrange."""
        states = [r.state for r in rngs]
        safe = _M64 - len(items)
        top = range(len(items), 1, -1)
        out = []
        for r, state, draws in zip(rngs, states, Rng.lockstep(rngs, max(len(items) - 1, 0))):
            if max(draws, default=0) > safe:
                r.state = state
                draws = [r.randrange(n) for n in top]
            order = list(items)
            for n, y in zip(top, draws):
                j = y % n
                order[n - 1], order[j] = order[j], order[n - 1]
            out.append(order)
        return out

    @staticmethod
    def coin_lists(rngs: list, k: int) -> list:
        """Per generator in `rngs`, k fair coins, each equal to randrange(2)
        (which never rejects), drawn in lockstep: a coin is its draw's low
        bit, the state's, as `_STAR` is odd."""
        return [[y & 1 for y in draws] for draws in Rng.lockstep(rngs, k)]

    def split(self, label: int) -> "Rng":
        return Rng(self.state ^ _splitmix64(label & _M64))


def _vertex_names(n: int) -> list:
    width = max(3, len(str(max(n - 1, 0))))
    return [f"v{i:0{width}d}" for i in range(n)]


def random_near_triangulation(n: int, boundary_len: int, seed: int) -> PlaneGraph:
    """Random ear-triangulated polygon with random interior vertex stacking.

    The result has a simple boundary cycle of the requested length, all
    interior faces triangles, and exactly 3n - 3 - boundary_len edges.
    """
    if n < 3 or boundary_len < 3 or boundary_len > n:
        raise ArtifactError(f"need 3 <= boundary_len <= n, got n={n}, b={boundary_len}")
    rng = Rng(seed)
    names = _vertex_names(n)
    poly = names[:boundary_len]

    triangles: list = []

    def triangulate(chain: list) -> None:
        # chain is an oriented polygon; interior triangles keep its direction
        stack = [chain]
        while stack:
            p = stack.pop()
            m = len(p)
            if m == 3:
                triangles.append((p[0], p[1], p[2]))
                continue
            k = 1 + rng.randrange(m - 2)
            triangles.append((p[m - 1], p[0], p[k]))
            if k >= 2:
                stack.append(p[: k + 1])
            if m - 1 - k >= 2:
                stack.append(p[k:])

    triangulate(poly)
    for name in names[boundary_len:]:
        i = rng.randrange(len(triangles))
        a, b, c = triangles[i]
        triangles[i] = (a, b, name)
        triangles.append((b, c, name))
        triangles.append((c, a, name))

    outer = (poly[0],) + tuple(reversed(poly[1:]))
    return plane_graph_from_triangles(names, triangles, outer)


def plane_graph_from_triangles(vertices: list, triangles: list, outer: tuple) -> PlaneGraph:
    """Assemble a PlaneGraph from consistently oriented interior triangles
    plus the outer walk (oriented oppositely)."""
    succ: dict = {v: {} for v in vertices}

    def corner(a: str, b: str, c: str) -> None:
        # darts a->b then b->c in one face: c follows a in the rotation at b
        succ[b][a] = c

    for a, b, c in triangles:
        corner(a, b, c)
        corner(b, c, a)
        corner(c, a, b)
    k = len(outer)
    for i in range(k):
        corner(outer[i], outer[(i + 1) % k], outer[(i + 2) % k])

    rotation = {}
    for v in vertices:
        chain = succ[v]
        if not chain:
            rotation[v] = ()
            continue
        start = min(chain)
        order = [start]
        cur = chain[start]
        while cur != start:
            order.append(cur)
            cur = chain[cur]
        rotation[v] = tuple(order)

    edges = set()
    for a, b, c in triangles:
        edges |= {edge(a, b), edge(b, c), edge(c, a)}
    return build_plane_graph(vertices, edges, rotation, outer)


def random_graph(n: int, edge_probability: float, seed: int) -> Graph:
    """Erdos-Renyi style simple graph, deterministic per seed."""
    if n < 1 or not (0.0 <= edge_probability <= 1.0):
        raise ArtifactError(f"bad parameters n={n}, p={edge_probability}")
    rng = Rng(seed)
    names = _vertex_names(n)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_probability:
                edges.append((names[i], names[j]))
    return Graph.build(names, edges)


def random_orientation(g: Graph, rng: Rng) -> Orientation:
    edges = sorted(g.edges)
    arcs = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, rng.coins(len(edges)))]
    return Orientation.build(g, arcs)
