"""Seeded input families for the benchmark.

The generators build on the public testkit helpers
(`plane_graph_from_triangles`, `Rng`); the random near-triangulations
themselves come from `testkit.random_near_triangulation`.  The benchmark
serializes every plane graph to the JSON text the CLI reads.

* `fan(n)`: apex v0 joined to the path v1 .. v(n-1).  Every interior edge
  is a boundary chord, and with the handle on the apex the recursion nests
  n deep.
* `zigzag_strip(n, rng)`: two boundary paths joined by a seeded zigzag of
  rungs, so all interior edges are nested chords.
* `sparse_subgraph_json(pg, rng, keep)`: a connected plane subgraph of a
  near-triangulation that keeps a BFS spanning tree and every boundary
  edge, drops other edges, and restricts the rotation system, so the outer
  walk stays a face.
"""

from __future__ import annotations

import json
import math

import atforest.testkit as testkit
from atforest.graph import edge


def _vertex_names(n: int) -> list:
    width = max(3, len(str(max(n - 1, 0))))
    return [f"v{i:0{width}d}" for i in range(n)]


def log_spaced_sizes(count: int, lo: int, hi: int) -> list:
    """`count` sizes spread log-uniformly over [lo, hi], at the midpoints
    of equal-width strata of log n.  They do not depend on the seed, so
    every seed does the same amount of size-driven work and the seed only
    varies the graphs themselves."""
    span = math.log(hi) - math.log(lo)
    return [
        int(round(math.exp(math.log(lo) + span * (i + 0.5) / count)))
        for i in range(count)
    ]


def _outerplanar(chain: list, triangles: list):
    """Plane graph of a triangulated polygon whose vertices, in polygon
    order, are `chain`.  Orienting each triangle by chain position keeps
    the interior faces consistent; the outer walk runs the other way."""
    pos = {v: i for i, v in enumerate(chain)}
    oriented = [tuple(sorted(t, key=pos.__getitem__)) for t in triangles]
    outer = (chain[0],) + tuple(reversed(chain[1:]))
    return testkit.plane_graph_from_triangles(chain, oriented, outer)


def fan(n: int):
    """Fan on n >= 3 vertices; returns the plane graph and the handle
    (v0, v(n-1)), which puts the apex on the handle."""
    names = _vertex_names(n)
    chain = [names[0]] + names[:0:-1]
    tris = [(names[0], names[i], names[i + 1]) for i in range(1, n - 1)]
    return _outerplanar(chain, tris), (names[0], names[-1])


def zigzag_strip(n: int, rng: testkit.Rng):
    """Strip of n >= 4 vertices: top path u0 .. ua and bottom path
    w0 .. wb, triangulated by rungs that advance on a seeded side.  The
    handle is the end rung (u0, w0)."""
    names = _vertex_names(n)
    a = n // 2
    top, bottom = names[:a], names[a:]
    i = j = 0
    tris = []
    while i < len(top) - 1 or j < len(bottom) - 1:
        if j == len(bottom) - 1 or (i < len(top) - 1 and rng.randrange(2) == 0):
            tris.append((top[i], bottom[j], top[i + 1]))
            i += 1
        else:
            tris.append((top[i], bottom[j], bottom[j + 1]))
            j += 1
    # polygon order: u0, u1 .. ua, wb .. w0
    return _outerplanar(top + bottom[::-1], tris), (top[0], bottom[0])


def sparse_subgraph_json(pg, rng: testkit.Rng, keep: float) -> str:
    """JSON text of a connected plane subgraph of `pg`.

    A BFS spanning tree from the first boundary vertex and all boundary
    edges stay; every other edge survives with probability `keep`.
    Removing an edge deletes it from both rotations, which keeps the
    cyclic order of the rest, so the outer walk is still a face.
    """
    g = pg.graph
    outer = pg.outer_face
    kept = {edge(outer[i], outer[(i + 1) % len(outer)]) for i in range(len(outer))}
    root = outer[0]
    seen = {root}
    queue = [root]
    for u in queue:
        for w in pg.rotation[u]:
            if w not in seen:
                seen.add(w)
                kept.add(edge(u, w))
                queue.append(w)
    for e in sorted(g.edges):
        if e not in kept and rng.random() < keep:
            kept.add(e)
    rotation = {
        v: [w for w in pg.rotation[v] if edge(v, w) in kept] for v in g.vertices
    }
    data = {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in sorted(kept)],
        "rotation": rotation,
        "outer_face": list(outer),
    }
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
