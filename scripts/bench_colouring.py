#!/usr/bin/env python3
"""Time the list-colouring search (`is_l_colorable`) alone.

    python3 scripts/bench_colouring.py --checkout .

`--checkout` names the source tree whose `src/atforest` is timed, so one
copy of this script measures two commits alike.  The inputs, built
untimed:

- the 64 Lemma-1 witnesses (`build_lemma1_lists` on every selector),
  verified with `verify_witness_not_k_choosable` as one batch;
- a 3000-vertex path with lists {1, 2, 3};
- `testkit.random_near_triangulation(3000, 3, seed=1)` with 5 of the
  colours a-h per vertex, drawn with `Rng(5)`;
- the 10000 random 3-lists on forest-removed remainders that
  `tests/test_acceptance.py::test_c10_downstream_three_lists_always_colorable`
  builds;
- the dead-singleton family: k disjoint edges with lists {1, 2, 3}, then
  the edge y0 y1 whose ends both have {1}, at n = 2k + 2 = 12 ... 18.

Each of the first four is timed several times and the fastest run counts;
each dead-singleton input runs once, under a SIGALRM timer of `CAP_S`
seconds (a capped run is reported as such).  The result is one JSON
object on standard output.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

CAP_S = 30.0  # longest a single dead-singleton search may run


class _Capped(Exception):
    pass


def _fastest(call, repeats: int):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", default=".")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    from atforest.choosability import (
        ListAssignment,
        build_lemma1_lists,
        is_l_colorable,
        verify_witness_not_k_choosable,
    )
    from atforest.decompose import decompose
    from atforest.graph import Graph
    from atforest.testkit import Rng, random_near_triangulation

    out: dict = {}
    witnesses = [build_lemma1_lists("".join("ab"[i >> j & 1] for j in range(6))) for i in range(64)]
    t, reports = _fastest(lambda: [verify_witness_not_k_choosable(g, l, 3) for g, l in witnesses], 5)
    assert all(r.verdict for r in reports)
    out["witnesses_64_ms"] = round(t * 1e3, 2)

    names = [f"v{i:04d}" for i in range(3000)]
    path = Graph.build(names, list(zip(names, names[1:])))
    path_lists = ListAssignment.build({v: ["1", "2", "3"] for v in names})
    t, coloring = _fastest(lambda: is_l_colorable(path, path_lists), 3)
    assert coloring is not None
    out["path3000_ms"] = round(t * 1e3, 2)

    tri = random_near_triangulation(3000, 3, seed=1).graph
    rng = Rng(5)
    tri_lists = {}
    for v in tri.vertices:
        pool = list("abcdefgh")
        rng.shuffle(pool)
        tri_lists[v] = pool[:5]
    tri_lists = ListAssignment.build(tri_lists)
    t, coloring = _fastest(lambda: is_l_colorable(tri, tri_lists), 3)
    assert coloring is not None
    out["triangulation3000_5of8_ms"] = round(t * 1e3, 2)

    c10 = []
    colors = ["c1", "c2", "c3", "c4", "c5", "c6"]
    for i in range(20):
        n = 4 + i % 9
        pg = random_near_triangulation(n, min(3 + i % 7, n), seed=1100 + i)
        forest = decompose(pg, (pg.outer_face[0], pg.outer_face[1])).forest
        remainder = Graph(pg.graph.vertices, pg.graph.edges - forest)
        rng = Rng(31337 + i)
        for _ in range(500):
            lists = {}
            for v in remainder.vertices:
                pool = colors[:]
                rng.shuffle(pool)
                lists[v] = pool[:3]
            c10.append((remainder, ListAssignment.build(lists)))
    t, colored = _fastest(lambda: sum(is_l_colorable(g, l) is not None for g, l in c10), 3)
    assert colored == len(c10)
    out["c10_10000_searches_s"] = round(t, 3)

    def raise_capped(*_):
        raise _Capped

    signal.signal(signal.SIGALRM, raise_capped)
    out["dead_singleton_s"] = {}
    for n in (12, 14, 16, 18):
        xs = [f"x{i:03d}" for i in range(n - 2)]
        g = Graph.build(xs + ["y0", "y1"], list(zip(xs[::2], xs[1::2])) + [("y0", "y1")])
        lists = {v: ["1", "2", "3"] for v in xs}
        lists["y0"] = lists["y1"] = ["1"]
        lists = ListAssignment.build(lists)
        signal.setitimer(signal.ITIMER_REAL, CAP_S)
        try:
            start = time.perf_counter()
            assert is_l_colorable(g, lists) is None
            out["dead_singleton_s"][n] = round(time.perf_counter() - start, 6)
        except _Capped:
            out["dead_singleton_s"][n] = f"capped at {CAP_S} s"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
