"""Time the embedding search behind arrowing, sweeps and orbit plans.

    python3 tools/time_copy_search.py [--src DIR] [--repeat R]

Imports ``ramsey_lab`` from DIR (default: the ``src`` next to this
script) and prints one JSON line per fixed case: the time of one pass
over the case, for each of R passes, their minimum, a digest of the
results, and the number of ``graphs._search`` calls in one more pass
under cProfile, outside the timed ones.  The cases are

- ``arrows`` for (M2, M3) and (K1,2, M3) on the four pooled G(7, 0.6)
  hosts of the benchmark's arrow_decide universe;
- the two costliest ``arrows`` calls of that universe: (P3, M3) on the
  pooled G(7, 0.4) host of trial 0 and (K1,2, M3) on G(6, 0.7) trial 3;
- the K4 containment sweep at n = 200 with 12 trials;
- two sweeps on large hosts, where every mask holds 2,000 bits: K4 with
  2 trials and C4 with 4, at n = 2000 (drawing the trials' pairs takes
  most of their time);
- the README's K3 containment sweep;
- ``edge_orbit_plans(path(200))``, with the plan caches cleared first.

Every case runs the pinned copy search (``graphs._search``) that
``has_copy_through`` and the finders share.  To compare two versions,
unpack the other one (``git archive REV | tar -x -C DIR``) and run this
script on each ``src`` in turn, alternating which goes first; equal
digests show that both returned the same results.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import pstats
import sys
import time
from pathlib import Path

POOL_SEED = 20221  # the benchmark's host stream
README_GRID = "0.25*n^-1,0.5*n^-1,1*n^-1,2*n^-1,4*n^-1"


def cases(api, graphs):
    """(name, call) pairs; each call returns what the digest covers."""
    hosts = [api.sample_gnp(7, 0.6, POOL_SEED, t) for t in range(4)]
    pairs = [(api.parse_graph(a), api.parse_graph(b)) for a, b in (("M2", "M3"), ("K1,2", "M3"))]

    def arrow_calls():
        out = []
        for g in hosts:
            for h1, h2 in pairs:
                v = api.arrows(g, h1, h2)
                out.append((v.arrows, v.colourings_examined, repr(v.counterexample)))
        return out

    def costliest():
        out = []
        for (n, p, t), (a, b) in (((7, 0.4, 0), ("P3", "M3")), ((6, 0.7, 3), ("K1,2", "M3"))):
            v = api.arrows(api.sample_gnp(n, p, POOL_SEED, t), api.parse_graph(a), api.parse_graph(b))
            out.append((v.arrows, v.colourings_examined, repr(v.counterexample)))
        return out

    def sweep(h, n, grid, trials, seed):
        ps = api.parse_p_grid(grid, n)
        return lambda: api.rows_to_csv(api.containment_sweep(api.parse_graph(h), n, ps, trials, seed))

    def orbit_plans():
        graphs._plan.cache_clear()
        graphs.edge_orbit_plans.cache_clear()
        # orders and placed neighbours only, the part every version's plans share
        return [p[:2] for p in graphs.edge_orbit_plans(graphs.path(200))]

    return [
        ("arrows M2/M3, K1,2/M3 on G(7, 0.6)", arrow_calls),
        ("arrows P3/M3 on G(7, 0.4) t0, K1,2/M3 on G(6, 0.7) t3", costliest),
        ("sweep K4 n=200 trials=12", sweep("K4", 200, "0.5*n^-2/3,1*n^-2/3,2*n^-2/3", 12, 0)),
        ("sweep K4 n=2000 trials=2", sweep("K4", 2000, "0.5*n^-2/3,1*n^-2/3,2*n^-2/3", 2, 0)),
        ("sweep C4 n=2000 trials=4", sweep("4; 0 1; 1 2; 2 3; 3 0", 2000, "0.5*n^-1,1*n^-1,2*n^-1", 4, 0)),
        ("README sweep K3 n=60 trials=300", sweep("K3", 60, README_GRID, 300, 2024)),
        ("edge_orbit_plans(P200)", orbit_plans),
    ]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    import ramsey_lab as api
    import ramsey_lab.graphs as graphs

    for name, call in cases(api, graphs):
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            result = call()
            times.append(round((time.perf_counter() - t0) * 1e3, 2))
        digest = hashlib.sha256(repr(result).encode()).hexdigest()[:16]
        profile = cProfile.Profile()
        profile.runcall(call)
        stats = pstats.Stats(profile).stats
        searches = sum(s[1] for (_, _, fn), s in stats.items() if fn == "_search")
        row = {"case": name, "ms": times, "min_ms": min(times), "digest": digest, "search_calls": searches}
        print(json.dumps(row))


if __name__ == "__main__":
    main()
