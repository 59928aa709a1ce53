"""Time the embedding search behind arrowing, sweeps and orbit plans.

    python3 tools/time_copy_search.py [--src DIR] [--repeat R]

Imports ``ramsey_lab`` from DIR (default: the ``src`` next to this
script) and prints one JSON line per fixed case: the time of one pass
over the case, for each of R passes, their minimum, and a digest of the
results.  The cases are

- ``arrows`` for (M2, M3) and (K1,2, M3) on the four pooled G(7, 0.6)
  hosts of the benchmark's arrow_decide universe;
- the K4 containment sweep at n = 200 with 12 trials;
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
import hashlib
import json
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
        ("sweep K4 n=200 trials=12", sweep("K4", 200, "0.5*n^-2/3,1*n^-2/3,2*n^-2/3", 12, 0)),
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
        print(json.dumps({"case": name, "ms": times, "min_ms": min(times), "digest": digest}))


if __name__ == "__main__":
    main()
