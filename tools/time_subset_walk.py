"""Time the subset walk behind m and m2 on dense graphs.

    python3 tools/time_subset_walk.py [--src DIR] [--repeat R] [GRAPH ...]

Imports ``ramsey_lab`` from DIR (default: the ``src`` next to this
script) and prints one JSON line per graph (a graph DSL spec, default
K24 K26 K27 K28): its order and size, the wall time of each of R calls
to ``densities._max_edges_by_size`` and their minimum, and a digest of
the returned table.  To compare two versions, unpack the other one
(``git archive REV | tar -x -C DIR``) and run this script on each
``src`` in turn, alternating which goes first; equal digests show that
both walks returned the same table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("graphs", nargs="*", default=["K24", "K26", "K27", "K28"])
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from ramsey_lab.densities import _max_edges_by_size
    from ramsey_lab.graphs import parse_graph

    _max_edges_by_size(parse_graph("K13"))  # builds the cached low table
    for spec in args.graphs:
        g = parse_graph(spec)
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            best = _max_edges_by_size(g)
            times.append(round(time.perf_counter() - t0, 4))
        digest = hashlib.sha256(repr(best).encode()).hexdigest()[:16]
        print(json.dumps({"graph": spec, "n": g.n, "e": g.e, "s": times, "min_s": min(times), "digest": digest}))


if __name__ == "__main__":
    main()
