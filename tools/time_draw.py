"""Time the G(n, p) draw behind every sample and sweep trial.

    python3 tools/time_draw.py [--src DIR] [--repeat R]

Imports ``ramsey_lab`` from DIR (default: the ``src`` next to this
script) and prints one JSON line per (n, top) case: the mean time of
one ``gnp._process(n, seed, trial, top)`` call over a fixed set of
trials, for each of R passes, their minimum, the pairs kept over the
whole set, and a digest of the draws.  To compare two versions, unpack
the other one (``git archive REV | tar -x -C DIR``) and run this script
on each ``src`` in turn, alternating which goes first; equal digests
show that both returned the same draws.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

# (n, top): sparse tops near the paper's thresholds, a K4-grid top where
# the kept pairs dominate, a small host's fixed cost, and one large n
CASES = [(200, 1e-4), (200, 0.01), (160, 0.0023), (200, 0.0585), (8, 0.35), (1300, 0.01)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    from ramsey_lab.gnp import _process

    for n, top in CASES:
        trials = max(1, 10**6 // (n * n))  # about 500,000 pairs per pass
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            draws = [_process(n, 1, t, top) for t in range(trials)]
            times.append(round((time.perf_counter() - t0) / trials * 1e3, 4))
        digest = hashlib.sha256(repr(draws).encode()).hexdigest()[:16]
        kept = sum(map(len, draws))
        print(json.dumps({"n": n, "top": top, "trials": trials, "ms": times, "min_ms": min(times),
                          "kept": kept, "digest": digest}))


if __name__ == "__main__":
    main()
