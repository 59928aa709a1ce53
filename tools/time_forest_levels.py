"""Time the level walk behind arrowing-forest certificates.

    python3 tools/time_forest_levels.py [--src DIR] [--repeat R]

Imports ``ramsey_lab`` from DIR (default: the ``src`` next to this
script) and prints one JSON line per case, each with a digest of its
results.  The cases are

- ``mf.solve`` and ``threshold`` on every pair of the benchmark's
  forest_certify workload (``bench/workloads.py``) at vertex budgets
  6-9, one pass per repeat after one untimed pass that warms the
  process's caches, rendered as the benchmark renders them;
- two cold single runs, ``mf --h1 K1,3 --h2 P4`` and ``mf --h1 K1,2
  --h2 P5 --vertex-budget 13``, each repeat in a fresh interpreter,
  reporting the wall time of import plus run and the process's peak
  resident set (``ru_maxrss``).  The benchmark pools one long-lived
  process per worker, so it cannot see what a single run pays in time
  or memory for the per-process caches; these cases do.

To compare two versions, unpack the other one (``git archive REV | tar
-x -C DIR``) and run this script on each ``src`` in turn, alternating
which goes first; equal digests show that both returned the same
results.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SINGLE_RUNS = ("mf --h1 K1,3 --h2 P4", "mf --h1 K1,2 --h2 P5 --vertex-budget 13")
# the child runs one CLI command and prints its time, peak memory and output
CHILD = """
import contextlib, io, json, resource, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ramsey_lab.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[2:])
seconds = time.perf_counter() - t0
peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"s": seconds, "peak_kb": peak_kb, "code": code, "stdout": out.getvalue()}))
"""


def digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def certify_call(api, workloads):
    """A call running every operation of forest_certify's universe once,
    returning the rendered results."""
    specs = workloads._forest_certify(api)

    def run():
        return [workloads.render(api, spec, workloads.build(api, spec)()) for spec in specs]

    return run, len(specs)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    api = importlib.import_module("ramsey_lab")
    importlib.import_module("ramsey_lab.mf")
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    call, ops = certify_call(api, workloads)
    call()
    times = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        result = call()
        times.append(round((time.perf_counter() - t0) * 1e3, 1))
    name = f"forest_certify pairs, budgets 6-9, warm ({ops} operations)"
    print(json.dumps({"case": name, "ms": times, "min_ms": min(times), "digest": digest(result)}))

    for command in SINGLE_RUNS:
        runs = []
        for _ in range(args.repeat):
            proc = subprocess.run(
                [sys.executable, "-c", CHILD, args.src, *command.split()],
                capture_output=True, text=True, check=True,
            )
            runs.append(json.loads(proc.stdout))
        times = [round(r["s"], 3) for r in runs]
        peaks = [round(r["peak_kb"] / 1024, 1) for r in runs]
        row = {
            "case": f"cold {command}",
            "s": times,
            "min_s": min(times),
            "peak_rss_mb": peaks,
            "min_peak_rss_mb": min(peaks),
            "digest": digest([(r["code"], r["stdout"]) for r in runs[:1]]),
        }
        print(json.dumps(row))


if __name__ == "__main__":
    main()
