"""Time the layers behind the paper's computations, one JSON row per case.

    python3 tools/time_layers.py [--src DIR] [--repeat R] [LAYER ...]

Imports ``ramsey_lab`` from DIR (default: the ``src`` next to this
script) and, for each LAYER (default: all, in this order, each in a
fresh interpreter so that no layer runs on the caches and heap another
one left), prints one JSON line per case: its layer and name, the time
in ms of each of R timed passes and their minimum, a digest of what the
last pass returned, and the case's own fields.  The layers and their
cases are

- ``draw``: ``gnp._process(n, seed, trial, top)`` over a fixed set of
  trials per (n, top), timed per trial, with the pairs ``kept`` over
  the set;
- ``subset_walk``: ``densities._max_edges_by_size`` on K24, K26, K27
  and K28, after one untimed call builds the cached low table;
- ``copy_search``: the embedding search (``graphs._search``) behind
  arrowing, sweeps and orbit plans, with its ``search_calls`` counted
  in one more pass under cProfile, outside the timed ones;
- ``forest_levels``: ``mf.solve`` and ``threshold`` on every pair of
  the benchmark's forest_certify workload at vertex budgets 6-9,
  rendered as the benchmark renders them, after one untimed pass warms
  the process's caches; and two cold single ``mf`` runs, each pass a
  fresh interpreter that imports the package and runs the command,
  with each pass's ``s``, the child's own time for import plus run
  (the row's ``ms`` also holds interpreter start-up), and its
  ``peak_rss_mb``, the child's own ``VmHWM`` from ``/proc`` (so these
  two cases run on Linux only).  The benchmark pools one
  long-lived process per worker, so only these cases show what a
  single run pays for the per-process caches;
- ``cli``: every argv of ``tests/golden/cases.json`` (the README's
  commands among them) through ``cli.main`` in this process, from
  ``tests/golden`` as the golden test runs them, with the digest over
  each one's exit code and stdout.

To compare two versions, unpack the other one (``git archive REV | tar
-x -C DIR``) and run this script on each ``src`` in turn, alternating
which goes first; equal digests show that both returned the same
results.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import io
import importlib
import importlib.util
import json
import os
import pstats
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
POOL_SEED = 20221  # the benchmark's host stream
README_GRID = "0.25*n^-1,0.5*n^-1,1*n^-1,2*n^-1,4*n^-1"
# the child runs one CLI command and prints its time, peak memory and output
CHILD = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ramsey_lab.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[2:])
seconds = time.perf_counter() - t0
with open("/proc/self/status") as status:  # ru_maxrss would also hold the spawning process's peak
    peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"s": seconds, "peak_kb": peak_kb, "code": code, "stdout": out.getvalue()}))
"""


class Case(NamedTuple):
    """One timed case: ``call()`` runs one pass and returns what the
    digest covers, ``fields(result)`` gives the row's own fields, and a
    pass's time is reported per ``per`` calls of the layer."""

    name: str
    call: Callable[[], object]
    fields: Callable[[object], dict] = lambda result: {}
    per: int = 1


def draw(api, src):
    # sparse tops near the paper's thresholds, a K4-grid top where the
    # kept pairs dominate, a small host's fixed cost, and one large n
    cases = []
    for n, top in [(200, 1e-4), (200, 0.01), (160, 0.0023), (200, 0.0585), (8, 0.35), (1300, 0.01)]:
        trials = max(1, 10**6 // (n * n))  # about 500,000 pairs per pass
        call = lambda n=n, top=top, trials=trials: [api.gnp._process(n, 1, t, top) for t in range(trials)]
        kept = lambda draws: {"kept": sum(map(len, draws))}
        cases.append(Case(f"n={n} top={top} trials={trials}", call, kept, trials))
    return cases


def subset_walk(api, src):
    walk = api.densities._max_edges_by_size
    walk(api.parse_graph("K13"))  # builds the cached low table
    return [Case(spec, lambda g=api.parse_graph(spec): walk(g)) for spec in ("K24", "K26", "K27", "K28")]


def copy_search(api, src):
    graphs, G = api.graphs, api.parse_graph
    hosts = [api.sample_gnp(7, 0.6, POOL_SEED, t) for t in range(4)]
    pairs = [(G("M2"), G("M3")), (G("K1,2"), G("M3"))]

    def verdict(g, h1, h2):
        v = api.arrows(g, h1, h2)
        return v.arrows, v.colourings_examined, repr(v.counterexample)

    def costliest():
        # the two costliest arrows calls of the benchmark's arrow_decide universe
        return [
            verdict(api.sample_gnp(7, 0.4, POOL_SEED, 0), G("P3"), G("M3")),
            verdict(api.sample_gnp(6, 0.7, POOL_SEED, 3), G("K1,2"), G("M3")),
        ]

    def sweep(h, n, grid, trials, seed):
        ps = api.parse_p_grid(grid, n)
        return lambda: api.rows_to_csv(api.containment_sweep(G(h), n, ps, trials, seed))

    def orbit_plans():
        graphs._plan.cache_clear()
        graphs.edge_orbit_plans.cache_clear()
        # orders and placed neighbours only, the part every version's plans share
        return [p[:2] for p in graphs.edge_orbit_plans(graphs.path(200))]

    def search_calls(call):
        def fields(_):
            profile = cProfile.Profile()
            profile.runcall(call)
            stats = pstats.Stats(profile).stats
            return {"search_calls": sum(s[1] for (_, _, fn), s in stats.items() if fn == "_search")}

        return fields

    # at n = 2000 every mask holds 2,000 bits; drawing the trials' pairs
    # takes most of those sweeps' time
    cases = [
        ("arrows M2/M3, K1,2/M3 on G(7, 0.6)", lambda: [verdict(g, *pair) for g in hosts for pair in pairs]),
        ("arrows P3/M3 on G(7, 0.4) t0, K1,2/M3 on G(6, 0.7) t3", costliest),
        ("sweep K4 n=200 trials=12", sweep("K4", 200, "0.5*n^-2/3,1*n^-2/3,2*n^-2/3", 12, 0)),
        ("sweep K4 n=2000 trials=2", sweep("K4", 2000, "0.5*n^-2/3,1*n^-2/3,2*n^-2/3", 2, 0)),
        ("sweep C4 n=2000 trials=4", sweep("4; 0 1; 1 2; 2 3; 3 0", 2000, "0.5*n^-1,1*n^-1,2*n^-1", 4, 0)),
        ("README sweep K3 n=60 trials=300", sweep("K3", 60, README_GRID, 300, 2024)),
        ("edge_orbit_plans(P200)", orbit_plans),
    ]
    return [Case(name, call, search_calls(call)) for name, call in cases]


def forest_levels(api, src):
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    specs = workloads._forest_certify(api)

    def certify():
        return [workloads.render(api, s, workloads.build(api, s)()) for s in specs]

    def cold(command):
        runs = []

        def run():
            proc = subprocess.run([sys.executable, "-c", CHILD, src, *command.split()],
                                  capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout))
            return [(runs[-1]["code"], runs[-1]["stdout"])]

        def fields(_):
            times = [round(r["s"], 3) for r in runs]
            peaks = [round(r["peak_kb"] / 1024, 1) for r in runs]
            return {"s": times, "min_s": min(times), "peak_rss_mb": peaks, "min_peak_rss_mb": min(peaks)}

        return Case(f"cold {command}", run, fields)

    certify()  # warms the process's caches
    return [
        Case(f"forest_certify pairs, budgets 6-9, warm ({len(specs)} operations)", certify),
        cold("mf --h1 K1,3 --h2 P4"),
        cold("mf --h1 K1,2 --h2 P5 --vertex-budget 13"),
    ]


def cli(api, src):
    golden = ROOT / "tests" / "golden"
    cases = json.loads((golden / "cases.json").read_text(encoding="utf-8"))
    main = importlib.import_module("ramsey_lab.cli").main
    os.environ.pop("RAMSEY_LAB_JOBS", None)  # sweeps run their trials here, as the goldens do
    os.chdir(golden)  # where the edge-list files the cases name live

    def run(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        return code, out.getvalue()

    return [Case(name, lambda argv=case["argv"]: run(argv)) for name, case in cases.items()]


LAYERS = {f.__name__: f for f in (draw, subset_walk, copy_search, forest_levels, cli)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("layers", nargs="*", default=list(LAYERS), metavar="LAYER", help=", ".join(LAYERS))
    args = ap.parse_args()
    if set(args.layers) - set(LAYERS):
        ap.error(f"layers are {', '.join(LAYERS)}")
    if len(args.layers) > 1:  # each layer in a fresh interpreter, as if run alone
        for layer in args.layers:
            subprocess.run([sys.executable, __file__, "--src", args.src, "--repeat", str(args.repeat), layer],
                           check=True)
        return
    sys.path.insert(0, args.src)
    api = importlib.import_module("ramsey_lab")  # also binds its submodules

    for layer in args.layers:
        for name, call, fields, per in LAYERS[layer](api, args.src):
            times = []
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                result = call()
                times.append(round((time.perf_counter() - t0) / per * 1e3, 4))
            digest = hashlib.sha256(repr(result).encode()).hexdigest()[:16]
            row = {"layer": layer, "case": name, "ms": times, "min_ms": min(times), "digest": digest}
            print(json.dumps({**row, **fields(result)}), flush=True)


if __name__ == "__main__":
    main()
