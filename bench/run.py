"""Seeded benchmark of ramsey-lab: one closed-loop client, ``jobs=1``.

    python3 bench/run.py --workload arrow_decide --seed 3 --seconds 24 --trace 0
    python3 bench/run.py --workload arrow_decide --record

A run starts ``WORKERS`` fresh worker processes one after another.  Each
imports the package from ``src/``, draws the workload's operations from
its pinned universe by ``--seed`` (one operation per cost stratum, so
every seed gets the same cost profile), and runs rounds of those
operations, each starting when the previous one returns, for its share
of ``--seconds``.  Every result is checked against the expected record of
``expected/<workload>.json`` outside the timed calls.  The parent pools
what the workers measured.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced rounds and reports the per-layer metrics of
``spans.py`` and the tracing overhead; the spans go to ``out/``.
``--record`` rewrites the expected file from the current commit.  The
last line of standard output is one JSON object; the lines above it are
the same figures for people, with the run's metadata and any failures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"

from spans import Tracer, layer_metrics, unit  # noqa: E402
from workloads import FIXED, WORKLOADS, build, host_graph, key, render  # noqa: E402

# A process's speed on a shared host depends on its memory layout, so a run
# pools several fresh worker processes, run one after another.
WORKERS = 4
SETUP_REPS = 3
RECORD_REPS = 3
# percentiles op_tail_ms may report: the highest with ten operations beyond it
LADDER = (50, 75, 80, 90, 95, 99, 99.5, 99.9)


def fresh_import():
    """Import the package from scratch, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "ramsey_lab" or n.startswith("ramsey_lab.")]:
        del sys.modules[name]
    api = importlib.import_module("ramsey_lab")
    importlib.import_module("ramsey_lab.cli")
    return api


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def summary(text: str) -> str:
    return text.splitlines()[0][:100] if text else ""


def settled_samples(text: str) -> int:
    """Decided (trial, grid point) samples in a rendered sweep CSV."""
    rows = [line.split(",") for line in text.splitlines() if line[:1].isdigit()]
    return sum(int(r[2]) - int(r[4]) for r in rows if len(r) == 8)


def bell(m: int) -> int:
    """Bell number by the Bell triangle, independent of the package."""
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def metadata() -> dict:
    files = sorted((SRC / "ramsey_lab").glob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": git_head(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "src_lines": lines,
        "src_sha256": h.hexdigest()[:16],
    }


def git_head() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


class Crash:
    """An exception that is not one of the package's refusals."""

    def __init__(self, exc: BaseException):
        self.cause = f"{type(exc).__name__}: {exc}"[:300]


def run_round(calls, refusal, tracer=None):
    latencies, results = [], []
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.current_op = i
        t0 = perf_counter()
        try:
            result = call()
        except refusal as exc:
            result = exc
        except Exception as exc:  # every other exception is a counted failure
            result = Crash(exc)
        latencies.append(perf_counter() - t0)
        results.append(result)
    return latencies, results


def tail(latencies, per_round: int):
    """(percentile, value): the highest ladder percentile with at least ten
    of a round's ``per_round`` operations beyond it, taken by nearest rank
    over all measured latencies."""
    pct = max((p for p in LADDER if per_round - math.ceil(p * per_round / 100) >= 10), default=50)
    return pct, sorted(latencies)[max(math.ceil(pct * len(latencies) / 100), 1) - 1]


def draw(workload: str, universe: dict, per_round: int, seed: int) -> list[dict]:
    """One operation from each of ``per_round`` cost strata, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    fixed = [key(s) for s in FIXED.get(workload, [])]
    pool = sorted((rec[0], k) for k, rec in universe.items() if k not in fixed)
    strata = per_round - len(fixed)
    picks = list(fixed)
    for j in range(strata):
        lo, hi = j * len(pool) // strata, (j + 1) * len(pool) // strata
        picks.append(pool[rng.randrange(lo, hi)][1])
    rng.shuffle(picks)
    return [json.loads(k) for k in picks]


def expected_path(workload: str) -> Path:
    return BENCH / "expected" / f"{workload}.json"


class _Timeout(BaseException):
    pass


def _alarm(signum, frame):
    raise _Timeout


def record(workload: str) -> int:
    """Pin the universe: run every candidate once, leave out those over the
    cost cap (the fixed operations excepted), and store each one's expected
    output and its cost, the median over shuffled passes of the universe."""
    candidates, _, cap_ms = WORKLOADS[workload]
    api = fresh_import()
    fixed = FIXED.get(workload, [])
    ops, calls, dropped = {}, {}, 0
    signal.signal(signal.SIGALRM, _alarm)
    for spec in candidates(api) + fixed:
        call = build(api, spec)
        try:
            if spec not in fixed:
                signal.setitimer(signal.ITIMER_REAL, cap_ms / 1000)
            try:
                result = call()
            except api.RamseyLabError as exc:
                result = exc
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _Timeout:
            dropped += 1
            continue
        text = render(api, spec, result)
        ops[key(spec)] = [digest(text), summary(text)]
        calls[key(spec)] = call
    costs = {k: [] for k in calls}
    rng = random.Random(workload)
    for _ in range(RECORD_REPS):
        order = sorted(calls)
        rng.shuffle(order)
        for k in order:
            t0 = perf_counter()
            try:
                calls[k]()
            except api.RamseyLabError:
                pass
            costs[k].append(perf_counter() - t0)
    path = expected_path(workload)
    path.parent.mkdir(exist_ok=True)
    head = json.dumps({"workload": workload, "recorded_at": metadata(), "cost_cap_ms": cap_ms})
    rows = ",\n".join(
        json.dumps([json.loads(k), round(statistics.median(costs[k]) * 1000, 3)] + rec) for k, rec in sorted(ops.items())
    )
    path.write_text(f'{head[:-1]}, "ops": [\n{rows}\n]}}\n')
    print(f"recorded {len(ops)} operations to {path.relative_to(ROOT)}; {dropped} over {cap_ms} ms left out")
    return 0


def extra_checks(api, oracles, workload, specs, results) -> list[tuple[int, str]]:
    """Checks independent of the expected records, once per operation.

    Arrows verdicts must have examined exactly Bell(e(G)) colourings, and
    every counterexample must avoid both patterns under the brute-force
    oracle of ``tests/oracles.py``.
    """
    if workload != "arrow_decide":
        return []
    problems = []
    for i, (spec, res) in enumerate(zip(specs, results)):
        if isinstance(res, (BaseException, Crash)):
            continue
        g = host_graph(api, spec["g"])
        if res.arrows:
            if res.colourings_examined != bell(g.e):
                problems.append((i, f"examined {res.colourings_examined} != Bell({g.e}) = {bell(g.e)}"))
            continue
        h1, h2 = api.parse_graph(spec["h1"]), api.parse_graph(spec["h2"])
        chi = res.counterexample
        if oracles.naive_copy(g, chi, h1, "mono") or oracles.naive_copy(g, chi, h2, "rainbow"):
            problems.append((i, "counterexample contains a pattern under the oracle"))
    return problems


def check_round(api, universe, keys, results, r, bad) -> int:
    """Compare one round's results with their records; returns refusals.

    ``bad`` maps "round:operation index" to the cause of its failure.
    """
    refused = 0
    for i, (k, res) in enumerate(zip(keys, results)):
        if isinstance(res, Crash):
            bad[f"{r}:{i}"] = res.cause
            continue
        refused += isinstance(res, BaseException)
        text = render(api, json.loads(k), res)
        if digest(text) != universe[k][1]:
            bad[f"{r}:{i}"] = f"output differs from the expected record: got {summary(text)!r}, expected {universe[k][2]!r}"
    return refused


def measure(workload: str, seed: int, seconds: float, trace: bool, worker: int) -> dict:
    """One worker: set up, run rounds for ``seconds``, check every result.

    Returns the raw figures for the parent to pool.  With ``trace``,
    traced and untraced rounds alternate and the spans go to ``out/``;
    the counts come from the first round of worker 0, which is traced.
    """
    universe = {key(spec): rec for spec, *rec in json.loads(expected_path(workload).read_text())["ops"]}
    specs = draw(workload, universe, WORKLOADS[workload][1], seed)
    keys = [key(s) for s in specs]

    setup = []
    for _ in range(SETUP_REPS):
        gc.collect()  # the previous copy of the package is garbage now
        t0 = perf_counter()
        api = fresh_import()
        calls = [build(api, s) for s in specs]
        setup.append(perf_counter() - t0)
    loader = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
    oracles = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(oracles)

    bad: dict[str, str] = {}
    refused = 0
    untraced, traced, layers, span_rounds, problems = [], [], [], [], []
    first_results = None
    deadline = perf_counter() + seconds
    while True:
        round_start = perf_counter()
        # rounds alternate; even workers start traced, odd ones untraced
        tracer = Tracer() if trace and (len(traced) + len(untraced) + worker) % 2 == 0 else None
        if tracer is not None:
            tracer.install()
        try:
            latencies, results = run_round(calls, api.RamseyLabError, tracer)
        finally:
            if tracer is not None:
                tracer.remove()
        refused += check_round(api, universe, keys, results, len(untraced) + len(traced), bad)
        first_results = first_results or results
        if tracer is None:
            untraced.append(latencies)
        else:
            traced.append(latencies)
            metrics, round_problems = layer_metrics(tracer, sum(latencies))
            layers.append(metrics)
            problems += round_problems
            span_rounds.append(tracer.spans())
        # stop at the round boundary nearest the deadline
        if perf_counter() + (perf_counter() - round_start) / 2 >= deadline:
            break
    measured_s = perf_counter() - deadline + seconds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = len(untraced) + len(traced)
    for i, cause in extra_checks(api, oracles, workload, specs, first_results):
        for r in range(rounds):
            bad[f"{r}:{i}"] = cause
    texts = (render(api, s, r) for s, r in zip(specs, first_results) if not isinstance(r, Crash))
    out = {
        "keys": keys,
        "setup": setup,
        "untraced": untraced,
        "traced": traced,
        "layers": layers,
        "problems": problems,
        "bad": bad,
        "refused": refused,
        "peak_rss_mb": peak_rss_mb,
        "measured_s": measured_s,
        "samples": sum(settled_samples(t) for t in texts),
    }
    if trace:
        out["spans_file"] = str(write_spans(workload, seed, worker, span_rounds).relative_to(ROOT))
    return out


def per_layer(runs) -> tuple[dict, bool]:
    """Counts of the first traced round, seconds as medians over all traced
    rounds, and whether every traced round repeated the counts exactly."""
    rounds = [m for r in runs for m in r["layers"]]
    timed = [k for k in rounds[0] if unit(k) == "s"]
    layer = dict(rounds[0])
    for k in timed:
        layer[k] = statistics.median(m[k] for m in rounds)
    repeat = all(m[k] == layer[k] for m in rounds for k in layer if k not in timed)
    traced = statistics.median(sum(lat) for r in runs for lat in r["traced"])
    layer["trace.overhead"] = traced / statistics.median(sum(lat) for r in runs for lat in r["untraced"])
    return layer, repeat


def write_spans(workload: str, seed: int, worker: int, span_rounds) -> Path:
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}-w{worker}.jsonl"
    with path.open("w") as fh:
        for r, rows in enumerate(span_rounds):
            for row in rows:
                fh.write(json.dumps([r] + row) + "\n")
    return path


def run_workers(args) -> list[dict] | None:
    """Run the workers one after another, each a fresh interpreter measuring
    an equal share of what is left of ``--seconds``; None if one fails."""
    runs = []
    spent = 0.0
    for w in range(WORKERS):
        share = max(args.seconds - spent, 0.0) / (WORKERS - w)
        cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed)]
        cmd += ["--seconds", str(share), "--trace", str(args.trace), "--worker", str(w)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"error: worker {w} exited with {proc.returncode}:\n{proc.stderr[-3000:]}", file=sys.stderr)
            return None
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
        spent += runs[-1]["measured_s"]
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the expected file from this commit")
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ramsey_lab" / "__init__.py").is_file() or not ORACLES.is_file():
        print("error: src/ramsey_lab and tests/oracles.py are needed next to bench/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("RAMSEY_LAB_JOBS", None)  # sweeps run with jobs=1, as one client
    if args.record:
        return record(args.workload)
    if not expected_path(args.workload).is_file():
        print(f"error: {expected_path(args.workload).relative_to(ROOT)} is missing; make it with --record", file=sys.stderr)
        return 2
    if args.worker is not None:
        print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace), args.worker)))
        return 0
    runs = run_workers(args)
    if runs is None:
        return 1

    keys = runs[0]["keys"]
    n = len(keys)
    untraced = [lat for r in runs for lat in r["untraced"]]
    pooled = [x for lat in untraced for x in lat]
    rounds = sum(len(r["untraced"]) + len(r["traced"]) for r in runs)
    pct, tail_s = tail(pooled, n)
    busy = sum(map(sum, untraced)) / len(untraced)
    e2e = {
        "op_p50_ms": (statistics.median(pooled) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "ops_per_s": (n / busy, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
        "setup_s": (statistics.median(x for r in runs for x in r["setup"]), "s"),
    }
    failed = sum(len(r["bad"]) for r in runs)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        **metadata(),
        "workers": WORKERS,
        "ops_per_round": n,
        "rounds": len(untraced),
        "op_tail_percentile": pct,
        "latency_samples": len(pooled),
        "fail_ratio": failed / (n * rounds),
        "refused_ratio": sum(r["refused"] for r in runs) / (n * rounds),
    }
    if args.workload == "gnp_sweep":
        info["samples_per_s"] = runs[0]["samples"] / busy
    problems = [p for r in runs for p in r["problems"]]
    if args.trace:
        layer, info["counts_repeat_across_rounds"] = per_layer(runs)
        info["traced_rounds"] = sum(len(r["traced"]) for r in runs)
        info["bench_own_s"] = layer.pop("bench.own_s")
        info["spans_files"] = " ".join(r["spans_file"] for r in runs)
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    for k, v in info.items():
        print(f"{k}: {v}")
    for k, (v, u) in e2e.items():
        print(f"{k}: {v:.6g} {u}")
    if args.trace:
        for k, m in metrics.items():
            print(f"{k}: {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"trace problem: {problem}")
    causes: dict[tuple[int, str], int] = {}
    for r in runs:
        for where, cause in r["bad"].items():
            i = int(where.split(":")[1])
            causes[(i, cause)] = causes.get((i, cause), 0) + 1
    for (i, cause), count in sorted(causes.items()):
        print(f"FAILED x{count}: {keys[i]}: {cause}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": n * rounds, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
