"""The benchmark's workloads: candidate operations, how each one calls the
package, and how its result is rendered for the output check.

Each workload draws its operations from a fixed universe of candidates.
``run.py --record`` runs every candidate once at the current commit and
pins, per candidate, its expected output and its cost, in
``expected/<workload>.json``; a measured run draws from that pinned
universe by seed.  G(n,p) hosts of the universes come from the stream
``POOL_SEED``, never from the workload seed, so every operation a seed
can draw has an expected record.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

POOL_SEED = 20221

ARROW_PATTERNS = ("K3", "P2", "P3", "K1,2", "K1,3", "M2", "M3", "K1,2+K1,2")
# (n, p) of the G(n,p) hosts; p = 0.6 on eight vertices often exceeds the
# edge budget of 16 and gives the budget refusals
ARROW_GNP = ((6, 0.5), (6, 0.7), (7, 0.4), (7, 0.6), (8, 0.3), (8, 0.45), (8, 0.6))

STARS = ("K1,2", "K1,3", "K1,4")
FORESTS = ("P2", "P3", "P4", "K1,3", "K1,4", "M2", "M3", "K1,2+K2", "K1,2+K1,2")
CONSTELLATIONS = ("K1,2+K1,2", "K1,2+K2", "M2", "K1,3+K2", "K1,2+K1,2+K2")
SHORT_FORESTS = ("P2", "M2", "M3", "K1,2+K2", "K1,2+K1,2")

# pattern -> exponent q of its appearance threshold n^q = n^(-1/m(H))
SWEEP_PATTERNS = {"K3": "-1", "K4": "-2/3", "P3": "-4/3", "K1,3": "-4/3", "M2": "-2", "K1,2+K1,2": "-3/2"}
ARROW_SWEEP_PAIRS = (("K1,2", "P3"), ("K3", "P3"), ("K1,2", "K1,2"), ("P3", "M2"))
README_SWEEP = (
    "sweep --mode containment --h K3 --n 60 --p-grid"
    " 0.25*n^-1,0.5*n^-1,1*n^-1,2*n^-1,4*n^-1 --trials 300 --seed 2024"
)


def _arrow_decide(api):
    hosts = [["K", n] for n in (4, 5, 6)]
    hosts += [["gnp", n, p, t] for n, p in ARROW_GNP for t in range(4)]
    return [
        {"op": "arrows", "g": g, "h1": a, "h2": b}
        for g in hosts
        for a in ARROW_PATTERNS
        for b in ARROW_PATTERNS
    ]


def _forest_certify(api):
    pairs = [(a, b) for a in STARS for b in FORESTS]
    pairs += [(a, b) for a in CONSTELLATIONS for b in SHORT_FORESTS]
    return [
        {"op": op, "h1": a, "h2": b, "vb": vb}
        for a, b in pairs
        for vb in (6, 7, 8, 9)
        for op in ("mf", "threshold")
    ]


def _gnp_sweep(api):
    out = [
        {
            "op": "containment",
            "h": h,
            "n": n,
            "grid": f"0.5*n^{q},1*n^{q},2*n^{q}",
            "trials": trials,
            "seed": seed,
        }
        for h, q in SWEEP_PATTERNS.items()
        for n in (60, 80, 100, 130, 160, 200)
        for trials in (3, 5, 8, 12, 20)
        for seed in range(2)
    ]
    for h1, h2 in ARROW_SWEEP_PAIRS:
        for n in (6, 7, 8):
            for seed in range(3):
                argv = f"sweep --mode arrow --h1 {h1} --h2 {h2} --n {n}"
                argv += f" --p-grid 0.5*n^-1/2,1*n^-1/2 --trials 5 --seed {seed} --jobs 1"
                out.append({"op": "cli", "argv": argv.split()})
    return out


def _connected_trial(api, n: int, p: float, start: int) -> int:
    t = start
    while len(api.sample_gnp(n, p, POOL_SEED, t).components) != 1:
        t += 1
    return t


def _density_scan(api):
    hosts = [["gnp", n, p, t] for n in range(12, 18) for p in (0.2, 0.35, 0.5) for t in range(3)]
    for n1, n2 in ((6, 6), (6, 8), (7, 7), (7, 9), (8, 8), (6, 10), (8, 9)):
        for k in range(3):
            a = [n1, 0.5, _connected_trial(api, n1, 0.5, 10 * k)]
            b = [n2, 0.4, _connected_trial(api, n2, 0.4, 10 * k + 5)]
            hosts.append(["bridge", a, b, k % n1, (2 * k) % n2])
    return [{"op": op, "g": g} for g in hosts for op in ("m", "m2")]


# name -> (candidates, operations per round, cost cap in ms for the universe)
WORKLOADS = {
    "arrow_decide": (_arrow_decide, 160, 250.0),
    "forest_certify": (_forest_certify, 100, 300.0),
    "gnp_sweep": (_gnp_sweep, 50, 300.0),
    "density_scan": (_density_scan, 50, 300.0),
}
# operations every seed runs, outside the seeded draw and the cost cap: the
# README sweep as written, and in forest_certify one pair whose fallback
# construction tree (11111 vertices) sets the workload's peak memory, so
# that peak does not depend on whether a seed happens to draw that pair
FIXED = {
    "gnp_sweep": [{"op": "cli", "argv": README_SWEEP.split()}],
    "forest_certify": [{"op": "threshold", "h1": "K1,4", "h2": "P4", "vb": 7}],
}


def key(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def host_graph(api, h):
    if h[0] == "K":
        return api.complete_graph(h[1])
    if h[0] == "gnp":
        return api.sample_gnp(h[1], h[2], POOL_SEED, h[3])
    a, b, u, v = h[1:]
    return api.bridge_join(api.sample_gnp(*a[:2], POOL_SEED, a[2]), api.sample_gnp(*b[:2], POOL_SEED, b[2]), u, v)


def build(api, spec: dict):
    """Make the inputs of one operation and return a call that runs it.

    Inputs are kept as edge lists and turned into fresh ``Graph`` objects
    on every call, so no cached graph property carries over between
    rounds.  Package functions are looked up at call time, so the traced
    round sees the wrapped entry points.
    """
    G = api.Graph.of

    def edges(g):
        return g.n, g.sorted_edges

    def pattern(name):
        return edges(api.parse_graph(spec[name]))

    op = spec["op"]
    if op == "arrows":
        g, h1, h2 = edges(host_graph(api, spec["g"])), pattern("h1"), pattern("h2")
        return lambda: api.arrows(G(*g), G(*h1), G(*h2))
    if op in ("mf", "threshold"):
        h1, h2, vb = pattern("h1"), pattern("h2"), spec["vb"]
        if op == "mf":
            mf = sys.modules["ramsey_lab.mf"]
            return lambda: mf.solve(G(*h1), G(*h2), vertex_budget=vb)
        return lambda: api.threshold(G(*h1), G(*h2), vertex_budget=vb)
    if op == "containment":
        h, n, trials, seed = pattern("h"), spec["n"], spec["trials"], spec["seed"]
        grid = api.parse_p_grid(spec["grid"], n)
        return lambda: api.containment_sweep(G(*h), n, grid, trials, seed)
    if op == "cli":
        cli, argv = sys.modules["ramsey_lab.cli"], list(spec["argv"])

        def run_cli():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return run_cli
    if op in ("m", "m2"):
        g = edges(host_graph(api, spec["g"]))
        if op == "m":
            return lambda: api.max_density(G(*g))
        return lambda: api.max_2_density(G(*g))
    raise ValueError(f"unknown operation {op!r}")


def render(api, spec: dict, result) -> str:
    """Canonical text of a result: everything the output check compares."""
    op = spec["op"]
    if isinstance(result, BaseException):
        return f"refused {type(result).__name__}: {result}"
    if op == "arrows":
        if result.arrows:
            return f"Arrows {result.colourings_examined}"
        return f"NotArrows {result.colourings_examined} {result.counterexample!r}"
    if op == "mf":
        witness = sorted(result.upper_witness.edges) if result.upper_witness else None
        fractions = f"exact fractions: {result.lower!r} {result.upper!r}"
        return f"{result.to_text()}\n{fractions}\nwitness edges: {witness}"
    if op == "threshold":
        prov = sorted((k, repr(v)) for k, v in result.provenance.items())
        return f"{result.describe()}\nexact: {result.exact!r} bounds: {result.bounds!r}\nprovenance: {prov}"
    if op == "containment":
        return api.rows_to_csv(result)
    if op == "cli":
        code, out, err = result
        return f"exit {code}\n{out}stderr: {err}"
    return f"{result.numerator}/{result.denominator}"
