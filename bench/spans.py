"""Spans around the package's public entry points, recorded from outside ``src/``.

A traced round replaces each entry point in ``ENTRY_POINTS`` by a wrapper
in every ``ramsey_lab`` module that holds a reference to it: the modules
import names directly (``from .graphs import contains``), so patching the
defining module alone would miss most callers.  Every call records one
span (name, start, end, parent span, operation id) plus a small ``info``
value taken from its arguments or result.  Spans stay in memory; the
per-layer metrics are computed from them after the round.
"""

from __future__ import annotations

import sys
from time import perf_counter

# span name -> (module, attribute) of the wrapped entry points
ENTRY_POINTS = {
    "arrows": [("arrows", "arrows")],
    "graphs.mono_finder": [("graphs", "find_monochromatic_copy")],
    "graphs.rainbow_finder": [("graphs", "find_rainbow_copy")],
    "graphs.contains": [("graphs", "contains")],
    "graphs.enumerate_trees": [("graphs", "enumerate_trees")],
    "graphs.tree_code": [("graphs", "tree_code")],
    "mf.solve": [("mf", "solve")],
    "constructions.component_mono": [("constructions", "component_mono_colouring")],
    "constructions.upper_bound": [("mf", "construction_upper_bound")],
    "threshold": [("threshold", "threshold")],
    "gnp.sweep": [("gnp", "containment_sweep"), ("gnp", "arrow_probability")],
    "gnp.uniforms": [("gnp", "pair_uniforms")],
    "gnp.pair_order": [("gnp", "pair_order")],
    "densities.m": [("densities", "max_density")],
    "densities.m2": [("densities", "max_2_density")],
    "cli.main": [("cli", "main")],
}


def _found(args, result):
    return result is not None


def _truthy(args, result):
    return bool(result)


def _verdict(args, result):
    return ("A" if result.arrows else "N", result.colourings_examined)


def _mf_counts(args, result):
    cheap = exhausted = refused = witness = 0
    for rec in result.levels:
        refused += len(rec.refusals)
        witness += rec.status == "witness"
        for entry in rec.refuted:
            if entry.endswith("[exhausted]"):
                exhausted += 1
            else:
                cheap += 1
    return (cheap + exhausted + refused + witness, cheap, exhausted, refused)


def _samples(args, result):
    rows = result if isinstance(result, list) else [result]
    return (sum(r.trials - r.undecided for r in rows), sum(r.undecided for r in rows))


def _subsets(args, result):
    return (1 << args[0].n) - 1


INFO = {
    "arrows": _verdict,
    "graphs.mono_finder": _found,
    "graphs.rainbow_finder": _found,
    "graphs.contains": _truthy,
    "mf.solve": _mf_counts,
    "gnp.sweep": _samples,
    "densities.m": _subsets,
    "densities.m2": _subsets,
}

GENERATORS = {"graphs.enumerate_trees"}


def unit(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith("ratio") or metric == "trace.overhead":
        return "ratio"
    return "count"


class Tracer:
    """Span store for one traced round; ``install`` patches, ``remove`` restores."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.info: list = []
        self.current_op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.info.append(None)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        info = INFO.get(name)
        opened, closed, infos = self._open, self._close, self.info

        def wrapper(*args, **kwargs):
            i = opened(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(i)
            if info is not None:
                infos[i] = info(args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Each ``next`` on the generator is one span; the first of a call
        carries info "call" and every span that yields carries "item"."""
        opened, closed, infos = self._open, self._close, self.info

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            first = True
            while True:
                i = opened(name)
                try:
                    item = next(inner)
                except StopIteration:
                    closed(i)
                    infos[i] = "call" if first else "end"
                    return
                except BaseException:
                    closed(i)
                    raise
                closed(i)
                infos[i] = "call+item" if first else "item"
                first = False
                yield item

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "ramsey_lab" or k.startswith("ramsey_lab.")]
        for name, targets in ENTRY_POINTS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[f"ramsey_lab.{mod_name}"], attr)
                wrapped = (self._wrap_generator if name in GENERATORS else self._wrap)(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, value))
                            setattr(mod, key, wrapped)

    def remove(self) -> None:
        for mod, key, value in reversed(self._patches):
            setattr(mod, key, value)
        self._patches.clear()

    def spans(self):
        """Rows of (id, name, start, end, parent, op) for writing out."""
        return [
            [i, self.name[i], self.start[i], self.end[i], self.parent[i], self.op[i]]
            for i in range(len(self.name))
        ]


def layer_metrics(t: Tracer, wall: float) -> tuple[dict, list[str]]:
    """Per-layer counts and seconds of one traced round, and coverage problems.

    ``wall`` is the round's summed operation time.  Self time is a span's
    duration minus its children's; the layers' self times plus the
    benchmark's own time (wall minus the root spans) must cover ``wall``.
    """
    n = len(t.name)
    dur = [t.end[i] - t.start[i] for i in range(n)]
    child = [0.0] * n
    root = 0.0
    for i in range(n):
        p = t.parent[i]
        if p < 0:
            root += dur[i]
        else:
            child[p] += dur[i]
    busy: dict[str, float] = {}
    selft: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in range(n):
        name = t.name[i]
        calls[name] = calls.get(name, 0) + 1
        selft[name] = selft.get(name, 0.0) + dur[i] - child[i]
        # only the outermost span of a name counts towards its busy time
        p = t.parent[i]
        while p >= 0 and t.name[p] != name:
            p = t.parent[p]
        if p < 0:
            busy[name] = busy.get(name, 0.0) + dur[i]

    problems = []
    own = wall - root
    covered = sum(selft.values()) + own
    if own < -1e-6 or abs(covered - wall) > 1e-6 + 1e-9 * n:
        problems.append(f"layer self times plus benchmark time {covered:.6f}s do not cover wall {wall:.6f}s")
    worst = min((dur[i] - child[i] for i in range(n)), default=0.0)
    if worst < -1e-6:
        problems.append(f"a span's children outlast it by {-worst:.6f}s")

    def under(name: str, parent_name: str):
        return [i for i in range(n) if t.name[i] == name and t.parent[i] >= 0 and t.name[t.parent[i]] == parent_name]

    def infos(name: str):
        return [t.info[i] for i in range(n) if t.name[i] == name and t.info[i] is not None]

    m: dict[str, float] = {}

    def put(name: str, *fields: str) -> None:
        values = {
            "calls": lambda: calls.get(name, 0),
            "s": lambda: busy.get(name, 0.0),
            "self_s": lambda: selft.get(name, 0.0),
            "hits": lambda: sum(1 for x in infos(name) if x),
        }
        for f in fields:
            m[f"{name}.{f}"] = values[f]()

    verdicts = [(t.info[i], dur[i]) for i in range(n) if t.name[i] == "arrows" and t.info[i] is not None]
    finder_spans = under("graphs.mono_finder", "arrows") + under("graphs.rainbow_finder", "arrows")
    checks = len(under("graphs.mono_finder", "arrows"))
    prunes = sum(1 for i in finder_spans if t.info[i])
    m["arrows.decisions"] = len(verdicts)
    put("arrows", "s", "self_s")
    m["arrows.arrows_s"] = sum(d for (v, _), d in verdicts if v == "A")
    m["arrows.notarrows_s"] = sum(d for (v, _), d in verdicts if v == "N")
    m["arrows.nodes"] = len(finder_spans)
    m["arrows.prunes"] = prunes
    m["arrows.prune_ratio"] = prunes / checks if checks else 0.0
    m["arrows.colourings_examined"] = sum(x for (_, x), _ in verdicts)

    put("graphs.mono_finder", "calls", "s", "hits")
    put("graphs.rainbow_finder", "calls", "s", "hits")
    put("graphs.contains", "calls", "s", "hits")
    slices = infos("graphs.enumerate_trees")
    m["graphs.enumerate_trees.calls"] = sum(1 for x in slices if x.startswith("call"))
    put("graphs.enumerate_trees", "s")
    m["graphs.enumerate_trees.trees"] = sum(1 for x in slices if x.endswith("item"))
    put("graphs.tree_code", "calls", "s")

    put("mf.solve", "calls", "s", "self_s")
    reports = infos("mf.solve")
    for j, key in enumerate(("candidates", "refuted_cheap", "refuted_exhausted", "refused")):
        m[f"mf.{key}"] = sum(r[j] for r in reports)
    mf_arrows = under("arrows", "mf.solve")
    m["mf.arrows.calls"] = len(mf_arrows)
    m["mf.arrows.s"] = sum((dur[i] for i in mf_arrows), 0.0)

    put("constructions.component_mono", "calls", "s")
    put("constructions.upper_bound", "calls", "s")
    put("threshold", "calls", "s")

    put("gnp.sweep", "calls", "s", "self_s")
    put("gnp.uniforms", "calls", "s")
    put("gnp.pair_order", "s")
    gnp_arrows = under("arrows", "gnp.sweep")
    m["gnp.arrows.calls"] = len(gnp_arrows)
    m["gnp.arrows.s"] = sum((dur[i] for i in gnp_arrows), 0.0)
    sweeps = infos("gnp.sweep")
    m["gnp.samples"] = sum(s for s, _ in sweeps)
    m["gnp.undecided"] = sum(u for _, u in sweeps)

    put("densities.m", "calls", "s")
    put("densities.m2", "calls", "s")
    m["densities.subsets"] = sum(infos("densities.m")) + sum(infos("densities.m2"))

    put("cli.main", "calls", "s", "self_s")
    m["bench.own_s"] = own
    return m, problems
