"""Golden stdout and exit codes of the README ``ramsey-lab`` commands.

Each case runs ``cli.main`` in-process from inside ``tests/golden`` (so
``@g16.edges`` resolves there) and must reproduce the recorded stdout
byte for byte.  ``cases.json`` holds the argv and exit code of each
case, ``<name>.out`` its stdout.  The demos that replay witnesses
(``demos/03``-``06``) run in-process with ``runpy`` and must reproduce
``demo_<stem>.out``.  ``witnesses.json`` holds the kind and mapping of
every copy the construction searches return on fixed hosts and
colourings.  After a deliberate output change, re-record with
``PYTHONPATH=src python tests/test_golden.py --record`` and say why in
the change log.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import sys
from functools import partial
from pathlib import Path

import pytest

from ramsey_lab.cli import main
from ramsey_lab.constructions import (
    constellation_arrow_tree,
    disjoint_rainbow_trees,
    find_mono_or_rainbow,
    find_monochromatic_star,
    greedy_rainbow_embed,
    star_arrow_tree,
)
from ramsey_lab.graphs import Colouring, Embedding, complete_graph, parse_graph, star
from ramsey_lab.tree_labels import (
    embed_rainbow_binary,
    lazy_descendant_colouring,
    rainbow_binary_host,
)

GOLDEN = Path(__file__).parent / "golden"
DEMOS = Path(__file__).parent.parent / "demos"

CASES = {
    "density_m2_K3": ["density", "--m2", "K3"],
    "classify_M2": ["classify", "M2"],
    "arrow_P2_cherry_cherry": ["arrow", "--g", "P2", "--h1", "K1,2", "--h2", "K1,2"],
    "ramsey_number_cherry_cherry": [
        "ramsey-number", "--h1", "K1,2", "--h2", "K1,2", "--n-max", "5",
    ],
    "threshold_K3_P3": ["threshold", "--h1", "K3", "--h2", "P3"],
    "mf_cherry_cherry": ["mf", "--h1", "K1,2", "--h2", "K1,2"],
    "f_of_h_P3": ["f-of-h", "P3"],
    "colour_P3_long_path": ["colour", "--f", "P3", "--mode", "long-path"],
    "construct_constellation_2": ["construct", "--kind", "constellation", "--s", "2"],
    "sweep_containment_K3": [
        "sweep", "--mode", "containment", "--h", "K3", "--n", "60",
        "--p-grid", "0.25*n^-1,0.5*n^-1,1*n^-1,2*n^-1,4*n^-1",
        "--trials", "300", "--seed", "2024",
    ],
    "density_g16": ["density", "@g16.edges"],
    "sweep_arrow_cherry_P3": [
        "sweep", "--mode", "arrow", "--h1", "K1,2", "--h2", "P3", "--n", "7",
        "--p-grid", "0.3,0.5,0.7", "--trials", "20", "--seed", "1",
    ],
    # an isolated pattern vertex, an unsorted grid with p = 0, p = 1 and a
    # repeated point
    "sweep_containment_cherry_plus_K1": [
        "sweep", "--mode", "containment", "--h", "K1,2+K1", "--n", "30",
        "--p-grid", "1,0.5*n^-1,0,2*n^-1,2*n^-1", "--trials", "20", "--seed", "3",
        "--jobs", "1",
    ],
    "sweep_containment_edgeless": [
        "sweep", "--mode", "containment", "--h", "K1+K1", "--n", "5",
        "--p-grid", "0,0.5,1", "--trials", "10", "--seed", "1", "--jobs", "1",
    ],
    "sweep_containment_K4_in_3": [
        "sweep", "--mode", "containment", "--h", "K4", "--n", "3",
        "--p-grid", "0,0.5,1", "--trials", "10", "--seed", "1", "--jobs", "1",
    ],
    # one case for every construct kind and colour mode, and the
    # density/threshold flags the README commands leave out
    "construct_ary_tree_2_2": ["construct", "--kind", "ary-tree", "--d", "2", "--height", "2", "--edges"],
    "construct_binary_host_2": ["construct", "--kind", "binary-host", "--height", "2"],
    "construct_star_arrow_2_P2": ["construct", "--kind", "star-arrow", "--s", "2", "--h2", "P2", "--edges"],
    "colour_star3_P2_high_degree": ["colour", "--f", "K1,3+P2", "--mode", "high-degree"],
    "colour_M2_P2_component_mono": ["colour", "--f", "M2+P2", "--mode", "component-mono"],
    "colour_P3_descendant_root_1": ["colour", "--f", "P3", "--mode", "descendant", "--root", "1"],
    "density_m_K4": ["density", "--m", "K4"],
    "threshold_cherry_two_cherries_no_resolve": [
        "threshold", "--h1", "K1,2", "--h2", "K1,2+K1,2", "--no-resolve",
    ],
    # non-default values of the budget options several commands share
    "mf_cherry_P3_budgets": [
        "mf", "--h1", "K1,2", "--h2", "P3", "--vertex-budget", "5", "--copies-cap", "1",
        "--edge-budget", "8",
    ],
    # a star construction tree far above the vertex budget, read lazily
    "mf_star4_P6_fallback": ["mf", "--h1", "K1,4", "--h2", "P6", "--vertex-budget", "3"],
    # an edge budget below some candidates' edge counts: the level's
    # record names the refused candidates
    "mf_cherry_P4_refused": [
        "mf", "--h1", "K1,2", "--h2", "P4", "--edge-budget", "4", "--vertex-budget", "6",
    ],
    "ramsey_number_cherry_P3_budget": [
        "ramsey-number", "--h1", "K1,2", "--h2", "P3", "--n-max", "6", "--edge-budget", "10",
    ],
    "f_of_h_T22_budget": ["f-of-h", "T(2,2)", "--edge-budget", "6"],
}

DEMO_STEMS = [
    "03_avoiding_colourings",
    "04_arrowing_trees",
    "05_forest_density_and_thresholds",
    "06_descendant_colourings",
]




def _hashed(k: int):
    return lambda u, v: (u * 2654435761 + v * 97193) % k


COLOURINGS = {
    "constant": lambda u, v: 0,
    "min": min,
    "max": max,
    **{f"hash{k}": _hashed(k) for k in (2, 3, 5, 8, 20)},
}


def _witness_cases() -> dict:
    """name -> zero-argument call of a construction search on a fixed host."""
    cases = {}
    for s in (2, 3):
        tree = constellation_arrow_tree(s)
        # a rainbow root, one star colour per depth-1 vertex and rainbow
        # below: the star collection one level down has too few low
        # colour-degree centres, so the cherry greedy takes over there
        down = lambda u, v, d=tree.d: u if 0 < u <= d else v
        for name, chi in {**COLOURINGS, "down": down}.items():
            cases[f"mono_or_rainbow_s{s}_{name}"] = partial(find_mono_or_rainbow, tree, chi, s)
    for s, h2 in [(2, "P3"), (3, "P3"), (2, "M2")]:
        plan = star_arrow_tree(s, parse_graph(h2))
        for name in ("constant", "min", "max", "hash2", "hash3", "hash5"):
            chi = COLOURINGS[name]
            cases[f"greedy_rainbow_s{s}_{h2}_{name}"] = partial(
                greedy_rainbow_embed, plan.tree, chi, plan.rooted_completion
            )
            cases[f"mono_star_s{s}_{h2}_{name}"] = partial(
                find_monochromatic_star, plan.tree, chi, s
            )
    for h in (2, 3):
        host = rainbow_binary_host(h)
        chis = {
            "descendant": lazy_descendant_colouring(host),
            "constant": COLOURINGS["constant"],
            "hash20": COLOURINGS["hash20"],
        }
        for name, chi in chis.items():
            cases[f"rainbow_binary_h{h}_{name}"] = partial(embed_rainbow_binary, host, chi, h)
    k30, k12, t27 = complete_graph(30), complete_graph(12), parse_graph("T(2,7)")
    k3 = parse_graph("K3")
    cases["disjoint_h1_K30_hashed"] = partial(disjoint_rainbow_trees, k30, _hashed(10**9), 2, 1, k3)
    cases["disjoint_h1_T27_rainbow"] = partial(
        disjoint_rainbow_trees, t27, Colouring.rainbow(t27), 2, 1, k3
    )
    cases["disjoint_h1_K12_constant"] = partial(
        disjoint_rainbow_trees, k12, Colouring.constant(k12), 2, 1, star(2)
    )
    # few colours: the first neighbour of each colour decides the leaves
    cases["disjoint_h1_K30_hash5"] = partial(
        disjoint_rainbow_trees, k30, _hashed(5), 2, 1, parse_graph("K1,10")
    )
    cases["disjoint_h1_T27_hash3"] = partial(disjoint_rainbow_trees, t27, _hashed(3), 2, 1, k3)
    k220 = complete_graph(220)
    cases["disjoint_h2_K220_hashed"] = partial(
        disjoint_rainbow_trees, k220, _hashed(10**9), 2, 2, k3
    )
    cases["disjoint_h2_K220_hash50"] = partial(
        disjoint_rainbow_trees, k220, _hashed(50), 2, 2, parse_graph("K1,30")
    )
    return cases


def _witness(found):
    """The kind and mapping of a found copy, a report's copies, or None."""
    if isinstance(found, Embedding):
        return {"kind": found.kind, "mapping": list(found.mapping)}
    if found is None:
        return None
    return {"mono": _witness(found.mono), "copies": [_witness(c) for c in found.copies]}


def _recorded_witnesses() -> dict:
    return json.loads((GOLDEN / "witnesses.json").read_text(encoding="utf-8"))


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def _run_demo(stem: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{stem}.py"), run_name="__main__")
    return out.getvalue()


def _recorded() -> dict:
    return json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def test_golden_cases_match_recorded_argv():
    assert {name: case["argv"] for name, case in _recorded().items()} == CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, monkeypatch):
    monkeypatch.delenv("RAMSEY_LAB_JOBS", raising=False)
    code, out = _run(CASES[name])
    assert code == _recorded()[name]["exit"]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("stem", DEMO_STEMS)
def test_golden_demo_stdout(stem):
    assert _run_demo(stem) == (GOLDEN / f"demo_{stem}.out").read_text(encoding="utf-8")


def test_witness_cases_match_recorded_names():
    assert sorted(_recorded_witnesses()) == sorted(_witness_cases())


@pytest.mark.parametrize("name", sorted(_witness_cases()))
def test_witness_golden(name):
    assert _witness(_witness_cases()[name]()) == _recorded_witnesses()[name]


def _record() -> None:
    os.environ.pop("RAMSEY_LAB_JOBS", None)
    cases = {}
    for name, argv in CASES.items():
        code, out = _run(argv)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        cases[name] = {"argv": argv, "exit": code}
    (GOLDEN / "cases.json").write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    for stem in DEMO_STEMS:
        (GOLDEN / f"demo_{stem}.out").write_text(_run_demo(stem), encoding="utf-8")
    # one case a line, so a changed witness shows as a one-line diff
    lines = [
        f"{json.dumps(name)}: {json.dumps(_witness(call()))}"
        for name, call in _witness_cases().items()
    ]
    (GOLDEN / "witnesses.json").write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
