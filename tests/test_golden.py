"""Golden stdout and exit codes of the README ``ramsey-lab`` commands.

Each case runs ``cli.main`` in-process from inside ``tests/golden`` (so
``@g16.edges`` resolves there) and must reproduce the recorded stdout
byte for byte.  ``cases.json`` holds the argv and exit code of each
case, ``<name>.out`` its stdout.  After a deliberate output change,
re-record with ``PYTHONPATH=src python tests/test_golden.py --record``
and say why in the change log.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from ramsey_lab.cli import main

GOLDEN = Path(__file__).parent / "golden"

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
}


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


def _record() -> None:
    os.environ.pop("RAMSEY_LAB_JOBS", None)
    cases = {}
    for name, argv in CASES.items():
        code, out = _run(argv)
        (GOLDEN / f"{name}.out").write_text(out, encoding="utf-8")
        cases[name] = {"argv": argv, "exit": code}
    (GOLDEN / "cases.json").write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    _record()
