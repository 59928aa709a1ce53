import os
import subprocess
import sys
from pathlib import Path

from ramsey_lab.cli import main

SRC = Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_density_command(capsys):
    code, out, _ = run(capsys, "density", "--m2", "K3")
    assert code == 0 and out == "m2 = 2\n"
    code, out, _ = run(capsys, "density", "K1,2")
    assert "m = 2/3" in out and "m2 = 1" in out


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "M2")
    assert code == 0
    assert "matching: true" in out
    assert "constellation: true" in out
    assert "nonisolated: 4" in out


def test_arrow_command(capsys):
    code, out, _ = run(capsys, "arrow", "--g", "P2", "--h1", "K1,2", "--h2", "K1,2")
    assert code == 0 and out == "Arrows (2 colourings examined)\n"
    # every copy of K2 is rainbow, so all Bell(3) colourings are settled
    code, out, _ = run(capsys, "arrow", "--g", "K3", "--h1", "K4", "--h2", "K2")
    assert code == 0 and out == "Arrows (5 colourings examined)\n"
    code, out, _ = run(capsys, "arrow", "--g", "P3", "--h1", "M2", "--h2", "P3")
    assert code == 0 and out.startswith("NotArrows (counterexample:")
    assert "(0,1)=0 (1,2)=0 (2,3)=1" in out


def test_ramsey_number_command(capsys):
    code, out, _ = run(capsys, "ramsey-number", "--h1", "K1,2", "--h2", "K1,2", "--n-max", "5")
    assert code == 0 and out == "r_c = 3\n"
    code, out, _ = run(capsys, "ramsey-number", "--h1", "K1,2", "--h2", "K1,2", "--n-max", "2")
    assert out == "r_c > 2\n"


def test_threshold_command(capsys):
    code, out, _ = run(capsys, "threshold", "--h1", "K3", "--h2", "P3")
    assert code == 0 and out == "exponent = -1/2; case = two-colour-density\n"
    code, out, _ = run(capsys, "threshold", "--h1", "K1,2", "--h2", "K1,2+K1,2")
    assert "case = arrowing-forest-density" in out and "-1/m_F" in out


def test_threshold_open_problem_exit(capsys):
    code, _, err = run(capsys, "threshold", "--h1", "K1,2", "--h2", "K3")
    assert code == 1
    assert "open" in err


def test_mf_command(capsys):
    code, out, _ = run(capsys, "mf", "--h1", "K1,2", "--h2", "K1,2")
    assert code == 0
    assert "upper: 2/3" in out and "exact: true" in out


def test_star_construction_above_the_vertex_budget_is_a_fallback_not_a_refusal(capsys):
    """The star construction tree is lazy, so its size bounds m_F without
    being built, even far above the budget that guards its graph."""
    code, out, err = run(capsys, "mf", "--h1", "K1,4", "--h2", "P6", "--vertex-budget", "3")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "upper: 17895696/17895697" in lines and "upper-verified: false" in lines
    assert lines[-1] == "level-4: incomplete (fell back to complete 16-ary tree of height 6)"
    code, out, err = run(capsys, "threshold", "--h1", "K1,4", "--h2", "P6", "--vertex-budget", "3")
    assert (code, err) == (0, "")
    assert out.startswith("exponent in [-3/2, -17895697/17895696];")


def test_f_of_h_command(capsys):
    code, out, _ = run(capsys, "f-of-h", "P3")
    assert code == 0 and out.splitlines()[0] == "f = 3"


def test_colour_command(capsys):
    code, out, _ = run(capsys, "colour", "--f", "P3", "--mode", "long-path")
    assert code == 0
    assert out.splitlines() == ["(0,1): 0", "(1,2): 0", "(2,3): 1"]
    code, out, _ = run(capsys, "colour", "--f", "P2", "--mode", "descendant", "--root", "1")
    assert code == 0 and len(out.splitlines()) == 2


def test_construct_command(capsys):
    code, out, _ = run(capsys, "construct", "--kind", "constellation", "--s", "2")
    assert code == 0
    assert "arity = 76" in out and "vertices = 444829" in out
    code, out, _ = run(capsys, "construct", "--kind", "star-arrow", "--s", "2", "--h2", "P3")
    assert "arity = 3" in out and "vertices = 40" in out


def test_construct_binary_host_counts_leaves_past_a_machine_word(capsys):
    # 2^63 leaves: more than a range's length can hold
    code, out, err = run(capsys, "construct", "--kind", "binary-host", "--height", "9")
    n = sum(2 ** (i * (i - 1) // 2 + 3 * i) for i in range(10))
    assert (code, out, err) == (0, f"vertices = {n}\nleaves = {2 ** 63}\n", "")


def test_lazy_hosts_answer_at_any_size_and_only_edges_are_refused(capsys):
    assert run(capsys, "construct", "--kind", "ary-tree", "--d", "2", "--height", "30") == (
        0, "vertices = 2147483647\n", ""
    )
    code, out, err = run(capsys, "construct", "--kind", "star-arrow", "--s", "5", "--h2", "P8")
    assert (code, err) == (0, "") and "vertices = 518112356281" in out.splitlines()
    budget_line = "refused: {} vertices exceeds the budget of 1048576\n"
    refusals = {
        ("ary-tree", "--d", "2", "--height", "30"): budget_line.format(2147483647),
        ("constellation", "--s", "3"): budget_line.format(11441476),
    }
    for argv, line in refusals.items():
        assert run(capsys, "construct", "--kind", *argv, "--edges") == (1, "", line)


def test_construct_edges_on_every_kind(capsys):
    code, out, err = run(capsys, "construct", "--kind", "binary-host", "--height", "2", "--edges")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == ["vertices = 137", "leaves = 128"]
    # depth 0 has 8 children and each of them 16
    edges = [f"0 {v}" for v in range(1, 9)] + [f"{1 + (v - 9) // 16} {v}" for v in range(9, 137)]
    assert lines[2:] == edges


def test_copies_cap_below_one_refused(capsys):
    for command in ("mf", "threshold"):
        argv = (command, "--h1", "K1,2", "--h2", "P3", "--copies-cap", "0")
        assert run(capsys, *argv) == (1, "", "refused: copies cap must be >= 1\n")


def test_numbers_past_the_digit_limit_are_refusals_not_tracebacks(capsys):
    """The interpreter converts at most 4300 digits between int and str by
    default; every count past that is refused, at exit 1, and every DSL
    number past it is a parse error, at exit 2."""
    printing = "refused: a count has more than 4300 digits to print\n"
    cases = {
        ("construct", "--kind", "ary-tree", "--d", "10", "--height", "5000"): (1, printing),
        ("construct", "--kind", "binary-host", "--height", "300"): (1, printing),
        ("construct", "--kind", "constellation", "--s", "1" + "0" * 500): (1, printing),
        ("mf", "--h1", "K1,100", "--h2", "P3000"): (1, printing),
        ("threshold", "--h1", "K1,100", "--h2", "P3000"): (1, printing),
        ("density", "T(10,5000)"): (1, "refused: tree T(10,5000) has at least 2^16609 vertices,"
                                       " above the cap 1000000\n"),
        ("density", "K1," + "1" * 5000): (2, "parse error: a number in the term is too long\n"),
        ("density", "P" + "1" * 5000): (2, "parse error: a number in the term is too long\n"),
    }
    for argv, (code, line) in cases.items():
        assert run(capsys, *argv) == (code, "", line), argv[:3]


def test_dsl_terms_above_the_cap_are_refusals(capsys):
    # refused from the term's counts, so nothing the size of the star is built
    assert run(capsys, "density", "K1,30000000") == (
        1, "", "refused: term K1,30000000 has 30000001 vertices, above the cap 1000000\n"
    )
    assert run(capsys, "density", "K2000") == (
        1, "", "refused: term K2000 has 1999000 edges, above the cap 1000000\n"
    )


def test_large_trees_and_edge_lists_are_refusals(capsys):
    # refused from the height and from the vertex count, before anything is built
    assert run(capsys, "density", "B40000000") == (
        1, "", "refused: tree T(2,40000000) has at least 2^40000000 vertices, above the cap 1000000\n"
    )
    assert run(capsys, "density", "100000000; 0 1") == (
        1, "", "refused: the edge list has 100000000 vertices, above the cap 1000000\n"
    )


def test_subset_walk_budget_refusals(capsys):
    # refused from the vertex count before the 2^n walk starts
    line = "refused: {n} vertices exceeds the subset-walk budget of {b}; raise --density-budget to walk all 2^{n} vertex subsets\n"
    cases = {
        ("density", "P40"): line.format(n=41, b=26),
        ("threshold", "--h1", "K30", "--h2", "P3"): line.format(n=30, b=26),
        ("density", "1000000; 0 1"): line.format(n=1000000, b=26),
        ("density", "K5", "--density-budget", "4"): line.format(n=5, b=4),
        ("threshold", "--h1", "K5", "--h2", "P3", "--density-budget", "4"): line.format(n=5, b=4),
    }
    for argv, expected in cases.items():
        assert run(capsys, *argv) == (1, "", expected), argv
    assert run(capsys, "density", "K5", "--density-budget", "5") == (0, "m = 2\nm2 = 3\n", "")
    assert run(capsys, "threshold", "--h1", "K5", "--h2", "P3", "--density-budget", "5") == (
        0, "exponent = -1/3; case = two-colour-density\n", ""
    )


def test_sweep_command_replays(capsys):
    argv = [
        "sweep", "--mode", "containment", "--h", "K3", "--n", "20",
        "--p-grid", "0.02,0.1", "--trials", "40", "--seed", "9",
    ]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out1 == out2
    assert out1.splitlines()[0] == "n,p,trials,successes,undecided,estimate,stderr,seed"
    assert len(out1.splitlines()) == 3


def test_sweep_arrow_mode(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--mode", "arrow", "--h1", "K1,2", "--h2", "K1,2",
        "--n", "5", "--p-grid", "0.2,0.8", "--trials", "30", "--seed", "4",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 2


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "density", "WAT")
    assert code == 2
    assert "parse error" in err


def test_budget_refusal_exit_code(capsys):
    code, _, err = run(capsys, "arrow", "--g", "K7", "--h1", "K1,2", "--h2", "K1,2")
    assert code == 1
    assert "refused" in err


def test_edge_list_file_input(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("3\n0 1\n1 2\n")
    code, out, _ = run(capsys, "density", "--m", f"@{f}")
    assert code == 0 and out == "m = 2/3\n"


def test_jobs_default_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("RAMSEY_LAB_JOBS", "2")
    argv = [
        "sweep", "--mode", "containment", "--h", "K2", "--n", "8",
        "--p-grid", "0.3", "--trials", "20", "--seed", "6",
    ]
    code, out_env, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.delenv("RAMSEY_LAB_JOBS")
    code, out_one, _ = run(capsys, *argv)
    assert out_env == out_one  # worker count never changes the rows


def test_unreadable_edge_list_file_is_a_parse_error(capsys, tmp_path):
    binary = tmp_path / "binary.edges"
    binary.write_bytes(b"\xff\xfe\x00")
    for target in (tmp_path / "missing.edges", tmp_path, binary):
        code, out, err = run(capsys, "density", f"@{target}")
        assert code == 2 and out == ""
        assert err.startswith("parse error: cannot read edge list")


def test_all_undecided_sweep_row_leaves_estimate_empty(capsys):
    code, out, _ = run(
        capsys, "sweep", "--mode", "arrow", "--h1", "K1,2", "--h2", "P3",
        "--n", "30", "--p-grid", "0.9", "--trials", "5",
    )
    assert code == 0
    assert out.splitlines()[1] == "30,0.9,5,0,5,,,0"


def test_sweep_bad_grid_is_a_parse_error(capsys):
    for grid in ("abc", "1/0", "0.5*n^x"):
        code, out, err = run(
            capsys, "sweep", "--mode", "containment", "--h", "K3", "--n", "10", "--p-grid", grid,
        )
        assert code == 2 and out == ""
        assert err.startswith("parse error:") and repr(grid) in err


def test_sweep_power_grid_at_n_zero_refused(capsys):
    code, out, err = run(
        capsys, "sweep", "--mode", "containment", "--h", "K3", "--n", "0", "--p-grid", "1*n^-1",
    )
    assert code == 1 and out == ""
    assert err.startswith("refused:")


def test_sweep_negative_trials_refused(capsys):
    for mode in (["--mode", "containment", "--h", "K3"], ["--mode", "arrow", "--h1", "K3", "--h2", "P3"]):
        code, out, err = run(
            capsys, "sweep", *mode, "--n", "10", "--p-grid", "0.5", "--trials", "-3",
        )
        assert code == 1 and out == ""
        assert "trial count must be non-negative" in err


def test_refusal_lines(capsys):
    refusals = {
        ("construct", "--kind", "ary-tree", "--d", "2"): "refused: ary-tree needs --d and --height\n",
        ("sweep", "--mode", "arrow", "--h1", "K1,2", "--n", "5", "--p-grid", "0.5"):
            "refused: arrow sweep needs --h1 and --h2\n",
        ("sweep", "--mode", "containment", "--n", "5", "--p-grid", "0.5"):
            "refused: containment sweep needs --h\n",
        ("sweep", "--mode", "arrow", "--h1", "K1,2", "--h2", "P3", "--n", "-1", "--p-grid", "0.5", "--trials", "0"):
            "refused: vertex count must be non-negative\n",
        ("arrow", "--g", "K4", "--h1", "K3", "--h2", "P3", "--edge-budget", "5"):
            "refused: 6 edges exceeds the colouring search budget of 5;"
            " raise edge_budget to force the search\n",
        ("mf", "--h1", "K1,2", "--h2", "P3", "--vertex-budget", "0"): "refused: vertex budget must be >= 1\n",
        ("threshold", "--h1", "K1,2", "--h2", "P3", "--vertex-budget", "-3"): "refused: vertex budget must be >= 1\n",
        # a pair outside the forest search has its budgets checked all the same
        ("threshold", "--h1", "K3", "--h2", "P3", "--vertex-budget", "0"): "refused: vertex budget must be >= 1\n",
        ("threshold", "--h1", "K3", "--h2", "P3", "--copies-cap", "0"): "refused: copies cap must be >= 1\n",
        ("sweep", "--mode", "containment", "--h", "K3", "--n", "10", "--p-grid", ",", "--trials", "1"):
            "refused: empty probability grid\n",
        ("sweep", "--mode", "containment", "--h", "K3", "--n", "-1", "--p-grid", "1*n^-1", "--trials", "1"):
            "refused: grid term '1*n^-1' needs n >= 0\n",
        ("mf", "--h1", "K1,2", "--h2", "K2"): "refused: patterns need at least two edges each\n",
    }
    for argv, line in refusals.items():
        assert run(capsys, *argv) == (1, "", line)


def test_containment_sweep_search_depth_does_not_grow_with_the_pattern(capsys, low_recursion_limit):
    # the recursive search took one frame per placed pattern vertex, 151 here
    code, out, err = run(
        capsys, "sweep", "--mode", "containment", "--h", "K1,150", "--n", "160",
        "--p-grid", "0.5,0.99,1", "--trials", "2",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["160,0.5,2,0,0,0.0,0.0,0", "160,0.99,2,2,0,1.0,0.0,0", "160,1.0,2,2,0,1.0,0.0,0"]


def test_closed_pipe_exits_cleanly():
    """A reader that stops early (``| head -1``) ends the run with exit 0
    and no traceback; the output is larger than a pipe buffer."""
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ramsey_lab.cli", "construct", "--kind", "ary-tree",
         "--d", "2", "--height", "14", "--edges"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"vertices = 32767\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in err and "Exception ignored" not in err


STDLIB_ONLY = """
import sys
sys.path.insert(0, sys.argv[1])
import ramsey_lab, ramsey_lab.cli
for argv in (
    ["mf", "--h1", "K1,2", "--h2", "P3"],
    ["sweep", "--mode", "arrow", "--h1", "K1,2", "--h2", "P3", "--n", "7",
     "--p-grid", "0.3,0.5,0.7", "--trials", "20", "--seed", "1", "--jobs", "1"],
    ["density", "K4"],
):
    assert ramsey_lab.cli.main(argv) == 0, argv
top = {name.partition(".")[0] for name in sys.modules}
print(sorted(top - set(sys.stdlib_module_names) - {"ramsey_lab", "__main__"}))
"""


def test_package_runs_on_the_standard_library_alone():
    """Without site-packages (``-S``) and with no ``PYTHON*`` variables
    (``-E``), the package imports, answers three commands, and loads no
    module from outside the standard library."""
    proc = subprocess.run(
        [sys.executable, "-S", "-E", "-c", STDLIB_ONLY, str(SRC)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
