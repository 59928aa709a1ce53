import bisect
import concurrent.futures
import math
import os
import random
import struct
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import arrow_column_oracle, containment_column_oracle
from ramsey_lab import gnp
from ramsey_lab.arrows import arrows
from ramsey_lab.cli import main
from ramsey_lab.errors import DomainError, GraphParseError
from ramsey_lab.gnp import (
    CSV_HEADER,
    arrow_column,
    arrow_probability,
    arrow_sweep,
    containment_column,
    containment_sweep,
    _process,
    pair_order,
    pair_uniforms,
    parse_p_grid,
    rows_to_csv,
    sample_gnp,
)
from ramsey_lab.graphs import Graph, edge_orbit_plans, matching, parse_graph, path, star

GOLDEN = Path(__file__).parent / "golden"


def test_extreme_probabilities():
    assert sample_gnp(10, 0, seed=1).e == 0
    assert sample_gnp(10, 1, seed=1).e == 45


def test_probability_validated():
    for p in (1.5, -0.25, math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match=r"edge probability must lie in \[0, 1\]"):
            sample_gnp(5, p, seed=0)
        with pytest.raises(DomainError, match=r"edge probability must lie in \[0, 1\]"):
            arrow_probability(5, p, star(2), star(2), trials=3, seed=0)
        # a bad point is refused even after a good one
        with pytest.raises(DomainError, match=r"edge probability must lie in \[0, 1\]"):
            arrow_column(5, star(2), star(2), [0.5, p], 0, 0, 10)


def test_determinism_across_calls():
    a = sample_gnp(15, 0.37, seed=99, trial=3)
    b = sample_gnp(15, 0.37, seed=99, trial=3)
    assert a == b
    assert sample_gnp(15, 0.37, seed=100, trial=3) != a


def test_mean_edge_count_within_four_standard_errors():
    n, p, trials, seed = 12, 0.3, 10_000, 5
    pairs = n * (n - 1) // 2
    total = 0
    for t in range(trials):
        total += sum(u < p for u in pair_uniforms(n, seed, t))
    mean = total / trials
    expect = p * pairs
    stderr = math.sqrt(pairs * p * (1 - p) / trials)
    assert abs(mean - expect) <= 4 * stderr


def test_coupled_samples_nest():
    for t in range(10):
        g1 = sample_gnp(20, 0.1, seed=7, trial=t)
        g2 = sample_gnp(20, 0.35, seed=7, trial=t)
        assert g1.edges <= g2.edges


def test_containment_monotone_and_extremes():
    rows = containment_sweep(parse_graph("K2"), 10, [0.0, 0.2, 1.0], 200, seed=13)
    assert rows[0].estimate == 0.0
    assert rows[-1].estimate == 1.0
    estimates = [r.estimate for r in rows]
    assert estimates == sorted(estimates)  # exact, thanks to coupling


def test_containment_crossing_near_inverse_n():
    n = 60
    grid = [c / n for c in (0.25, 0.5, 1.0, 2.0, 4.0)]
    rows = containment_sweep(parse_graph("K3"), n, grid, 300, seed=2024)
    crossing = next(r.p for r in rows if r.estimate >= 0.5)
    assert 0.25 / n <= crossing <= 4.0 / n


def test_arrow_probability_extremes():
    row = arrow_probability(4, 1.0, star(2), star(2), trials=25, seed=3)
    assert row.estimate == 1.0 and row.undecided == 0
    row = arrow_probability(6, 0.0, star(2), matching(2), trials=25, seed=3)
    assert row.estimate == 0.0


def test_arrow_probability_monotone_under_coupling():
    lo = arrow_probability(6, 0.1, star(2), star(2), trials=150, seed=21)
    hi = arrow_probability(6, 0.5, star(2), star(2), trials=150, seed=21)
    assert lo.undecided == hi.undecided == 0
    assert lo.successes <= hi.successes


def test_arrow_estimates_ordered_around_predicted_exponent():
    # tenfold-separated probabilities around n^(-3/2), the cherry-pair exponent
    n = 6
    centre = n ** -1.5
    lo = arrow_probability(n, centre / 10 ** 0.5, star(2), star(2), trials=250, seed=41)
    hi = arrow_probability(n, min(1.0, centre * 10 ** 0.5), star(2), star(2), trials=250, seed=41)
    assert lo.estimate < hi.estimate


def test_all_undecided_row_has_no_estimate():
    row = arrow_probability(30, 0.9, star(2), path(3), trials=5, seed=0)
    assert row.undecided == 5 and row.successes == 0
    assert row.estimate is None and row.stderr is None
    assert row.csv() == "30,0.9,5,0,5,,,0"
    decided = arrow_probability(6, 0.0, star(2), matching(2), trials=5, seed=0)
    assert decided.csv() == "6,0.0,5,0,0,0.0,0.0,0"


def test_undecided_accounting():
    row = arrow_probability(8, 0.9, star(2), star(2), trials=30, seed=11, edge_cap=10)
    assert row.undecided > 0
    assert row.successes <= row.trials - row.undecided


def test_csv_replay_bit_exact():
    rows1 = containment_sweep(parse_graph("K3"), 12, [0.05, 0.2], 50, seed=31)
    rows2 = containment_sweep(parse_graph("K3"), 12, [0.05, 0.2], 50, seed=31)
    assert rows_to_csv(rows1) == rows_to_csv(rows2)
    assert rows_to_csv(rows1).splitlines()[0] == CSV_HEADER


def test_jobs_do_not_change_results():
    seq = containment_sweep(parse_graph("K3"), 14, [0.1, 0.3], 40, seed=17, jobs=1)
    par = containment_sweep(parse_graph("K3"), 14, [0.1, 0.3], 40, seed=17, jobs=2)
    assert rows_to_csv(seq) == rows_to_csv(par)
    one = arrow_probability(5, 0.4, star(2), star(2), trials=30, seed=23, jobs=1)
    two = arrow_probability(5, 0.4, star(2), star(2), trials=30, seed=23, jobs=2)
    assert one == two


def recording_pool(monkeypatch, cpus: int) -> list[int]:
    """Replace the process pool by an in-process stand-in and pretend
    there are ``cpus`` processors; returns the sizes of the pools made."""
    created = []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    return created


def test_jobs_clamped_to_cpu_count(monkeypatch):
    created = recording_pool(monkeypatch, 3)
    k3 = parse_graph("K3")
    seq = rows_to_csv(containment_sweep(k3, 14, [0.1, 0.3], 40, seed=17, jobs=1))
    assert rows_to_csv(containment_sweep(k3, 14, [0.1, 0.3], 40, seed=17, jobs=64)) == seq
    one = arrow_probability(5, 0.4, star(2), star(2), trials=30, seed=23, jobs=1)
    assert arrow_probability(5, 0.4, star(2), star(2), trials=30, seed=23, jobs=64) == one
    assert created == [3, 3]
    # an unknown processor count is taken as one: no pool at all
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert rows_to_csv(containment_sweep(k3, 14, [0.1, 0.3], 40, seed=17, jobs=64)) == seq
    assert created == [3, 3]


# pattern -> threshold exponent q, so the grid c*n^q straddles the threshold
SWEEP_PATTERNS = {"K3": -1, "K4": -2 / 3, "P3": -4 / 3, "K1,3": -4 / 3, "M2": -2, "K1,2+K1,2": -3 / 2}


@pytest.mark.parametrize("spec", sorted(SWEEP_PATTERNS))
def test_containment_columns_match_per_p_search(spec):
    pattern = parse_graph(spec)
    plans = edge_orbit_plans(pattern)
    for n in (20, 50, 80):
        grid = [0.0] + [c * n ** SWEEP_PATTERNS[spec] for c in (0.5, 1.0, 2.0, 4.0)] + [1.0]
        for seed in (0, 1):
            columns = []
            for t in range(8):
                column = containment_column(n, pattern, plans, grid, seed, t)
                assert column == containment_column_oracle(n, pattern, grid, seed, t), (n, seed, t)
                columns.append(column)
            rows = containment_sweep(pattern, n, grid, 8, seed)
            assert [r.successes for r in rows] == [sum(c) for c in zip(*columns)]


# edgeless, with an isolated vertex, disconnected, and more vertices than any n below
SMALL_PATTERNS = ["K1+K1", "K1+K1+K1+K1+K1", "K2+K1", "K1,2+K1", "M2", "K3+K2", "K1,2+K1,2", "K4", "P3", "K1,9"]
grid_values = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 9),
    st.sampled_from(SMALL_PATTERNS),
    st.lists(grid_values, max_size=6),
    st.integers(0, 2**16),
    st.integers(0, 50),
)
@example(2, "K1+K1", [0.0, 1.0], 0, 0)  # an edgeless pattern that just fits
@example(5, "K1+K1+K1+K1+K1", [0.5], 1, 1)
@example(4, "K4", [1.0, 0.0, 1.0], 2, 3)
def test_containment_column_property(n, spec, grid, seed, trial):
    """The hitting-time column equals the per-p search and never turns
    False as p grows."""
    pattern = parse_graph(spec)
    column = containment_column(n, pattern, edge_orbit_plans(pattern), grid, seed, trial)
    assert column == containment_column_oracle(n, pattern, grid, seed, trial)
    for p, here in zip(grid, column):
        for q, there in zip(grid, column):
            assert not (p <= q and here and not there)


def test_arrow_sweep_opens_one_pool(monkeypatch, capsys):
    """An arrow sweep runs every trial's whole column in one pool, not one
    pool per grid point, and prints the recorded rows."""
    created = recording_pool(monkeypatch, 3)
    code = main([
        "sweep", "--mode", "arrow", "--h1", "K1,2", "--h2", "P3", "--n", "7",
        "--p-grid", "0.3,0.5,0.7", "--trials", "20", "--seed", "1", "--jobs", "64",
    ])
    assert code == 0 and created == [3]
    assert capsys.readouterr().out == (GOLDEN / "sweep_arrow_cherry_P3.out").read_text(encoding="utf-8")


# (h1, h2, n, grid, edge cap): every grid has p = 0, p = 1 and a repeated
# point, and every cap is below the edge count of K_n, so p = 1 and some
# denser points are undecided
ARROW_SWEEPS = [
    ("K1,2", "K1,2", 6, [0.0, 0.3, 0.3, 0.6, 1.0], 10),
    ("K1,2", "P3", 7, [1.0, 0.5, 0.0, 0.5], 8),
    ("K3", "P3", 9, [0.0, 0.5, 0.2, 0.5, 1.0], 12),
    ("M2", "K1,2", 8, [0.0, 0.15, 0.15, 1.0], 6),
]


@pytest.mark.parametrize("h1, h2, n, grid, cap", ARROW_SWEEPS)
def test_arrow_column_matches_per_p_search(h1, h2, n, grid, cap):
    h1, h2 = parse_graph(h1), parse_graph(h2)
    for seed in (0, 1):
        columns = [arrow_column(n, h1, h2, grid, seed, t, cap) for t in range(6)]
        for t, column in enumerate(columns):
            assert column == arrow_column_oracle(n, h1, h2, grid, seed, t, cap), (seed, t)
        rows = arrow_sweep(h1, h2, n, grid, 6, seed, edge_cap=cap)
        for j, row in enumerate(rows):
            outcomes = [c[j] for c in columns]
            assert (row.successes, row.undecided) == (outcomes.count(True), outcomes.count(None))
        assert any(None in column for column in columns)


# a cut-off for the draw: 0, 1, any float, or an int k standing for the
# trial's own k-th uniform (modulo the pair count), which the strict
# comparison u < top must leave out
cut_offs = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.integers(0, 10**4))


def _cut_off(top, us: list[float]) -> float:
    if isinstance(top, float):
        return top
    return us[top % len(us)] if us else 0.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 30), st.integers(0, 2**32), st.integers(0, 50), cut_offs)
@example(30, 5, 2, 17)
@example(1, 0, 0, 0)
def test_process_is_the_sorted_filtered_stream(n, seed, trial, top):
    us = pair_uniforms(n, seed, trial)
    top = _cut_off(top, us)
    assert _process(n, seed, trial, top) == sorted((u, i) for i, u in enumerate(us) if u < top)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 30), st.integers(0, 2**32), st.integers(0, 50), cut_offs)
@example(20, 7, 3, 100)
def test_sample_gnp_keeps_the_pairs_below_p(n, seed, trial, p):
    us = pair_uniforms(n, seed, trial)
    p = _cut_off(p, us)
    expect = Graph.of(n, [e for e, u in zip(pair_order(n), us) if u < p])
    assert sample_gnp(n, p, seed, trial) == expect


def test_random_is_two_words_of_getrandbits_low_first():
    # the draw reads the stream as raw words: random() forms its uniform
    # from two 32-bit words, and getrandbits(64 * k) reads the same words
    # with the first one in the lowest bits
    stream, raw = random.Random(5), random.Random(5).getrandbits(64 * 1000)
    for j in range(1000):
        w1, w2 = raw >> 64 * j & 0xFFFFFFFF, raw >> 64 * j + 32 & 0xFFFFFFFF
        assert stream.random() == ((w1 >> 5) * 2**26 + (w2 >> 6)) / 2**53
    # and the draw reads those words in the same order on any host
    data = raw.to_bytes(8 * 1000, "little")
    assert list(gnp._little_words(data)) == list(struct.unpack("<2000I", data))


def test_draw_is_the_stream_for_every_small_n():
    tops = (0.0, 1e-9, 1 / 256, 2 / 256, 0.01, 0.0585, 0.5, 255 / 256, 1.0)
    for n in range(141):
        for seed in range(3):
            stream = sorted((u, i) for i, u in enumerate(pair_uniforms(n, seed, 0)))
            for top in tops:
                expect = stream[: bisect.bisect_left(stream, (top,))]
                assert _process(n, seed, 0, top) == expect, (n, seed, top)


# a top at, just below or just above a step k/256 of the draw's high-byte gate
gate_tops = st.integers(0, 256).flatmap(
    lambda k: st.sampled_from([k / 256, math.nextafter(k / 256, 0), math.nextafter(k / 256, 1)])
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(90, 140), st.integers(0, 2**32), st.integers(0, 50), gate_tops)
@example(140, 0, 0, 0.0)
@example(140, 0, 0, 1.0)
@example(92, 3, 1, 1 / 256)
@example(92, 3, 1, math.nextafter(255 / 256, 1))
def test_blocked_draw_is_the_stream_at_every_gate_step(n, seed, trial, top):
    # from n = 92 on the draw reads the stream in two or more blocks
    us = pair_uniforms(n, seed, trial)
    assert _process(n, seed, trial, top) == sorted((u, i) for i, u in enumerate(us) if u < top)
    expect = Graph.of(n, [e for e, u in zip(pair_order(n), us) if u < top])
    assert sample_gnp(n, top, seed, trial) == expect


ARROW_PAIRS = [("K1,2", "K1,2"), ("K1,2", "P3"), ("K3", "P3"), ("M2", "K1,2"), ("K2", "K2")]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 8),
    st.sampled_from(ARROW_PAIRS),
    st.lists(cut_offs, max_size=5),
    st.integers(0, 2**16),
    st.integers(0, 50),
    st.integers(0, 12),
)
@example(8, ("K1,2", "P3"), [1.0, 0.0, 0.4, 0.4], 3, 1, 12)
@example(8, ("K1,2", "K1,2"), [5, 9, 5, 0.0], 2, 4, 6)
@example(6, ("K3", "P3"), [], 0, 0, 0)
def test_arrow_column_property(n, pair, grid, seed, trial, cap):
    h1, h2 = (parse_graph(spec) for spec in pair)
    us = pair_uniforms(n, seed, trial)
    grid = [_cut_off(p, us) for p in grid]
    assert arrow_column(n, h1, h2, grid, seed, trial, cap) == arrow_column_oracle(n, h1, h2, grid, seed, trial, cap)


@st.composite
def arrow_trials(draw):
    """n, seed, trial, and a grid holding 0, 1 and a repeated point, the
    others free or the trial's own uniforms, in any order."""
    n, seed, trial = draw(st.integers(0, 8)), draw(st.integers(0, 2**16)), draw(st.integers(0, 50))
    us = pair_uniforms(n, seed, trial)
    points = [_cut_off(p, us) for p in draw(st.lists(cut_offs, min_size=1, max_size=4))]
    return n, seed, trial, draw(st.permutations(points + points[:1] + [0.0, 1.0]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(arrow_trials(), st.sampled_from(ARROW_PAIRS), st.integers(0, 12))
def test_arrow_column_hitting_time_property(trial_grid, pair, cap):
    """The hitting-time column equals the per-p search and never turns
    from True to False as p grows."""
    n, seed, trial, grid = trial_grid
    h1, h2 = (parse_graph(spec) for spec in pair)
    column = arrow_column(n, h1, h2, grid, seed, trial, cap)
    assert column == arrow_column_oracle(n, h1, h2, grid, seed, trial, cap)
    for p, here in zip(grid, column):
        for q, there in zip(grid, column):
            assert not (p <= q and here and there is False)


def test_arrow_column_searches_each_size_once_up_to_the_first_that_arrows(monkeypatch):
    searched: list[int] = []

    def counting_arrows(g, h1, h2, edge_budget):
        searched.append(g.e)
        return arrows(g, h1, h2, edge_budget=edge_budget)

    monkeypatch.setattr(gnp, "arrows", counting_arrows)
    h1, h2, n, cap = star(2), star(2), 8, 12
    grid = [0.0, 0.3, 0.5, 0.3, 0.7, 0.5, 0.15, 1.0]
    stopped_early = repeated = False
    for t in range(12):
        searched.clear()
        column = arrow_column(n, h1, h2, grid, 3, t, cap)
        assert column == arrow_column_oracle(n, h1, h2, grid, 3, t, cap)
        us = pair_uniforms(n, 3, t)
        sizes = [sum(u < p for u in us) for p in grid]
        within = sorted({m for m in sizes if m <= cap})
        least = min((m for m, arrowed in zip(sizes, column) if arrowed), default=math.inf)
        assert searched == [m for m in within if m <= least]
        stopped_early |= len(searched) < len(within)
        repeated |= len(within) < len([m for m in sizes if m <= cap])
    assert stopped_early and repeated
    # a negative cap leaves every point undecided without a search
    searched.clear()
    assert arrow_column(n, h1, h2, grid, 3, 0, -1) == [None] * len(grid)
    assert searched == []


def test_containment_sweep_empty_grid():
    assert containment_sweep(parse_graph("K3"), 10, [], 5, seed=1) == []


def test_negative_trials_and_vertex_count_refused():
    with pytest.raises(DomainError):
        containment_sweep(parse_graph("K3"), 10, [0.5], -3, seed=0)
    with pytest.raises(DomainError):
        containment_sweep(parse_graph("K3"), -1, [0.5], 3, seed=0)
    with pytest.raises(DomainError, match="vertex count must be non-negative"):
        sample_gnp(-3, 0.9, seed=0)
    with pytest.raises(DomainError):
        arrow_probability(5, 0.5, star(2), star(2), trials=-1, seed=0)
    # refused up front, even when no trial would build a sample
    with pytest.raises(DomainError, match="vertex count must be non-negative"):
        arrow_sweep(star(2), path(3), -1, [0.5], 0, seed=0)


def test_sweep_grid_checked_up_front():
    for bad in (1.5, -0.5, float("nan")):
        with pytest.raises(DomainError, match=r"edge probability must lie in \[0, 1\]"):
            containment_sweep(star(2), 5, [0.5, bad], 4, seed=0)
        # refused even when no trial would draw a sample
        with pytest.raises(DomainError, match=r"edge probability must lie in \[0, 1\]"):
            arrow_sweep(star(2), path(3), 5, [bad], 0, seed=0)


def test_parse_p_grid_errors():
    for spec in ("abc", "1/0", "0.5*n^x", "n^", "0.5,nan"):
        with pytest.raises(GraphParseError):
            parse_p_grid(spec, 10)
    with pytest.raises(DomainError):
        parse_p_grid("1*n^-1", 0)  # 0 ** -1 has no value
    with pytest.raises(DomainError):
        parse_p_grid("1*n^1000", 200)  # overflows
    with pytest.raises(DomainError):
        parse_p_grid("1e400", 10)
    assert parse_p_grid("1*n^1", 0) == [0.0]


def test_parse_p_grid_forms():
    grid = parse_p_grid("0.5*n^-1.5, 1*n^-1.5, 0.125", 100)
    assert grid[0] == 0.5 * 100 ** -1.5
    assert grid[2] == 0.125
    with pytest.raises(DomainError):
        parse_p_grid("2.0", 10)  # outside [0, 1]


def test_parse_p_grid_terms_may_contain_spaces():
    assert parse_p_grid("0.5 * n^-1, 2*n^-1", 100) == parse_p_grid("0.5*n^-1,2*n^-1", 100)
    assert parse_p_grid(" 0.5 * n^ -1 ", 100) == [0.005]
