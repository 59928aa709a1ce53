import concurrent.futures
import math
import os

import pytest

from ramsey_lab.errors import DomainError
from ramsey_lab.gnp import (
    CSV_HEADER,
    arrow_probability,
    containment_sweep,
    pair_uniforms,
    parse_p_grid,
    rows_to_csv,
    sample_gnp,
)
from ramsey_lab.graphs import matching, parse_graph, star


def test_extreme_probabilities():
    assert sample_gnp(10, 0, seed=1).e == 0
    assert sample_gnp(10, 1, seed=1).e == 45


def test_probability_validated():
    with pytest.raises(DomainError):
        sample_gnp(5, 1.5, seed=0)


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


def test_jobs_clamped_to_cpu_count(monkeypatch):
    created = []

    class RecordingPool:
        """Stands in for the process pool: records its size, runs in-process."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
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


def test_parse_p_grid_forms():
    grid = parse_p_grid("0.5*n^-1.5, 1*n^-1.5, 0.125", 100)
    assert grid[0] == 0.5 * 100 ** -1.5
    assert grid[2] == 0.125
    with pytest.raises(DomainError):
        parse_p_grid("2.0", 10)  # outside [0, 1]
