"""Seeded binomial random graphs and empirical threshold probes.

Randomness comes from SHA-256-keyed Mersenne Twister streams: trial t
of seed s draws from ``random.Random`` seeded with the digest of
"s:t", so every row is reproducible bit for bit across platforms and
independent of evaluation order.  Pairs are scanned in a fixed
lexicographic order, and sweeps reuse one uniform draw per pair across
the whole probability grid, which couples the samples monotonically:
raising p only ever adds edges.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .arrows import DEFAULT_EDGE_BUDGET, arrows
from .errors import DomainError
from .graphs import Graph, contains

CSV_HEADER = "n,p,trials,successes,undecided,estimate,stderr,seed"


def trial_rng(seed: int, trial: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def pair_order(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def pair_uniforms(n: int, seed: int, trial: int) -> list[float]:
    rng = trial_rng(seed, trial)
    return [rng.random() for _ in range(n * (n - 1) // 2)]


def sample_gnp(n: int, p, seed: int, trial: int = 0) -> Graph:
    """One binomial random graph: each pair kept independently with
    probability p, driven by the named per-trial stream."""
    p = float(p)
    if not 0 <= p <= 1:
        raise DomainError("edge probability must lie in [0, 1]")
    us = pair_uniforms(n, seed, trial)
    pairs = [e for e, u in zip(pair_order(n), us) if u < p]
    return Graph.of(n, pairs)


@dataclass(frozen=True)
class SweepRow:
    n: int
    p: float
    trials: int
    successes: int
    undecided: int
    estimate: float
    stderr: float
    seed: int

    def csv(self) -> str:
        return (
            f"{self.n},{self.p!r},{self.trials},{self.successes},"
            f"{self.undecided},{self.estimate!r},{self.stderr!r},{self.seed}"
        )


def rows_to_csv(rows: Iterable[SweepRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"


def _binomial_stats(successes: int, count: int) -> tuple[float, float]:
    if count == 0:
        return 0.0, 0.0
    est = successes / count
    return est, math.sqrt(est * (1.0 - est) / count)


def _run_trials(trial, work: list, jobs: int) -> list:
    """``trial`` applied to every work item, in order.

    ``jobs`` > 1 spreads the items over a process pool of at most
    ``os.cpu_count()`` workers; more workers than processors would only
    contend for them.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(trial, work, chunksize=8))
    return [trial(w) for w in work]


def _containment_trial(args) -> list[bool]:
    n, pattern_n, pattern_edges, ps, seed, trial = args
    pattern = Graph.of(pattern_n, pattern_edges)
    us = pair_uniforms(n, seed, trial)
    order = pair_order(n)
    out = []
    for p in ps:
        sample = Graph.of(n, [e for e, u in zip(order, us) if u < p])
        out.append(contains(sample, pattern))
    return out


def containment_sweep(
    pattern: Graph,
    n: int,
    p_grid: Sequence[float],
    trials: int,
    seed: int,
    jobs: int = 1,
) -> list[SweepRow]:
    """Empirical probability that the pattern embeds in G(n,p), per p.

    One uniform per pair per trial is shared across the grid, so each
    trial's indicator column is monotone in p by construction.
    """
    ps = [float(p) for p in p_grid]
    work = [(n, pattern.n, tuple(pattern.edges), ps, seed, t) for t in range(trials)]
    results = _run_trials(_containment_trial, work, jobs)
    rows = []
    for j, p in enumerate(ps):
        successes = sum(r[j] for r in results)
        est, err = _binomial_stats(successes, trials)
        rows.append(SweepRow(n, p, trials, successes, 0, est, err, seed))
    return rows


def _arrow_trial(args) -> bool | None:
    n, p, h1_spec, h2_spec, seed, trial, edge_cap = args
    h1 = Graph.of(*h1_spec)
    h2 = Graph.of(*h2_spec)
    sample = sample_gnp(n, p, seed, trial)
    if sample.e > edge_cap:
        return None
    return arrows(sample, h1, h2, edge_budget=edge_cap).arrows


def arrow_probability(
    n: int,
    p,
    h1: Graph,
    h2: Graph,
    trials: int,
    seed: int,
    edge_cap: int = DEFAULT_EDGE_BUDGET,
    jobs: int = 1,
) -> SweepRow:
    """Estimate the probability that G(n,p) arrows the pair.

    Samples with more than ``edge_cap`` edges are counted as undecided
    rather than ever guessed; the estimate averages over the decided
    samples only.
    """
    p = float(p)
    work = [
        (n, p, (h1.n, tuple(h1.edges)), (h2.n, tuple(h2.edges)), seed, t, edge_cap)
        for t in range(trials)
    ]
    results = _run_trials(_arrow_trial, work, jobs)
    undecided = sum(r is None for r in results)
    successes = sum(bool(r) for r in results if r is not None)
    est, err = _binomial_stats(successes, trials - undecided)
    return SweepRow(n, p, trials, successes, undecided, est, err, seed)


def parse_p_grid(spec: str, n: int) -> list[float]:
    """Grid entries are plain probabilities or ``c*n^q`` terms.

    The power form probes a conjectured exponent directly, e.g.
    ``0.5*n^-1.5,1*n^-1.5,2*n^-1.5``.
    """
    out = []
    for term in spec.split(","):
        term = term.strip()
        if not term:
            continue
        if "n^" in term:
            coeff_part, _, exp_part = term.partition("n^")
            coeff_part = coeff_part.rstrip("*").strip()
            coeff = float(Fraction(coeff_part)) if coeff_part else 1.0
            out.append(coeff * float(n) ** float(Fraction(exp_part)))
        else:
            out.append(float(Fraction(term)))
    if not out:
        raise DomainError("empty probability grid")
    for p in out:
        if not 0 <= p <= 1:
            raise DomainError(f"grid value {p} outside [0, 1]")
    return out
