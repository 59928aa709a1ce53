"""Seeded binomial random graphs and empirical threshold probes.

Randomness comes from SHA-256-keyed Mersenne Twister streams: trial t
of seed s draws from ``random.Random`` seeded with the digest of
"s:t", so every row is reproducible bit for bit across platforms and
independent of evaluation order.  Pair i of the fixed lexicographic
pair order owns the i-th uniform of the stream, the value the i-th
``random()`` call would return, and sweeps reuse one uniform per pair
across the whole probability grid, which couples the samples
monotonically: raising p only ever adds edges.  Every sample reads one
draw: the trial's stream is read once, as raw words, and a pair's
uniform is formed only if the high bytes of its first word show that it
can lie below the largest probability wanted.  The pairs below it,
sorted by uniform (ties by pair index), are the trial's random graph
process, and G(n, p) is a prefix of it.  A containment trial whose
pairs fit in one read keeps that read and forms and sorts the pairs of
each high byte only when it reaches them, so it stops at the byte that
holds its hitting time.
Each trial of a sweep returns one column, an outcome per grid point.
Containing a pattern and arrowing a pair both survive an added edge, so
a trial is a hitting time, as in the random graph process: the least
sample of the draw with the property decides every grid point.  A
containment trial adds the draw's pairs until a copy appears; an arrow
trial decides its distinct sample sizes within the edge cap in
increasing order with ``arrows``, up to the first that arrows.
"""

from __future__ import annotations

import bisect
import concurrent.futures
import functools
import hashlib
import itertools
import math
import operator
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .arrows import DEFAULT_EDGE_BUDGET, arrows
from .errors import DomainError, GraphParseError
from .graphs import Graph, Plan, edge_orbit_plans, has_copy_through

CSV_HEADER = "n,p,trials,successes,undecided,estimate,stderr,seed"


def trial_rng(seed: int, trial: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def pair_order(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def pair_uniforms(n: int, seed: int, trial: int) -> list[float]:
    rng = trial_rng(seed, trial)
    return [rng.random() for _ in range(n * (n - 1) // 2)]


def _probability(p) -> float:
    p = float(p)
    if not 0 <= p <= 1:
        raise DomainError("edge probability must lie in [0, 1]")
    return p


_BLOCK = 4096  # pairs per raw read of a trial's stream: 32 KiB


def _little_words(raw: bytes, code: str = "I"):
    """The words of ``raw`` of array type ``code`` ("I" 32-bit, "Q"
    64-bit), read little-endian on every host: a view of ``raw`` where
    that is the native order, else a swapped copy."""
    if sys.byteorder == "little":
        return memoryview(raw).cast(code)
    import array  # here, so that little-endian processes never load it

    words = array.array(code, raw)
    words.byteswap()
    return words


_UNIFORM = operator.itemgetter(0)


def _gates(top: float) -> tuple[int, int]:
    """(hi, hi2) = divmod(floor(65536 * top), 256) for 0 < top < 1, the
    high byte and the last second byte at which a pair may lie below
    top; (256, 0) at a top of 1 or more, which every pair lies below."""
    return (256, 0) if top >= 1 else divmod(int(top * 65536), 256)


def _process(n: int, seed: int, trial: int, top: float) -> list[tuple[float, int]]:
    """The (uniform, pair index) pairs of trial ``trial`` with uniform
    below ``top``, in increasing order (ties by pair index).

    The uniforms are those of ``pair_uniforms(n, seed, trial)``; index i
    names pair i of ``pair_order(n)``.  Sorted this way, the draw is the
    trial's random graph process up to ``top``: G(n, p) for any p <= top
    is the prefix of pairs with uniform below p.

    ``random()`` reads two words w1, w2 and returns u = ((w1 >> 5) *
    2**26 + (w2 >> 6)) / 2**53, and ``getrandbits(64 * k)`` reads the
    same 2k words with the first in the lowest bits, so in its
    little-endian bytes pair j's w1 fills bytes 8j..8j+3 and its w2
    bytes 8j+4..8j+7: its 64-bit word is x = w1 | w2 << 32, and u = (x &
    0xFFFFFFE0) / 2**32 + (x >> 38) / 2**53, two multiples of 2**-53
    whose sum below 1 is exact in a double.  The stream is read once, at
    most ``_BLOCK`` pairs at a time.  The high byte h of w1 puts u in
    [h/256, (h+1)/256): below top < 1 a pair with h < hi = floor(256 *
    top) lies below top, and one with h = hi only if the second byte h2
    of w1 lets it (u >= (256 * hi + h2) / 65536) and the strict test
    u < top then holds.  A uniform is formed only for a pair that passes
    these gates.
    """
    if not top > 0:  # no uniform lies below 0 (or below a NaN)
        return []
    pairs = n * (n - 1) // 2 if n > 0 else 0  # no pairs to name for a negative n either
    hi, hi2 = _gates(top)
    last = min(hi, 255)  # the last high byte that may pass
    gate = bytes(last + 1) + b"\1" * (255 - last)  # high byte -> 0 where the pair may pass
    rng = trial_rng(seed, trial)
    draw = []
    for start in range(0, pairs, _BLOCK):
        k = min(_BLOCK, pairs - start)
        raw = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
        words, high = _little_words(raw, "Q"), raw[3::8]
        find = high.translate(gate).find
        j = find(0)
        while j >= 0:
            if high[j] < hi or raw[8 * j + 2] <= hi2:
                x = words[j]
                u = (x & 0xFFFFFFE0) * 2.0**-32 + (x >> 38) * 2.0**-53
                if u < top:
                    draw.append((u, start + j))
            j = find(0, j + 1)
    # stable on u alone: the draw is in index order, so ties stay by index
    draw.sort(key=_UNIFORM)
    return draw


def _draw(n: int, seed: int, trial: int, top: float) -> Iterator[list[tuple[float, int]]]:
    """``_process(n, seed, trial, top)`` in consecutive pieces, for a
    caller that may stop early.  When the trial's pairs fit in one block,
    that block is kept and piece h, the pairs whose first word has high
    byte h, is found, formed and sorted only when the caller reaches it,
    with the gates of ``_process``; a larger trial is one piece.  The
    loop repeats ``_process``'s gate test and formula: one generator
    shared by both made the n = 8 draw 15% slower (times in CHANGES.md)."""
    pairs = n * (n - 1) // 2 if n > 0 else 0
    if not (top > 0 and pairs <= _BLOCK):
        yield _process(n, seed, trial, top)
        return
    hi, hi2 = _gates(top)
    raw = trial_rng(seed, trial).getrandbits(64 * pairs).to_bytes(8 * pairs, "little")
    words, find = _little_words(raw, "Q"), raw[3::8].find
    for h in range(min(hi, 255) + 1):
        bucket, j = [], find(h)
        while j >= 0:
            if h < hi or raw[8 * j + 2] <= hi2:
                x = words[j]
                u = (x & 0xFFFFFFE0) * 2.0**-32 + (x >> 38) * 2.0**-53
                if u < top:
                    bucket.append((u, j))
            j = find(h, j + 1)
        bucket.sort(key=_UNIFORM)
        yield bucket


def _offsets(n: int) -> list[int]:
    """Where each row of ``pair_order(n)`` starts: row a, the pairs
    (a, b > a), at offsets[a]."""
    return list(itertools.accumulate(range(n - 1, 0, -1), initial=0))


def _pairs(n: int, draw: Iterable[tuple[float, int]]) -> Iterator[tuple[int, int]]:
    """The pair (a, b) of ``pair_order(n)`` named by each index of ``draw``, in its order."""
    offsets = _offsets(n)
    for _, i in draw:
        a = bisect.bisect_right(offsets, i) - 1
        yield a, i - offsets[a] + a + 1


def sample_gnp(n: int, p, seed: int, trial: int = 0) -> Graph:
    """One binomial random graph: each pair kept independently with
    probability p, driven by the named per-trial stream."""
    p = _probability(p)
    return Graph.of(n, _pairs(n, _process(n, seed, trial, p)))


@dataclass(frozen=True)
class SweepRow:
    n: int
    p: float
    trials: int
    successes: int
    undecided: int
    estimate: float | None  # None (an empty CSV field) when no sample was decided
    stderr: float | None
    seed: int

    def csv(self) -> str:
        est = "" if self.estimate is None else repr(self.estimate)
        err = "" if self.stderr is None else repr(self.stderr)
        return (
            f"{self.n},{self.p!r},{self.trials},{self.successes},"
            f"{self.undecided},{est},{err},{self.seed}"
        )


def rows_to_csv(rows: Iterable[SweepRow]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv() for r in rows]) + "\n"


def _run_trials(
    column, n: int, ps: list[float], trials: int, seed: int, jobs: int
) -> list[SweepRow]:
    """One sweep: ``column(t)`` for every trial t, tallied into one row per
    point of ``ps``.

    ``column(t)`` gives trial t's outcome at each grid point: True,
    False, or None for an undecided sample, which counts towards no
    estimate.  ``jobs`` > 1 spreads the trials over one process pool of
    at most ``os.cpu_count()`` workers; more workers than processors
    would only contend for them.  A negative trial or vertex count, or a
    grid point outside [0, 1], is refused before any trial runs.
    """
    if trials < 0:
        raise DomainError("trial count must be non-negative")
    if n < 0:
        raise DomainError("vertex count must be non-negative")
    for p in ps:
        _probability(p)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            columns = list(pool.map(column, range(trials), chunksize=8))
    else:
        columns = [column(t) for t in range(trials)]
    rows = []
    for j, p in enumerate(ps):
        outcomes = [c[j] for c in columns]
        undecided = outcomes.count(None)
        successes = outcomes.count(True)
        decided = trials - undecided
        est = successes / decided if decided else None
        err = math.sqrt(est * (1.0 - est) / decided) if decided else None
        rows.append(SweepRow(n, p, trials, successes, undecided, est, err, seed))
    return rows


def containment_column(
    n: int, pattern: Graph, plans: tuple[Plan, ...], ps: Sequence[float], seed: int, trial: int
) -> list[bool]:
    """Whether trial ``trial`` of G(n, p) contains ``pattern``, for each p in ``ps``.

    The trial runs as a hitting time: its pairs with uniform below
    max(ps) join an empty graph in increasing order of uniform (ties by
    pair index), and after each one ``has_copy_through`` asks whether a
    copy now uses it.  A copy lies in G(n, p) iff the largest uniform on
    its edges is below p, so if the first edge to complete a copy has
    uniform tau, the pattern is in G(n, p) exactly when tau < p.
    ``plans`` are ``edge_orbit_plans(pattern)``.  A pattern without
    edges, or with more vertices than n, is in every G(n, p) or in none.
    """
    if pattern.e == 0 or pattern.n > n:
        return [pattern.n <= n] * len(ps)
    offsets, masks, added, need = _offsets(n), [0] * n, 0, pattern.e
    for draw in _draw(n, seed, trial, max(ps, default=0.0)):
        for u, i in draw:
            a = bisect.bisect_right(offsets, i) - 1  # _pairs inline: 3-8% faster on sweeps
            b = i - offsets[a] + a + 1
            masks[a] |= 1 << b
            masks[b] |= 1 << a
            added += 1
            if added >= need and has_copy_through(pattern, plans, masks, (a, b)) is not None:
                return [u < p for p in ps]
    return [False] * len(ps)


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
    trial's indicator column is monotone in p by construction; it is
    computed by ``containment_column`` from one hitting time.
    """
    ps = [float(p) for p in p_grid]
    column = functools.partial(containment_column, n, pattern, edge_orbit_plans(pattern), ps, seed)
    return _run_trials(column, n, ps, trials, seed, jobs)


def arrow_column(
    n: int, h1: Graph, h2: Graph, ps: Sequence[float], seed: int, trial: int, edge_cap: int
) -> list[bool | None]:
    """Whether trial ``trial`` of G(n, p) arrows (h1, h2), for each p in ``ps``.

    Every p is checked first, then the trial is drawn once up to
    max(ps).  A grid point's sample is the prefix of the draw below its
    p; one with more than ``edge_cap`` edges is undecided (None), never
    guessed, and is not built.  The others share one hitting time: the
    sizes go to ``arrows`` in increasing order until one arrows.
    """
    ps = [_probability(p) for p in ps]
    draw = _process(n, seed, trial, max(ps, default=0.0))
    sizes = [bisect.bisect_left(draw, (p,)) for p in ps]  # (p,) sorts before every (p, i)
    edges = list(_pairs(n, draw[: max(edge_cap, 0)]))
    decided = sorted({m for m in sizes if m <= edge_cap})
    arrowing = (m for m in decided if arrows(Graph.of(n, edges[:m]), h1, h2, edge_budget=edge_cap).arrows)
    least = next(arrowing, math.inf)  # the hitting time, as a sample size
    return [None if m > edge_cap else m >= least for m in sizes]


def arrow_sweep(
    h1: Graph, h2: Graph, n: int, p_grid: Sequence[float], trials: int, seed: int,
    edge_cap: int = DEFAULT_EDGE_BUDGET, jobs: int = 1,
) -> list[SweepRow]:
    """Estimated probability that G(n,p) arrows the pair, per p.

    Samples with more than ``edge_cap`` edges are counted as undecided
    rather than ever guessed; each estimate averages over the decided
    samples only, and is None (with its stderr) when none was decided.
    """
    ps = [float(p) for p in p_grid]
    column = functools.partial(arrow_column, n, h1, h2, ps, seed, edge_cap=edge_cap)
    return _run_trials(column, n, ps, trials, seed, jobs)


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
    """``arrow_sweep`` at the single grid point p."""
    return arrow_sweep(h1, h2, n, [p], trials, seed, edge_cap, jobs)[0]


def _grid_number(text: str, term: str) -> float:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise GraphParseError("bad probability grid term", token=term) from None
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"grid term {term!r} outside [0, 1]") from None


def parse_p_grid(spec: str, n: int) -> list[float]:
    """Grid entries are plain probabilities or ``c*n^q`` terms.

    The power form probes a conjectured exponent directly, e.g.
    ``0.5*n^-1.5,1*n^-1.5,2*n^-1.5``.  A term that is not a number
    raises GraphParseError; a value outside [0, 1], or a power term with
    no value at this n, raises DomainError.
    """
    out = []
    for term in spec.split(","):
        term = term.strip()
        if not term:
            continue
        if "n^" in term:
            coeff_part, _, exp_part = term.partition("n^")
            coeff_part = coeff_part.strip().rstrip("*").strip()
            coeff = _grid_number(coeff_part, term) if coeff_part else 1.0
            exp = _grid_number(exp_part, term)
            if n < 0:
                raise DomainError(f"grid term {term!r} needs n >= 0")
            try:
                out.append(coeff * float(n) ** exp)
            except (ZeroDivisionError, OverflowError):
                raise DomainError(f"grid term {term!r} has no value in [0, 1] at n={n}") from None
        else:
            out.append(_grid_number(term, term))
    if not out:
        raise DomainError("empty probability grid")
    for p in out:
        if not 0 <= p <= 1:
            raise DomainError(f"grid value {p} outside [0, 1]")
    return out
