"""Seeded Monte Carlo estimation of win probabilities.

Reproducibility contract: a 64-bit master seed; trial i runs on its own
stream seeded with ``master_seed XOR splitmix64(i)``, so results are
bit-identical for a given (seed, trials) regardless of how trials are
chunked across workers.  The continuous-arrival model runs on the same
seeded loop, as ``simulate(n, k, None, ...)``.

A trial costs little beyond its stream.  Each call (or pool worker)
reseeds one ``random.Random`` per trial with ``.seed()``, the same state
as a fresh ``Random(seed)``.  ``_shuffled`` is CPython's Fisher-Yates
shuffle with ``_randbelow_with_getrandbits`` inlined, looping over blocks
of bounds with one bit length.  The uniforms of a trial (coin flips,
arrival times) come from one ``strategies.uniform_words`` call, the words
n ``random()`` calls would read; they are ranked against a threshold by
top byte, with one ``bytes.translate``, and only ties on that byte are
decoded to exact 53-bit numerators.  So the stream is consumed exactly as
``random.shuffle`` and ``random()`` would.  None of this is an API
contract: tests pin the shuffle against ``random.shuffle`` (every
n <= 300, and across block edges up to 4097), the decoded words against
``random()`` (every n <= 300), and the reseeded generator against one
fresh generator per trial.
"""
from __future__ import annotations

import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .graph import PathPower
from .strategies import (
    StopRecord, Strategy, _skip_count, numerator, rank_uniforms, uniform_words,
)

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 sequence: mix the counter x into a seed."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(master_seed: int, index: int) -> int:
    return (master_seed ^ splitmix64(index)) & _MASK64


def _check_seed(master_seed: int) -> None:
    # trial_seed masks to 64 bits, so a wider seed would alias one in range.
    if not 0 <= master_seed <= _MASK64:
        raise ValueError(f"master seed must lie in 0..2**64-1, got {master_seed}")


@dataclass(frozen=True)
class SimulationReport:
    """Monte Carlo estimate with a normal-approximation 95% interval."""

    n: int
    k: int
    strategy: str
    trials: int
    wins: int
    estimate: float
    stderr: float
    ci_lo: float
    ci_hi: float
    seed: int
    wall_time: float


def _shuffled(n: int, rng: random.Random) -> list[int]:
    """``rng.shuffle(list(range(1, n + 1)))`` with no method call per item.

    Same draws as CPython's shuffle: for i from n-1 down to 1 it swaps item
    i with item ``_randbelow(i + 1)``, which redraws ``getrandbits`` of the
    bound's bit length until the value falls below the bound.  The loop runs
    in blocks of i whose bounds share one bit length.
    """
    perm = list(range(1, n + 1))
    getrandbits = rng.getrandbits
    hi = n - 1
    for bits in range(n.bit_length(), 1, -1):
        lo = (1 << (bits - 1)) - 1  # every bound i + 1 in this block has `bits` bits
        for i in range(hi, lo - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            perm[i], perm[j] = perm[j], perm[i]
        hi = lo - 1
    return perm


def run_trial(g: PathPower, s: Strategy, rng: random.Random) -> StopRecord:
    """One simulated run: draw the arrival order, then play the strategy.

    The stream is consumed in a fixed order (shuffle, then any strategy
    randomness) to keep records reproducible.  The shuffle is
    ``_shuffled``, CPython's ``random.shuffle`` inlined and pinned to it by
    a test; ``simulate`` passes one generator reseeded for each trial.
    """
    n, k = g.n, g.k
    perm = _shuffled(n, rng)
    # arrived[pos + k] marks pos.  k + 1 leading and k trailing zero bytes keep
    # the window below pos unclamped and make a missing end k + 1 zeros.
    arrived = bytearray(n + 2 * k + 1)

    if s.kind == "tau_n":
        # Slack zero means no run of k + 1 zeros from index 1, so it needs the
        # sink; holes only close, so each search starts at the last.  Then each
        # missing position has an arrival at most k below: stop here or never.
        sink = perm.index(1)
        for pos in perm[:sink]:
            arrived[pos + k] = 1
        hole = bytes(k + 1)
        lo = 1
        for t in range(sink, n):
            pos = perm[t]
            arrived[pos + k] = 1
            lo = arrived.find(hole, lo)
            if lo < 0:
                if arrived.rfind(1, pos, pos + k) < 0:
                    return StopRecord(t + 1, pos, pos == 1)
                break
        return StopRecord(n, perm[-1], perm[-1] == 1)

    # Threshold family: only arrivals and maximality matter.
    skip = _skip_count(s, n, rng)
    for pos in perm[:skip]:  # rejected outright: only mark them arrived
        arrived[pos + k] = 1
    for t in range(skip, n):
        pos = perm[t]
        if arrived.rfind(1, pos, pos + k) < 0:
            return StopRecord(t + 1, pos, pos == 1)
        arrived[pos + k] = 1
    return StopRecord(n, perm[-1], perm[-1] == 1)


def _continuous_win(n: int, gap: bytes, rng: random.Random) -> bool:
    """One continuous-arrival trial: it wins iff the top vertex arrives before
    the sink and no k+1 consecutive interior vertices (``gap``) are all missing
    at the sink's time.  Arrival times are the uniforms of ``uniform_words``,
    compared as exact numerators.  About half the trials lose on the first
    test, most of them on the top bytes alone.
    """
    raw = uniform_words(n, rng)  # arrival times, as numerators
    if raw[8 * n - 5] > raw[3]:  # vertex n after the sink 1, by top byte alone
        return False
    p = numerator(raw, 0)  # the sink's time
    # An interior vertex is missing iff its numerator is at least p + 1.
    return numerator(raw, n - 1) < p and rank_uniforms(raw, 1, n - 1, p + 1).find(gap) < 0


def _count_wins(
    n: int, k: int, s: Strategy | None, master_seed: int, start: int, stop: int
) -> int:
    g = PathPower(n, k)
    gap = b"\x01" * (k + 1)
    rng = random.Random()
    wins = 0
    for i in range(start, stop):
        rng.seed(trial_seed(master_seed, i))
        wins += _continuous_win(n, gap, rng) if s is None else run_trial(g, s, rng).win
    return wins


def _count_wins_task(args) -> int:
    return _count_wins(*args)


def simulate(
    n: int,
    k: int,
    s: Strategy | None,
    trials: int,
    master_seed: int,
    threads: int = 1,
) -> SimulationReport:
    """Estimate the win probability of a strategy over uniform arrivals.

    A strategy of None is the continuous-arrival model (each vertex arrives
    at an independent uniform time), which needs 1 <= k < n-2.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    _check_seed(master_seed)
    if s is None:
        PathPower(n, k)  # the same n, k errors as the discrete models
        if k >= n - 2:
            raise ValueError(f"continuous model needs 1 <= k < n-2, got k={k}, n={n}")
    started = time.perf_counter()
    if threads == 1:
        wins = _count_wins(n, k, s, master_seed, 0, trials)
    else:
        chunk = -(-trials // threads)
        spans = [
            (n, k, s, master_seed, lo, min(lo + chunk, trials))
            for lo in range(0, trials, chunk)
        ]
        # The pool forks all its workers at once; more than the spans or
        # the CPUs only costs processes.
        workers = min(threads, len(spans), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            wins = sum(pool.map(_count_wins_task, spans))
    wall = time.perf_counter() - started
    est = wins / trials
    se = math.sqrt(est * (1.0 - est) / trials)
    return SimulationReport(
        n=n,
        k=k,
        strategy="continuous_indicator" if s is None else s.describe(),
        trials=trials,
        wins=wins,
        estimate=est,
        stderr=se,
        ci_lo=max(0.0, est - 1.96 * se),
        ci_hi=min(1.0, est + 1.96 * se),
        seed=master_seed,
        wall_time=wall,
    )


def continuous_win_rate(n: int, k: int, trials: int, master_seed: int) -> SimulationReport:
    """Monte Carlo mean of the continuous-arrival win indicator:
    ``simulate(n, k, None, trials, master_seed)``."""
    return simulate(n, k, None, trials, master_seed)
