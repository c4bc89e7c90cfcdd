"""Seeded Monte Carlo estimation of win probabilities.

Reproducibility contract: a 64-bit master seed; trial i runs on its own
stream seeded with ``master_seed XOR splitmix64(i)``, so results are
bit-identical for a given (seed, trials) regardless of how trials are
chunked across workers.

Every strategy replays on a byte array of arrived positions: the
threshold family tracks arrivals and maximality only, and ``tau_n`` also
keeps a running slack.  ``Observer`` and ``strategies.run_strategy`` are
the slow reference; the test suite checks these drivers' records against
them.
"""
from __future__ import annotations

import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .graph import PathPower
from .oracle import ContinuousArrival, continuous_win_indicator
from .strategies import StopRecord, Strategy, draw_rejection_count

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


def _make_report(
    n: int, k: int, label: str, trials: int, wins: int, seed: int, wall: float
) -> SimulationReport:
    est = wins / trials
    se = math.sqrt(est * (1.0 - est) / trials)
    return SimulationReport(
        n=n,
        k=k,
        strategy=label,
        trials=trials,
        wins=wins,
        estimate=est,
        stderr=se,
        ci_lo=max(0.0, est - 1.96 * se),
        ci_hi=min(1.0, est + 1.96 * se),
        seed=seed,
        wall_time=wall,
    )


def run_trial(g: PathPower, s: Strategy, rng: random.Random) -> StopRecord:
    """One simulated run: draw the arrival order, then play the strategy.

    The stream is consumed in a fixed order (shuffle, then any strategy
    randomness) to keep records reproducible.
    """
    n, k = g.n, g.k
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    # arrived[pos + k] marks position pos; the k leading zero bytes let the
    # window of the k positions below pos start at index pos, unclamped.
    arrived = bytearray(n + k + 1)

    if s.kind == "tau_n":
        # Running slack (n - t) - k(c - 1) - pending_inner, as the Observer
        # reports it.  With a, b the distances to the nearest arrivals below
        # and above, capped at k + 1, an arrival lowers it by
        # max(0, a + b - k - 1): a new component costs k + 1, extending one
        # by a gap costs the gap, fusing two costs a + b - k - 1, and filling
        # an inner slot (a + b <= k) costs nothing.
        slack = n + k
        for t, pos in enumerate(perm, start=1):
            i = pos + k
            left = arrived.rfind(1, pos, i)
            right = arrived.find(1, i + 1, i + k + 1)
            a = i - left if left >= 0 else k + 1
            b = right - i if right >= 0 else k + 1
            if a + b > k + 1:
                slack -= a + b - k - 1
            arrived[i] = 1
            if left < 0 and slack == 0:
                return StopRecord(t, pos, pos == 1)
        return StopRecord(n, perm[-1], perm[-1] == 1)

    # Threshold family: only arrivals and maximality matter.
    if s.kind == "first_max":
        skip = 0
    elif s.kind == "classical_threshold":
        skip = s.r
    else:
        skip = draw_rejection_count(n, s.p, rng)
    for t, pos in enumerate(perm, start=1):
        if t > skip and arrived.rfind(1, pos, pos + k) < 0:
            return StopRecord(t, pos, pos == 1)
        arrived[pos + k] = 1
    return StopRecord(n, perm[-1], perm[-1] == 1)


def _count_wins(n: int, k: int, s: Strategy, master_seed: int, start: int, stop: int) -> int:
    g = PathPower(n, k)
    wins = 0
    for i in range(start, stop):
        rng = random.Random(trial_seed(master_seed, i))
        wins += run_trial(g, s, rng).win
    return wins


def _count_wins_task(args) -> int:
    return _count_wins(*args)


def simulate(
    n: int,
    k: int,
    s: Strategy,
    trials: int,
    master_seed: int,
    threads: int = 1,
) -> SimulationReport:
    """Estimate the win probability of a strategy over uniform arrivals."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    _check_seed(master_seed)
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
    return _make_report(n, k, s.describe(), trials, wins, master_seed, wall)


def continuous_win_rate(
    n: int, k: int, trials: int, master_seed: int
) -> SimulationReport:
    """Monte Carlo mean of the continuous-arrival win indicator."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    _check_seed(master_seed)
    g = PathPower(n, k)
    started = time.perf_counter()
    wins = 0
    for i in range(trials):
        rng = random.Random(trial_seed(master_seed, i))
        arr = ContinuousArrival(tuple(rng.random() for _ in range(n)))
        wins += continuous_win_indicator(g, arr)
    wall = time.perf_counter() - started
    return _make_report(n, k, "continuous_indicator", trials, wins, master_seed, wall)
