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
``random.shuffle`` and ``random()`` would.

A ``tau_n`` trial reads only the part of its shuffle that decides it.
The shuffle fixes the last arrivals first, and ``tau_n`` wins iff the
prefix that ends with the sink leaves position n and no k+1 consecutive
interior positions missing.  So ``_tau_n_win`` runs ``_shuffled``'s draw
loop and stops at the first fixed value that settles the win; there is no
forward search.  ``first_max`` and ``classical_threshold`` read the tail
the same way (``_first_max_win``, ``_classical_threshold_win``).  A
``tau_p_star`` trial's coin flips follow the whole shuffle in the stream,
so ``_sink_index`` makes every draw, with no list, to find the sink; the
trial loses if the sink is among the M rejected arrivals, and otherwise
reseeds and reads the tail as ``classical_threshold(M)``.

None of this is an API contract: tests pin the shuffle and the sink's
index against ``random.shuffle`` (every n <= 300, and across block edges
up to 4097), each tail reader's win and generator state against a full
shuffle and the forward rule (block edges up to 4097), the decoded words
against ``random()`` (every n <= 300), and the reseeded generator against
one fresh generator per trial.
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


def _tau_n_win(n: int, k: int, rng: random.Random) -> bool:
    """One ``tau_n`` trial, read from the shuffle's tail.

    ``tau_n`` wins iff, when the sink arrives, position n has arrived and no
    k+1 consecutive interior positions are missing.  ``_shuffled``'s draws fix
    the last arrivals first, so run its draw loop and stop at the first fixed
    value that decides: 1 wins, since the values fixed before it are the
    positions missing at its arrival and none of them lost; n, or a value
    whose run of missing positions grows past k, loses.  ``run[v]`` is the
    length of the missing run that ends at v, kept at both ends of each run;
    ``run[n + 1] = k`` makes a missing n lose.  The stream is the shuffle's,
    read down to the deciding draw; the loop is ``_shuffled``'s, copied
    because a shared generator of draws slows both.
    """
    perm = list(range(1, n + 1))
    run = [0] * (n + 2)
    run[n + 1] = k
    getrandbits = rng.getrandbits
    hi = n - 1
    for bits in range(n.bit_length(), 1, -1):
        lo = (1 << (bits - 1)) - 1
        for i in range(hi, lo - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            v = perm[j]
            if v == 1:
                return True
            perm[j] = perm[i]
            a = run[v - 1]
            b = run[v + 1]
            t = a + b + 1
            if t > k:
                return False
            run[v - a] = run[v + b] = t
        hi = lo - 1
    raise AssertionError("indices 1..n-1 hold 1 or n, so the walk decides")


def _first_max_win(n: int, rng: random.Random) -> bool:
    """One ``first_max`` trial, read from the shuffle's tail.

    ``first_max`` wins iff the sink 1 arrives first.  1 starts at index 0
    and stays there until a draw returns 0, which moves it to index i >= 1
    for good; so the trial loses at the first draw of 0.  Only the draws of
    ``_shuffled``'s loop are made: nothing else decides.
    """
    getrandbits = rng.getrandbits
    hi = n - 1
    for bits in range(n.bit_length(), 1, -1):
        lo = (1 << (bits - 1)) - 1
        for i in range(hi, lo - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            if not j:
                return False
        hi = lo - 1
    return True


def _sink_index(n: int, rng: random.Random) -> int:
    """The sink's index in ``_shuffled(n, rng)``, drawing the same words.

    As in ``_first_max_win``, 1 leaves index 0 at the first draw of 0, for
    index i, and stays there; with no such draw it ends at index 0.  The
    loop makes all of the shuffle's draws, so the stream after it is where
    the shuffle leaves it.
    """
    sink = 0
    getrandbits = rng.getrandbits
    hi = n - 1
    for bits in range(n.bit_length(), 1, -1):
        lo = (1 << (bits - 1)) - 1
        for i in range(hi, lo - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            if not j and not sink:
                sink = i
        hi = lo - 1
    return sink


def _classical_threshold_win(n: int, k: int, r: int, rng: random.Random) -> bool:
    """One ``classical_threshold(r)`` trial, read from the shuffle's tail.

    The rule rejects arrivals 0..r-1, takes the first maximal one after
    them, and else the last; from r = n-1 on it takes the last.  With r = 0
    it is ``first_max``.  Otherwise walk ``_shuffled``'s draws from index
    n-1 down to r.  The values fixed so far are the later arrivals, so a
    value fixed at index i arrived maximal iff the k values below it (those
    down to 1) were fixed before it.  The sink always arrives maximal; the
    trial wins iff it is fixed in the walk and no maximal value is fixed
    after it.  Values are stored plus k, and ``run[v]`` is the length of the
    run of fixed values that ends at v, kept at both ends of each run as in
    ``_tau_n_win``; ``run[k] = k`` stands for k values below 1 fixed from
    the start, so v arrived maximal iff ``run[v - 1] >= k``.
    """
    if r == 0:
        return _first_max_win(n, rng)
    r = min(r, n - 1)
    sink = k + 1
    perm = list(range(sink, n + sink))
    run = [0] * (n + k + 2)
    run[k] = k
    seen = False  # the sink is fixed
    getrandbits = rng.getrandbits
    hi = n - 1
    for bits in range(n.bit_length(), 1, -1):
        lo = (1 << (bits - 1)) - 1
        for i in range(hi, max(lo, r) - 1, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            v = perm[j]
            perm[j] = perm[i]
            a = run[v - 1]
            if a >= k:
                if seen:
                    return False
                seen = v == sink
            b = run[v + 1]
            run[v - a] = run[v + b] = a + b + 1
        hi = lo - 1
    return seen


def _tau_p_star_win(n: int, k: int, s: Strategy, seed: int, rng: random.Random) -> bool:
    """One ``tau_p_star`` trial on the stream ``rng.seed(seed)`` set.

    The rejection count M is drawn after the whole shuffle, so find the
    sink's index first.  The trial loses if the sink is among the M rejected
    arrivals.  Otherwise it is ``classical_threshold(M)`` on the same order:
    reseed and read the shuffle's tail down to M.
    """
    sink = _sink_index(n, rng)
    m = min(_skip_count(s, n, rng), n - 1)
    if m > sink:
        return False
    rng.seed(seed)
    return _classical_threshold_win(n, k, m, rng)


def run_trial(g: PathPower, s: Strategy, rng: random.Random) -> StopRecord:
    """One simulated run of a threshold-family strategy (``first_max``,
    ``classical_threshold``, ``tau_p_star``): draw the arrival order, then
    play the strategy forward.

    The stream is consumed in a fixed order (shuffle, then any strategy
    randomness) to keep records reproducible.  The shuffle is
    ``_shuffled``, CPython's ``random.shuffle`` inlined and pinned to it by
    a test.  ``simulate`` reads every threshold-family trial from the
    shuffle's tail instead, and tests hold those readers to this forward
    play.
    """
    if s.kind == "tau_n":
        raise ValueError("run_trial plays the threshold family; tau_n reads the shuffle's tail")
    n, k = g.n, g.k
    perm = _shuffled(n, rng)
    skip = _skip_count(s, n, rng)
    # arrived[pos + k] marks pos; k leading zero bytes keep the window below
    # pos unclamped.
    arrived = bytearray(n + k + 1)
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
    gap = b"\x01" * (k + 1)
    rng = random.Random()
    wins = 0
    for i in range(start, stop):
        seed = trial_seed(master_seed, i)
        rng.seed(seed)
        if s is None:
            wins += _continuous_win(n, gap, rng)
        elif s.kind == "tau_n":
            wins += _tau_n_win(n, k, rng)
        elif s.kind == "first_max":
            wins += _first_max_win(n, rng)
        elif s.kind == "classical_threshold":
            wins += _classical_threshold_win(n, k, s.r, rng)
        else:
            wins += _tau_p_star_win(n, k, s, seed, rng)
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
    PathPower(n, k)  # check n, k before any pool starts
    if s is None:
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
