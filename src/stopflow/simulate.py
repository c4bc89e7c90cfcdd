"""Seeded Monte Carlo estimation of win probabilities.

Reproducibility contract: a 64-bit master seed; trial i runs on its own
stream seeded with ``master_seed XOR splitmix64(i)``, so results are
bit-identical for a given (seed, trials) regardless of how trials are
chunked across workers.  The continuous-arrival model runs on the same
seeded loop, as ``simulate(n, k, None, ...)``.  Only a call with more than
one worker imports the process pool (``_process_pool``), so a one-worker run
and every other subcommand never load its 35 stdlib modules: about 2.6 MB of
resident memory and 20-30 ms of a cold ``import stopflow.cli`` on a two-vCPU host.

A trial costs little beyond its stream.  Each call (or pool worker) makes
one generator and one starting list for its tail reader (``_tail_start``).
The generator starts from the constant 0, not from OS entropy, which costs
twice as much and is never read: trial 0 reseeds before any draw.  A trial
then pays for its seed (``trial_seed``), a reseed through the C ``seed``
under ``Random.seed`` (about 6 µs, the same state as a fresh
``Random(seed)``), a copy of the list (under 1 µs at n = 400, a fifth of
building it), and the draws it reads.  The tail readers below copy the
draw loop of ``random.shuffle`` with ``_randbelow_with_getrandbits``
inlined, looping over blocks of bounds with one bit length.  The uniforms
of a trial (coin flips, arrival times) come from one
``strategies.uniform_words`` call, the words n ``random()`` calls would
read; they are ranked against a threshold by top byte, with one
``bytes.translate``, and only ties on that byte are decoded to exact
53-bit numerators.  So the stream is consumed exactly as
``random.shuffle`` and ``random()`` would.

A ``tau_n`` trial reads only the part of its shuffle that decides it.
The shuffle fixes the last arrivals first, and ``tau_n`` wins iff the
prefix that ends with the sink leaves position n and no k+1 consecutive
interior positions missing.  So ``_tau_n_win`` runs the shuffle's draw
loop and stops at the first fixed value that settles the win; there is no
forward search.  ``classical_threshold(r)`` reads the tail the same way
(``_classical_threshold_win``); ``first_max`` is r = 0, which loses at
the first draw of 0, where ``_sink_index`` can stop.  A ``tau_p_star``
trial's coin flips follow the whole shuffle in the stream, so there
``_sink_index`` makes every draw, with no list, to find the sink; the
trial loses if the sink is among the M rejected arrivals, and otherwise
reseeds and reads the tail as ``classical_threshold(M)``.

None of this is an API contract: tests pin the sink's index against
``random.shuffle`` (every n <= 300, and across block edges up to 4097),
each tail reader's win and generator state against a full shuffle and the
forward rule (block edges up to 4097) and its win against ``run_trial``,
the per-call list against a fresh one per trial, the decoded words against
``random()`` (every n <= 300), and the reseeded generator against one fresh
generator per trial.
"""
from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass
from functools import partial

from .graph import PathPower, _check_below_degenerate, _check_guard, _check_nk
from .strategies import (
    StopRecord, Strategy, _skip_count, numerator, rank_uniforms, run_strategy, uniform_words,
)

_MASK64 = (1 << 64) - 1

# The largest n whose 2n uniform words one getrandbits call can draw: its bit
# count, 64 * n, is a C int on CPython.
SIMULATE_GUARD = (2**31 - 1) // 64


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


def _tau_n_win(n: int, k: int, rng: random.Random, start: list[int]) -> bool:
    """One ``tau_n`` trial, read from the shuffle's tail.

    ``tau_n`` wins iff, when the sink arrives, position n has arrived and no
    k+1 consecutive interior positions are missing.  ``random.shuffle``'s
    draws fix the last arrivals first, so run its draw loop and stop at the
    first fixed value that decides: 1 wins, since the values fixed before it
    are the positions missing at its arrival and none of them lost; n, or a
    value whose run of missing positions grows past k, loses.  ``run[v]`` is
    the length of the missing run that ends at v, kept at both ends of each
    run; ``run[n + 1] = k`` makes a missing n lose.  The stream is the shuffle's,
    read down to the deciding draw; each reader keeps its own copy of the
    loop because a shared generator of draws slows them.  ``start`` is
    ``_tail_start``'s list 1..n, which the trial copies and leaves as it was.
    """
    perm = start.copy()
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


def _sink_index(n: int, rng: random.Random, whole: bool = True) -> int:
    """The sink's index in a ``random.shuffle`` of 1..n, same words drawn.

    1 starts at index 0 and stays there until a draw returns 0, which moves
    it to index i >= 1 for good; with no such draw it ends at index 0.  With
    ``whole`` the loop makes all of the shuffle's draws, so the stream after
    it is where the shuffle leaves it; without, it returns at that first
    draw of 0, having made only the draws down to index i.
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
                if not whole:
                    return i
                sink = i
        hi = lo - 1
    return sink


def _classical_threshold_win(n: int, k: int, r: int, rng: random.Random,
                             start: list[int]) -> bool:
    """One ``classical_threshold(r)`` trial, read from the shuffle's tail.

    The rule rejects arrivals 0..r-1, takes the first maximal one after
    them, and else the last; from r = n-1 on it takes the last.  With r = 0
    it is ``first_max``, which wins iff the sink arrives first, so
    ``_sink_index`` stops at the draw that moves it off index 0.  Otherwise
    walk ``random.shuffle``'s draws from index n-1 down to r.  The values
    fixed so far are the later arrivals, so a value fixed at index i arrived
    maximal iff the k values below it (those down to 1) were fixed before
    it.  The sink always arrives maximal; the trial wins iff it is fixed in
    the walk and no maximal value is fixed after it.  Values are stored plus k, and ``run[v]`` is the length of the
    run of fixed values that ends at v, kept at both ends of each run as in
    ``_tau_n_win``; ``run[k] = k`` stands for k values below 1 fixed from
    the start, so v arrived maximal iff ``run[v - 1] >= k``.  ``start`` is
    ``_tail_start``'s list k+1..n+k, which a walk copies and leaves as it was.
    """
    if r == 0:
        return not _sink_index(n, rng, whole=False)
    r = min(r, n - 1)
    sink = k + 1
    perm = start.copy()
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


def _tau_p_star_win(n: int, k: int, s: Strategy, seed: int, rng: random.Random,
                    start: list[int]) -> bool:
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
    return _classical_threshold_win(n, k, m, rng, start)


def run_trial(g: PathPower, s: Strategy, rng: random.Random) -> StopRecord:
    """One trial played forward: ``random.shuffle`` draws the arrival order,
    then ``run_strategy`` plays ``s``, drawing any strategy randomness after."""
    perm = list(g.positions())
    rng.shuffle(perm)
    return run_strategy(s, g, perm, rng)


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


def _tail_start(n: int, k: int, s: Strategy | None) -> list[int]:
    """The list each trial of ``s`` copies to read its shuffle's tail: 1..n
    for ``tau_n``, the values plus k for the threshold walks, and none for
    ``first_max`` and the continuous model, which keep no list."""
    if s is None or s.kind == "first_max":
        return []
    lo = 1 if s.kind == "tau_n" else k + 1
    return list(range(lo, n + lo))


def _count_wins(n: int, k: int, s: Strategy | None, master_seed: int, span: range) -> int:
    gap = b"\x01" * (k + 1)
    start = _tail_start(n, k, s)
    # Trial 0 reseeds before any draw, so the generator starts from a
    # constant instead of OS entropy, which costs twice as much.
    rng = random.Random(0)
    # The C seed under Random.seed, which only type-checks its argument and
    # clears gauss_next (no reader uses it): the same state, for less.
    reseed = super(random.Random, rng).seed
    wins = 0
    for i in span:
        seed = trial_seed(master_seed, i)
        reseed(seed)
        if s is None:
            wins += _continuous_win(n, gap, rng)
        elif s.kind == "tau_n":
            wins += _tau_n_win(n, k, rng, start)
        elif s.kind == "tau_p_star":
            wins += _tau_p_star_win(n, k, s, seed, rng, start)
        else:  # a fixed threshold; first_max is classical_threshold(0)
            wins += _classical_threshold_win(n, k, _skip_count(s, n, None), rng, start)
    return wins


def _process_pool(workers: int):
    """A pool of ``workers`` processes, imported only here (see the module docstring)."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


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
    at an independent uniform time), which needs 1 <= k < n-2.  An n past
    ``SIMULATE_GUARD`` raises ``ResourceGuardError`` before any trial runs.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    _check_seed(master_seed)
    if s is None:  # n and k are checked before any pool starts
        _check_below_degenerate(n, k, "continuous model")
    else:
        _check_nk(n, k)
    _check_guard(n, SIMULATE_GUARD, "simulate")
    started = time.perf_counter()
    chunk = -(-trials // threads)
    spans = [range(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
    count = partial(_count_wins, n, k, s, master_seed)
    # The pool forks all its workers at once; more than the spans or the
    # CPUs only costs processes, and one worker is this process.
    workers = min(threads, len(spans), os.cpu_count() or 1)
    if workers == 1:
        wins = sum(map(count, spans))
    else:
        with _process_pool(workers) as pool:
            wins = sum(pool.map(count, spans))
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
