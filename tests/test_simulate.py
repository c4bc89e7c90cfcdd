import dataclasses
import importlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopflow import (
    PathPower,
    Strategy,
    continuous_win_rate,
    run_strategy,
    simulate,
    splitmix64,
    success_probability_exact,
    trial_seed,
)
from stopflow.simulate import run_trial

# The package's ``simulate`` attribute is the function; this is the module.
simulate_module = importlib.import_module("stopflow.simulate")


def test_splitmix64_reference_vector():
    # first output of the published splitmix64 stream seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_splitmix64_range_and_determinism():
    for x in (0, 1, 7, 2**63, 2**64 - 1):
        v = splitmix64(x)
        assert 0 <= v < 2**64
        assert v == splitmix64(x)


def test_trial_seed_derivation():
    master = 0xDEADBEEF
    assert trial_seed(master, 5) == (master ^ splitmix64(5))
    seeds = {trial_seed(master, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_run_trial_matches_reference_runner():
    # The lean driver must replay exactly like the reference runner when both
    # consume the same stream: shuffle first, then strategy randomness.
    strategies = [
        Strategy.tau_n(),
        Strategy.first_max(),
        Strategy.classical_threshold(2),
        Strategy.tau_p_star(0.6),
    ]
    for n, k in [(5, 1), (7, 2), (9, 4), (12, 3)]:
        g = PathPower(n, k)
        for s in strategies:
            for i in range(50):
                seed = trial_seed(2024, i)
                fast = run_trial(g, s, random.Random(seed))
                rng = random.Random(seed)
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                assert fast == run_strategy(s, g, perm, rng)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_run_trial_matches_reference_runner_everywhere(data):
    # Differential test of the bytearray drivers against the Observer-based
    # reference: every k, every strategy kind, arbitrary 64-bit seeds.
    n = data.draw(st.integers(2, 80), label="n")
    k = data.draw(st.integers(1, n - 1), label="k")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    s = data.draw(
        st.one_of(
            st.just(Strategy.tau_n()),
            st.just(Strategy.first_max()),
            st.floats(0.0, 1.0).map(Strategy.tau_p_star),
            st.integers(0, n).map(Strategy.classical_threshold),
        ),
        label="strategy",
    )
    g = PathPower(n, k)
    fast = run_trial(g, s, random.Random(seed))
    rng = random.Random(seed)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    assert fast == run_strategy(s, g, perm, rng)


# Wins pinned by the frozen seed contract (trial i on seed XOR splitmix64(i),
# shuffle first, then strategy randomness): every driver must reproduce them.
FROZEN_WINS = [
    (50, 2, Strategy.tau_n(), 101, 446),
    (60, 30, Strategy.tau_n(), 102, 986),
    (40, 39, Strategy.tau_n(), 103, 945),
    (30, 4, Strategy.first_max(), 104, 57),
    (40, 3, Strategy.classical_threshold(14), 105, 307),
    (50, 2, Strategy.tau_p_star(0.4), 106, 127),
]


@pytest.mark.parametrize("n,k,s,seed,wins", FROZEN_WINS)
def test_simulate_wins_are_frozen_per_seed(n, k, s, seed, wins):
    assert simulate(n, k, s, 2000, master_seed=seed).wins == wins


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
def test_seed_outside_64_bits_is_rejected(seed):
    # trial_seed masks to 64 bits: 2**64 + 7 would replay seed 7's trials.
    with pytest.raises(ValueError, match="master seed"):
        simulate(6, 2, Strategy.tau_n(), 10, master_seed=seed)
    with pytest.raises(ValueError, match="master seed"):
        continuous_win_rate(6, 2, 10, master_seed=seed)
    assert simulate(6, 2, Strategy.tau_n(), 10, master_seed=2**64 - 1).seed == 2**64 - 1


def test_simulate_reports_are_reproducible():
    a = simulate(6, 2, Strategy.tau_n(), 3000, master_seed=42)
    b = simulate(6, 2, Strategy.tau_n(), 3000, master_seed=42)
    assert dataclasses.replace(a, wall_time=0.0) == dataclasses.replace(b, wall_time=0.0)
    c = simulate(6, 2, Strategy.tau_n(), 3000, master_seed=43)
    assert c.wins != a.wins or c.seed != a.seed


def test_simulate_threads_do_not_change_the_outcome():
    serial = simulate(6, 2, Strategy.tau_p_star(0.5), 2000, master_seed=7, threads=1)
    parallel = simulate(6, 2, Strategy.tau_p_star(0.5), 2000, master_seed=7, threads=2)
    assert serial.wins == parallel.wins


@pytest.mark.parametrize("threads, trials, cpus, workers", [
    (5000, 40, 4, 4),   # capped by the CPU count
    (5000, 3, 64, 3),   # capped by the span count: one trial per span
    (3, 40, None, 1),   # os.cpu_count() may not know
    (2, 40, 8, 2),
])
def test_simulate_pool_size_is_bounded(monkeypatch, threads, trials, cpus, workers):
    made = []

    class SerialPool:
        """Records the requested pool size and maps in this process."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(simulate_module, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(simulate_module.os, "cpu_count", lambda: cpus)
    pooled = simulate(8, 2, Strategy.tau_n(), trials, master_seed=5, threads=threads)
    assert made == [workers]
    assert pooled.wins == simulate(8, 2, Strategy.tau_n(), trials, master_seed=5).wins


def test_simulate_estimate_matches_exact_value():
    trials = 20000
    rep = simulate(5, 2, Strategy.tau_n(), trials, master_seed=11)
    exact = float(success_probability_exact(5, 2))
    assert abs(rep.estimate - exact) <= 3 * max(rep.stderr, 1e-9)
    assert rep.ci_lo <= rep.estimate <= rep.ci_hi
    assert abs(rep.stderr - math.sqrt(rep.estimate * (1 - rep.estimate) / trials)) < 1e-12


def test_simulate_first_max_is_one_over_n():
    rep = simulate(8, 3, Strategy.first_max(), 20000, master_seed=3)
    assert abs(rep.estimate - 1 / 8) <= 3 * rep.stderr


def test_simulate_rejects_bad_trials():
    with pytest.raises(ValueError):
        simulate(5, 2, Strategy.tau_n(), 0, master_seed=1)


def test_simulate_rejects_bad_threads():
    for threads in (0, -3):
        with pytest.raises(ValueError):
            simulate(5, 2, Strategy.tau_n(), 10, master_seed=1, threads=threads)


def test_continuous_win_rate_matches_exact_value():
    rep = continuous_win_rate(9, 2, 100_000, master_seed=17)
    exact = float(success_probability_exact(9, 2))
    assert abs(rep.estimate - exact) <= 3 * rep.stderr


def test_continuous_win_rate_reproducible():
    a = continuous_win_rate(10, 1, 5000, master_seed=5)
    b = continuous_win_rate(10, 1, 5000, master_seed=5)
    assert a.wins == b.wins
