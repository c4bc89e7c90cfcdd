import dataclasses
import math
import random

import pytest

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
