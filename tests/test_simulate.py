import dataclasses
import importlib
import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopflow import (
    ContinuousArrival,
    PathPower,
    Strategy,
    continuous_win_indicator,
    continuous_win_rate,
    run_strategy,
    simulate,
    splitmix64,
    success_probability_exact,
    trial_seed,
)
from stopflow.oracle import walk_prefixes
from stopflow.simulate import (
    _classical_threshold_win, _first_max_win, _shuffled, _sink_index, _tau_n_win,
    _tau_p_star_win, run_trial,
)

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


def assert_matches_reference_runner(g, s, seed):
    # Replay the same stream through the Observer-based reference: shuffle
    # first, then strategy randomness.  The tail readers (tau_n, first_max,
    # classical_threshold, tau_p_star) give only their win; run_trial plays
    # the threshold family forward and gives the whole record.
    rng = random.Random(seed)
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    ref = run_strategy(s, g, perm, rng)
    if s.kind == "tau_n":
        assert _tau_n_win(g.n, g.k, random.Random(seed)) == ref.win
        return
    assert run_trial(g, s, random.Random(seed)) == ref
    if s.kind == "first_max":
        assert _first_max_win(g.n, random.Random(seed)) == ref.win
    elif s.kind == "classical_threshold":
        assert _classical_threshold_win(g.n, g.k, s.r, random.Random(seed)) == ref.win
    else:
        assert _tau_p_star_win(g.n, g.k, s, seed, random.Random(seed)) == ref.win


def test_run_trial_matches_reference_runner():
    # The fast paths must replay exactly like the reference runner when both
    # consume the same stream.
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
                assert_matches_reference_runner(g, s, trial_seed(2024, i))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_run_trial_matches_reference_runner_everywhere(data):
    # Differential test of the tail readers and the bytearray replay against
    # the Observer-based reference: every k, every strategy kind, arbitrary
    # 64-bit seeds.  r runs past n - 1, where the rule takes the last arrival.
    n = data.draw(st.integers(2, 80), label="n")
    k = data.draw(st.integers(1, n - 1), label="k")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    s = data.draw(
        st.one_of(
            st.just(Strategy.tau_n()),
            st.just(Strategy.first_max()),
            st.floats(0.0, 1.0).map(Strategy.tau_p_star),
            st.integers(0, n + 2).map(Strategy.classical_threshold),
        ),
        label="strategy",
    )
    assert_matches_reference_runner(PathPower(n, k), s, seed)


def test_run_trial_refuses_tau_n():
    # Played forward, tau_n would silently run as first_max.
    with pytest.raises(ValueError, match="tail"):
        run_trial(PathPower(8, 2), Strategy.tau_n(), random.Random(1))


def test_zero_slack_is_a_hole_free_prefix():
    # _tau_n_win rests on this identity: the Observer's slack is zero iff 1
    # and n have arrived and no k + 1 consecutive positions are missing, i.e.
    # the padded byte array has no run of k + 1 zeros.  No arrival after the
    # first such prefix is maximal, so tau_n wins iff the prefix that ends
    # with the sink is one.
    for n in range(2, 8):
        for k in range(1, n):
            def visit(path, events, n=n, k=k):
                arrived = bytearray(n + 2 * k + 1)
                for pos in path:
                    arrived[pos + k] = 1
                hole_free = arrived.find(bytes(k + 1), 1) < 0
                assert events[-1].condition_met == hole_free, (n, k, path)

            walk_prefixes(PathPower(n, k), visit)


def test_inline_shuffle_is_random_shuffle():
    # _shuffled copies CPython's shuffle, which is no API: if a Python
    # release changes it, this fails before any pinned wins drift.  The
    # large n straddle the bit-length blocks _shuffled loops over.
    boundaries = [511, 512, 513, 1023, 1024, 1025, 2047, 2048, 2049, 4095, 4096, 4097]
    for n in [*range(1, 301), *boundaries]:
        for i in range(20):
            seed = trial_seed(n, i)
            fast, ref = random.Random(seed), random.Random(seed)
            perm = list(range(1, n + 1))
            ref.shuffle(perm)
            assert _shuffled(n, fast) == perm, (n, seed)
            assert fast.getstate() == ref.getstate(), (n, seed)


def test_sink_index_reads_the_whole_shuffle():
    # _sink_index finds 1 where random.shuffle puts it and leaves the
    # generator where the shuffle does, so tau_p_star's coins follow as
    # before.  The large n straddle the bit-length blocks of the draw loop.
    boundaries = [127, 128, 129, 511, 512, 513, 1023, 1024, 1025, 4095, 4096, 4097]
    for n in [*range(2, 301), *boundaries]:
        for i in range(5):
            seed = trial_seed(n, 11 + i)
            fast, ref = random.Random(seed), random.Random(seed)
            perm = list(range(1, n + 1))
            ref.shuffle(perm)
            assert _sink_index(n, fast) == perm.index(1), (n, seed)
            assert fast.getstate() == ref.getstate(), (n, seed)


def assert_state_after_draws(rng, seed, n, d, case):
    # rng must be where CPython's shuffle is after its draws for index n-1
    # down to index d.
    ref = random.Random(seed)
    for j in range(n - 1, d - 1, -1):
        ref._randbelow(j + 1)
    assert rng.getstate() == ref.getstate(), (*case, d)


@pytest.mark.parametrize("n", [127, 128, 129, 511, 512, 513, 1023, 1024, 1025, 4095, 4096, 4097])
def test_tau_n_tail_reads_the_shuffle_stream_down_to_the_deciding_draw(n):
    # The tail walker's win equals the forward hole search after a full
    # random.shuffle, and it leaves its generator where CPython's shuffle is
    # after fixing index n-1 down to the deciding index.  The n straddle the
    # bit-length blocks of the draw loop.
    for k in sorted({1, 2, n // 10, n // 2, n - 1}):
        for i in range(3):
            seed = trial_seed(n * k, i)
            tail = random.Random(seed)
            won = _tau_n_win(n, k, tail)
            perm = list(range(1, n + 1))
            random.Random(seed).shuffle(perm)
            sink = perm.index(1)
            arrived = bytearray(n + 2 * k + 1)  # arrived[pos + k] marks pos
            for pos in perm[: sink + 1]:
                arrived[pos + k] = 1
            assert won == (arrived.find(bytes(k + 1), 1) < 0), (n, k, seed)
            # Walking back from the last arrival, the first of 1, n or an
            # interior value that completes k + 1 missing positions decides.
            missing = bytearray(n + 2)
            d = n - 1
            while perm[d] not in (1, n):
                v = perm[d]
                missing[v] = 1
                if missing.find(b"\x01" * (k + 1), max(v - k, 0), v + k + 1) >= 0:
                    break
                d -= 1
            assert_state_after_draws(tail, seed, n, d, (n, k, seed))


@pytest.mark.parametrize("n", [127, 128, 129, 511, 512, 513, 1023, 1024, 1025, 4095, 4096, 4097])
def test_threshold_tails_read_the_shuffle_stream_down_to_the_deciding_draw(n):
    # The first_max and classical_threshold readers' wins equal the forward
    # rule after a full random.shuffle, and each leaves its generator where
    # CPython's shuffle is after fixing index n-1 down to the deciding index.
    for i in range(3):
        seed = trial_seed(n, 7 + i)
        perm = list(range(1, n + 1))
        random.Random(seed).shuffle(perm)
        sink = perm.index(1)
        # first_max loses at the draw that moves 1 off index 0, which is the
        # draw for the sink's final index; a win draws down to index 1.
        tail = random.Random(seed)
        assert _first_max_win(n, tail) == (sink == 0), (n, seed)
        assert_state_after_draws(tail, seed, n, max(sink, 1), (n, seed))
        for k in sorted({1, 3, n // 2, n - 1}):
            arrived = bytearray(n + k + 1)  # arrived[pos + k] marks pos
            maximal = []
            for pos in perm:
                maximal.append(arrived.rfind(1, pos, pos + k) < 0)
                arrived[pos + k] = 1
            for r in (0, 1, int(n / math.e), n - 1, n):
                chosen = next((t for t in range(r, n) if maximal[t]), n - 1)
                tail = random.Random(seed)
                won = _classical_threshold_win(n, k, r, tail)
                assert won == (perm[chosen] == 1), (n, k, r, seed)
                # Walking back from the last arrival to index r (at most
                # n-1), the reader decides at the first maximal arrival
                # fixed after the sink, else at index r.  r = 0 is first_max.
                last = min(r, n - 1)
                before_sink = [t for t in range(last, sink) if maximal[t]]
                d = max(sink, 1) if r == 0 else max(before_sink, default=last)
                assert_state_after_draws(tail, seed, n, d, (n, k, r, seed))


@pytest.mark.parametrize("s", [
    Strategy.tau_n(),
    Strategy.first_max(),
    Strategy.classical_threshold(5),
    Strategy.tau_p_star(0.45),
])
def test_reseeded_generator_matches_a_fresh_one_per_trial(s):
    # simulate reseeds one generator per call; each trial must see the
    # stream of its own Random(trial_seed(seed, i)).
    for n, k, seed in [(12, 3, 31), (40, 1, 2**64 - 5), (25, 24, 0)]:
        if s.kind == "tau_n":
            fresh = sum(_tau_n_win(n, k, random.Random(trial_seed(seed, i))) for i in range(300))
        else:
            g = PathPower(n, k)
            fresh = sum(run_trial(g, s, random.Random(trial_seed(seed, i))).win for i in range(300))
        assert simulate(n, k, s, 300, master_seed=seed).wins == fresh


# Wins pinned by the frozen seed contract (trial i on seed XOR splitmix64(i),
# shuffle first, then strategy randomness): every driver must reproduce them.
# A strategy of None is the continuous-arrival model, continuous_win_rate.
# The n >= 400 rows reach sizes the differential tests above do not (n = 1025
# opens the shuffle with a block of two 11-bit draws).  New rows go at the end:
# pytest names a Strategy case by its row index, so an insertion would rename
# the rows after it.  At
# n = 1000 (rejection count) and n = 500 (continuous) most trials hold a
# uniform whose top byte ties the threshold's, so the exact tie decode runs.
FROZEN_WINS = [
    (50, 2, Strategy.tau_n(), 101, 446),
    (60, 30, Strategy.tau_n(), 102, 986),
    (40, 39, Strategy.tau_n(), 103, 945),
    (30, 4, Strategy.first_max(), 104, 57),
    (40, 3, Strategy.classical_threshold(14), 105, 307),
    (50, 2, Strategy.tau_p_star(0.4), 106, 127),
    (400, 2, Strategy.tau_n(), 301, 234),
    (400, 40, Strategy.tau_n(), 302, 990),
    (400, 399, Strategy.tau_n(), 303, 1042),
    (9, 2, None, 201, 804),
    (60, 1, None, 203, 210),
    (12, 9, None, 204, 1021),
    (1000, 3, Strategy.tau_p_star(0.89), 401, 213),
    (500, 8, None, 402, 738),
    (1025, 2, Strategy.tau_n(), 304, 186),
    (1025, 512, Strategy.tau_n(), 305, 1018),
    (1025, 3, Strategy.first_max(), 403, 7),
    (1025, 1024, Strategy.classical_threshold(377), 404, 724),
    (1025, 3, Strategy.classical_threshold(377), 405, 12),
    (1025, 1024, Strategy.tau_p_star(0.37), 406, 730),
    (10, 3, Strategy.tau_p_star(0.25), 407, 566),
    (1025, 3, Strategy.tau_p_star(0.9), 408, 180),
    (60, 2, Strategy.tau_p_star(1.0), 409, 42),
    (60, 2, Strategy.tau_p_star(0.0), 410, 24),
]


@pytest.mark.parametrize("n,k,s,seed,wins", FROZEN_WINS)
def test_simulate_wins_are_frozen_per_seed(n, k, s, seed, wins):
    if s is None:
        assert continuous_win_rate(n, k, 2000, master_seed=seed).wins == wins
    else:
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


@pytest.fixture
def serial_pool(monkeypatch):
    """Swap the process pool for one that maps in this process; returns the
    list of pool sizes requested."""
    made = []

    class SerialPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(simulate_module, "ProcessPoolExecutor", SerialPool)
    return made


@pytest.mark.parametrize("threads, trials, cpus, workers", [
    (5000, 40, 4, 4),   # capped by the CPU count
    (5000, 3, 64, 3),   # capped by the span count: one trial per span
    (3, 40, None, 1),   # os.cpu_count() may not know
    (2, 40, 8, 2),
])
def test_simulate_pool_size_is_bounded(serial_pool, monkeypatch, threads, trials, cpus, workers):
    monkeypatch.setattr(simulate_module.os, "cpu_count", lambda: cpus)
    pooled = simulate(8, 2, Strategy.tau_n(), trials, master_seed=5, threads=threads)
    assert serial_pool == [workers]
    assert pooled.wins == simulate(8, 2, Strategy.tau_n(), trials, master_seed=5).wins


@pytest.mark.parametrize("n, k, s", [
    (5, 5, Strategy.tau_n()),
    (5, 0, Strategy.tau_p_star(0.5)),
    (1, 1, Strategy.first_max()),
    (3, 3, None),
])
def test_simulate_checks_n_k_before_it_starts_a_pool(serial_pool, n, k, s):
    with pytest.raises(ValueError, match="n="):
        simulate(n, k, s, 10, master_seed=0, threads=2)
    assert serial_pool == []


def test_simulate_none_is_continuous_win_rate(serial_pool, monkeypatch):
    # Spread over three spans, the continuous model still matches the serial call.
    monkeypatch.setattr(simulate_module.os, "cpu_count", lambda: 4)
    pooled = simulate(12, 2, None, 500, master_seed=9, threads=3)
    assert serial_pool == [3]
    serial = continuous_win_rate(12, 2, 500, master_seed=9)
    assert dataclasses.replace(pooled, wall_time=0.0) == dataclasses.replace(serial, wall_time=0.0)


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


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_continuous_win_rate_matches_reference_indicator(data):
    # The inlined win test against oracle.continuous_win_indicator, each
    # trial on a fresh Random(trial_seed(seed, i)).
    n = data.draw(st.integers(4, 60), label="n")
    k = data.draw(st.integers(1, n - 3), label="k")
    trials = data.draw(st.integers(1, 20), label="trials")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    g = PathPower(n, k)
    wins = 0
    for i in range(trials):
        rng = random.Random(trial_seed(seed, i))
        wins += continuous_win_indicator(g, ContinuousArrival(tuple(rng.random() for _ in range(n))))
    assert continuous_win_rate(n, k, trials, master_seed=seed).wins == wins


def test_continuous_win_rate_is_exact_on_ties(monkeypatch):
    # Arrival times equal to the sink's, one off it, or tied with it on the
    # top byte only; the carry cases put p + 1 on the next top byte or at
    # 2**53.  No seeded stream hits these on purpose, so feed them directly.
    n, k = 8, 2
    pick = random.Random(8)
    draws = []
    for sink in (100 << 45 | 12345, (101 << 45) - 1, 2**53 - 1, 0, 1 << 45):
        byte_lo = sink >> 45 << 45
        near = [sink + d for d in (-2, -1, 0, 1, 2)] + [byte_lo, byte_lo + 2**45 - 1]
        near = [num for num in near if 0 <= num < 2**53]
        for _ in range(60):
            draws.append([sink, *(pick.choice(near) for _ in range(n - 1))])
    # random() reads words a, b as ((a >> 5) * 2**26 + (b >> 6)) / 2**53.
    raws = iter(b"".join(struct.pack("<II", num >> 26 << 5, (num & (2**26 - 1)) << 6)
                         for num in nums) for nums in draws)
    monkeypatch.setattr(simulate_module, "uniform_words", lambda n, rng: next(raws))
    g = PathPower(n, k)
    wins = sum(continuous_win_indicator(g, ContinuousArrival(tuple(num / 2**53 for num in nums)))
               for nums in draws)
    assert 0 < wins < len(draws)
    assert continuous_win_rate(n, k, len(draws), master_seed=1).wins == wins


@pytest.mark.parametrize("n,k", [(5, 3), (5, 4), (12, 10), (4, 2)])
def test_continuous_win_rate_needs_k_below_n_minus_2(n, k):
    with pytest.raises(ValueError, match="continuous model needs"):
        continuous_win_rate(n, k, 10, master_seed=1)
