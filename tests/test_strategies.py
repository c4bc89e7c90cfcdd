import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopflow import (
    Observer,
    PathPower,
    StopRecord,
    Strategy,
    brute_force_win_probability,
    run_strategy,
)
from stopflow.strategies import default_threshold, draw_rejection_count, numerator, uniform_words

GOLDEN_PERM = (2, 9, 4, 7, 3, 1, 5, 8, 6)


def test_strategy_validation():
    with pytest.raises(ValueError):
        Strategy(kind="nope")
    with pytest.raises(ValueError):
        Strategy.tau_p_star(1.5)
    with pytest.raises(ValueError):
        Strategy(kind="tau_p_star")
    with pytest.raises(ValueError):
        Strategy.classical_threshold(-1)


def test_describe():
    assert Strategy.tau_n().describe() == "tau_n"
    assert Strategy.tau_p_star(0.25).describe() == "tau_p_star(p=0.25)"
    assert Strategy.classical_threshold(3).describe() == "classical_threshold(r=3)"


def test_tau_n_on_golden_permutation():
    rec = run_strategy(Strategy.tau_n(), PathPower(9, 2), GOLDEN_PERM)
    assert rec == StopRecord(stop_index=6, chosen_position=1, win=True)


def test_tau_n_three_vertex_path_never_fires():
    rec = run_strategy(Strategy.tau_n(), PathPower(3, 1), (1, 2, 3))
    assert rec == StopRecord(stop_index=3, chosen_position=3, win=False)


def test_tau_p_star_with_zero_bias_stops_immediately():
    g = PathPower(6, 2)
    for seed in range(5):
        rec = run_strategy(Strategy.tau_p_star(0.0), g, (4, 2, 6, 1, 3, 5), random.Random(seed))
        assert rec.stop_index == 1 and rec.chosen_position == 4


def test_tau_p_star_with_full_bias_rejects_everything():
    g = PathPower(6, 2)
    rec = run_strategy(Strategy.tau_p_star(1.0), g, (4, 2, 6, 1, 3, 5), random.Random(0))
    assert rec.stop_index == 6 and rec.chosen_position == 5


def test_first_max_stops_at_first_arrival():
    g = PathPower(5, 2)
    for perm in itertools.permutations(range(1, 6)):
        rec = run_strategy(Strategy.first_max(), g, perm)
        assert rec.stop_index == 1 and rec.chosen_position == perm[0]


def test_classical_threshold_skips_exactly_r():
    g = PathPower(5, 4)
    # descending arrivals: every arrival is maximal when it comes
    rec = run_strategy(Strategy.classical_threshold(2), g, (5, 4, 3, 2, 1))
    assert rec.stop_index == 3 and rec.chosen_position == 3


def test_rejects_non_permutation():
    g = PathPower(4, 2)
    with pytest.raises(ValueError):
        run_strategy(Strategy.tau_n(), g, (1, 2, 3))
    with pytest.raises(ValueError):
        run_strategy(Strategy.tau_n(), g, (1, 2, 2, 4))


def test_default_threshold_values():
    assert default_threshold(3) == 1
    assert default_threshold(10) == 3
    assert default_threshold(200) == 73


def test_rejection_count_is_binomial_sum():
    rng = random.Random(99)
    draws = [draw_rejection_count(20, 0.25, rng) for _ in range(2000)]
    assert all(0 <= m <= 20 for m in draws)
    mean = sum(draws) / len(draws)
    assert abs(mean - 5.0) < 0.25  # ~6 sigma for Binomial(20, .25)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.data())
def test_randomized_strategy_purity(seed, data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    perm = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    g = PathPower(n, k)
    s = Strategy.tau_p_star(0.5)
    assert run_strategy(s, g, perm, random.Random(seed)) == run_strategy(s, g, perm, random.Random(seed))


def test_only_tau_p_star_draws_from_rng():
    g = PathPower(7, 2)
    perms = list(itertools.permutations(range(1, 8)))[::97]
    for s in (Strategy.tau_n(), Strategy.first_max(), Strategy.classical_threshold(3)):
        for perm in perms:
            expect = run_strategy(s, g, perm)
            for rng in (random.Random(0), random.Random(123)):
                state = rng.getstate()
                assert run_strategy(s, g, perm, rng) == expect
                assert rng.getstate() == state
    for seed in (0, 1, 2**63 + 5):
        s = Strategy.tau_p_star(0.5)
        for perm in perms:
            rng = random.Random(seed)
            assert run_strategy(s, g, perm, rng) == run_strategy(s, g, perm, random.Random(seed))
            assert rng.getstate() != random.Random(seed).getstate()


def test_tau_p_star_needs_a_generator():
    # The strategy carries no seed: its rejection count comes from the caller's stream.
    with pytest.raises(ValueError, match="random generator"):
        run_strategy(Strategy.tau_p_star(0.5), PathPower(6, 2), (4, 2, 6, 1, 3, 5))
    with pytest.raises(TypeError):
        Strategy.tau_p_star(0.5, rng_seed=7)


def test_tau_n_stops_only_on_maximal_arrivals():
    for n in range(2, 6):
        for k in range(1, n):
            g = PathPower(n, k)
            for perm in itertools.permutations(range(1, n + 1)):
                rec = run_strategy(Strategy.tau_n(), g, perm)
                if rec.stop_index < n:
                    obs = Observer(g)
                    events = [obs.observe(pos) for pos in perm[: rec.stop_index]]
                    assert events[-1].is_max and events[-1].condition_met


def test_tau_n_wins_iff_top_precedes_sink_for_dense_powers():
    for n in range(3, 7):
        for k in (n - 2, n - 1):
            if k < 1:
                continue
            g = PathPower(n, k)
            for perm in itertools.permutations(range(1, n + 1)):
                rec = run_strategy(Strategy.tau_n(), g, perm)
                assert rec.win == (perm.index(n) < perm.index(1))


def test_dense_power_win_probability_is_half():
    for n in range(3, 7):
        for k in (n - 2, n - 1):
            if k < 1:
                continue
            assert brute_force_win_probability(n, k, Strategy.tau_n()) == Fraction(1, 2)


def test_no_generated_strategy_beats_the_slack_rule():
    # thresholds, first_max, and the rejection rule over a p-grid (with the
    # rejection count integrated out exactly) never exceed tau_n's value
    from stopflow.verify import check_strategy_dominance

    check = check_strategy_dominance(7)
    assert check.passed, check.detail


def test_win_implies_chose_the_sink():
    g = PathPower(6, 2)
    rng = random.Random(5)
    for s in (Strategy.tau_n(), Strategy.tau_p_star(0.4), Strategy.first_max(),
              Strategy.classical_threshold(2)):
        for _ in range(200):
            perm = list(range(1, 7))
            rng.shuffle(perm)
            rec = run_strategy(s, g, perm, random.Random(rng.random()))
            assert rec.win == (rec.chosen_position == 1)


def test_rejection_count_draws_n_uniforms():
    # One random() per flip, tails below p: the seed contract's strategy draws.
    for n, p, seed in [(1, 0.5, 1), (20, 0.25, 2), (300, 0.9, 3), (7, 0.0, 4), (7, 1.0, 5)]:
        rng, ref = random.Random(seed), random.Random(seed)
        assert draw_rejection_count(n, p, rng) == sum(ref.random() < p for _ in range(n))
        assert rng.getstate() == ref.getstate()


def test_uniform_words_decode_to_random_calls():
    # The word layout is CPython's, no API: if getrandbits or random()
    # changes how it reads the Mersenne Twister, this fails first.
    for n in range(1, 301):
        for seed in (n, 2**64 - n, 7 * n + 3):
            rng, ref = random.Random(seed), random.Random(seed)
            raw = uniform_words(n, rng)
            for j in range(n):
                num = int(ref.random() * 2**53)
                assert numerator(raw, j) == num, (n, seed, j)
                assert raw[8 * j + 3] == num >> 45, (n, seed, j)
            assert rng.getstate() == ref.getstate(), (n, seed)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 400),
    p=st.one_of(
        st.sampled_from([0.0, 1.0, 2**-53, 1 - 2**-53]),
        st.integers(0, 256).map(lambda m: m / 256),  # top-byte boundaries
        st.integers(0, 2**45).map(lambda m: m * 2**-45),
        st.integers(0, 2**53).map(lambda m: m / 2**53),
        st.floats(0.0, 1.0),
    ),
    seed=st.integers(0, 2**64 - 1),
)
def test_rejection_count_matches_random_calls_everywhere(n, p, seed):
    # Top-byte count plus exact decode of ties against n random() calls.
    rng, ref = random.Random(seed), random.Random(seed)
    assert draw_rejection_count(n, p, rng) == sum(ref.random() < p for _ in range(n))
    assert rng.getstate() == ref.getstate()


class _Numerators:
    """Stands in for a generator whose uniforms have the given numerators."""

    def __init__(self, nums):
        self.nums = nums

    def getrandbits(self, bits):
        assert bits == 64 * len(self.nums)
        # random() reads words a, b as ((a >> 5) * 2**26 + (b >> 6)) / 2**53.
        return sum((num >> 26 << 5 | (num & (2**26 - 1)) << 38) << 64 * j
                   for j, num in enumerate(self.nums))


@pytest.mark.parametrize("p", [0.3, 1 / 3, 0.89, 2**-53, 1 - 2**-53, 0.5, 2**-60, 37 / 256])
def test_rejection_count_is_exact_at_the_threshold(p):
    # Numerators next to p * 2**53: only an exact decode of top-byte ties
    # counts these right, and no seeded stream hits them on purpose.
    edge = math.floor(p * 2**53)
    nums = [num for num in range(edge - 2, edge + 3) if 0 <= num < 2**53]
    expect = sum(num / 2**53 < p for num in nums)
    assert draw_rejection_count(len(nums), p, _Numerators(nums)) == expect
