import itertools
import math
from fractions import Fraction

import pytest

from stopflow import (
    ContinuousArrival,
    PathPower,
    ResourceGuardError,
    Strategy,
    brute_force_win_probability,
    canonical_info_state,
    continuous_win_indicator,
    dp_optimal_value,
    info_class_audit,
    run_strategy,
    success_probability_exact,
)
from stopflow.exact import conditional_success


def test_brute_force_golden_values():
    assert brute_force_win_probability(5, 2, Strategy.tau_n()) == Fraction(9, 20)
    assert brute_force_win_probability(3, 1, Strategy.first_max()) == Fraction(1, 3)
    for n in range(3, 7):
        assert brute_force_win_probability(n, n - 1, Strategy.tau_n()) == Fraction(1, 2)


def test_brute_force_formula_agreement_small():
    for n in range(2, 7):
        for k in range(1, n):
            assert brute_force_win_probability(n, k, Strategy.tau_n()) == (
                success_probability_exact(n, k)
            )


def test_brute_force_resource_guard():
    with pytest.raises(ResourceGuardError):
        brute_force_win_probability(10, 2, Strategy.tau_n())


def replayed_win_probability(n, k, s):
    """The slow reference: run_strategy over every arrival order."""
    g = PathPower(n, k)
    won = sum(run_strategy(s, g, perm).win for perm in itertools.permutations(range(1, n + 1)))
    return Fraction(won, math.factorial(n))


def test_threshold_counts_match_reference_runner():
    for n in range(2, 7):
        for k in range(1, n):
            for r in range(n + 1):
                s = Strategy.classical_threshold(r)
                assert brute_force_win_probability(n, k, s) == replayed_win_probability(n, k, s)


def test_slack_rule_walk_matches_reference_runner():
    for n in range(2, 8):
        for k in range(1, n):
            s = Strategy.tau_n()
            assert brute_force_win_probability(n, k, s) == replayed_win_probability(n, k, s)


def test_tau_p_star_mixture_degenerate_biases():
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        assert brute_force_win_probability(n, k, Strategy.tau_p_star(0.0)) == Fraction(1, n)
        assert brute_force_win_probability(n, k, Strategy.tau_p_star(1.0)) == Fraction(1, n)


def test_tau_p_star_mixture_against_coin_enumeration():
    # total enumeration over all coin sequences and all arrival orders
    n, k = 4, 2
    g = PathPower(n, k)
    wins = 0
    runs = 0
    for coins in itertools.product((0, 1), repeat=n):
        m = sum(coins)
        for perm in itertools.permutations(range(1, n + 1)):
            wins += run_strategy(Strategy.classical_threshold(m), g, perm).win
            runs += 1
    expected = Fraction(wins, runs)
    assert brute_force_win_probability(n, k, Strategy.tau_p_star(0.5)) == expected


def test_dp_golden_values():
    assert dp_optimal_value(5, 2) == Fraction(9, 20)
    assert dp_optimal_value(4, 3) == Fraction(1, 2)


def test_dp_matches_formula_small_grid():
    for n in range(3, 7):
        for k in range(1, n):
            assert dp_optimal_value(n, k) == success_probability_exact(n, k)


def test_dp_resource_guard():
    with pytest.raises(ResourceGuardError):
        dp_optimal_value(8, 2)
    assert dp_optimal_value(4, 2, force=True) == Fraction(1, 2)


def labeled_relation(g, prefix):
    rel = set()
    for a, pa in enumerate(prefix, start=1):
        for b, pb in enumerate(prefix, start=1):
            if a != b and g.edge_exists(pa, pb):
                rel.add((a, b, g.d_value(pa, pb)))
    return frozenset(rel)


def test_info_state_canonicalization_soundness():
    # same canonical state <=> same labeled observation pattern
    for n in range(2, 7):
        for k in range(1, n):
            g = PathPower(n, k)
            state_to_rel = {}
            rel_to_state = {}
            for t in range(1, n + 1):
                for prefix in itertools.permutations(range(1, n + 1), t):
                    state = (t, canonical_info_state(g, prefix))
                    rel = (t, labeled_relation(g, prefix))
                    assert state_to_rel.setdefault(state, rel) == rel
                    assert rel_to_state.setdefault(rel, state) == state


def test_info_state_encoding_is_pinned():
    # Components 1-4 and 7-9; members as (arrival index, offset), the
    # components ordered by their first arrival.
    state = canonical_info_state(PathPower(9, 2), (2, 9, 4, 7, 3, 1))
    assert state == (((1, 1), (3, 3), (5, 2), (6, 0)), ((2, 2), (4, 0)))


def test_info_class_audit_counts_match_the_state():
    # The audit reads these from the walk's events; recompute them from the
    # canonical state as the reference.
    for n in range(2, 7):
        for k in range(1, n):
            for st in info_class_audit(n, k):
                assert st.component_count == len(st.state)
                assert st.pending_inner == sum(max(off for _, off in c) + 1 - len(c)
                                               for c in st.state)
                # The t-th arrival is maximal when no member of its
                # component sits 1..k below it.
                comp, last = next((c, off) for c in st.state for i, off in c if i == st.t)
                assert st.last_is_max == (not any(0 < last - off <= k for _, off in comp))


def test_info_state_respects_prefix_restriction():
    g = PathPower(6, 2)
    prefixes = list(itertools.permutations(range(1, 7), 4))
    groups: dict = {}
    for prefix in prefixes:
        groups.setdefault(canonical_info_state(g, prefix), []).append(prefix)
    for members in groups.values():
        head = members[0]
        for other in members[1:]:
            for t in range(1, 4):
                assert canonical_info_state(g, head[:t]) == canonical_info_state(g, other[:t])


def test_stop_values_match_conditional_success():
    for n in range(3, 7):
        for k in range(1, n):
            for stat in info_class_audit(n, k):
                if stat.last_is_max:
                    assert stat.stop_value == conditional_success(
                        n, k, stat.t, stat.component_count, stat.pending_inner
                    )
                else:
                    assert stat.sink_last == 0


def test_info_classes_partition_every_prefix_level():
    for n in range(2, 7):
        for k in range(1, n):
            stats = info_class_audit(n, k)
            assert [st.t for st in stats] == sorted(st.t for st in stats)
            for t in range(1, n + 1):
                level = [st for st in stats if st.t == t]
                falling = math.factorial(n) // math.factorial(n - t)
                assert sum(st.members for st in level) == falling
                # prefixes of length t ending on the sink: (n-1)!/(n-t)!
                assert sum(st.sink_last for st in level) == falling // n


def test_backward_induction_rejects_a_coarser_state(monkeypatch):
    # (t, component count) merges classes whose parents differ, so the
    # information classes no longer form a tree.
    monkeypatch.setattr(
        "stopflow.oracle.canonical_info_state",
        lambda g, prefix: (len(prefix), len(canonical_info_state(g, prefix))),
    )
    with pytest.raises(RuntimeError, match="two parent classes"):
        dp_optimal_value(5, 1)


def test_continuous_indicator_examples():
    g = PathPower(5, 2)
    # top vertex after the sink: always a loss
    late_top = ContinuousArrival((0.4, 0.1, 0.2, 0.3, 0.9))
    assert not continuous_win_indicator(g, late_top)
    # sink arriving last: everything is in place
    sink_last = ContinuousArrival((0.95, 0.1, 0.5, 0.3, 0.2))
    assert continuous_win_indicator(g, sink_last)


def test_continuous_indicator_rejects_dense_powers():
    with pytest.raises(ValueError):
        continuous_win_indicator(PathPower(5, 3), ContinuousArrival((0.1,) * 5))
    with pytest.raises(ValueError):
        continuous_win_indicator(PathPower(4, 2), ContinuousArrival((0.1,) * 4))


def test_continuous_arrival_validation():
    with pytest.raises(ValueError):
        ContinuousArrival((0.5, 1.5))
    g = PathPower(6, 2)
    with pytest.raises(ValueError):
        continuous_win_indicator(g, ContinuousArrival((0.1, 0.2, 0.3)))


def test_continuous_discrete_equivalence_exhaustive():
    # rank-based times: only the relative order matters to either side
    for n in range(4, 9):
        for k in range(1, n - 2):
            g = PathPower(n, k)
            for perm in itertools.permutations(range(1, n + 1)):
                times = [0.0] * n
                for t, pos in enumerate(perm, start=1):
                    times[pos - 1] = (t - 0.5) / n
                cont = continuous_win_indicator(g, ContinuousArrival(tuple(times)))
                disc = run_strategy(Strategy.tau_n(), g, perm).win
                assert cont == disc, (n, k, perm)

