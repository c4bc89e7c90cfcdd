"""Self-contained verification suite: formula vs oracle vs DP vs bounds.

Each check pits an independent computation against the closed forms; the CLI
``verify`` subcommand runs them all and reports a machine-readable verdict.
The exhaustive checks walk the oracle's arrival prefixes; only the
continuous-model check, whose indicator reads the whole order, replays n!.
Desk-scale guards apply: ``verify_all`` passes ``n_max`` (at most the
oracle guard) to every check, and each check caps it at its own limit.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    best_epsilon,
    conditional_success,
    exact_tables,
    lower_bound_tau_p,
    min_condition_time,
    success_probability_exact,
    upper_bound,
)
from .graph import PathPower
from .observer import Observer
from .oracle import (
    DP_GUARD,
    ENUMERATION_GUARD,
    ContinuousArrival,
    ResourceGuardError,
    _rejection_mixture,
    _threshold_win_counts,
    brute_force_win_probability,
    continuous_win_indicator,
    dp_optimal_value,
    info_class_audit,
    walk_prefixes,
)
from .strategies import Strategy, run_strategy

# Golden observation trace: n=9, k=2, this arrival order must produce the
# pending-inner sequence below, and the slack rule must stop at t=6 on the
# sink.
GOLDEN_TRACE_N = 9
GOLDEN_TRACE_K = 2
GOLDEN_TRACE_PERMUTATION = (2, 9, 4, 7, 3, 1, 5, 8, 6)
GOLDEN_TRACE_PENDING_INNER = (0, 0, 1, 2, 1, 1, 2, 1, 0)
GOLDEN_TRACE_STOP = 6

# Four-decimal rounding of the k=2 supremum of the scaled upper bound.
SCALED_LIMIT = 1.2879

GOLDEN_EXACT_VALUES = {
    (5, 2): Fraction(9, 20),
    (6, 2): Fraction(13, 30),
}


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    checks: tuple[Check, ...]


def check_formula_vs_oracle(n_max: int = 8) -> Check:
    cases = 0
    for n in range(2, n_max + 1):
        for k in range(1, n):
            f = success_probability_exact(n, k)
            o = brute_force_win_probability(n, k, Strategy.tau_n())
            if f != o:
                return Check(
                    "formula_vs_oracle", False,
                    f"mismatch at (n={n}, k={k}): formula {f} vs oracle {o}",
                )
            cases += 1
    return Check("formula_vs_oracle", True, f"{cases} (n,k) pairs equal up to n={n_max}")


def check_dp_vs_formula(n_max: int = 7) -> Check:
    n_max = min(n_max, DP_GUARD)
    cases = 0
    for n in range(3, n_max + 1):
        for k in range(1, n):
            d = dp_optimal_value(n, k)
            f = success_probability_exact(n, k)
            if d != f:
                return Check(
                    "dp_vs_formula", False,
                    f"mismatch at (n={n}, k={k}): DP {d} vs formula {f}",
                )
            cases += 1
    return Check("dp_vs_formula", True, f"{cases} (n,k) pairs equal up to n={n_max}")


def check_degenerate_half_cases(n_max: int = 8) -> Check:
    half = Fraction(1, 2)
    for n in range(3, n_max + 1):
        for k in (n - 1, n - 2):
            if k < 1:
                continue
            p = success_probability_exact(n, k)
            if p != half:
                return Check(
                    "degenerate_half_cases", False, f"exact({n},{k}) = {p}, expected 1/2"
                )
    return Check("degenerate_half_cases", True, f"exact(n,n-1)=exact(n,n-2)=1/2 for n=3..{n_max}")


def check_golden_trace() -> Check:
    g = PathPower(GOLDEN_TRACE_N, GOLDEN_TRACE_K)
    obs = Observer(g)
    seen = tuple(obs.observe(pos).pending_inner for pos in GOLDEN_TRACE_PERMUTATION)
    if seen != GOLDEN_TRACE_PENDING_INNER:
        return Check("golden_trace", False, f"pending-inner sequence {seen}")
    rec = run_strategy(Strategy.tau_n(), g, GOLDEN_TRACE_PERMUTATION)
    if rec.stop_index != GOLDEN_TRACE_STOP or not rec.win:
        return Check("golden_trace", False, f"stop record {rec}")
    return Check("golden_trace", True, f"stop at t={rec.stop_index} with a win")


def check_frozen_exact_values() -> Check:
    for (n, k), expect in GOLDEN_EXACT_VALUES.items():
        f = success_probability_exact(n, k)
        o = brute_force_win_probability(n, k, Strategy.tau_n())
        if not f == o == expect:
            return Check(
                "frozen_exact_values", False,
                f"(n={n}, k={k}): formula {f}, oracle {o}, expected {expect}",
            )
    return Check("frozen_exact_values", True, f"{len(GOLDEN_EXACT_VALUES)} goldens oracle-confirmed")


def bounds_grid(k: int, max_n: int) -> list[int]:
    dense = list(range(k + 3, min(31, max_n + 1)))
    sparse = list(range(40, max_n + 1, 10))
    return dense + sparse


def check_bounds_sandwich(max_n: int = 200) -> Check:
    cases = 0
    for k in (1, 2, 3):
        for n in bounds_grid(k, max_n):
            p = float(success_probability_exact(n, k))
            u = upper_bound(n, k)
            if not p < u:
                return Check("bounds_sandwich", False, f"(n={n}, k={k}): exact {p} >= upper {u}")
            scaled = n ** (1.0 / (k + 1)) * p
            if scaled > SCALED_LIMIT:
                return Check(
                    "bounds_sandwich", False,
                    f"(n={n}, k={k}): scaled value {scaled} exceeds {SCALED_LIMIT}",
                )
            lb = lower_bound_tau_p(n, k, float(best_epsilon(n, k)))
            if p < lb:
                return Check("bounds_sandwich", False, f"(n={n}, k={k}): exact {p} < lower {lb}")
            cases += 1
    return Check("bounds_sandwich", True, f"{cases} grid points sandwiched, k in 1..3, n <= {max_n}")


def check_observer_invariants(n_max: int = 7) -> Check:
    n_max = min(n_max, 7)
    runs = 0
    failure = ""

    def visit(path, events):
        # The predecessor suffices: once met, the condition must persist.
        nonlocal runs, failure
        e = events[-1]
        met = len(events) > 1 and events[-2].condition_met
        for what, bad in (("negative slack", e.slack < 0),
                          ("condition not persistent", met and not e.condition_met),
                          ("maximal arrival after exhaustion", met and e.is_max)):
            if bad and not failure:
                failure = f"{what} at (n={n}, k={k}), prefix {tuple(path)}, t={e.t}"
        runs += e.t == n
        return bool(failure)

    for n in range(2, n_max + 1):
        for k in range(1, n):
            walk_prefixes(PathPower(n, k), visit)
            if failure:
                return Check("observer_invariants", False, failure)
    return Check("observer_invariants", True, f"{runs} exhaustive runs up to n={n_max}")


def _missing_runs(n: int, subset: tuple[int, ...]) -> list[int]:
    present = set(subset)
    runs = []
    length = 0
    for q in range(1, n + 1):
        if q in present:
            if length:
                runs.append(length)
            length = 0
        else:
            length += 1
    if length:
        runs.append(length)
    return runs


def check_subset_counting(n_max: int = 10) -> Check:
    cases = 0
    for n in range(3, n_max + 1):
        for k in range(1, n):
            tabs = exact_tables(n, k)
            for m in range(1, n + 1):
                by_h: dict[int, int] = {}
                total = 0
                for subset in itertools.combinations(range(1, n + 1), m):
                    if subset[0] != 1 or subset[-1] != n:
                        continue
                    runs = _missing_runs(n, subset)
                    if any(r > k for r in runs):
                        continue
                    h = sum(1 for r in runs if r == k)
                    by_h[h] = by_h.get(h, 0) + 1
                    total += 1
                if m < min_condition_time(n, k):
                    ok = total == 0
                else:
                    ok = total == tabs.W[m] and all(
                        by_h.get(h, 0) == tabs.V[m, h] for h in range((n - m) // k + 1)
                    )
                if not ok:
                    return Check(
                        "subset_counting", False,
                        f"table mismatch at (n={n}, k={k}, m={m}): subsets {total}",
                    )
                cases += 1
    return Check("subset_counting", True, f"{cases} (n,k,m) table rows match subset counts")


def check_max_given_components(n_max: int = 7) -> Check:
    n_max = min(n_max, 7)
    cases = 0

    def visit(path, events):
        # A prefix stands for its (n - t)! completions, as in a replay tally.
        e = events[-1]
        weight = math.factorial(n - e.t)
        cell = tally.setdefault((e.t, e.component_count), [0, 0])
        cell[0] += weight
        cell[1] += weight * e.is_max

    for n in range(2, n_max + 1):
        for k in range(1, n):
            tally: dict[tuple[int, int], list[int]] = {}
            walk_prefixes(PathPower(n, k), visit)
            for (m, c), (tot, mx) in tally.items():
                if Fraction(mx, tot) != Fraction(c, m):
                    return Check(
                        "max_given_components", False,
                        f"(n={n}, k={k}, m={m}, c={c}): {mx}/{tot} != {c}/{m}",
                    )
                cases += 1
    return Check("max_given_components", True, f"{cases} (m, c) cells match (h+1)/m")


def check_conditional_success_vs_states(n_max: int = 6) -> Check:
    n_max = min(n_max, 6, DP_GUARD)
    cases = 0
    for n in range(3, n_max + 1):
        for k in range(1, n):
            for st in info_class_audit(n, k):
                if not st.last_is_max:
                    continue
                expect = conditional_success(n, k, st.t, st.component_count, st.pending_inner)
                if st.stop_value != expect:
                    return Check(
                        "conditional_success_vs_states", False,
                        f"(n={n}, k={k}, t={st.t}): counted {st.stop_value}, formula {expect}",
                    )
                cases += 1
    return Check(
        "conditional_success_vs_states", True,
        f"{cases} maximal-last information classes match the closed form",
    )


def check_continuous_discrete(n_max: int = 7) -> Check:
    n_max = min(n_max, 7)
    runs = 0
    for n in range(4, n_max + 1):
        for k in range(1, n - 2):
            g = PathPower(n, k)
            for perm in itertools.permutations(range(1, n + 1)):
                times = [0.0] * n
                for t, pos in enumerate(perm, start=1):
                    times[pos - 1] = (t - 0.5) / n
                cw = continuous_win_indicator(g, ContinuousArrival(tuple(times)))
                dw = run_strategy(Strategy.tau_n(), g, perm).win
                if cw != dw:
                    return Check(
                        "continuous_discrete", False,
                        f"disagreement at (n={n}, k={k}), order {perm}",
                    )
                runs += 1
    return Check("continuous_discrete", True, f"{runs} orderings agree up to n={n_max}")


def check_strategy_dominance(n_max: int = 7) -> Check:
    n_max = min(n_max, 7)
    p_grid = [Fraction(i, 10) for i in range(11)]
    cases = 0
    for n in range(3, n_max + 1):
        for k in range(1, n):
            best = success_probability_exact(n, k)
            total = math.factorial(n)
            wins = _threshold_win_counts(n, k)
            for r in range(n + 1):
                if Fraction(wins[r], total) > best:
                    return Check(
                        "strategy_dominance", False,
                        f"threshold r={r} beats the slack rule at (n={n}, k={k})",
                    )
                cases += 1
            for p in p_grid:
                if _rejection_mixture(wins, p) > best:
                    return Check(
                        "strategy_dominance", False,
                        f"rejection rule p={p} beats the slack rule at (n={n}, k={k})",
                    )
                cases += 1
    return Check("strategy_dominance", True, f"{cases} competing strategies dominated")


def verify_all(n_max: int = 8, skip_dp: bool = False, bounds_max_n: int = 200) -> VerifyReport:
    # Below these limits some checks have no case and would pass vacuously:
    # continuous_discrete starts at n=4, and the k=3 bounds grid at n=6.
    if n_max < 4:
        raise ValueError(f"verification needs n_max >= 4, got {n_max}")
    if bounds_max_n < 6:
        raise ValueError(f"the bounds sandwich needs bounds_max_n >= 6, got {bounds_max_n}")
    if n_max > ENUMERATION_GUARD:
        raise ResourceGuardError(
            f"verification enumerates all arrival orders and is guarded at "
            f"n_max <= {ENUMERATION_GUARD} (got {n_max})"
        )
    checks = [check_formula_vs_oracle(n_max)]
    if not skip_dp:
        checks.append(check_dp_vs_formula(n_max))
    checks.extend(
        [
            check_degenerate_half_cases(),
            check_golden_trace(),
            check_frozen_exact_values(),
            check_bounds_sandwich(bounds_max_n),
            check_observer_invariants(n_max),
            check_subset_counting(),
            check_max_given_components(n_max),
            check_conditional_success_vs_states(n_max),
            check_continuous_discrete(n_max),
            check_strategy_dominance(n_max),
        ]
    )
    return VerifyReport(passed=all(c.passed for c in checks), checks=tuple(checks))
