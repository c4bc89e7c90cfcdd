"""Self-contained verification suite: formula vs oracle vs DP vs bounds.

Each check pits an independent computation against the closed forms; the CLI
``verify`` subcommand runs them all and reports a machine-readable verdict.
Every check is one function under its public name, decorated by ``_check``:
its body returns the passing detail or raises ``_Failed`` with the failing
one.  ``verify_all`` calls the checks in order.  The observer invariants,
the (t, c) tally, the continuous check and the slack rule's wins read one
function of a set transition each, so ``_set_events`` serves them from the
oracle's pass over arrived sets, which observes each transition once; while
``verify_all`` runs, its checks share one ``_set_events`` per (n, k).  Only
the class tables need arrival order, and each check that reads one builds
its own: ``dp_vs_formula`` reads the table pruned at the sink,
``conditional_success_vs_states`` the full one, as the audit does.
``strategy_dominance`` walks nothing either: it reads the threshold rules'
wins off the oracle's threshold set pass.  Desk-scale guards apply:
``verify_all`` checks every range before any pass: that ``n_max`` is at
least 4, then ``formula_vs_oracle``'s guard on ``n_max`` and the bounds
sandwich's range, which those two checks also apply when called alone.
The class checks cap ``n_max``; the others run to it under their pass's guard.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .exact import (
    bound_report,
    conditional_success,
    exact_tables,
    min_condition_time,
    success_probabilities_exact,
    success_probability_exact,
)
from .graph import PathPower, _check_guard
from .observer import Observer, component_runs
from .oracle import (
    DP_GUARD,
    ENUMERATION_GUARD,
    SET_GUARD,
    ContinuousArrival,
    _WIDTH,
    _audited_states,
    _backward_induction,
    _class_table,
    _completions,
    _rejection_mixture,
    _slack_rule_wins,
    _threshold_counts,
    continuous_win_indicator,
    set_transitions,
)
from .strategies import Strategy, _wants_stop, run_strategy

# Golden observation trace: n=9, k=2, this arrival order must produce the
# pending-inner sequence below, and the slack rule must stop at t=6 on the
# sink.
GOLDEN_TRACE_N = 9
GOLDEN_TRACE_K = 2
GOLDEN_TRACE_PERMUTATION = (2, 9, 4, 7, 3, 1, 5, 8, 6)
GOLDEN_TRACE_PENDING_INNER = (0, 0, 1, 2, 1, 1, 2, 1, 0)
GOLDEN_TRACE_STOP = 6

# The bounds sandwich and ``stopflow scaling`` make one row pass per k up to
# their largest n, a cost that still grows without bound: about 1.3 s at 1000
# and 15 s at 2000 for the sandwich.  ``stopflow exact`` is capped at the same
# n, which bounds n only; ``exact.COMPOSITION_GUARD`` bounds its tables in k.
BOUNDS_GUARD = 1000

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


class _Failed(Exception):
    """Raised by a check's body with its failing detail."""


def _check(body: Callable[..., str]) -> Callable[..., Check]:
    """The check named after ``body``, less its ``check_`` prefix: passed
    with the detail the body returns, or failed with the one it raises as
    ``_Failed``."""
    name = body.__name__.removeprefix("check_")

    @functools.wraps(body)
    def check(*args, **kwargs) -> Check:
        try:
            return Check(name, True, body(*args, **kwargs))
        except _Failed as failed:
            return Check(name, False, str(failed))

    check.__signature__ = inspect.signature(body).replace(return_annotation="Check")
    return check


class _Events(NamedTuple):  # the result of ``_set_events``
    failure: str  # the observer-invariant failure at the smallest prefix, "" if none
    complete: int  # complete arrival orders
    tally: dict  # (t, component count) -> [orders, orders with a maximal t-th arrival]
    won: int  # orders the slack rule wins
    disagreement: str  # the smallest order the continuous indicator judges otherwise, "" if none
    compared: int  # orders put to the continuous indicator


def _set_events(g: PathPower) -> _Events:
    """What the oracle's set pass decides for every order at once.

    A transition S - {v} -> S into a t-set stands for the (t - 1)! (n - t)!
    orders through it, and its event is theirs.  It is judged by the
    observer invariants, with the condition of S - {v}, and its totals must
    equal those that ``component_runs`` recounts for S; a failure names the
    smallest prefix (*sorted(S - {v}), v) that fails.  The slack rule's
    verdict is fixed at the sink's arrival, and if k < n - 2 the continuous
    indicator reads only the set S before it, so it is asked once per S, on
    the order (*sorted(S), 1, *sorted(rest)): every order of S must win
    where it says win and lose where it says lose.  A failure names the
    smallest order (*P, 1, *sorted(rest)) that the rule judges otherwise, P
    an order of S: the sorted one, unless the rule fires before the sink on
    some orders of S but not all.
    """
    n, k = g.n, g.k
    transitions = set_transitions(g)
    weight = _completions(n)
    # [t][c]: orders, and orders with a maximal t-th arrival, at t arrivals in c components
    orders = [[0] * (n + 1) for _ in range(n + 1)]
    maximal = [[0] * (n + 1) for _ in range(n + 1)]
    # [S]: (t, components, pending inner, slack) recounted; the empty set's slack is n
    totals = [(0, 0, 0, n)]
    failures = []
    for s in range(1, 1 << n):
        members = [v for v in range(1, n + 1) if s >> v - 1 & 1]
        runs = component_runs(members, k)
        t, c = len(members), len(runs)
        inner = sum(run[-1] - run[0] + 1 - len(run) for run in runs)
        totals.append((t, c, inner, (n - t) - k * (c - 1) - inner))
        w = math.factorial(t - 1) * weight[t]  # the orders through one transition into S
        for v, e in transitions[s].items():
            _, is_max, comps, _, slack = e
            # The predecessor suffices: once met, the condition must persist.
            met = totals[s ^ 1 << v - 1][3] == 0
            what = ("negative slack" if slack < 0
                    else "condition not persistent" if met and not e.condition_met
                    else "maximal arrival after exhaustion" if met and is_max
                    else "totals differ from a recount of the set" if (e.t, *e[2:]) != totals[s]
                    else "")
            if what:
                failures.append(((*(u for u in members if u != v), v), what))
            orders[t][comps] += w
            if is_max:
                maximal[t][comps] += w
    failure = ""
    if failures:
        prefix, what = min(failures)
        failure = f"{what} at (n={n}, k={k}), prefix {prefix}, t={len(prefix)}"

    won = _slack_rule_wins(n, transitions)
    disagreement, compared = "", 0
    if k < n - 2:  # inside the continuous model
        disagreeing = []
        for s, discrete in enumerate(won):
            before = [v for v in range(2, n + 1) if s >> v - 2 & 1]
            order = (*before, 1, *(v for v in range(2, n + 1) if not s >> v - 2 & 1))
            times = [0.0] * n  # the i-th arrival of the order comes at (i - 0.5) / n
            for i, pos in enumerate(order, start=1):
                times[pos - 1] = (i - 0.5) / n
            # the orders with S before the sink
            ways = math.factorial(len(before)) * weight[len(before) + 1]
            says = continuous_win_indicator(g, ContinuousArrival(tuple(times)))
            if discrete != says * ways:
                if discrete not in (0, ways):  # the sink fires it; it loses the orders it fires early on
                    early = next(p for p in itertools.permutations(before)
                                 if _fires_before_sink(transitions, p) == says)
                    order = (*early, *order[len(before):])
                disagreeing.append(order)
            compared += ways
        if disagreeing:
            disagreement = f"disagreement at (n={n}, k={k}), order {min(disagreeing)}"

    tally = {(t, c): [orders[t][c], maximal[t][c]]
             for t in range(1, n + 1) for c in range(1, t + 1) if orders[t][c]}
    # A complete order's last transition is into the full set, of weight (n - 1)!.
    return _Events(failure, sum(orders[n]), tally, sum(won), disagreement, compared)


# (n, k) -> ``_set_events`` there, shared by the checks while ``verify_all``
# runs; None otherwise, and a check called alone computes its own.
_shared_events: dict[tuple[int, int], _Events] | None = None


def _events(n: int, k: int) -> _Events:
    """``_set_events`` at (n, k), once per ``verify_all`` run."""
    if _shared_events is None:
        return _set_events(PathPower(n, k))
    events = _shared_events.get((n, k))
    if events is None:
        events = _shared_events[n, k] = _set_events(PathPower(n, k))
    return events


def _fires_before_sink(transitions: list[dict], path: tuple[int, ...]) -> bool:
    """Whether the slack rule fires on one of the arrivals ``path``, in that
    order, by the events of ``set_transitions``."""
    tau_n, s = Strategy.tau_n(), 0
    for v in path:
        s |= 1 << v - 1
        if _wants_stop(tau_n, transitions[s][v], 0):
            return True
    return False


def _guard_set_pass(n_max: int) -> None:
    _check_guard(n_max, ENUMERATION_GUARD, "slack rule set pass", name="n_max")


@_check
def check_formula_vs_oracle(n_max: int = 8) -> str:
    _guard_set_pass(n_max)
    cases = 0
    for n in range(2, n_max + 1):
        for k in range(1, n):
            f = success_probability_exact(n, k)
            o = Fraction(_events(n, k).won, math.factorial(n))
            if f != o:
                raise _Failed(f"mismatch at (n={n}, k={k}): formula {f} vs oracle {o}")
            cases += 1
    return f"{cases} (n,k) pairs equal up to n={n_max}"


@_check
def check_dp_vs_formula(n_max: int = 7) -> str:
    n_max = min(n_max, DP_GUARD)
    cases = 0
    for n in range(3, n_max + 1):
        for k in range(1, n):
            d = _backward_induction(n, _class_table(PathPower(n, k), pre_sink=True))
            f = success_probability_exact(n, k)
            if d != f:
                raise _Failed(f"mismatch at (n={n}, k={k}): DP {d} vs formula {f}")
            cases += 1
    return f"{cases} (n,k) pairs equal up to n={n_max}"


@_check
def check_degenerate_half_cases(n_max: int = 8) -> str:
    half = Fraction(1, 2)
    for n in range(3, n_max + 1):
        for k in (n - 1, n - 2):
            p = success_probability_exact(n, k)
            if p != half:
                raise _Failed(f"exact({n},{k}) = {p}, expected 1/2")
    return f"exact(n,n-1)=exact(n,n-2)=1/2 for n=3..{n_max}"


@_check
def check_golden_trace() -> str:
    g = PathPower(GOLDEN_TRACE_N, GOLDEN_TRACE_K)
    obs = Observer(g)
    seen = tuple(obs.observe(pos).pending_inner for pos in GOLDEN_TRACE_PERMUTATION)
    if seen != GOLDEN_TRACE_PENDING_INNER:
        raise _Failed(f"pending-inner sequence {seen}")
    rec = run_strategy(Strategy.tau_n(), g, GOLDEN_TRACE_PERMUTATION)
    if rec.stop_index != GOLDEN_TRACE_STOP or not rec.win:
        raise _Failed(f"stop record {rec}")
    return f"stop at t={rec.stop_index} with a win"


@_check
def check_frozen_exact_values() -> str:
    for (n, k), expect in GOLDEN_EXACT_VALUES.items():
        f = success_probability_exact(n, k)
        o = Fraction(_events(n, k).won, math.factorial(n))
        if not f == o == expect:
            raise _Failed(f"(n={n}, k={k}): formula {f}, oracle {o}, expected {expect}")
    return f"{len(GOLDEN_EXACT_VALUES)} goldens oracle-confirmed"


def bounds_grid(k: int, max_n: int) -> list[int]:
    dense = list(range(k + 3, min(31, max_n + 1)))
    sparse = list(range(40, max_n + 1, 10))
    return dense + sparse


def _guard_bounds(max_n: int) -> None:
    # Below n = 6 the k = 3 grid is empty, and the check would pass vacuously.
    if max_n < 6:
        raise ValueError(f"the bounds sandwich needs bounds_max_n >= 6, got {max_n}")
    _check_guard(max_n, BOUNDS_GUARD, "the bounds sandwich", name="bounds_max_n")


@_check
def check_bounds_sandwich(max_n: int = 200) -> str:
    _guard_bounds(max_n)
    cases = 0
    for k in (1, 2, 3):
        for n, exact in success_probabilities_exact(bounds_grid(k, max_n), k).items():
            p = float(exact)
            rep = bound_report(n, k)
            u, lb, limit = rep.upper, rep.lower, rep.asymptotic_constant
            if not p < u:
                raise _Failed(f"(n={n}, k={k}): exact {p} >= upper {u}")
            scaled = n ** (1.0 / (k + 1)) * p
            if scaled > limit:
                raise _Failed(f"(n={n}, k={k}): scaled value {scaled} exceeds {limit}")
            if p < lb:
                raise _Failed(f"(n={n}, k={k}): exact {p} < lower {lb}")
            cases += 1
    return f"{cases} grid points sandwiched, k in 1..3, n <= {max_n}"


@_check
def check_observer_invariants(n_max: int = 7) -> str:
    _guard_set_pass(n_max)
    runs = 0
    for n in range(2, n_max + 1):
        for k in range(1, n):
            events = _events(n, k)
            if events.failure:
                raise _Failed(events.failure)
            runs += events.complete
    return f"{runs} exhaustive runs up to n={n_max}"


@_check
def check_subset_counting(n_max: int = 10) -> str:
    cases = 0
    for n in range(3, n_max + 1):
        for k in range(1, n):
            tabs = exact_tables(n, k)
            for m in range(1, n + 1):
                by_h: dict[int, int] = {}
                total = 0
                # Only sets holding 1 and n qualify (none at m = 1, as n >= 3);
                # their missing runs are the positive gaps.
                for inner in itertools.combinations(range(2, n), m - 2) if m > 1 else ():
                    subset = (1, *inner, n)
                    gaps = [b - a - 1 for a, b in zip(subset, subset[1:])]
                    if max(gaps) > k:
                        continue
                    h = gaps.count(k)
                    by_h[h] = by_h.get(h, 0) + 1
                    total += 1
                if m < min_condition_time(n, k):
                    ok = total == 0
                else:
                    ok = total == tabs.W[m] and all(
                        by_h.get(h, 0) == tabs.V.get((m, h), 0) for h in range((n - m) // k + 1)
                    )
                if not ok:
                    raise _Failed(f"table mismatch at (n={n}, k={k}, m={m}): subsets {total}")
                cases += 1
    return f"{cases} (n,k,m) table rows match subset counts"


@_check
def check_max_given_components(n_max: int = 7) -> str:
    _guard_set_pass(n_max)
    cases = 0
    for n in range(2, n_max + 1):
        for k in range(1, n):
            for (m, c), (tot, mx) in _events(n, k).tally.items():
                if Fraction(mx, tot) != Fraction(c, m):
                    raise _Failed(f"(n={n}, k={k}, m={m}, c={c}): {mx}/{tot} != {c}/{m}")
                cases += 1
    return f"{cases} (m, c) cells match (h+1)/m"


@_check
def check_conditional_success_vs_states(n_max: int = 6) -> str:
    n_max = min(n_max, 6, DP_GUARD)
    cases = 0
    for n in range(3, n_max + 1):
        for k in range(1, n):
            g = PathPower(n, k)
            classes = _class_table(g)
            try:
                _audited_states(g, classes)
            except RuntimeError as exc:  # the class audit failed
                raise _Failed(f"(n={n}, k={k}): {exc}")
            for at in range(0, len(classes), _WIDTH):
                t, members, sink_last, _, comps, pending, is_max, _ = classes[at:at + _WIDTH]
                if not is_max:
                    continue
                counted = Fraction(sink_last, members)
                expect = conditional_success(n, k, t, comps, pending)
                if counted != expect:
                    raise _Failed(f"(n={n}, k={k}, t={t}): counted {counted}, formula {expect}")
                cases += 1
    return f"{cases} maximal-last information classes match the closed form"


@_check
def check_continuous_discrete(n_max: int = 7) -> str:
    _guard_set_pass(n_max)
    runs = 0
    for n in range(4, n_max + 1):
        for k in range(1, n - 2):
            events = _events(n, k)
            if events.disagreement:
                raise _Failed(events.disagreement)
            runs += events.compared
    return f"{runs} orderings agree up to n={n_max}"


@_check
def check_strategy_dominance(n_max: int = 7) -> str:
    _check_guard(n_max, SET_GUARD, "threshold set pass", name="n_max")
    p_grid = [Fraction(i, 10) for i in range(11)]
    cases = 0
    for n in range(3, n_max + 1):
        for k in range(1, n):
            best = success_probability_exact(n, k)
            total = math.factorial(n)
            wins = _threshold_counts(n, k)
            for r in range(n + 1):
                # Exact counts where they are known, so that a miscount below
                # the slack rule shows: r = 0 wins iff the sink comes first,
                # r = n iff it comes last, and k = n - 1 is the classical
                # secretary problem.
                expect = (total // n if r in (0, n)
                          else total * r * sum(Fraction(1, j) for j in range(r, n)) / n
                          if k == n - 1 else wins[r])
                if wins[r] != expect:
                    raise _Failed(f"threshold r={r} wins {wins[r]} orders at (n={n}, k={k}), "
                                  f"not {expect}")
                if Fraction(wins[r], total) > best:
                    raise _Failed(f"threshold r={r} beats the slack rule at (n={n}, k={k})")
                cases += 1
            for p in p_grid:
                if _rejection_mixture(wins, p) > best:
                    raise _Failed(f"rejection rule p={p} beats the slack rule at (n={n}, k={k})")
                cases += 1
    return f"{cases} competing strategies dominated"


def verify_all(n_max: int = 8, skip_dp: bool = False, bounds_max_n: int = 200) -> VerifyReport:
    # Every range fails before any pass, in the order the checks run.  Below
    # n_max = 4 continuous_discrete has no case and would pass vacuously.
    if n_max < 4:
        raise ValueError(f"verification needs n_max >= 4, got {n_max}")
    _guard_set_pass(n_max)
    _guard_bounds(bounds_max_n)
    global _shared_events
    _shared_events = {}
    try:
        checks = (
            check_formula_vs_oracle(n_max),
            *(() if skip_dp else (check_dp_vs_formula(n_max),)),
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
        )
    finally:
        _shared_events = None
    return VerifyReport(passed=all(c.passed for c in checks), checks=checks)
