"""Self-contained verification suite: formula vs oracle vs DP vs bounds.

Each check pits an independent computation against the closed forms; the CLI
``verify`` subcommand runs them all and reports a machine-readable verdict.
Every check is one function under its public name, decorated by ``_check``:
its body returns the passing detail or raises ``_Failed`` with the failing
one, and an exhaustive check's body is a generator that reads the oracle's
prefix walk through visitors.  Every check runs as its ``.walk`` generator
through one driver, ``_run_walks``: a call alone, ``verify_all`` all at
once, walking each (n, k) once for all of them.  Up to ``WALK_N_CAP`` one
visitor judges each prefix by its last events for the observer invariants,
the (t, c) tally, the continuous check and the slack rule's wins; past it
``formula_vs_oracle`` walks alone, pruned at the rule's stop or the sink's
arrival.  ``dp_vs_formula`` reads the class table pruned at the sink;
``conditional_success_vs_states`` reads the full one, as the audit does.
``strategy_dominance`` walks nothing: it reads the threshold rules' wins off
the oracle's pass over arrived sets.  Desk-scale guards apply:
``verify_all`` checks only that ``n_max`` is at least 4 and passes it to
every check, which caps it at its own limit or, as ``formula_vs_oracle``
does, raises the guard before any walk; the bounds sandwich checks its own
range.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Generator, NamedTuple

from .exact import (
    bound_report,
    conditional_success,
    exact_tables,
    min_condition_time,
    success_probabilities_exact,
    success_probability_exact,
)
from .graph import PathPower, _check_guard
from .observer import Observer
from .oracle import (
    DP_GUARD,
    ENUMERATION_GUARD,
    ContinuousArrival,
    _WIDTH,
    _aggregates,
    _audited_states,
    _backward_induction,
    _completions,
    _info_class_visitor,
    _pre_sink_class_visitor,
    _rejection_mixture,
    _slack_rule_visitor,
    _threshold_counts,
    continuous_win_indicator,
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

# Caps four checks whatever n_max they get, so that the output of verify
# --n-max 8 stays fixed (test_verify_checks_cap_n_max_themselves).
# strategy_dominance keeps it only for that: it reads the oracle's set pass,
# which costs milliseconds at any n the enumeration guard allows.  Past it
# formula_vs_oracle walks pruned at the rule's stop or the sink: about 0.4 s
# for every k at n = 8 on two vCPUs, where a full walk takes about 1.7 s.
WALK_N_CAP = 7

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


if TYPE_CHECKING:  # not at run time: typing's cache would pin every imported copy of Check
    Walks = Generator[tuple[int, int, Callable], object, str]
    WalkCheck = Generator[tuple[int, int, Callable], object, Check]


class _Failed(Exception):
    """Raised by a check's body with its failing detail."""


def _run_walks(checks: list[WalkCheck]) -> list[Check]:
    """Run checks on one prefix walk per (n, k); return their Checks in order.

    A check is a generator: it yields (n, k, make) for each walk it needs, in
    increasing (n, k), is sent the result of the visitor ``make(g)`` builds,
    and returns its Check.  Checks that ask for one ``make`` at one (n, k)
    share its visitor.  Results are dropped after their (n, k).
    """
    done: list[Check | None] = [None] * len(checks)
    wants: dict[int, tuple[int, int, Callable]] = {}  # check index -> its next walk

    def send(i: int, value: object) -> None:
        try:
            wants[i] = checks[i].send(value)
        except StopIteration as stop:
            done[i] = stop.value

    for i in range(len(checks)):
        send(i, None)
    while wants:
        n, k = min(want[:2] for want in wants.values())
        here = [i for i, want in wants.items() if want[:2] == (n, k)]
        makes = list(dict.fromkeys(wants[i][2] for i in here))
        results = dict(zip(makes, _aggregates(PathPower(n, k), *makes)))
        for i in here:
            send(i, results[wants.pop(i)[2]])
        del results
    return done


def _check(body: Callable[..., str | Walks]) -> Callable[..., Check]:
    """The check named after ``body``, less its ``check_`` prefix.

    ``.walk`` is a generator that runs the body (``yield from`` it, if the
    body is one) and returns the Check: passed with the detail the body
    returns, or failed with the one it raises as ``_Failed``.  A call runs
    ``.walk`` alone through ``_run_walks``; a ``functools.wraps`` wrapper
    keeps ``.walk`` (it copies ``__dict__``) but repoints ``__wrapped__``.
    """
    name = body.__name__.removeprefix("check_")

    def walk(*args, **kwargs) -> WalkCheck:
        try:
            detail = body(*args, **kwargs)
            if inspect.isgenerator(detail):
                detail = yield from detail
        except _Failed as failed:
            return Check(name, False, str(failed))
        return Check(name, True, detail)

    @functools.wraps(body)
    def check(*args, **kwargs) -> Check:
        return _run_walks([walk(*args, **kwargs)])[0]

    check.__signature__ = inspect.signature(body).replace(return_annotation="Check")
    check.walk = walk
    return check


class _Events(NamedTuple):  # the result of ``_event_visitor``
    failure: str  # the first invariant failure in walk order, "" if none
    complete: int  # complete arrival orders
    tally: dict  # (t, component count) -> [orders, orders with a maximal t-th arrival]
    won: int  # orders the slack rule wins
    disagreement: str  # the first order the continuous indicator judges otherwise, "" if none
    compared: int  # orders put to the continuous indicator


def _event_visitor(g: PathPower) -> tuple[Callable, Callable[[], _Events]]:
    """Visitor and result for what each prefix's last events decide, a prefix
    standing for its (n - t)! completions: the observer invariants, the
    (t, c) tally in increasing (t, c), and at the sink the slack rule's
    verdict and, if k < n - 2, the continuous indicator's, both fixed there.
    It keeps ``strategies.stop_time``'s rule along the path, so it never
    mutes and must see every prefix in walk order."""
    n, k = g.n, g.k
    weight = _completions(n)
    tau_n = Strategy.tau_n()
    stamps = [(i - 0.5) / n for i in range(1, n + 1)]  # [i - 1]: the i-th arrival's time
    # [t][c]: orders, and orders with a maximal t-th arrival, at t arrivals in c components
    orders = [[0] * (n + 1) for _ in range(n + 1)]
    maximal = [[0] * (n + 1) for _ in range(n + 1)]
    met = [False] * (n + 1)  # [t]: the condition holds after the t-th arrival of the path
    fired = [False] * (n + 1)  # [t]: the slack rule stopped at or before that arrival
    sunk = [False] * (n + 1)  # [t]: the sink is among the path's first t arrivals
    failure, disagreement, won, compared = "", "", 0, 0

    def visit(path, events):
        nonlocal failure, disagreement, won, compared
        e = events[-1]
        t, is_max, c, _, slack = e
        met[t] = now = e.condition_met
        # The predecessor suffices: once met, the condition must persist.
        what = ("negative slack" if slack < 0
                else "condition not persistent" if met[t - 1] and not now
                else "maximal arrival after exhaustion" if met[t - 1] and is_max
                else "")
        if what and not failure:
            failure = f"{what} at (n={n}, k={k}), prefix {tuple(path)}, t={t}"
        w = weight[t]
        orders[t][c] += w
        if is_max:
            maximal[t][c] += w
        sunk[t] = sunk[t - 1] or path[-1] == 1
        if sunk[t - 1]:  # both verdicts were fixed when the sink arrived
            return
        wants = _wants_stop(tau_n, e, 0)
        fired[t] = fired[t - 1] or wants
        if not sunk[t]:
            return
        discrete = not fired[t - 1] and (wants or t == n)
        if discrete:
            won += w
        if k >= n - 2:  # outside the continuous model
            return
        # The i-th arrival of the order (*path, *sorted(unarrived)) comes at
        # (i - 0.5) / n: the path's first, then the unarrived positions upward.
        times = [None] * n
        for i, pos in enumerate(path):
            times[pos - 1] = stamps[i]
        i = t
        for j in range(n):
            if times[j] is None:
                times[j] = stamps[i]
                i += 1
        arrival = ContinuousArrival(tuple(times))
        if continuous_win_indicator(g, arrival) != discrete and not disagreement:
            order = (*path, *sorted(set(range(1, n + 1)).difference(path)))
            disagreement = f"disagreement at (n={n}, k={k}), order {order}"
        compared += w

    def result():
        tally = {(t, c): [orders[t][c], maximal[t][c]]
                 for t in range(1, n + 1) for c in range(1, t + 1) if orders[t][c]}
        # A complete order is a prefix of length n, of weight 0! = 1.
        return _Events(failure, sum(orders[n]), tally, won, disagreement, compared)

    return visit, result


@_check
def check_formula_vs_oracle(n_max: int = 8) -> Walks:
    _check_guard(n_max, ENUMERATION_GUARD, "permutation enumeration", name="n_max")
    cases = 0
    for n in range(2, n_max + 1):
        for k in range(1, n):
            f = success_probability_exact(n, k)
            if n <= WALK_N_CAP:  # read off the full walk the capped checks share
                won = (yield n, k, _event_visitor).won
            else:
                won = yield n, k, _slack_rule_visitor
            o = Fraction(won, math.factorial(n))
            if f != o:
                raise _Failed(f"mismatch at (n={n}, k={k}): formula {f} vs oracle {o}")
            cases += 1
    return f"{cases} (n,k) pairs equal up to n={n_max}"


@_check
def check_dp_vs_formula(n_max: int = 7) -> Walks:
    n_max = min(n_max, DP_GUARD)
    cases = 0
    for n in range(3, n_max + 1):
        for k in range(1, n):
            d = _backward_induction(n, (yield n, k, _pre_sink_class_visitor))
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
def check_frozen_exact_values() -> Walks:
    for (n, k), expect in GOLDEN_EXACT_VALUES.items():
        f = success_probability_exact(n, k)
        o = Fraction((yield n, k, _event_visitor).won, math.factorial(n))
        if not f == o == expect:
            raise _Failed(f"(n={n}, k={k}): formula {f}, oracle {o}, expected {expect}")
    return f"{len(GOLDEN_EXACT_VALUES)} goldens oracle-confirmed"


def bounds_grid(k: int, max_n: int) -> list[int]:
    dense = list(range(k + 3, min(31, max_n + 1)))
    sparse = list(range(40, max_n + 1, 10))
    return dense + sparse


@_check
def check_bounds_sandwich(max_n: int = 200) -> str:
    # Below n = 6 the k = 3 grid is empty, and the check would pass vacuously.
    if max_n < 6:
        raise ValueError(f"the bounds sandwich needs bounds_max_n >= 6, got {max_n}")
    _check_guard(max_n, BOUNDS_GUARD, "the bounds sandwich", name="bounds_max_n")
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
def check_observer_invariants(n_max: int = 7) -> Walks:
    n_max = min(n_max, WALK_N_CAP)
    runs = 0
    for n in range(2, n_max + 1):
        for k in range(1, n):
            events = yield n, k, _event_visitor
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
def check_max_given_components(n_max: int = 7) -> Walks:
    n_max = min(n_max, WALK_N_CAP)
    cases = 0
    for n in range(2, n_max + 1):
        for k in range(1, n):
            for (m, c), (tot, mx) in (yield n, k, _event_visitor).tally.items():
                if Fraction(mx, tot) != Fraction(c, m):
                    raise _Failed(f"(n={n}, k={k}, m={m}, c={c}): {mx}/{tot} != {c}/{m}")
                cases += 1
    return f"{cases} (m, c) cells match (h+1)/m"


@_check
def check_conditional_success_vs_states(n_max: int = 6) -> Walks:
    n_max = min(n_max, 6, DP_GUARD)
    cases = 0
    for n in range(3, n_max + 1):
        for k in range(1, n):
            classes = yield n, k, _info_class_visitor
            try:
                _audited_states(PathPower(n, k), classes)
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
def check_continuous_discrete(n_max: int = 7) -> Walks:
    n_max = min(n_max, WALK_N_CAP)
    runs = 0
    for n in range(4, n_max + 1):
        for k in range(1, n - 2):
            events = yield n, k, _event_visitor
            if events.disagreement:
                raise _Failed(events.disagreement)
            runs += events.compared
    return f"{runs} orderings agree up to n={n_max}"


@_check
def check_strategy_dominance(n_max: int = 7) -> str:
    n_max = min(n_max, WALK_N_CAP)
    p_grid = [Fraction(i, 10) for i in range(11)]
    cases = 0
    for n in range(3, n_max + 1):
        for k in range(1, n):
            best = success_probability_exact(n, k)
            total = math.factorial(n)
            wins = _threshold_counts(n, k)
            for r in range(n + 1):
                if Fraction(wins[r], total) > best:
                    raise _Failed(f"threshold r={r} beats the slack rule at (n={n}, k={k})")
                cases += 1
            for p in p_grid:
                if _rejection_mixture(wins, p) > best:
                    raise _Failed(f"rejection rule p={p} beats the slack rule at (n={n}, k={k})")
                cases += 1
    return f"{cases} competing strategies dominated"


def verify_all(n_max: int = 8, skip_dp: bool = False, bounds_max_n: int = 200) -> VerifyReport:
    # Below n_max = 4 continuous_discrete has no case and would pass vacuously.
    # check_formula_vs_oracle, started first, guards n_max before any walk, and
    # check_bounds_sandwich checks bounds_max_n itself.
    if n_max < 4:
        raise ValueError(f"verification needs n_max >= 4, got {n_max}")
    # The exhaustive checks share one walk per (n, k).
    checks = _run_walks([
        check_formula_vs_oracle.walk(n_max),
        *(() if skip_dp else (check_dp_vs_formula.walk(n_max),)),
        check_degenerate_half_cases.walk(),
        check_golden_trace.walk(),
        check_frozen_exact_values.walk(),
        check_bounds_sandwich.walk(bounds_max_n),
        check_observer_invariants.walk(n_max),
        check_subset_counting.walk(),
        check_max_given_components.walk(n_max),
        check_conditional_success_vs_states.walk(n_max),
        check_continuous_discrete.walk(n_max),
        check_strategy_dominance.walk(n_max),
    ])
    return VerifyReport(passed=all(c.passed for c in checks), checks=tuple(checks))
