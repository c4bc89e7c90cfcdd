"""Independent ground truth at desk scale.

Everything here certifies the rest of the package by brute force: one walk
over all arrival prefixes on one observer, exact mixing over the rejection
count of the randomized rule, backward induction over canonical information
states (the optimal value over all stopping rules that see only the labeled
induced graph), and the continuous-arrival win test.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .graph import PathPower
from .observer import ObservationEvent, Observer, component_runs
from .strategies import Strategy

ENUMERATION_GUARD = 9
DP_GUARD = 7


class ResourceGuardError(Exception):
    """Raised when a brute-force request exceeds the desk-scale guard."""


def _check_guard(n: int, limit: int, what: str, force: bool) -> None:
    if n > limit and not force:
        raise ResourceGuardError(
            f"{what} is guarded at n <= {limit} (got n={n}); pass force=True to override"
        )


# ---------------------------------------------------------------------------
# Exhaustive enumeration over arrival prefixes
# ---------------------------------------------------------------------------

def walk_prefixes(g: PathPower, visit: Callable[..., bool | None]) -> None:
    """Call ``visit(path, events)`` on every arrival prefix, depth first and
    in lexicographic order, with the arrived positions and their observer
    events (both lists are reused).  A true return skips the extensions of
    the prefix: the visitor has credited its (n - t)! completions at once.
    """
    _walk(Observer(g), list(g.positions()), [], [], visit)


def _walk(obs: Observer, free: list[int], path: list[int], events: list[ObservationEvent],
          visit: Callable) -> None:
    # Module level, not a recursive closure: its reference cycle outlives the call.
    # ``free`` holds the unarrived positions, sorted; each is lent to the
    # child walk and put back in place, so the order stays lexicographic.
    for i in range(len(free)):
        pos = free.pop(i)
        path.append(pos)
        events.append(obs.observe(pos))
        if not visit(path, events) and free:
            _walk(obs, free, path, events, visit)
        obs.undo()
        path.pop()
        events.pop()
        free.insert(i, pos)


def _threshold_win_counts(n: int, k: int) -> list[int]:
    """wins[M] = number of arrival orders won by "reject M, take first maximal"."""
    wins = [0] * (n + 1)

    def visit(path: list[int], events: list[ObservationEvent]) -> bool | None:
        # The sink is always maximal, so the rule wins iff the first maximal
        # arrival after the rejection phase is the sink: M in [prev, t_sink)
        # for the last maximal time prev before it.  M = n never fires and
        # takes the final arrival, which wins exactly when the sink comes last.
        if path[-1] == 1:
            t_sink = len(path)
            prev = next((e.t for e in reversed(events[:-1]) if e.is_max), 0)
            for m in range(prev, t_sink):
                wins[m] += math.factorial(n - t_sink)
            wins[n] += t_sink == n
            return True

    walk_prefixes(PathPower(n, k), visit)
    return wins


def _rejection_mixture(wins: list[int], p: Fraction) -> Fraction:
    """Exact win probability of "reject M ~ Binomial(n, p), take the first
    maximal", mixing the per-M counts ``wins`` of ``_threshold_win_counts``."""
    n = len(wins) - 1
    total = math.factorial(n)
    return sum(
        math.comb(n, m_) * p**m_ * (1 - p) ** (n - m_) * Fraction(wins[m_], total)
        for m_ in range(n + 1)
    )


def brute_force_win_probability(
    n: int, k: int, s: Strategy, *, force: bool = False
) -> Fraction:
    """Exact win probability of a strategy under uniform arrival orders.

    Every outcome is fixed by a prefix: the slack rule's once it stops, a
    threshold rule's once the sink arrives.  The prefix walk credits all
    completions of such a prefix at once instead of replaying each of the
    n! orders.  For the randomized rejection rule the count M is integrated
    out exactly with Binomial(n, p) weights instead of sampling.
    """
    _check_guard(n, ENUMERATION_GUARD, "permutation enumeration", force)
    total = math.factorial(n)
    if s.kind == "tau_n":
        won = 0

        def stop(path: list[int], events: list[ObservationEvent]) -> bool | None:
            # run_strategy's rule: first maximal arrival at zero slack, else the last
            nonlocal won
            e = events[-1]
            if e.condition_met and e.is_max or e.t == n:
                won += math.factorial(n - e.t) * (path[-1] == 1)
                return True

        walk_prefixes(PathPower(n, k), stop)
        return Fraction(won, total)
    wins = _threshold_win_counts(n, k)
    if s.kind == "first_max":
        return Fraction(wins[0], total)
    if s.kind == "classical_threshold":
        return Fraction(wins[min(s.r, n)], total)
    return _rejection_mixture(wins, Fraction(s.p))


# ---------------------------------------------------------------------------
# Canonical information states and backward induction
# ---------------------------------------------------------------------------

InfoState = tuple[tuple[tuple[int, int], ...], ...]


def canonical_info_state(g: PathPower, prefix: Sequence[int]) -> InfoState:
    """Canonical encoding of what the selector knows after this prefix.

    Components of the induced graph, ordered by first-arrival index; inside a
    component each vertex appears as (arrival index, offset from the lowest
    known vertex).  Offsets are exactly what the distance labels reveal;
    absolute placement and the relative order of components are quotiented
    out because the selector cannot resolve them.
    """
    low = {p: run[0] for run in component_runs(sorted(prefix), g.k) for p in run}
    # Grouped in arrival order: each component's members come by arrival
    # index, and dict insertion order lists the components by first arrival.
    comps: dict[int, list[tuple[int, int]]] = {}
    for i, pos in enumerate(prefix, start=1):
        base = low[pos]
        comps.setdefault(base, []).append((i, pos - base))
    return tuple(map(tuple, comps.values()))


@dataclass(frozen=True)
class InfoClassStat:
    """Aggregate facts about one information class at one time step."""

    t: int
    state: InfoState
    members: int
    sink_last: int
    component_count: int
    pending_inner: int
    last_is_max: bool

    @property
    def stop_value(self) -> Fraction:
        return Fraction(self.sink_last, self.members)


def _info_classes(g: PathPower) -> dict[InfoState, list]:
    """Every information class, by the prefix walk.

    Maps each canonical state to ``[t, members, sink_last, parent_state,
    event]``: the prefix length, the number of member prefixes, how many of
    them end on the sink, the class of the members with the last arrival
    dropped (None at t = 1), and the observer event of the first member's
    last arrival.  The filtration is nested, so that class is the same for
    every member; backward induction rests on this, and a class reached
    from two parent classes raises.  Each parent precedes its children.
    """
    classes: dict[InfoState, list] = {}
    path_states: list[InfoState | None] = [None] * (g.n + 1)  # [t]: class of the t-prefix

    def visit(path: list[int], events: list[ObservationEvent]) -> None:
        t = len(path)
        state = path_states[t] = canonical_info_state(g, path)
        parent = path_states[t - 1]
        sink = int(path[-1] == 1)
        rec = classes.get(state)
        if rec is None:
            classes[state] = [t, 1, sink, parent, events[-1]]
        elif rec[3] != parent:
            raise RuntimeError(
                f"information class {state} reached from two parent classes"
            )
        else:
            rec[1] += 1
            rec[2] += sink

    walk_prefixes(g, visit)
    return classes


def dp_optimal_value(n: int, k: int, *, force: bool = False) -> Fraction:
    """Value of the optimal stopping problem by exact backward induction.

    States are canonical information classes; stop values and transition
    probabilities come from counting compatible ground-truth completions, so
    the result is the exact optimum over all stopping rules adapted to the
    labeled observation filtration.  The induction runs on integers: a
    class's best is the number of completions of its members that optimal
    play wins, the larger of stopping (sink_last * (n-t)!) and the sum of
    its children's bests.
    """
    _check_guard(n, DP_GUARD, "information-state backward induction", force)
    classes = _info_classes(PathPower(n, k))
    won: dict[InfoState | None, int] = {}  # summed bests of each class's children
    for state, (t, _, sink_last, parent, _) in reversed(classes.items()):
        best = max(sink_last * math.factorial(n - t), won.pop(state, 0))
        won[parent] = won.get(parent, 0) + best
    return Fraction(won[None], math.factorial(n))


def info_class_audit(n: int, k: int, *, force: bool = False) -> list[InfoClassStat]:
    """Per-class statistics for every information class, ordered by time step."""
    _check_guard(n, DP_GUARD, "information-state enumeration", force)
    # The state fixes the counts and maximality, so any member's event has them.
    stats = [
        InfoClassStat(t, state, members, sink_last, e.component_count, e.pending_inner, e.is_max)
        for state, (t, members, sink_last, _, e) in _info_classes(PathPower(n, k)).items()
    ]
    stats.sort(key=lambda st: st.t)
    return stats


# ---------------------------------------------------------------------------
# Continuous-arrival model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuousArrival:
    """Independent uniform arrival times, one per position; times[0] is the
    sink's arrival time."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(not 0.0 <= a <= 1.0 for a in self.times):
            raise ValueError("arrival times must lie in [0, 1]")

    @property
    def p(self) -> float:
        return self.times[0]


def continuous_win_indicator(g: PathPower, arr: ContinuousArrival) -> bool:
    """Whether the slack rule wins on this draw of arrival times.

    It wins iff the top vertex precedes the sink and, at the sink's arrival
    time, no k+1 consecutive interior vertices are all still missing.
    """
    n, k = g.n, g.k
    if k >= n - 2:
        raise ValueError(f"continuous model needs 1 <= k < n-2, got k={k}, n={n}")
    times = arr.times
    if len(times) != n:
        raise ValueError(f"expected {n} arrival times, got {len(times)}")
    p = times[0]
    if times[n - 1] >= p:
        return False
    run = 0
    for j in range(1, n - 1):  # interior vertices, positions 2..n-1
        if times[j] > p:
            run += 1
            if run > k:
                return False
        else:
            run = 0
    return True
