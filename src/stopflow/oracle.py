"""Independent ground truth at desk scale.

Everything here certifies the rest of the package by brute force: exhaustive
enumeration over all n! arrival orders, exact mixing over the rejection count
of the randomized rule, backward induction over canonical information states
(the optimal value over all stopping rules that see only the labeled induced
graph), and the continuous-arrival win test.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .graph import PathPower
from .strategies import Strategy, run_strategy

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
# Exhaustive enumeration over arrival orders
# ---------------------------------------------------------------------------

def _maximal_arrival_times(perm: Sequence[int], k: int) -> list[int]:
    """Times t at which the t-th arrival is maximal in the induced graph."""
    arrived = [False] * (len(perm) + 1)
    out = []
    for t, pos in enumerate(perm, start=1):
        lo = max(1, pos - k)
        if not any(arrived[q] for q in range(lo, pos)):
            out.append(t)
        arrived[pos] = True
    return out


def _threshold_win_counts(n: int, k: int) -> list[int]:
    """wins[M] = number of permutations won by "reject M, take first maximal"."""
    wins = [0] * (n + 1)
    for perm in itertools.permutations(range(1, n + 1)):
        candidates = _maximal_arrival_times(perm, k)
        t_sink = perm.index(1) + 1  # the sink is always a candidate
        prev = 0
        for t in candidates:
            if t == t_sink:
                break
            prev = t
        # The rule wins iff the first candidate after the rejection phase is
        # the sink: M in [prev, t_sink).  M = n never fires and takes the
        # final arrival, which wins exactly when the sink comes last.
        for m in range(prev, t_sink):
            wins[m] += 1
        if t_sink == n:
            wins[n] += 1
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

    Deterministic strategies are replayed over all n! permutations.  For the
    randomized rejection rule the count M is integrated out exactly with
    Binomial(n, p) weights instead of sampling.
    """
    _check_guard(n, ENUMERATION_GUARD, "permutation enumeration", force)
    g = PathPower(n, k)
    total = math.factorial(n)

    if s.kind in ("tau_p_star", "classical_threshold", "first_max"):
        wins = _threshold_win_counts(n, k)
        if s.kind == "first_max":
            return Fraction(wins[0], total)
        if s.kind == "classical_threshold":
            return Fraction(wins[min(s.r, n)], total)
        return _rejection_mixture(wins, Fraction(s.p))

    won = sum(
        run_strategy(s, g, perm).win
        for perm in itertools.permutations(range(1, n + 1))
    )
    return Fraction(won, total)


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
    order = {pos: i for i, pos in enumerate(prefix, start=1)}
    positions = sorted(prefix)
    comps: list[list[int]] = [[positions[0]]]
    for p in positions[1:]:
        if p - comps[-1][-1] <= g.k:
            comps[-1].append(p)
        else:
            comps.append([p])
    recs = []
    for comp in comps:
        lo = comp[0]
        members = tuple(sorted((order[p], p - lo) for p in comp))
        recs.append(members)
    recs.sort(key=lambda members: members[0][0])
    return tuple(recs)


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
    """Every information class, by one depth-first walk of the arrival prefixes.

    Maps each canonical state to ``[t, members, sink_last, parent_state]``:
    the prefix length, the number of member prefixes, how many of them end
    on the sink, and the class of the members with the last arrival dropped
    (None at t = 1).  The filtration is nested, so that class is the same
    for every member; backward induction rests on this, and a class reached
    from two parent classes raises.  Each parent is inserted before any of
    its children.
    """
    classes: dict[InfoState, list] = {}
    # An explicit stack, not a recursive closure: the closure's reference
    # cycle would keep each call's classes alive until the cyclic GC runs.
    stack: list[tuple[tuple[int, ...], InfoState | None]] = [
        ((pos,), None) for pos in g.positions()
    ]
    while stack:
        prefix, parent = stack.pop()
        state = canonical_info_state(g, prefix)
        sink = int(prefix[-1] == 1)
        rec = classes.get(state)
        if rec is None:
            classes[state] = [len(prefix), 1, sink, parent]
        elif rec[3] != parent:
            raise RuntimeError(
                f"information class {state} reached from two parent classes"
            )
        else:
            rec[1] += 1
            rec[2] += sink
        stack.extend((prefix + (pos,), state) for pos in g.positions() if pos not in prefix)
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
    for state, (t, _, sink_last, parent) in reversed(classes.items()):
        best = max(sink_last * math.factorial(n - t), won.pop(state, 0))
        won[parent] = won.get(parent, 0) + best
    return Fraction(won[None], math.factorial(n))


def info_class_audit(n: int, k: int, *, force: bool = False) -> list[InfoClassStat]:
    """Per-class statistics for every information class, ordered by time step."""
    _check_guard(n, DP_GUARD, "information-state enumeration", force)
    stats = []
    for state, (t, members, sink_last, _) in _info_classes(PathPower(n, k)).items():
        # The t-th arrival is maximal when no member of its component sits
        # 1..k below it.
        comp, last = next((c, off) for c in state for i, off in c if i == t)
        stats.append(InfoClassStat(
            t=t,
            state=state,
            members=members,
            sink_last=sink_last,
            component_count=len(state),
            pending_inner=sum(max(off for _, off in c) + 1 - len(c) for c in state),
            last_is_max=not any(0 < last - off <= k for _, off in comp),
        ))
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
