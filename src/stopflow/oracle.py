"""Independent ground truth at desk scale.

Everything here certifies the rest of the package by brute force.  The
observer reads only the set that has arrived, so one pass over arrived sets
on one observer, ``set_transitions``, gives the event of each transition
S - {v} -> S for every order through it: the slack rule's count reads it,
as do ``verify``'s order-free checks.  The threshold rules' wins need only
the set before the sink and which of its arrivals came last, and a second
pass over sets counts them; exact mixing over the rejection count
integrates the randomized rule.  Only the class table walks the arrival
prefixes, and it reads each new class's event off its own set pass:
``_class_table`` lists the information classes, on which backward induction
finds the optimal value over all stopping rules that see only the labeled
induced graph.  The induction's walk stops at the sink's arrival: the
selector cannot recall a vertex, so once the sink has passed no stop can
win.  A class is an observation history, keyed by its parent class and the
arcs of the newest arrival; ``canonical_info_state`` is the audit's encoding
of a class, and the audit checks that the two determine each other.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

# ResourceGuardError is imported so that stopflow.oracle.ResourceGuardError still names it.
from .graph import PathPower, ResourceGuardError, _check_below_degenerate, _check_guard, _check_nk
from .observer import ObservationEvent, Observer
from .strategies import Strategy, _skip_count, _wants_stop

ENUMERATION_GUARD = 9
# The threshold set pass keeps one list per subset of the n - 1 non-sink
# positions; n = 16 took about 0.3 s on a two-vCPU host, and each n past it
# at least doubles time and memory.
SET_GUARD = 16
DP_GUARD = 7


def _completions(n: int) -> list[int]:
    """[t]: (n - t)!, the number of arrival orders that extend one t-prefix."""
    return [math.factorial(n - t) for t in range(n + 1)]


# ---------------------------------------------------------------------------
# One pass over arrived sets
# ---------------------------------------------------------------------------

def set_transitions(g: PathPower) -> list[dict[int, ObservationEvent]]:
    """[T]: {v: the event of v's arrival after the set T - {v}}, for every set
    T of arrived positions as a bit mask, bit v - 1 standing for v.

    The observer reads only the set that has arrived, so the event of a
    transition S - {v} -> S is the same on every order through it.  One
    depth-first pass by sorted insertion on one ``Observer`` observes each
    transition once: n 2^(n-1) observes against the prefix walk's
    sum of n!/(n - t)!.  A reader takes the masks in increasing order, so
    every S - {v} comes before S.
    """
    table: list[dict[int, ObservationEvent]] = [{} for _ in range(1 << g.n)]
    _insert(Observer(g), g.n, 0, 0, table)
    return table


def _insert(obs: Observer, n: int, s: int, top: int,
            table: list[dict[int, ObservationEvent]]) -> None:
    # Module level, as ``_descend``.  The observer holds the set s, whose largest
    # position is top; it keeps an arrival above top to descend into that set.
    for v in range(1, n + 1):
        bit = 1 << v - 1
        if not s & bit:
            table[s | bit][v] = obs.observe(v)
            if v > top:
                _insert(obs, n, s | bit, v, table)
            obs.undo()


def _slack_rule_wins(n: int, transitions: list[dict[int, ObservationEvent]]) -> list[int]:
    """[s]: how many arrival orders the slack rule wins with the set S before
    the sink, S a mask of the non-sink positions (bit i for i + 2).

    ``strategies.stop_time``'s rule wins iff it first fires at the sink's
    arrival, or never fires and the sink comes last.  The orders of S on
    which it has not yet fired number unfired[s], the sum of unfired over
    the S - {v} whose transition by v does not fire it, and each stands for
    the (n - |S| - 1)! orders of the rest after the sink.
    """
    tau_n = Strategy.tau_n()
    weight = _completions(n)
    unfired = [1]
    won = []
    for s in range(1 << n - 1):
        if s:
            unfired.append(sum(unfired[s ^ 1 << v - 2] for v, e in transitions[s << 1].items()
                               if not _wants_stop(tau_n, e, 0)))
        t = s.bit_count() + 1  # the time of the sink's arrival
        fires = t == n or _wants_stop(tau_n, transitions[s << 1 | 1][1], 0)
        won.append(unfired[s] * weight[t] if fires else 0)
    return won


def _threshold_counts(n: int, k: int) -> list[int]:
    """wins[M] = number of arrival orders won by "reject M, take the first
    maximal", for M = 0..n, counted over arrived sets instead of orders.

    The sink is always maximal, so the rule wins iff the sink's arrival is
    the first maximal one after the rejection phase: M in [L, |S|] for the
    set S of the arrivals before it and the time L of the last maximal one
    among them (0 if none).  An arrival v is maximal iff no earlier one lies
    in [v - k, v - 1], a fact of the set before it.  So c[S][L], the number
    of orders of S whose last maximal arrival comes at L, adds up over the
    sets S - {v}, and each S stands for the (n - |S| - 1)! orders of the
    rest after the sink.  M = n never fires and takes the final arrival,
    which wins exactly when the sink comes last.
    """
    weight = _completions(n)
    # Bit i stands for the non-sink position i + 2; below[i]: the bits of the
    # positions within k below it.
    below = [(1 << i) - (1 << max(i - k, 0)) for i in range(n - 1)]
    counts = [[1]]  # [S]: c[S] for the bit mask S; the empty set's one order has L = 0
    for s in range(1, 1 << n - 1):
        size = s.bit_count()
        c = [0] * (size + 1)
        for i, mask in enumerate(below):
            if s >> i & 1:
                if s & mask:  # v = i + 2 is not maximal: its L is that of S - {v}
                    for last, x in enumerate(counts[s ^ 1 << i]):
                        c[last] += x
                else:  # each of the (|S| - 1)! orders of S - {v}
                    c[size] += weight[n - size + 1]
        counts.append(c)
    wins = [0] * (n + 1)
    for c in counts:  # weight[len(c)] = (n - |S| - 1)!
        for m, up_to_m in enumerate(itertools.accumulate(c)):
            wins[m] += up_to_m * weight[len(c)]
    wins[n] += weight[1]
    return wins


def _rejection_mixture(wins: list[int], p: Fraction) -> Fraction:
    """Exact win probability of "reject M ~ Binomial(n, p), take the first
    maximal", mixing the per-M counts ``wins`` of the set pass
    ``_threshold_counts``."""
    n = len(wins) - 1
    a, b = p.numerator, p.denominator  # p = a / b: one Fraction over b^n n!
    return Fraction(
        sum(math.comb(n, m_) * a**m_ * (b - a) ** (n - m_) * wins[m_] for m_ in range(n + 1)),
        b**n * math.factorial(n),
    )


def brute_force_win_probability(
    n: int, k: int, s: Strategy, *, force: bool = False
) -> Fraction:
    """Exact win probability of a strategy under uniform arrival orders.

    No order is replayed.  The slack rule's outcome is fixed once the sink
    arrives, and whether it has fired before then is a sum over the set
    transitions of ``set_transitions`` (``_slack_rule_wins``).  A threshold
    rule's is fixed by the set of arrivals before the sink and the time of
    the last maximal one, which ``_threshold_counts`` counts over sets.  For
    the randomized rejection rule the count M is integrated out exactly with
    Binomial(n, p) weights instead of sampling.  The slack rule is guarded
    at n <= ``ENUMERATION_GUARD`` and the threshold family at
    n <= ``SET_GUARD``.
    """
    if s.kind == "tau_n":
        _check_guard(n, ENUMERATION_GUARD, "slack rule set pass", force)
        won = _slack_rule_wins(n, set_transitions(PathPower(n, k)))
        return Fraction(sum(won), math.factorial(n))
    _check_guard(n, SET_GUARD, "threshold set pass", force)
    _check_nk(n, k)
    wins = _threshold_counts(n, k)
    if s.kind == "tau_p_star":
        return _rejection_mixture(wins, Fraction(s.p))
    # a fixed threshold; first_max is classical_threshold(0)
    return Fraction(wins[min(_skip_count(s, n, None), n)], math.factorial(n))


# ---------------------------------------------------------------------------
# Information classes and backward induction
# ---------------------------------------------------------------------------

InfoState = tuple[tuple[tuple[int, int], ...], ...]


def canonical_info_state(g: PathPower, prefix: Sequence[int]) -> InfoState:
    """Canonical encoding of what the selector knows after this prefix.

    Components of the induced graph, ordered by first-arrival index; inside a
    component each vertex appears as (arrival index, offset from the lowest
    known vertex).  Offsets are exactly what the distance labels reveal;
    absolute placement and the relative order of components are quotiented
    out because the selector cannot resolve them.  A position out of range
    or arrived twice raises ``ValueError``, as ``Observer.observe`` does.
    """
    ordered = sorted(prefix)
    if ordered and (ordered[0] < 1 or ordered[-1] > g.n) or len(set(ordered)) < len(ordered):
        obs = Observer(g)
        for pos in prefix:  # raises at the first bad arrival
            obs.observe(pos)
    # Position -> lowest position of its component, which a sorted position
    # joins when it lies within k of the one before.
    low: dict[int, int] = {}
    for p in ordered:
        low[p] = low[prev] if low and p - prev <= g.k else p
        prev = p
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


# A class's slots in the flat table of ``_class_table``, and its width.
_T, _MEMBERS, _SINK_LAST, _PARENT, _COMPONENTS, _PENDING, _IS_MAX, _PREFIX, _WIDTH = range(9)


def _class_table(g: PathPower, pre_sink: bool = False) -> list:
    """Every information class of ``g``, by one walk over the arrival prefixes.

    A class is an observation history: its parent class (the members with
    the last arrival dropped) plus the newest arrival's row, the arrival
    index and signed distance ``pos - path[i]`` of each earlier arrival
    within k of it, which is what its arcs and their labels show.  So the
    classes nest by construction.  The result is one flat table, ``_WIDTH``
    slots per class in creation order, so each parent precedes its
    children: the prefix length t, the number of member prefixes, how many
    of them end on the sink, the parent's number (-1 at t = 1), the newest
    arrival's component count, pending-inner count and maximality, read off
    one ``set_transitions`` as the observer reads only the arrived set, and
    the first member as ``bytes`` (positions stay below 256 at any n a walk
    can finish).  No slot holds a container, so the table gives the garbage
    collector nothing to track.

    With ``pre_sink`` the walk does not descend below a prefix that ends on
    the sink: the table holds the classes with a member where the sink has
    not yet arrived or arrived last, and counts only those members.  The
    selector cannot tell whether the sink has passed, so the members past it
    stay in the full table, which the audit reads.
    """
    k = g.k
    classes: list = []
    # [t]: t-prefix history -> class.  A history's key is its parent's number
    # followed by one base-(2k+1) digit per earlier arrival: d + k for a
    # distance d = pos - path[i] within k (d is never 0), else k.  Keys of one
    # t have t - 1 digits and a parent >= 0 (or -1 at t = 1), so they differ.
    index: list[dict[int, int]] = [{} for _ in range(g.n + 1)]
    # [pos][q]: the digit of an earlier arrival q for a newest arrival pos.
    rows = [[d + k if -k <= d <= k else k for d in range(pos, pos - g.n - 1, -1)]
            for pos in range(g.n + 1)]
    _descend(0, [], -1, (set_transitions(g), g.n, classes, index, rows, 2 * k + 1, pre_sink))
    return classes


def _descend(s: int, path: list[int], parent: int, table: tuple) -> None:
    # Module level, not a recursive closure: its reference cycle outlives the call.
    # ``path`` has arrived, as the mask s; its extensions by the unarrived
    # positions in increasing order keep the walk lexicographic.
    transitions, n, classes, index, rows, base, pre_sink = table
    t = len(path) + 1
    level = index[t]
    for pos in range(1, n + 1):
        bit = 1 << pos - 1
        if s & bit:
            continue
        key = parent
        row = rows[pos]
        for q in path:
            key = key * base + row[q]
        path.append(pos)
        sink = pos == 1
        c = level.get(key)
        if c is None:
            c = level[key] = len(classes) // _WIDTH
            _, is_max, comps, pending, _ = transitions[s | bit][pos]
            classes.extend((t, 1, int(sink), parent, comps, pending, is_max, bytes(path)))
        else:
            at = c * _WIDTH
            classes[at + _MEMBERS] += 1
            if sink:
                classes[at + _SINK_LAST] += 1
        if t < n and not (sink and pre_sink):
            _descend(s | bit, path, c, table)
        path.pop()


def _backward_induction(n: int, classes: list) -> Fraction:
    """``dp_optimal_value`` over the classes of ``_class_table``, full or
    pre-sink: both give the same value.

    A member past the sink wins nothing however play goes on, so it adds
    nothing to its class's stop value, and a class whose members have all
    passed the sink has best 0, as has every class below it.  Dropping
    those members and classes changes no surviving class's best.
    """
    weight = _completions(n)
    ts, sink_last, parents = (classes[slot::_WIDTH] for slot in (_T, _SINK_LAST, _PARENT))
    won = [0] * (len(ts) + 1)  # [c]: summed bests of class c's children; [-1]: of t = 1
    for c in range(len(ts) - 1, -1, -1):
        stop, go = sink_last[c] * weight[ts[c]], won[c]
        won[parents[c]] += stop if stop > go else go  # max(), without its call
    return Fraction(won[-1], weight[0])


def dp_optimal_value(n: int, k: int, *, force: bool = False) -> Fraction:
    """Value of the optimal stopping problem by exact backward induction.

    States are the information classes, the observation histories of
    ``_class_table``; stop values and transition probabilities come
    from counting compatible ground-truth completions, so the result is the
    exact optimum over all stopping rules adapted to the labeled
    observation filtration.  The induction runs on integers, over the
    classes in reverse creation order: a class's best is the number of
    completions of its members that optimal play wins, the larger of
    stopping (sink_last * (n-t)!) and the sum of its children's bests.
    Once the sink has passed no stop can win, so the induction reads the
    pre-sink table: at each t the walk visits only the t-prefixes without
    the sink and those that end on it.
    """
    _check_guard(n, DP_GUARD, "information-state backward induction", force)
    return _backward_induction(n, _class_table(PathPower(n, k), pre_sink=True))


def _audited_states(g: PathPower, classes: list) -> list[InfoState]:
    """``canonical_info_state`` of the first member of each class
    in the full ``_class_table`` of ``g``, in creation order; two classes
    with one state raise ``RuntimeError``."""
    states = []
    seen: set[InfoState] = set()
    for prefix in classes[_PREFIX::_WIDTH]:
        state = canonical_info_state(g, prefix)
        seen.add(state)
        if len(seen) == len(states):  # one hash of the state, not two
            raise RuntimeError(f"two information classes share the canonical state {state}")
        states.append(state)
    return states


def info_class_audit(n: int, k: int, *, force: bool = False) -> list[InfoClassStat]:
    """Per-class statistics for every information class, ordered by time step.

    Each class carries ``canonical_info_state`` of its first member.  That
    encoding and the observation history must determine each other, so two
    classes with one state raise ``RuntimeError``: one of the two merges
    histories the selector can tell apart.
    """
    _check_guard(n, DP_GUARD, "information-state enumeration", force)
    g = PathPower(n, k)
    classes = _class_table(g)
    # The state fixes the counts and maximality, so the first member's are every member's.
    rows = (classes[at:at + _WIDTH] for at in range(0, len(classes), _WIDTH))
    stats = [InfoClassStat(t, state, members, sink_last, comps, pending, is_max)
             for (t, members, sink_last, _, comps, pending, is_max, _), state
             in zip(rows, _audited_states(g, classes))]
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
        # A plain loop: no generator to build, and 3.11+ compares floats inline.
        for a in self.times:
            if not 0.0 <= a <= 1.0:
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
    _check_below_degenerate(n, k, "continuous model")
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
