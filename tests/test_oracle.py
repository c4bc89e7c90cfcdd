import gc
import hashlib
import itertools
import math
import re
from collections import Counter
from fractions import Fraction
from typing import Callable

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
from stopflow import oracle, verify
from stopflow.exact import conditional_success
from stopflow.observer import ObservationEvent, Observer, component_runs
from stopflow.oracle import _class_table, _completions, _threshold_counts, set_transitions
from stopflow.strategies import _wants_stop, stop_time

from prefix_walk import _aggregates, _info_class_visitor, _pre_sink_class_visitor, walk_prefixes


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


def test_brute_force_first_max_is_classical_threshold_zero():
    for n in range(2, 8):
        for k in range(1, n):
            assert brute_force_win_probability(n, k, Strategy.first_max()) == (
                brute_force_win_probability(n, k, Strategy.classical_threshold(0))
            ), (n, k)


def test_brute_force_resource_guard():
    with pytest.raises(ResourceGuardError):
        brute_force_win_probability(10, 2, Strategy.tau_n())


def test_threshold_family_has_the_set_pass_guard():
    # The threshold rules count over the 2^(n-1) arrived sets, not over
    # orders: they run past the walk's guard up to SET_GUARD, where the
    # message names the set pass.  M = 0 takes the first arrival and M = n
    # the last, so each wins 1/n.
    for s in (Strategy.tau_p_star(0.0), Strategy.tau_p_star(1.0)):
        assert brute_force_win_probability(10, 2, s) == Fraction(1, 10)
    assert brute_force_win_probability(16, 2, Strategy.first_max()) == Fraction(1, 16)
    with pytest.raises(ResourceGuardError, match=re.escape(
            "threshold set pass is guarded at n <= 16 (got n=17); pass force=True")):
        brute_force_win_probability(17, 2, Strategy.first_max())


def replayed_win_probability(n, k, s):
    """The slow reference: run_strategy over every arrival order."""
    g = PathPower(n, k)
    won = sum(run_strategy(s, g, perm).win for perm in itertools.permutations(range(1, n + 1)))
    return Fraction(won, math.factorial(n))


def all_prefixes(n):
    """Every arrival prefix of positions 1..n, in lexicographic order."""
    return sorted(p for t in range(1, n + 1) for p in itertools.permutations(range(1, n + 1), t))


def test_walk_visits_every_prefix_once_in_lexicographic_order():
    for n in range(2, 7):
        expected = all_prefixes(n)
        assert len(expected) == sum(math.factorial(n) // math.factorial(n - t)
                                    for t in range(1, n + 1))
        for k in range(1, n):
            g = PathPower(n, k)
            seen = []

            def visit(path, events):
                seen.append(tuple(path))
                fresh = Observer(g)
                assert events == [fresh.observe(pos) for pos in path]

            walk_prefixes(g, visit)
            assert seen == expected, (n, k)


def test_walk_skips_exactly_the_subtree_of_a_true_visit():
    for n in range(2, 7):
        prefixes = all_prefixes(n)
        for k in range(1, n):
            for d in range(1, n + 1):
                def prune(prefix):
                    return len(prefix) == d and sum(prefix) % 2 == 0

                seen = []

                def visit(path, events):
                    seen.append(tuple(path))
                    return prune(path)

                walk_prefixes(PathPower(n, k), visit)
                assert seen == [p for p in prefixes if len(p) <= d or not prune(p[:d])], (n, k, d)


def test_a_shared_walk_gives_each_visitor_its_solo_walk(monkeypatch):
    # A true visit mutes only that visitor, only below that prefix: in one
    # shared walk each visitor sees exactly what it sees walked alone, and
    # the walk observes each prefix of the union of the solo trees once.
    observed = 0
    original = Observer.observe

    def counted(self, pos):
        nonlocal observed
        observed += 1
        return original(self, pos)

    monkeypatch.setattr(Observer, "observe", counted)

    def recorder(prune, seen):
        def visit(path, events):
            seen.append((tuple(path), tuple(events)))
            return prune(path, events)
        return visit

    for n in range(2, 7):
        rules = {
            "never": lambda path, events: False,
            "sink": lambda path, events: path[-1] == 1,
            "tau_n stop": lambda path, events: (events[-1].condition_met and events[-1].is_max
                                                or len(path) == n),
            "depth 2": lambda path, events: len(path) == 2,
            "one prefix": lambda path, events: tuple(path) == (n, 1),
        }
        for k in range(1, n):
            g = PathPower(n, k)
            solo = {}
            for name, prune in rules.items():
                solo[name] = []
                walk_prefixes(g, recorder(prune, solo[name]))
            for names in (list(rules), [name for name in rules if name != "never"]):
                shared = {name: [] for name in names}
                observed = 0
                walk_prefixes(g, *(recorder(rules[name], shared[name]) for name in names))
                assert shared == {name: solo[name] for name in names}, (n, k, names)
                union = {path for name in names for path, _ in solo[name]}
                assert observed == len(union), (n, k, names)


def test_threshold_counts_match_reference_runner():
    for n in range(2, 7):
        for k in range(1, n):
            for r in range(n + 1):
                s = Strategy.classical_threshold(r)
                assert brute_force_win_probability(n, k, s) == replayed_win_probability(n, k, s)


def _threshold_visitor(g: PathPower) -> tuple[Callable, Callable[[], list[int]]]:
    """Visitor and result: wins[M] = number of arrival orders won by "reject
    M, take the first maximal"."""
    n = g.n
    weight = _completions(n)
    wins = [0] * (n + 1)

    def visit(path: list[int], events: list[ObservationEvent]) -> bool | None:
        # The sink is always maximal, so the rule wins iff the first maximal
        # arrival after the rejection phase is the sink: M in [prev, t_sink)
        # for the last maximal time prev before it.  M = n never fires and
        # takes the final arrival, which wins exactly when the sink comes last.
        if path[-1] == 1:
            t_sink = len(path)
            prev = t_sink - 1
            while prev and not events[prev - 1].is_max:  # the prev-th arrival's event
                prev -= 1
            for m in range(prev, t_sink):
                wins[m] += weight[t_sink]
            wins[n] += t_sink == n
            return True

    return visit, lambda: wins


def test_threshold_set_pass_matches_the_walk_reference():
    # The walk reference reads maximality off the shipped Observer, prefix by
    # prefix; the set pass reads it off the arrived set.
    for n in range(2, 9):
        for k in range(1, n):
            g = PathPower(n, k)
            visit, result = _threshold_visitor(g)
            walk_prefixes(g, visit)
            assert _threshold_counts(n, k) == result(), (n, k)


def _slack_rule_visitor(g: PathPower) -> tuple[Callable, Callable[[], int]]:
    """Visitor and result: the number of arrival orders the slack rule wins,
    by the prefix walk pruned at the rule's stop or the sink's arrival."""
    n = g.n
    weight = _completions(n)
    won = 0
    tau_n = Strategy.tau_n()

    def stop(path: list[int], events: list[ObservationEvent]) -> bool:
        # strategies.stop_time's rule, incrementally: the first firing, else
        # t = n.  The sink's arrival settles the order too: a stop there wins,
        # and a rule that passes the sink can no longer win.
        nonlocal won
        e = events[-1]
        fires = e.t == n or _wants_stop(tau_n, e, 0)
        if path[-1] == 1:
            won += weight[e.t] * fires
            return True
        return fires

    return stop, lambda: won


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


def sorted_info_state(g, prefix):
    """The slow reference: sort each component's members by arrival index,
    then the components by their first arrival."""
    order = {pos: i for i, pos in enumerate(prefix, start=1)}
    recs = [tuple(sorted((order[p], p - run[0]) for p in run))
            for run in component_runs(sorted(prefix), g.k)]
    recs.sort()
    return tuple(recs)


def test_info_state_matches_the_sorting_reference():
    for n in range(2, 8):
        prefixes = all_prefixes(n)
        for k in range(1, n):
            g = PathPower(n, k)
            for prefix in prefixes:
                assert canonical_info_state(g, prefix) == sorted_info_state(g, prefix), (k, prefix)


# (class count, sha256 of the audit's repr, DP value), as computed with the
# sorting canonical state above and a walk that rescanned for unarrived
# positions at every node.
PINNED_CLASSES = {
    (2, 1): (3, "049dbe5736b2e78d", Fraction(1, 2)),
    (3, 1): (10, "ed210b4e515ada37", Fraction(1, 2)),
    (3, 2): (11, "c1ccfb19361e0a37", Fraction(1, 2)),
    (4, 1): (40, "cbb014c4f931069d", Fraction(5, 12)),
    (4, 2): (48, "4bdc80d1a62a16ba", Fraction(1, 2)),
    (4, 3): (49, "be338819ebb1d041", Fraction(1, 2)),
    (5, 1): (197, "af134b070763c8ca", Fraction(23, 60)),
    (5, 2): (252, "9af5bb6f71920d5e", Fraction(9, 20)),
    (5, 3): (260, "9502d614250a1217", Fraction(1, 2)),
    (5, 4): (261, "b0f0057b954b6baf", Fraction(1, 2)),
    (6, 1): (1169, "d710dd184354ac0c", Fraction(7, 20)),
    (6, 2): (1566, "2dca55769323f37e", Fraction(13, 30)),
    (6, 3): (1622, "9976b7625677d867", Fraction(7, 15)),
    (6, 4): (1630, "15b84de497daafaf", Fraction(1, 2)),
    (6, 5): (1631, "50f807927a956fbe", Fraction(1, 2)),
}


def test_info_class_audit_and_dp_values_are_pinned():
    assert set(PINNED_CLASSES) == {(n, k) for n in range(2, 7) for k in range(1, n)}
    for (n, k), (classes, digest, value) in PINNED_CLASSES.items():
        audit = info_class_audit(n, k)
        assert len(audit) == classes, (n, k)
        assert hashlib.sha256(repr(audit).encode()).hexdigest()[:16] == digest, (n, k)
        assert dp_optimal_value(n, k) == value, (n, k)


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


def reference_dp_value(n, k):
    """The slow reference: backward induction over canonical information
    states rebuilt for every prefix and keyed by the state alone; a class
    reached from two parent classes raises: the induction needs one parent."""
    g = PathPower(n, k)
    classes = {}  # state -> [t, sink_last, parent state], in order of first visit
    path_states = [None] * (n + 1)  # [t]: class of the t-prefix

    def visit(path, events):
        t = len(path)
        state = path_states[t] = oracle.canonical_info_state(g, path)
        parent = path_states[t - 1]
        sink = int(path[-1] == 1)
        rec = classes.setdefault(state, [t, 0, parent])
        if rec[2] != parent:
            raise RuntimeError(f"information class {state} reached from two parent classes")
        rec[1] += sink

    walk_prefixes(g, visit)
    won = {}  # summed bests of each class's children
    for state, (t, sink_last, parent) in reversed(classes.items()):
        best = max(sink_last * math.factorial(n - t), won.pop(state, 0))
        won[parent] = won.get(parent, 0) + best
    return Fraction(won[None], math.factorial(n))


def test_dp_matches_the_canonical_state_reference():
    # dp_optimal_value inducts on the pre-sink table; the full table, which
    # keeps the members past the sink, gives the same value.
    for n in range(3, 8):
        for k in range(1, n):
            full = oracle._backward_induction(n, _class_table(PathPower(n, k)))
            assert dp_optimal_value(n, k) == full == reference_dp_value(n, k), (n, k)


def test_dp_certifies_the_formula_at_n8_under_force():
    for k in range(1, 8):
        assert dp_optimal_value(8, k, force=True) == success_probability_exact(8, k), k


def test_pre_sink_classes_are_the_classes_not_past_the_sink():
    # A class is named by its canonical state, which the tests above show
    # determines the history.  The pre-sink table lists exactly the classes
    # holding a prefix that has not passed the sink, counts those prefixes as
    # members, and keeps the full table's sink-last count and parent.
    def table(g, classes):
        """(t, state) -> [members, sink_last, the parent's (t, state)]."""
        keys = [(len(first), canonical_info_state(g, first))
                for first in classes[oracle._PREFIX::oracle._WIDTH]]
        rows = zip(*(classes[slot::oracle._WIDTH]
                     for slot in (oracle._MEMBERS, oracle._SINK_LAST, oracle._PARENT)))
        return {key: [members, sink_last, keys[parent] if parent >= 0 else None]
                for key, (members, sink_last, parent) in zip(keys, rows)}

    for n in range(2, 8):
        prefixes = [prefix for prefix in all_prefixes(n) if 1 not in prefix[:-1]]
        for k in range(1, n):
            g = PathPower(n, k)
            expect = {}
            for prefix in prefixes:
                t = len(prefix)
                parent = (t - 1, canonical_info_state(g, prefix[:-1])) if t > 1 else None
                rec = expect.setdefault((t, canonical_info_state(g, prefix)), [0, 0, parent])
                rec[0] += 1
                rec[1] += prefix[-1] == 1
            pre = table(g, _class_table(g, pre_sink=True))
            full = table(g, _class_table(g))
            assert pre == expect, (n, k)
            assert all(full[key][1:] == rec[1:] for key, rec in pre.items()), (n, k)


def test_dp_walk_stops_at_the_sink(monkeypatch):
    # At each t the induction visits the t-prefixes without the sink,
    # P(n-1, t), and those ending on it, P(n-1, t-1): 3,913 of the 13,699
    # prefixes at n = 7, as the member sums of the pre-sink table count them.
    # It observes nothing itself: only its set pass, n 2^(n-1) transitions.
    observed = 0
    observe = Observer.observe

    def counted(self, pos):
        nonlocal observed
        observed += 1
        return observe(self, pos)

    monkeypatch.setattr(Observer, "observe", counted)
    for n in range(2, 8):
        for k in range(1, n):
            observed = 0
            dp_optimal_value(n, k)
            assert observed == n * 2 ** (n - 1), (n, k)
            classes = _class_table(PathPower(n, k), pre_sink=True)
            visited = Counter()
            for t, members in zip(classes[oracle._T::oracle._WIDTH],
                                  classes[oracle._MEMBERS::oracle._WIDTH]):
                visited[t] += members
            assert visited == {t: math.perm(n - 1, t) + math.perm(n - 1, t - 1)
                               for t in range(1, n + 1)}, (n, k)
            if n == 7:
                assert sum(visited.values()) == 3_913


def test_slack_rule_walk_stops_at_the_sink():
    # A rule that passes the sink can no longer win, so the count stops there.
    for n in range(2, 8):
        for k in range(1, n):
            g = PathPower(n, k)
            stop, _ = _slack_rule_visitor(g)
            seen = []

            def visit(path, events):
                seen.append(tuple(path))
                return stop(path, events)

            walk_prefixes(g, visit)
            assert seen and all(1 not in path[:-1] for path in seen), (n, k)


def test_classes_are_the_observation_histories():
    # A prefix's history is the row of each arrival: the arrival index and
    # signed distance of every earlier arrival within k of it.  The history
    # and the canonical state determine each other at every t, and the
    # oracle's classes are the histories, in order of first visit.
    for n in range(2, 8):
        for k in range(1, n):
            g = PathPower(n, k)
            hist = [()]  # [t]: history of the t-prefix
            expected = {}  # history -> [t, members, sink_last, parent history, first member]
            state_of, history_of = {}, {}

            def visit(path, events):
                t, pos = len(path), path[-1]
                row = frozenset((i, pos - q) for i, q in enumerate(path[:-1]) if abs(pos - q) <= k)
                del hist[t:]
                h = hist[t - 1] + (row,)
                hist.append(h)
                state = canonical_info_state(g, path)
                assert state_of.setdefault(h, state) == state, (k, path)
                assert history_of.setdefault(state, h) == h, (k, path)
                rec = expected.setdefault(h, [t, 0, 0, hist[t - 1], tuple(path)])
                rec[1] += 1
                rec[2] += pos == 1

            walk_prefixes(g, visit)
            histories = list(expected)
            classes = _class_table(g)
            assert len(classes) == len(histories) * oracle._WIDTH, (n, k)
            rows = zip(*[classes[slot::oracle._WIDTH] for slot in range(oracle._WIDTH)])
            for (t, members, sink_last, parent, *_, first), want in zip(rows, expected.values()):
                parent_history = histories[parent] if parent >= 0 else ()
                assert [t, members, sink_last, parent_history, tuple(first)] == want, (n, k, first)


def test_class_table_matches_the_visitor_references():
    # The walk inlines the class visitors of the generic prefix walk, which
    # share one walk here: the full table and the table cut at the sink must
    # equal theirs slot for slot, types included.
    for n in range(2, 8):
        for k in range(1, n):
            g = PathPower(n, k)
            references = _aggregates(g, _info_class_visitor, _pre_sink_class_visitor)
            for pre_sink, expect in zip((False, True), references):
                table = _class_table(g, pre_sink=pre_sink)
                assert table == expect, (n, k, pre_sink)
                assert list(map(type, table)) == list(map(type, expect)), (n, k, pre_sink)


def test_info_classes_hold_no_object_the_collector_tracks():
    # One flat table of ints, bools and bytes: no per-class list or event.
    classes = _class_table(PathPower(7, 3))
    gc.collect()
    assert classes and not any(gc.is_tracked(entry) for entry in classes)


def test_backward_induction_rejects_a_coarser_state(monkeypatch):
    # (t, component count) merges classes whose parents differ.  The audit
    # finds two history classes with one state; the reference, keyed by the
    # state, finds a class reached from two parent classes.
    monkeypatch.setattr(
        "stopflow.oracle.canonical_info_state",
        lambda g, prefix: (len(prefix), len(canonical_info_state(g, prefix))),
    )
    with pytest.raises(RuntimeError, match="share the canonical state"):
        info_class_audit(5, 1)
    with pytest.raises(RuntimeError, match="two parent classes"):
        reference_dp_value(5, 1)


@pytest.mark.parametrize("prefix, message", [
    ((1, 1), "position 1 arrived twice"),
    ((0, 9), "position 0 out of range 1..9"),
    ((3, 10, 3), "position 10 out of range 1..9"),
    ((3, 3, 10), "position 3 arrived twice"),
])
def test_info_state_rejects_what_observe_rejects(prefix, message):
    # The messages are Observer.observe's for the same arrivals.
    g = PathPower(9, 2)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        canonical_info_state(g, prefix)
    obs = Observer(g)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        for pos in prefix:
            obs.observe(pos)


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


@pytest.mark.parametrize("times, ok", [
    ((0.0, 1.0), True),
    ((-0.0, 0.5), True),  # -0.0 == 0.0
    ((1.0,) * 3, True),
    ((Fraction(1, 2), 0.25), True),  # compared as 0.0 <= a <= 1.0 is
    ((math.nan, 0.5), False),
    ((0.5, math.nan), False),
    ((-5e-324, 0.5), False),
    ((0.5, 1.0000000000000002), False),
    ((0.5, math.inf), False),
    ((-math.inf,), False),
])
def test_continuous_arrival_accepts_exactly_the_unit_interval(times, ok):
    if ok:
        assert ContinuousArrival(times).times == times
    else:
        with pytest.raises(ValueError, match=r"^arrival times must lie in \[0, 1\]$"):
            ContinuousArrival(times)


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



def rank_times(order):
    times = [0.0] * len(order)
    for t, pos in enumerate(order, start=1):
        times[pos - 1] = (t - 0.5) / len(order)
    return ContinuousArrival(tuple(times))


def _event_visitor(g: PathPower) -> tuple[Callable, Callable[[], "verify._Events"]]:
    """Visitor and result: ``verify._set_events`` by the prefix walk, each
    prefix judged by its last events and standing for its (n - t)!
    completions: the observer invariants, the (t, c) tally in increasing
    (t, c), and at the sink the slack rule's verdict and, if k < n - 2, the
    continuous indicator's, both fixed there.  It keeps
    ``strategies.stop_time``'s rule along the path, so it never mutes and
    must see every prefix in walk order.  It asks ``verify`` for the
    indicator, so a test that patches it there patches both."""
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
        if verify.continuous_win_indicator(g, arrival) != discrete and not disagreement:
            order = (*path, *sorted(set(range(1, n + 1)).difference(path)))
            disagreement = f"disagreement at (n={n}, k={k}), order {order}"
        compared += w

    def result():
        tally = {(t, c): [orders[t][c], maximal[t][c]]
                 for t in range(1, n + 1) for c in range(1, t + 1) if orders[t][c]}
        # A complete order is a prefix of length n, of weight 0! = 1.
        return verify._Events(failure, sum(orders[n]), tally, won, disagreement, compared)

    return visit, result


def test_continuous_tally_decides_each_order_at_the_sink(monkeypatch):
    # Both sides are fixed by the prefix that ends on the sink, so verify's
    # event visitor judges that prefix once, on its first completion, and
    # credits all of its completions, to the comparison and to the slack
    # rule's wins.
    indicator = verify.continuous_win_indicator
    for n in range(4, 7):
        for k in range(1, n - 2):
            g = PathPower(n, k)
            compared = 0

            def visit(path, events):
                nonlocal compared
                if path[-1] != 1:
                    return None
                rest = sorted(set(range(1, n + 1)).difference(path))
                orders = [(*path, *tail) for tail in itertools.permutations(rest)]
                cont = {continuous_win_indicator(g, rank_times(order)) for order in orders}
                disc = {run_strategy(Strategy.tau_n(), g, order).win for order in orders}
                assert len(cont) == len(disc) == 1, (n, k, path)
                [won] = disc
                # Agreement on the true indicator, a named disagreement on its negation.
                named = f"disagreement at (n={n}, k={k}), order {orders[0]}"
                for flip, failure in ((False, ""), (True, named)):
                    monkeypatch.setattr(verify, "continuous_win_indicator",
                                        lambda g_, arr: indicator(g_, arr) != flip)
                    tally, result = _event_visitor(g)
                    # The visitor keeps the slack rule as the walk descends:
                    # it sees the prefixes before the sink, and mutes none.
                    assert not any(tally(path[:t], events[:t]) for t in range(1, len(path)))
                    assert tally(path, events) is None
                    seen = result()
                    assert seen.disagreement == failure, (n, k, path)
                    assert seen.compared == len(orders), (n, k, path)
                    assert seen.won == len(orders) * won, (n, k, path)
                monkeypatch.undo()
                compared += len(orders)
                return True

            walk_prefixes(g, visit)
            assert compared == math.factorial(n)


def test_continuous_tally_times_are_those_of_the_sink_prefix_order(monkeypatch):
    # The indicator reads only the set S of arrivals before the sink, so the
    # set pass asks it once per S, with the times of the order
    # (*sorted(S), 1, *sorted(rest)) at (i - 0.5) / n; one position out of
    # order, or a set asked twice or never, fails.
    indicator = verify.continuous_win_indicator
    seen = []

    def recorded(g, arr):
        seen.append((g.n, g.k, arr.times))
        return indicator(g, arr)

    monkeypatch.setattr(verify, "continuous_win_indicator", recorded)
    assert verify.check_continuous_discrete(6).passed
    expect = []
    for n in range(4, 7):
        for k in range(1, n - 2):
            for size in range(n):
                for before in itertools.combinations(range(2, n + 1), size):
                    rest = sorted(set(range(2, n + 1)).difference(before))
                    expect.append((n, k, rank_times((*before, 1, *rest)).times))
    assert sorted(seen) == sorted(expect)
    assert len(seen) == sum((n - 3) * 2 ** (n - 1) for n in range(4, 7))


def test_continuous_tally_keeps_stop_times_rule(monkeypatch):
    # On real events the slack rule cannot fire before the sink arrives, so
    # the walk never raises the visitor's per-depth flag.  With a firing
    # planted at each arrival of a sink prefix, its verdict is still
    # stop_time's: a win iff the rule first stops at the sink.
    monkeypatch.setattr(verify, "continuous_win_indicator", lambda g, arr: True)
    tau_n = Strategy.tau_n()
    for n, k in [(5, 1), (6, 2)]:
        g = PathPower(n, k)
        verdicts = set()

        def visit(path, events, n=n, g=g, verdicts=verdicts):
            if path[-1] != 1:
                return None
            t = len(path)
            for fire in (None, *range(t)):
                planted = [e._replace(slack=0, is_max=True) if i == fire else e
                           for i, e in enumerate(events)]
                tally, result = _event_visitor(g)
                for u in range(1, t + 1):
                    tally(path[:u], planted[:u])
                won = stop_time(tau_n, planted, 0, n) == t
                assert (result().disagreement == "") == won, (n, k, path, fire)
                assert result().won == won * math.factorial(n - t), (n, k, path, fire)
                verdicts.add(won)
            return True

        walk_prefixes(g, visit)
        assert verdicts == {False, True}, (n, k)


def test_prefix_tally_matches_a_replay_of_every_order():
    # The slow reference: replay each of the n! orders and count, at every t,
    # the cell (t, component count) and whether the t-th arrival is maximal.
    # The walk reference and the set pass must both count it.
    for n in range(2, 7):
        for k in range(1, n):
            g = PathPower(n, k)
            expect: dict = {}
            for perm in itertools.permutations(range(1, n + 1)):
                obs = Observer(g)
                for pos in perm:
                    e = obs.observe(pos)
                    cell = expect.setdefault((e.t, e.component_count), [0, 0])
                    cell[0] += 1
                    cell[1] += e.is_max
            for events in (_aggregates(g, _event_visitor)[0], verify._set_events(g)):
                assert (events.failure, events.complete) == ("", math.factorial(n)), (n, k)
                assert events.tally == expect, (n, k)
                assert list(events.tally) == sorted(events.tally), (n, k)


def test_event_visitor_wins_match_the_pruned_walk_and_the_formula():
    # The walk references, the full event visitor and the slack-rule visitor
    # pruned at its stop or the sink, count the orders the slack rule wins,
    # as the closed form and the set pass do.
    for n in range(2, 8):
        for k in range(1, n):
            g = PathPower(n, k)
            [events] = _aggregates(g, _event_visitor)
            [pruned] = _aggregates(g, _slack_rule_visitor)
            expect = math.factorial(n) * success_probability_exact(n, k)
            assert events.won == pruned == verify._set_events(g).won == expect, (n, k)


def test_set_pass_events_match_the_walk_reference():
    # Every field: the invariants, the tally, the wins, the continuous
    # verdicts and the number of orders compared.
    for n in range(2, 8):
        for k in range(1, n):
            g = PathPower(n, k)
            assert verify._set_events(g) == _aggregates(g, _event_visitor)[0], (n, k)


def test_set_pass_wins_match_the_formula_past_the_walk():
    for n in range(8, 11):
        for k in range(1, n):
            g = PathPower(n, k)
            won = verify._set_events(g).won
            assert won == math.factorial(n) * success_probability_exact(n, k), (n, k)
            assert brute_force_win_probability(n, k, Strategy.tau_n(), force=True) == (
                success_probability_exact(n, k)), (n, k)


def test_set_pass_observes_each_transition_once(monkeypatch):
    # n 2^(n-1) observes, one per transition S - {v} -> S, and each entry is
    # the event of v's arrival after S - {v} on a fresh observer.
    observed = 0
    observe = Observer.observe

    def counted(self, pos):
        nonlocal observed
        observed += 1
        return observe(self, pos)

    for n in range(2, 8):
        for k in range(1, n):
            g = PathPower(n, k)
            monkeypatch.setattr(Observer, "observe", counted)
            observed = 0
            table = set_transitions(g)
            assert observed == n * 2 ** (n - 1), (n, k)
            monkeypatch.undo()
            assert len(table) == 2 ** n and table[0] == {}, (n, k)
            for s, into in enumerate(table):
                members = [v for v in range(1, n + 1) if s >> v - 1 & 1]
                assert sorted(into) == members, (n, k, s)
                for v, e in into.items():
                    fresh = Observer(g)
                    for u in members:
                        if u != v:
                            fresh.observe(u)
                    assert e == fresh.observe(v), (n, k, s, v)


def test_set_pass_keeps_stop_times_rule_when_the_rule_fires_early(monkeypatch):
    # On real events the slack rule never fires before the sink, and always
    # fires when the sink comes last, so the set pass's unfired counts are the
    # |S|! orders of each set.  An observer that fires it on chosen early
    # transitions, or never, tests the rest of stop_time's rule: the set pass
    # must count what the walk reference and a replay count.  Where it fires
    # early on some orders of a set only, the sorted order may agree with the
    # continuous indicator, and the set pass must name the order the walk
    # names, the smallest that disagrees.
    observe = Observer.observe
    tau_n = Strategy.tau_n()
    plants = [(fires, lambda e, pos, size, fires=fires: (
        e._replace(slack=0, is_max=True) if pos in fires and size <= 3 else e))
        for fires in ((2, 3), (3,), (5, 4), (2, 5))]
    plants.append(("2 late", lambda e, pos, size: (  # never on a sorted order
        e._replace(slack=0, is_max=True) if pos == 2 and size >= 2 else e)))
    plants.append(("never", lambda e, pos, size: e._replace(slack=1)))
    named = {}
    for n, k in [(5, 1), (6, 2), (7, 3)]:
        g = PathPower(n, k)
        for (name, plant), indicator in itertools.product(
                plants, [verify.continuous_win_indicator, lambda g_, arr: True]):
            # size counts the arrivals with pos
            monkeypatch.setattr(Observer, "observe", lambda self, pos, plant=plant: plant(
                observe(self, pos), pos, len(self._arrived)))
            monkeypatch.setattr(verify, "continuous_win_indicator", indicator)
            walked = _aggregates(g, _event_visitor)[0]
            passed = verify._set_events(g)
            replayed = sum(stop_time(tau_n, map(Observer(g).observe, perm), 0, n) == perm.index(1) + 1
                           for perm in itertools.permutations(range(1, n + 1)))
            monkeypatch.undo()
            assert passed.won == walked.won == replayed, (n, k, name)
            assert passed.won != math.factorial(n) * success_probability_exact(n, k), (n, k, name)
            assert passed.disagreement == walked.disagreement, (n, k, name)
            named[n, k, name, indicator is verify.continuous_win_indicator] = passed.disagreement
    assert replayed == math.factorial(n - 1)  # never fired: won iff the sink comes last
    assert named[5, 1, "2 late", True] == "disagreement at (n=5, k=1), order (3, 2, 4, 5, 1)"
