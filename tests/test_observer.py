import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopflow import ObservationEvent, Observer, PathPower

GOLDEN_PERM = (2, 9, 4, 7, 3, 1, 5, 8, 6)
GOLDEN_PENDING = (0, 0, 1, 2, 1, 1, 2, 1, 0)


def rescan_components(k: int, arrived: list[int]) -> list[list[int]]:
    """Independent O(t) recomputation of the induced components."""
    comps: list[list[int]] = []
    for p in sorted(arrived):
        if comps and p - comps[-1][-1] <= k:
            comps[-1].append(p)
        else:
            comps.append([p])
    return comps


def rescan_pending_inner(n: int, k: int, arrived: list[int]) -> int:
    """Unarrived positions strictly between two arrived positions of the
    same component."""
    comps = rescan_components(k, arrived)
    present = set(arrived)
    return sum(
        1
        for comp in comps
        for q in range(comp[0] + 1, comp[-1])
        if q not in present
    )


def run_events(n, k, perm):
    obs = Observer(PathPower(n, k))
    return obs, [obs.observe(pos) for pos in perm]


def test_golden_pending_inner_sequence():
    _, events = run_events(9, 2, GOLDEN_PERM)
    assert tuple(e.pending_inner for e in events) == GOLDEN_PENDING


def test_golden_events_middle_game():
    _, events = run_events(9, 2, GOLDEN_PERM)
    e5 = events[4]
    assert (e5.component_count, e5.pending_inner, e5.slack) == (2, 1, 1)
    assert not e5.condition_met
    e6 = events[5]
    assert (e6.component_count, e6.pending_inner, e6.slack) == (2, 1, 0)
    assert e6.condition_met and e6.is_max


def test_observer_initial_state():
    obs = Observer(PathPower(9, 2))
    assert obs.t == 0
    assert obs.component_count == 0
    assert obs.slack == 9
    event = obs.observe(4)
    assert (event.t, event.component_count, event.pending_inner) == (1, 1, 0)
    assert event.is_max


def test_first_arrival_always_maximal():
    for pos in range(1, 6):
        obs = Observer(PathPower(5, 2))
        assert obs.observe(pos).is_max


def test_duplicate_arrival_rejected():
    obs = Observer(PathPower(5, 2))
    obs.observe(3)
    with pytest.raises(ValueError):
        obs.observe(3)


def test_out_of_range_arrival_rejected():
    obs = Observer(PathPower(5, 2))
    with pytest.raises(ValueError):
        obs.observe(6)
    with pytest.raises(ValueError):
        obs.observe(0)


def test_rejected_arrivals_leave_the_state_untouched():
    obs = Observer(PathPower(5, 2))
    obs.observe(3)
    obs.observe(1)
    before = observer_state(obs), list(obs._history), list(obs._arrived)
    for pos, message in ((0, "position 0 out of range 1..5"),
                         (6, "position 6 out of range 1..5"),
                         (3, "position 3 arrived twice")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            obs.observe(pos)
        assert (observer_state(obs), obs._history, obs._arrived) == before, pos
    # The undo stack still holds exactly the two accepted arrivals.
    obs.undo()
    assert observer_state(obs) == observer_state(run_events(5, 2, (3,))[0])
    obs.undo()
    with pytest.raises(IndexError):
        obs.undo()


def test_event_is_an_immutable_named_tuple():
    event = Observer(PathPower(9, 2)).observe(4)
    assert ObservationEvent._fields == ("t", "is_max", "component_count", "pending_inner", "slack")
    assert event == (1, True, 1, 0, 8) and not event.condition_met
    with pytest.raises(AttributeError):
        event.slack = 0
    assert event._replace(slack=0).condition_met


def test_stopping_condition():
    obs = Observer(PathPower(9, 2))
    met = [obs.observe(pos).condition_met for pos in GOLDEN_PERM]
    assert met == [False] * 5 + [True] * 4  # slack is 1 at t=4 and t=5, 0 from t=6


def test_condition_always_met_at_full_arrival():
    for n in range(2, 7):
        for k in range(1, n):
            obs = Observer(PathPower(n, k))
            for pos in range(1, n + 1):
                obs.observe(pos)
            assert obs.slack == 0
            assert obs.component_count == 1 and obs.pending_inner == 0


def _check_run(n, k, perm):
    g = PathPower(n, k)
    obs = Observer(g)
    arrived: list[int] = []
    met = False
    for pos in perm:
        event = obs.observe(pos)
        arrived.append(pos)

        assert event.slack >= 0
        if met:
            assert event.condition_met, "condition must persist"
            assert not event.is_max, "no maximal arrivals once exhausted"
        met = met or event.condition_met

        # maximality is "no outgoing edge in the induced graph"
        assert event.is_max == (not any(0 < pos - q <= k for q in arrived[:-1]))

        # audit against the from-scratch rescan
        comps = rescan_components(k, arrived)
        assert event.component_count == len(comps)
        assert event.pending_inner == rescan_pending_inner(n, k, arrived)
        views = obs.components()
        assert [list(v.offsets) for v in views] == [
            [p - comp[0] for p in comp] for comp in comps
        ]
        assert sum(v.size for v in views) == len(arrived)
        for left, right in zip(comps, comps[1:]):
            assert right[0] - left[-1] >= k + 1


def test_invariants_exhaustive_small():
    for n in range(2, 6):
        for k in range(1, n):
            for perm in itertools.permutations(range(1, n + 1)):
                _check_run(n, k, perm)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_invariants_random(data):
    n = data.draw(st.integers(min_value=2, max_value=24))
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    perm = data.draw(st.permutations(list(range(1, n + 1))))
    _check_run(n, k, perm)


def observer_state(obs):
    return obs.t, obs.component_count, obs.pending_inner, obs.slack, obs.components()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_undo_restores_the_state_of_the_surviving_prefix(data):
    # Random interleavings of observe and undo, each state checked against a
    # fresh observer fed only the arrivals that survive.
    n = data.draw(st.integers(min_value=2, max_value=16))
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    g = PathPower(n, k)
    obs = Observer(g)
    prefix: list[int] = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=3 * n))):
        missing = [p for p in g.positions() if p not in prefix]
        if prefix and (not missing or data.draw(st.booleans())):
            obs.undo()
            prefix.pop()
        else:
            prefix.append(data.draw(st.sampled_from(missing)))
            obs.observe(prefix[-1])
        fresh = Observer(g)
        for pos in prefix:
            fresh.observe(pos)
        assert observer_state(obs) == observer_state(fresh)
    for _ in prefix:
        obs.undo()
    assert observer_state(obs) == observer_state(Observer(g))
    with pytest.raises(IndexError):
        obs.undo()
