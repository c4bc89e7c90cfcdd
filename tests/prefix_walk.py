"""The generic prefix walk, kept as a reference for the oracle's fast paths.

``walk_prefixes`` visits every arrival prefix on one ``Observer`` and lets
each visitor mute itself below a prefix; ``_aggregates`` runs visitor
factories on one shared walk.  The package's one walk over prefixes,
``oracle._class_table``, files the prefixes as the class visitors below do,
and the tests compare its tables with theirs slot for slot.  It observes
nothing itself, reading each new class's event off ``oracle.set_transitions``;
these visitors take theirs from an ``Observer`` replayed along every prefix,
so the comparison does not rest on the set pass.  The tests' other visitors
recount what the oracle's passes over arrived sets count.
"""
from __future__ import annotations

from typing import Callable, Sequence

from stopflow.graph import PathPower
from stopflow.observer import ObservationEvent, Observer
from stopflow.oracle import _MEMBERS, _SINK_LAST, _WIDTH


def walk_prefixes(g: PathPower, *visits: Callable[..., bool | None]) -> None:
    """Call each ``visit(path, events)`` on every arrival prefix, depth first
    and in lexicographic order, with the arrived positions and their
    observer events (both lists are reused).  A visitor that returns true is
    muted for the extensions of that prefix only, having credited its
    (n - t)! completions at once; it is called again on the next sibling.
    The walk descends while at least one visitor is live, so each visitor
    sees exactly the prefixes it would see walked alone: all of them, each
    after its parent, if it never mutes, as the full class table does.
    """
    _walk(Observer(g), list(g.positions()), [], [], visits)


def _walk(obs: Observer, free: list[int], path: list[int], events: list[ObservationEvent],
          visits: Sequence[Callable]) -> None:
    # Module level, not a recursive closure: its reference cycle outlives the call.
    # ``free`` holds the unarrived positions, sorted; each is lent to the
    # child walk and put back in place, so the order stays lexicographic.
    for i in range(len(free)):
        pos = free.pop(i)
        path.append(pos)
        events.append(obs.observe(pos))
        live = visits  # copied only when a visitor mutes an extension
        for visit in visits:
            if visit(path, events) and free:
                live = [other for other in live if other is not visit]
        if live and free:
            _walk(obs, free, path, events, live)
        obs.undo()
        path.pop()
        events.pop()
        free.insert(i, pos)


def _aggregates(g: PathPower, *makes: Callable) -> list:
    """Walk the prefixes of ``g`` once with the visitor of each ``make(g)``;
    return their results in order."""
    visitors = [make(g) for make in makes]
    walk_prefixes(g, *(visit for visit, _ in visitors))
    return [result() for _, result in visitors]


def _info_class_visitor(g: PathPower) -> tuple[Callable, Callable[[], list]]:
    """Visitor and result: every information class, by the prefix walk.

    A class is an observation history: its parent class (the members with
    the last arrival dropped) plus the newest arrival's row, the arrival
    index and signed distance ``pos - path[i]`` of each earlier arrival
    within k of it, which is what its arcs and their labels show.  So the
    classes nest by construction.  The result is one flat table, ``_WIDTH``
    slots per class in creation order, so each parent precedes its
    children: the prefix length t, the number of member prefixes, how many
    of them end on the sink, the parent's number (-1 at t = 1), the newest
    arrival's component count, pending-inner count and maximality, and the
    first member as ``bytes`` (positions stay below 256 at any n a walk can
    finish).  No slot holds a container, so the table gives the garbage
    collector nothing to track.
    """
    k = g.k
    classes: list = []
    # [t]: t-prefix history -> class.  A history's key is its parent's number
    # followed by one base-(2k+1) digit per earlier arrival: d + k for a
    # distance d = pos - path[i] within k (d is never 0), else k.  Keys of one
    # t have t - 1 digits and a parent >= 0 (or -1 at t = 1), so they differ.
    index: list[dict[int, int]] = [{} for _ in range(g.n + 1)]
    path_ids = [-1] * (g.n + 1)  # [t]: class of the t-prefix
    base = 2 * k + 1
    # [pos][q]: the digit of an earlier arrival q for a newest arrival pos.
    rows = [[d + k if -k <= d <= k else k for d in range(pos, pos - g.n - 1, -1)]
            for pos in range(g.n + 1)]

    def visit(path: list[int], events: list[ObservationEvent]) -> None:
        t = len(path)
        pos = path[-1]
        parent = key = path_ids[t - 1]
        row = rows[pos]
        for q in path[:-1]:
            key = key * base + row[q]
        level = index[t]
        sink = pos == 1
        c = level.get(key)
        if c is None:
            c = level[key] = len(classes) // _WIDTH
            _, is_max, comps, pending, _ = events[-1]
            classes.extend((t, 1, int(sink), parent, comps, pending, is_max, bytes(path)))
        else:
            at = c * _WIDTH
            classes[at + _MEMBERS] += 1
            if sink:
                classes[at + _SINK_LAST] += 1
        path_ids[t] = c

    return visit, lambda: classes


def _pre_sink_class_visitor(g: PathPower) -> tuple[Callable, Callable[[], list]]:
    """``_info_class_visitor``, muted below each prefix that ends on the sink.

    Its table holds the classes with a member where the sink has not yet
    arrived or arrived last, and counts only those members.  The selector
    cannot tell whether the sink has passed, so the members past it stay in
    the full table, which the audit reads.
    """
    visit, result = _info_class_visitor(g)

    def pre_sink(path: list[int], events: list[ObservationEvent]) -> bool:
        visit(path, events)
        return path[-1] == 1

    return pre_sink, result
