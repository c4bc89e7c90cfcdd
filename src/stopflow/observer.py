"""Selector-legal view of an arrival process on a path power.

The observer ingests ground-truth positions one at a time.  A component of
the induced subgraph of arrived vertices is a maximal run of arrived
positions whose consecutive gaps are at most k, so the whole state is the
sorted list of arrivals plus three running totals: the arrival count t, the
component count, and ``pending_inner``, the not-yet-arrived vertices
destined to fall strictly inside existing components (the distance labels
make this knowable).  A gap of width d <= k joins its two ends and holds
d - 1 such vertices.  An arrival splits one gap into two, so each total
changes by three gap terms.  The slack

    slack(t) = (n - t) - k * (components - 1) - pending_inner

counts future arrivals not already forced into gaps or inner slots.
Strategies must consume only :class:`ObservationEvent`, an immutable
``typing.NamedTuple``, and the relative component structure; absolute
positions never cross that boundary.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

from .graph import PathPower


def component_runs(sorted_positions: list[int], k: int) -> list[list[int]]:
    """Split sorted arrived positions into components: maximal runs whose
    consecutive gaps are at most k."""
    runs: list[list[int]] = []
    for p in sorted_positions:
        if runs and p - runs[-1][-1] <= k:
            runs[-1].append(p)
        else:
            runs.append([p])
    return runs


@dataclass(frozen=True)
class ComponentView:
    """Relative structure of one component, as the selector can see it.

    ``offsets`` are distances from the component's lowest known vertex
    (recoverable from the distance labels of induced edges), ``inner_missing``
    the count of unarrived positions strictly inside the component's span.
    """

    offsets: tuple[int, ...]
    inner_missing: int

    @property
    def size(self) -> int:
        return len(self.offsets)


class ObservationEvent(NamedTuple):
    """What the selector learns from one arrival.  The exhaustive oracles build
    one per prefix; a NamedTuple costs a third of a frozen dataclass."""

    t: int
    is_max: bool
    component_count: int
    pending_inner: int
    slack: int

    @property
    def condition_met(self) -> bool:
        return self.slack == 0


class Observer:
    """Mutable observation state for one arrival sequence on one PathPower.

    The state is the sorted arrivals plus running totals of arrivals,
    components and pending inner vertices; each arrival costs one bisect,
    the list insert and constant work on the gaps around it.
    """

    def __init__(self, g: PathPower):
        self.g = g
        self.t = 0
        self.component_count = 0
        self.pending_inner = 0
        self._arrived: list[int] = []  # all arrived positions, sorted
        self._history: list[tuple[int, int, int, int]] = []  # (insert index, totals before it)

    @property
    def slack(self) -> int:
        # Degenerate pre-arrival state: no components yet, report n - t.
        if not self.component_count:
            return self.g.n - self.t
        return (self.g.n - self.t) - self.g.k * (self.component_count - 1) - self.pending_inner

    def components(self) -> tuple[ComponentView, ...]:
        return tuple(
            ComponentView(
                offsets=tuple(p - run[0] for p in run),
                inner_missing=run[-1] - run[0] + 1 - len(run),
            )
            for run in component_runs(self._arrived, self.g.k)
        )

    def undo(self) -> None:
        """Take back the latest arrival (IndexError if none): one observer walks many prefixes."""
        idx, self.t, self.component_count, self.pending_inner = self._history.pop()
        del self._arrived[idx]

    def observe(self, pos: int) -> ObservationEvent:
        """Ingest the arrival of ``pos`` and report the resulting event."""
        n = self.g.n
        k = self.g.k
        if not 1 <= pos <= n:
            raise ValueError(f"position {pos} out of range 1..{n}")
        arrived = self._arrived
        idx = bisect.bisect_left(arrived, pos)
        if idx < len(arrived) and arrived[idx] == pos:
            raise ValueError(f"position {pos} arrived twice")

        # Sorted neighbours; a missing one is a sentinel beyond reach, so
        # every gap that touches it is wider than k.
        below = arrived[idx - 1] if idx else -k
        above = arrived[idx] if idx < len(arrived) else n + k + 1
        arrived.insert(idx, pos)
        # Undo restores the list before any later arrival, so idx still holds pos.
        t, count, inner = self.t, self.component_count, self.pending_inner
        self._history.append((idx, t, count, inner))
        t += 1

        # pos replaces the gap (below, above) by (below, pos) and (pos, above).
        count += 1
        width = above - below
        if width <= k:
            count += 1
            inner -= width - 1
        width = pos - below
        if width <= k:
            count -= 1
            inner += width - 1
        width = above - pos
        if width <= k:
            count -= 1
            inner += width - 1
        self.t, self.component_count, self.pending_inner = t, count, inner

        # Maximal iff no outgoing edge, i.e. nothing arrived in [pos-k, pos-1].
        # With a component present the slack is the module formula.
        return ObservationEvent(
            t, pos - below > k, count, inner, (n - t) - k * (count - 1) - inner
        )
