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
Strategies must consume only :class:`ObservationEvent` and the relative
component structure; absolute positions never cross that boundary.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass

from .graph import PathPower


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


@dataclass(frozen=True)
class ObservationEvent:
    """What the selector learns from one arrival."""

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
        self._history: list[tuple[int, int, int, int]] = []  # (pos, totals before it)

    @property
    def slack(self) -> int:
        # Degenerate pre-arrival state: no components yet, report n - t.
        if not self.component_count:
            return self.g.n - self.t
        return (self.g.n - self.t) - self.g.k * (self.component_count - 1) - self.pending_inner

    def components(self) -> tuple[ComponentView, ...]:
        runs: list[list[int]] = []
        for p in self._arrived:
            if runs and p - runs[-1][-1] <= self.g.k:
                runs[-1].append(p)
            else:
                runs.append([p])
        return tuple(
            ComponentView(
                offsets=tuple(p - run[0] for p in run),
                inner_missing=run[-1] - run[0] + 1 - len(run),
            )
            for run in runs
        )

    def undo(self) -> None:
        """Take back the latest arrival (IndexError if none): one observer walks many prefixes."""
        pos, self.t, self.component_count, self.pending_inner = self._history.pop()
        del self._arrived[bisect.bisect_left(self._arrived, pos)]

    def observe(self, pos: int) -> ObservationEvent:
        """Ingest the arrival of ``pos`` and report the resulting event."""
        g = self.g
        k = g.k
        g._check_position(pos)
        arrived = self._arrived
        idx = bisect.bisect_left(arrived, pos)
        if idx < len(arrived) and arrived[idx] == pos:
            raise ValueError(f"position {pos} arrived twice")

        # Sorted neighbours; a missing one is a sentinel beyond reach, so
        # every gap that touches it is wider than k.
        below = arrived[idx - 1] if idx else -k
        above = arrived[idx] if idx < len(arrived) else g.n + k + 1
        arrived.insert(idx, pos)
        self._history.append((pos, self.t, self.component_count, self.pending_inner))
        self.t += 1

        # pos replaces the gap (below, above) by (below, pos) and (pos, above).
        self.component_count += 1
        for width, sign in ((above - below, -1), (pos - below, 1), (above - pos, 1)):
            if width <= k:
                self.component_count -= sign
                self.pending_inner += sign * (width - 1)

        # Positional: keywords cost a frozen dataclass about a third more.
        # Maximal iff no outgoing edge, i.e. nothing arrived in [pos-k, pos-1].
        return ObservationEvent(
            self.t, pos - below > k, self.component_count, self.pending_inner, self.slack
        )
