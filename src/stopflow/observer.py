"""Selector-legal view of an arrival process on a path power.

The observer ingests ground-truth positions one at a time and maintains the
induced subgraph of arrived vertices: its connected components, the count of
not-yet-arrived vertices destined to fall strictly inside existing components
(``pending_inner``, the distance labels make this knowable), and the slack

    slack(t) = (n - t) - k * (components - 1) - pending_inner,

which counts future arrivals not already forced into gaps or inner slots.
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

    @property
    def span(self) -> int:
        return self.offsets[-1] + 1


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


class _Component:
    __slots__ = ("known",)

    def __init__(self, pos: int):
        self.known = [pos]

    @property
    def lo(self) -> int:
        return self.known[0]

    @property
    def hi(self) -> int:
        return self.known[-1]

    @property
    def inner_missing(self) -> int:
        return self.hi - self.lo + 1 - len(self.known)


class Observer:
    """Mutable observation state for one arrival sequence on one PathPower."""

    def __init__(self, g: PathPower):
        self.g = g
        self.t = 0
        self._arrived: list[int] = []       # all arrived positions, sorted
        self._comps: list[_Component] = []  # disjoint, sorted by lo

    @property
    def component_count(self) -> int:
        return len(self._comps)

    @property
    def pending_inner(self) -> int:
        return sum(c.inner_missing for c in self._comps)

    @property
    def slack(self) -> int:
        # Degenerate pre-arrival state: no components yet, report n - t.
        if not self._comps:
            return self.g.n - self.t
        return (self.g.n - self.t) - self.g.k * (len(self._comps) - 1) - self.pending_inner

    def components(self) -> tuple[ComponentView, ...]:
        return tuple(
            ComponentView(
                offsets=tuple(p - c.lo for p in c.known),
                inner_missing=c.inner_missing,
            )
            for c in self._comps
        )

    def observe(self, pos: int) -> ObservationEvent:
        """Ingest the arrival of ``pos`` and report the resulting event."""
        g = self.g
        g._check_position(pos)
        idx = bisect.bisect_left(self._arrived, pos)
        if idx < len(self._arrived) and self._arrived[idx] == pos:
            raise ValueError(f"position {pos} arrived twice")

        # Maximal iff no outgoing edge, i.e. nothing arrived in [pos-k, pos-1].
        is_max = idx == 0 or pos - self._arrived[idx - 1] > g.k

        self._arrived.insert(idx, pos)
        self.t += 1

        # An arrival can extend or fuse at most the two components flanking it.
        ci = bisect.bisect_right(self._comps, pos, key=lambda c: c.lo)
        left = self._comps[ci - 1] if ci > 0 else None
        right = self._comps[ci] if ci < len(self._comps) else None
        joins_left = left is not None and pos - left.hi <= g.k
        joins_right = right is not None and right.lo - pos <= g.k

        if joins_left and joins_right:
            # Separation >= k+1 between components forces lo < pos < hi here.
            left.known.append(pos)
            left.known.extend(right.known)
            del self._comps[ci]
        elif joins_left:
            bisect.insort(left.known, pos)
        elif joins_right:
            right.known.insert(0, pos)
        else:
            self._comps.insert(ci, _Component(pos))

        return ObservationEvent(
            t=self.t,
            is_max=is_max,
            component_count=self.component_count,
            pending_inner=self.pending_inner,
            slack=self.slack,
        )
