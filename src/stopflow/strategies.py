"""Stopping strategies over observation events, and a reference runner.

Four strategy kinds ship here:

* ``tau_n`` -- stop at the first maximal arrival once the slack hits zero
  (the optimal rule when distance labels are visible);
* ``tau_p_star`` -- draw M ~ Binomial(n, p) from the seeded stream, reject
  the first M arrivals, then take the first maximal one (distance-blind);
* ``classical_threshold`` -- like tau_p_star but with a fixed rejection
  count r;
* ``first_max`` -- stop immediately (the first arrival is always maximal).

Every strategy decides from the event stream alone; if it never fires the
run stops at t = n and the record carries the final arrival.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .graph import PathPower
from .observer import ObservationEvent, Observer

KINDS = ("tau_n", "tau_p_star", "classical_threshold", "first_max")


@dataclass(frozen=True)
class Strategy:
    """A stopping rule plus the parameters and seed it needs."""

    kind: str
    p: float | None = None
    r: int | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "tau_p_star":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError(f"tau_p_star needs p in [0, 1], got {self.p}")
        if self.kind == "classical_threshold":
            if self.r is None or self.r < 0:
                raise ValueError(f"classical_threshold needs r >= 0, got {self.r}")

    @staticmethod
    def tau_n() -> "Strategy":
        return Strategy(kind="tau_n")

    @staticmethod
    def tau_p_star(p: float, rng_seed: int = 0) -> "Strategy":
        return Strategy(kind="tau_p_star", p=p, rng_seed=rng_seed)

    @staticmethod
    def classical_threshold(r: int) -> "Strategy":
        return Strategy(kind="classical_threshold", r=r)

    @staticmethod
    def first_max() -> "Strategy":
        return Strategy(kind="first_max")

    def describe(self) -> str:
        if self.kind == "tau_p_star":
            return f"tau_p_star(p={self.p})"
        if self.kind == "classical_threshold":
            return f"classical_threshold(r={self.r})"
        return self.kind


@dataclass(frozen=True)
class StopRecord:
    """Where a run stopped, which vertex it took, and whether it won."""

    stop_index: int
    chosen_position: int
    win: bool


def default_threshold(n: int) -> int:
    """Rejection count floor(n/e) used by the classical-secretary baseline."""
    return int(n / math.e)


def draw_rejection_count(n: int, p: float, rng: random.Random) -> int:
    """Number of tails in n flips of a p-tails coin (one draw per run)."""
    return sum(1 for _ in range(n) if rng.random() < p)


def _skip_count(s: Strategy, n: int, rng: random.Random | None) -> int:
    """How many leading arrivals the strategy rejects outright."""
    if s.kind in ("tau_n", "first_max"):
        return 0
    if s.kind == "classical_threshold":
        return s.r  # type: ignore[return-value]
    if rng is None:
        rng = random.Random(s.rng_seed)
    return draw_rejection_count(n, s.p, rng)  # type: ignore[arg-type]


def _wants_stop(s: Strategy, event: ObservationEvent, skip: int) -> bool:
    if s.kind == "tau_n":
        return event.condition_met and event.is_max
    if s.kind == "first_max":
        return True
    # threshold family: first maximal arrival after the rejection phase
    return event.t > skip and event.is_max


def run_strategy(
    s: Strategy,
    g: PathPower,
    arrivals: Sequence[int],
    rng: random.Random | None = None,
) -> StopRecord:
    """Replay ``arrivals`` through the observer and stop per the strategy.

    ``arrivals`` must be a permutation of 1..n.  ``rng`` feeds randomized
    strategies only; omitted, it is seeded from the strategy itself so the
    same inputs always reproduce the same record.
    """
    n = g.n
    if sorted(arrivals) != list(range(1, n + 1)):
        raise ValueError("arrivals must be a permutation of 1..n")

    skip = _skip_count(s, n, rng)
    obs = Observer(g)
    for pos in arrivals:
        event = obs.observe(pos)
        if _wants_stop(s, event, skip):
            return StopRecord(stop_index=event.t, chosen_position=pos, win=pos == 1)
    last = arrivals[-1]
    return StopRecord(stop_index=n, chosen_position=last, win=last == 1)
