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
import struct
from dataclasses import dataclass
from typing import Sequence

from .graph import PathPower
from .observer import ObservationEvent, Observer

KINDS = ("tau_n", "tau_p_star", "classical_threshold", "first_max")


@dataclass(frozen=True)
class Strategy:
    """A stopping rule plus the parameters it needs."""

    kind: str
    p: float | None = None
    r: int | None = None

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
    def tau_p_star(p: float) -> "Strategy":
        return Strategy(kind="tau_p_star", p=p)

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


def uniform_words(n: int, rng: random.Random) -> bytes:
    """The 32-bit words behind n ``rng.random()`` calls, from one call.

    ``getrandbits(64 * n)`` draws the same 2n words in the same order, the
    first word least significant, so ``raw[8j:8j + 8]`` holds the words a, b
    of uniform j, which is ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``.  Byte
    ``raw[8j + 3]``, the top byte of a, is that 53-bit numerator >> 45.
    """
    return rng.getrandbits(64 * n).to_bytes(8 * n, "little")


_WORD_PAIR = struct.Struct("<II").unpack_from


def numerator(raw: bytes, j: int) -> int:
    """2**53 times uniform j of ``uniform_words``, an exact integer."""
    a, b = _WORD_PAIR(raw, 8 * j)
    return (a >> 5 << 26) + (b >> 6)


# _RAMP[256 - b : 512 - b] maps a byte below b to 0, b itself to 2, above b
# to 1; for b = 256 every byte is below.
_RAMP = bytes(256) + b"\x02" + b"\x01" * 255


def rank_uniforms(raw: bytes, start: int, stop: int, bound: int) -> bytes | bytearray:
    """Per uniform ``start..stop-1`` of ``raw``: 1 if its numerator is at
    least ``bound`` (at most 2**53), else 0.

    All are ranked by top byte against ``bound >> 45`` in one translate;
    only those that tie on it are decoded.
    """
    top = bound >> 45
    ranks = raw[8 * start + 3 : 8 * stop : 8].translate(_RAMP[256 - top : 512 - top])
    j = ranks.find(2)
    if j >= 0:
        ranks = bytearray(ranks)
        while j >= 0:
            ranks[j] = numerator(raw, start + j) >= bound
            j = ranks.find(2, j + 1)
    return ranks


def draw_rejection_count(n: int, p: float, rng: random.Random) -> int:
    """Number of tails in n flips of a p-tails coin (one draw per run).

    Flip j is tails iff the j-th of n ``rng.random()`` calls is below p,
    that is iff its numerator is below ``ceil(p * 2**53)``.
    """
    raw = uniform_words(n, rng)
    return rank_uniforms(raw, 0, n, math.ceil(p * 2**53)).count(0)


def _skip_count(s: Strategy, n: int, rng: random.Random | None) -> int:
    """How many leading arrivals the strategy rejects outright."""
    if s.kind in ("tau_n", "first_max"):
        return 0
    if s.kind == "classical_threshold":
        return s.r  # type: ignore[return-value]
    if rng is None:
        raise ValueError("tau_p_star draws its rejection count: pass a random generator")
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
    strategies only, and ``tau_p_star`` needs it.
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
