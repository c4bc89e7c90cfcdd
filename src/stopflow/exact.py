"""Exact rational evaluation of the success probability and analytic bounds.

The win probability of the slack-triggered rule decomposes over the time m
at which the triggering condition first can hold.  The count ``W[m]`` of
qualifying arrival sets (those holding positions 1 and n whose missing
positions all fit in gaps of width at most k) spreads the n-m missing
positions over the m-1 gaps between arrivals, so

    W[m] = [x^(n-m)] (1 + x + ... + x^k)^(m-1),

and the probability is

    sum over m of  W[m] / (m * C(n, m))  =  sum over m of  W[m] (m-1)! (n-m)! / n!.

Two paths compute it.  ``success_probabilities_exact`` reads ``W`` off the
generating function's coefficient rows, with big integers over the one
denominator n!.  The rows do not depend on n, so one row pass serves a whole
n-grid: ``scaling`` and ``bounds_sandwich`` make one pass per k, and
``success_probability_exact`` is the one-point case.  ``exact_tables`` counts
the sets by composition enumeration, splitting ``W[m] = sum_h V[m, h]`` where
the h-th slice holds the sets with exactly h+1 components; it gives the per-m
breakdown of ``stopflow exact`` and is the slow reference the first path is
tested against.  A slice is nonempty iff h >= n-1-k(m-1): the other n-m-kh
missing positions must fit into the remaining m-1-h gaps, at most k-1 each.
Since m >= min_condition_time gives (n-m)//k <= m-1, every h from there up
to (n-m)//k has a set, so the tables visit and store only nonzero slices.
Only the Gamma-function bounds use floating point.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator

from .graph import _check_below_degenerate, _check_nk

EPSILON_GRID = tuple(Fraction(i, 10) for i in range(1, 10))


def compositions(r: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All nonnegative tuples (a_1..a_parts) with sum(i * a_i) == r.

    Enumeration is exhaustive, duplicate-free, and ascending lexicographic.
    With parts == 0 the empty tuple appears iff r == 0.
    """
    if r < 0 or parts < 0:
        raise ValueError(f"need r >= 0 and parts >= 0, got r={r}, parts={parts}")

    def rec(rem: int, weight: int) -> Iterator[tuple[int, ...]]:
        if weight > parts:
            if rem == 0:
                yield ()
            return
        for a in range(rem // weight + 1):
            for tail in rec(rem - a * weight, weight + 1):
                yield (a,) + tail

    yield from rec(r, 1)


def _multinomial(counts: tuple[int, ...]) -> int:
    total = 0
    out = 1
    for c in counts:
        total += c
        out *= math.comb(total, c)
    return out


def min_condition_time(n: int, k: int) -> int:
    """Smallest m at which the slack can reach zero: ceil((n+k)/(k+1))."""
    return -((n + k) // -(k + 1))


def _h_min(n: int, k: int, m: int) -> int:
    """Fewest k-wide gaps in an m-set: the other m-1-h gaps hold k-1 at most."""
    return max(0, n - 1 - k * (m - 1))


def v_mh(n: int, k: int, m: int, h: int) -> int:
    """Count of m-element arrival sets qualifying with exactly h+1 components.

    A set qualifies when positions 1 and n are present and every maximal run
    of missing positions has length at most k; runs of length exactly k are
    the component separators.  The count chooses which of the m-1 gaps are
    nonempty and what size each one gets.
    """
    _check_nk(n, k)
    if not min_condition_time(n, k) <= m <= n:
        raise ValueError(f"m={m} outside {min_condition_time(n, k)}..{n} for n={n}, k={k}")
    if not 0 <= h <= (n - m) // k:
        raise ValueError(f"h={h} outside 0..{(n - m) // k} for n={n}, k={k}, m={m}")
    rest = n - m - k * h
    total = 0
    for a in compositions(rest, k - 1):
        nonempty = h + sum(a)
        total += math.comb(m - 1, nonempty) * _multinomial((h, *a))
    return total


# Caps composition_count for ``stopflow exact``.  Measured with CPython 3.11
# on one core of a 2-vCPU Xeon, a composition costs 4 to 24 us, more as k
# grows: (46, 5) has 11,225 and takes 0.05 s, (300, 3) 258,825 and 2.2 s,
# (40, 20) 117,400 and 2.3 s.  Earlier timings on the same host ran up to
# 33 us, so a run under the cap ends within about 10 to 13 s; (60, 30), with
# 4,072,719, ran past 60 s.
COMPOSITION_GUARD = 400_000


def composition_count(n: int, k: int) -> int:
    """How many compositions ``exact_tables(n, k)`` enumerates, in O(n k).

    Each (m, h) enumerates the partitions of n - m - k h into parts at most
    k - 1, and h runs down to h_min = max(0, n - 1 - k (m - 1)), so the
    count is the sum over s = n - m of runs[s - k h_min], the sum of those
    partition counts at s - k h_min, s - k (h_min + 1), ... down to 0.
    """
    _check_nk(n, k)
    top = n - min_condition_time(n, k)
    runs = [1] + [0] * top  # partitions of s into parts <= k - 1, then their stride-k sums
    for part in range(1, k):
        for s in range(part, top + 1):
            runs[s] += runs[s - part]
    for s in range(k, top + 1):
        runs[s] += runs[s - k]
    return sum(runs[n - m - k * _h_min(n, k, m)] for m in range(n - top, n + 1))


@dataclass(frozen=True)
class ExactTables:
    """The full counting tables behind one exact probability.

    ``V`` holds exactly the nonzero slices: for each m from min_condition_time
    to n, the h from max(0, n-1-k(m-1)) to (n-m)//k.  Below that h the n-m-kh
    other missing positions cannot fit into the m-1-h other gaps, at most k-1
    each; every h in the range fits, as (n-m)//k <= m-1 there.  A missing
    (m, h) reads as 0.
    """

    n: int
    k: int
    V: dict[tuple[int, int], int]
    W: dict[int, int]
    probability: Fraction


@lru_cache(maxsize=256)
def exact_tables(n: int, k: int) -> ExactTables:
    _check_nk(n, k)
    V: dict[tuple[int, int], int] = {}
    W: dict[int, int] = {}
    probability = Fraction(0)
    for m in range(min_condition_time(n, k), n + 1):
        w_m = 0
        for h in range(_h_min(n, k, m), (n - m) // k + 1):
            v = v_mh(n, k, m, h)
            V[m, h] = v
            w_m += v
        W[m] = w_m
        probability += Fraction(w_m, m * math.comb(n, m))
    return ExactTables(n=n, k=k, V=V, W=W, probability=probability)


def success_probability_exact(n: int, k: int) -> Fraction:
    """Exact win probability of the optimal distance-aware rule on (n, k)."""
    return success_probabilities_exact([n], k)[n]


def success_probabilities_exact(ns: Iterable[int], k: int) -> dict[int, Fraction]:
    """Exact win probability on (n, k) for every n of the grid ``ns``, in one pass.

    Sums ``W[m] (m-1)! (n-m)!`` over the denominator n!, where ``W[m] =
    [x^(n-m)] (1 + x + ... + x^k)^(m-1)``.  These powers do not depend on n:
    ``row`` holds one up to degree top-m, the highest this or any later step
    reads, and the next power's are its sums over windows of width k+1.
    Every (n, k) is checked before any row work.  ``exact_tables`` is the
    composition-enumeration reference this equals.
    """
    totals = dict.fromkeys(ns, 0)
    for n in totals:
        _check_nk(n, k)
    top = max(totals, default=0)
    fact = list(accumulate(range(1, top + 1), operator.mul, initial=1))  # fact[i] = i!
    row = [1] + [0] * (top - 1)  # (1 + ... + x^k)^0 up to degree top-1
    for m in range(1, top + 1):
        for n in totals:
            if n >= m:
                totals[n] += row[n - m] * fact[m - 1] * fact[n - m]
        # Next row at r: row[r-k] + ... + row[r] = prefix[r+1] - prefix[r-k],
        # where prefix reads 0 below index 0.
        prefix = list(accumulate(row, initial=0))
        row = [hi - lo for hi, lo in zip(prefix[1:top - m + 1], [0] * k + prefix)]
    return {n: Fraction(total, fact[n]) for n, total in totals.items()}


def success_probability_k2(n: int) -> Fraction:
    """Collapsed form of the exact probability for k = 2."""
    if n < 3:
        raise ValueError(f"need n >= 3 for k=2, got {n}")
    total = Fraction(0)
    for m in range(min_condition_time(n, 2), n + 1):
        inner = sum(
            math.comb(m - 1, n - m - h) * math.comb(n - m - h, h)
            for h in range((n - m) // 2 + 1)
        )
        total += Fraction(inner, m * math.comb(n, m))
    return total


def conditional_success(n: int, k: int, m: int, c: int, b: int) -> Fraction:
    """P[current arrival is the sink | it is maximal] in a feasible state.

    The state is summarized by the arrival count m, component count c, and
    pending inner fillers b; the answer is 1/(n - m - k(c-1) - b + c).
    """
    _check_nk(n, k)
    if not (1 <= c <= m <= n) or b < 0:
        raise ValueError(f"infeasible state: n={n}, k={k}, m={m}, c={c}, b={b}")
    if n - m < k * (c - 1) + b:
        raise ValueError(
            f"infeasible state: n-m={n - m} < k(c-1)+b={k * (c - 1) + b}"
        )
    return Fraction(1, n - m - k * (c - 1) - b + c)


def asymptotic_upper_constant() -> float:
    """Gamma(4/3) * 3**(1/3): the k=2 maximum of the scaled upper bound."""
    return math.gamma(4 / 3) * 3 ** (1 / 3)


def upper_bound(n: int, k: int) -> float:
    """Upper bound on the exact probability via the Beta-integral estimate.

    For the two degenerate cases k in {n-2, n-1} the probability is exactly
    1/2, which is returned directly.
    """
    _check_nk(n, k)
    if k >= n - 2:
        return 0.5
    m = (n - 2) // (k + 1)
    alpha = 1 / (k + 1)
    if m < 10_000:
        return math.exp(math.lgamma(m + 1) + math.lgamma(1 + alpha) - math.lgamma(m + 1 + alpha))
    # lgamma(x) - lgamma(x + alpha) at x = m + 1 cancels two values near
    # x ln x, so its absolute error grows like 1e-16 x ln x: all of it by
    # n = 1e16.  The first two terms of its expansion in 1/x are off by at
    # most 0.0081 / x^2; either form stays within 1e-10 of the true ratio.
    x = m + 1
    return math.exp(math.lgamma(1 + alpha) - alpha * math.log(x) - alpha * (alpha - 1) / (2 * x))


def recommended_p(n: int, k: int, epsilon: float) -> float:
    """Coin bias p = 1 - (1-eps) * n**(-1/(k+1)) for the rejection rule."""
    _check_eps(n, k, epsilon)
    return 1.0 - (1.0 - epsilon) * n ** (-1.0 / (k + 1))


def lower_bound_tau_p(n: int, k: int, epsilon: float) -> float:
    """Analytic lower bound on the win probability of the rejection rule
    run at the recommended p."""
    _check_eps(n, k, epsilon)
    q = (1.0 - epsilon) * n ** (-1.0 / (k + 1))  # = 1 - p
    return (1.0 - (1.0 - epsilon) ** (k + 1)) * (1.0 - q) * q


def best_epsilon(n: int, k: int) -> float:
    """Grid-search epsilon maximizing the analytic lower bound."""
    return max(EPSILON_GRID, key=lambda e: lower_bound_tau_p(n, k, float(e)))


def _check_eps(n: int, k: int, epsilon: float) -> None:
    _check_below_degenerate(n, k, "bound")
    _check_epsilon(epsilon)


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


@dataclass(frozen=True)
class BoundReport:
    """Numeric bounds bracketing the exact probability for one (n, k)."""

    n: int
    k: int
    epsilon: float
    p: float
    lower: float
    upper: float
    asymptotic_constant: float


def bound_report(n: int, k: int, epsilon: float | None = None) -> BoundReport:
    if epsilon is None:
        epsilon = float(best_epsilon(n, k))
    return BoundReport(
        n=n,
        k=k,
        epsilon=epsilon,
        p=recommended_p(n, k, epsilon),
        lower=lower_bound_tau_p(n, k, epsilon),
        upper=upper_bound(n, k),
        asymptotic_constant=asymptotic_upper_constant(),
    )
