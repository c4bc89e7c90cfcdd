"""Exact rational evaluation of the success probability and analytic bounds.

The win probability of the slack-triggered rule decomposes over the time m
at which the triggering condition first can hold.  The count ``W[m]`` of
qualifying arrival sets (those holding positions 1 and n whose missing
positions all fit in gaps of width at most k) spreads the n-m missing
positions over the m-1 gaps between arrivals, so

    W[m] = [x^(n-m)] (1 + x + ... + x^k)^(m-1),

and the probability is

    sum over m of  W[m] / (m * C(n, m))  =  sum over m of  W[m] (m-1)! (n-m)! / n!.

Two paths compute it.  ``success_probability_exact`` reads ``W`` off the
generating function's coefficient rows, with big integers over the one
denominator n!.  ``exact_tables`` counts the sets by composition
enumeration instead, splitting ``W[m] = sum_h V[m, h]`` where the h-th slice
holds the sets with exactly h+1 components; it gives the per-m breakdown of
``stopflow exact`` and is the slow reference the first path is tested
against.  Only the Gamma-function bounds use floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterator

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


@dataclass(frozen=True)
class ExactTables:
    """The full counting tables behind one exact probability."""

    n: int
    k: int
    V: dict[tuple[int, int], int]
    W: dict[int, int]
    probability: Fraction


def _check_nk(n: int, k: int) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")


@lru_cache(maxsize=256)
def exact_tables(n: int, k: int) -> ExactTables:
    _check_nk(n, k)
    V: dict[tuple[int, int], int] = {}
    W: dict[int, int] = {}
    probability = Fraction(0)
    for m in range(min_condition_time(n, k), n + 1):
        w_m = 0
        for h in range((n - m) // k + 1):
            v = v_mh(n, k, m, h)
            V[m, h] = v
            w_m += v
        W[m] = w_m
        probability += Fraction(w_m, m * math.comb(n, m))
    return ExactTables(n=n, k=k, V=V, W=W, probability=probability)


def success_probability_exact(n: int, k: int) -> Fraction:
    """Exact win probability of the optimal distance-aware rule on (n, k).

    Sums ``W[m] (m-1)! (n-m)!`` over the denominator n!, where
    ``W[m] = [x^(n-m)] (1 + x + ... + x^k)^(m-1)``.  ``row`` holds that
    power's coefficients up to degree n-m, the highest this or any later
    step reads; the next power's are its sums over windows of width k+1.
    ``W[m]`` is 0 for m below ``min_condition_time``.  No ``V`` table is
    built: ``exact_tables`` is the composition-enumeration reference this
    equals.
    """
    _check_nk(n, k)
    row = [1] + [0] * (n - 1)  # (1 + ... + x^k)^0 up to degree n-1
    total = 0
    for m in range(1, n + 1):
        total += row[n - m] * math.factorial(m - 1) * math.factorial(n - m)
        # Next row at r: row[r-k] + ... + row[r] = prefix[r+1] - prefix[r-k],
        # where prefix reads 0 below index 0.
        prefix = list(accumulate(row, initial=0))
        row = [hi - lo for hi, lo in zip(prefix[1:n - m + 1], [0] * k + prefix)]
    return Fraction(total, math.factorial(n))


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
    return math.exp(math.lgamma(m + 1) + math.lgamma(1 + alpha) - math.lgamma(m + 1 + alpha))


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
    _check_nk(n, k)
    if k >= n - 2:
        raise ValueError(f"bound needs 1 <= k < n-2, got k={k}, n={n}")
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
