"""Reference values the benchmark checks stopflow's outputs against.

Nothing here imports stopflow.  The arrangement counts come from the
generating function instead of the package's composition enumeration:

    V[m, h] = [x^(n-m) y^h] (1 + x + ... + x^(k-1) + y x^k)^(m-1)
    W[m]    = sum_h V[m, h] = [x^(n-m)] (1 + x + ... + x^k)^(m-1)

Each coefficient is extracted in closed form by expanding the geometric
series (1 - x^(b+1))^p / (1 - x)^p binomially.  The probability is rebuilt
from the counts over the common denominator n!:

    P = sum_m W[m] / (m C(n, m)) = sum_m W[m] (m-1)! (n-m)! / n!

Monte Carlo estimates are judged with a Bernstein tail bound, which stays
valid where a plain normal band is not (few wins, e.g. first_max at large n).
"""
from __future__ import annotations

import math
from fractions import Fraction

# Standard deviations a pooled Monte Carlo count may stray from its reference.
Z = 6.0
# Grid the benchmark searches for the rejection rule's epsilon.
EPSILON_GRID = tuple(i / 10 for i in range(1, 10))


def bounded_compositions(total: int, parts: int, cap: int) -> int:
    """Number of (c_1..c_parts) with 0 <= c_i <= cap summing to ``total``:
    the coefficient of x^total in (1 + x + ... + x^cap)^parts."""
    if total < 0:
        return 0
    if parts == 0 or cap == 0:
        return 1 if total == 0 else 0
    if cap == 1:
        return math.comb(parts, total)
    out = 0
    for j in range(min(parts, total // (cap + 1)) + 1):
        term = math.comb(parts, j) * math.comb(total - j * (cap + 1) + parts - 1, parts - 1)
        out += -term if j & 1 else term
    return out


def arrangement_counts(n: int, k: int) -> dict[int, int]:
    """W[m] for every m with W[m] > 0."""
    counts = {}
    for m in range(2, n + 1):
        w = bounded_compositions(n - m, m - 1, k)
        if w:
            counts[m] = w
    return counts


def slice_counts(n: int, k: int, m: int) -> dict[int, int]:
    """V[m, h] for every h with V[m, h] > 0: h gaps take exactly k missing
    positions, the other m-1-h gaps at most k-1."""
    out = {}
    for h in range((n - m) // k + 1):
        v = math.comb(m - 1, h) * bounded_compositions(n - m - h * k, m - 1 - h, k - 1)
        if v:
            out[h] = v
    return out


def probability_from_counts(n: int, counts: dict[int, int]) -> Fraction:
    fact = [1] * (n + 1)
    for i in range(1, n + 1):
        fact[i] = fact[i - 1] * i
    num = sum(w * fact[m - 1] * fact[n - m] for m, w in counts.items())
    return Fraction(num, fact[n])


def classical_secretary(n: int, r: int) -> float:
    """Win probability of "reject r, then take the first relative best"."""
    if r == 0:
        return 1.0 / n
    return r / n * math.fsum(1.0 / (i - 1) for i in range(r + 1, n + 1))


def rejection_lower_bound(n: int, k: int, epsilon: float) -> float:
    """The paper's lower bound for the distance-blind rejection rule."""
    q = (1.0 - epsilon) * n ** (-1.0 / (k + 1))
    return (1.0 - (1.0 - epsilon) ** (k + 1)) * (1.0 - q) * q


def rejection_epsilon(n: int, k: int) -> float:
    return max(EPSILON_GRID, key=lambda e: rejection_lower_bound(n, k, e))


def rejection_p(n: int, k: int, epsilon: float) -> float:
    return 1.0 - (1.0 - epsilon) * n ** (-1.0 / (k + 1))


class Reference:
    """Exact values per (n, k), computed once per benchmark run."""

    def __init__(self) -> None:
        self._exact: dict[tuple[int, int], tuple[dict[int, int], Fraction]] = {}

    def exact(self, n: int, k: int) -> tuple[dict[int, int], Fraction]:
        key = (n, k)
        if key not in self._exact:
            counts = arrangement_counts(n, k)
            self._exact[key] = (counts, probability_from_counts(n, counts))
        return self._exact[key]

    def probability(self, n: int, k: int) -> Fraction:
        return self.exact(n, k)[1]


def bernstein_margin(variance: float, z: float = Z) -> float:
    """Deviation of a sum of independent [0, 1] variables that Bernstein's
    inequality bounds by exp(-z^2 / 2) on each side."""
    return z * math.sqrt(variance) + z * z / 3.0


def pooled_within(wins: int, expected: list[tuple[int, float]], z: float = Z) -> bool:
    """Whether a total win count matches trials x probability summed over calls."""
    mean = sum(t * p for t, p in expected)
    var = sum(t * p * (1.0 - p) for t, p in expected)
    return abs(wins - mean) <= bernstein_margin(var, z)


def pooled_not_below(wins: int, floors: list[tuple[int, float]], z: float = Z) -> bool:
    """Whether a total win count is not significantly below the summed floors."""
    mean = sum(t * p for t, p in floors)
    var = sum(t * p * (1.0 - p) for t, p in floors)
    return wins >= mean - bernstein_margin(var, z)
