import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stopflow import (
    PathPower,
    best_epsilon,
    bound_report,
    compositions,
    conditional_success,
    exact_tables,
    lower_bound_tau_p,
    recommended_p,
    success_probabilities_exact,
    success_probability_exact,
    success_probability_k2,
    upper_bound,
    v_mh,
)
from stopflow import exact as exact_module
from stopflow.exact import asymptotic_upper_constant, composition_count, min_condition_time
from stopflow.oracle import canonical_info_state
from stopflow.verify import bounds_grid


# ---------------------------------------------------------------------------
# compositions
# ---------------------------------------------------------------------------

def test_compositions_examples():
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert set(compositions(2, 2)) == {(2, 0), (0, 1)}
    assert list(compositions(3, 1)) == [(3,)]


def test_compositions_zero_parts():
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(2, 0)) == []


def test_compositions_rejects_negative():
    with pytest.raises(ValueError):
        list(compositions(-1, 2))
    with pytest.raises(ValueError):
        list(compositions(1, -1))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=5))
def test_compositions_properties(r, parts):
    seen = list(compositions(r, parts))
    assert all(sum((i + 1) * a for i, a in enumerate(tup)) == r for tup in seen)
    assert all(all(a >= 0 for a in tup) for tup in seen)
    assert len(set(seen)) == len(seen)
    assert seen == sorted(seen)
    # exhaustive: every tuple bounded by r satisfying the weight shows up
    brute = [
        tup
        for tup in itertools.product(range(r + 1), repeat=parts)
        if sum((i + 1) * a for i, a in enumerate(tup)) == r
    ]
    assert set(seen) == set(brute)


def test_composition_count_is_what_exact_tables_enumerates(monkeypatch):
    yielded = 0

    def counted(r, parts):
        nonlocal yielded
        for tup in compositions(r, parts):
            yielded += 1
            yield tup

    monkeypatch.setattr(exact_module, "compositions", counted)
    grid = [(n, k) for n in range(2, 15) for k in range(1, n)] + [(30, 8), (20, 5), (12, 3)]
    for n, k in grid:
        yielded = 0
        exact_tables.__wrapped__(n, k)  # past the cache, so every composition is drawn
        assert composition_count(n, k) == yielded, (n, k)
    # The sizes the guard of ``stopflow exact`` is set from.
    assert [composition_count(n, k) for n, k in ((46, 5), (45, 22), (500, 3), (60, 30))] == [
        11_225, 304_799, 1_181_838, 4_072_719]


def test_exact_tables_calls_v_mh_only_on_the_slices_it_stores(monkeypatch):
    returned = []

    def counted(*args):
        returned.append(v_mh(*args))
        return returned[-1]

    monkeypatch.setattr(exact_module, "v_mh", counted)
    for n in range(2, 15):
        for k in range(1, n):
            returned.clear()
            tabs = exact_tables.__wrapped__(n, k)
            assert len(returned) == len(tabs.V) and all(returned), (n, k)


# ---------------------------------------------------------------------------
# arrangement counts
# ---------------------------------------------------------------------------

def subset_counts(n: int, k: int, m: int) -> dict[int, int]:
    """Oracle: count m-subsets containing 1 and n whose maximal missing runs
    are all <= k, keyed by the number of runs of length exactly k."""
    by_h: dict[int, int] = {}
    for subset in itertools.combinations(range(1, n + 1), m):
        if subset[0] != 1 or subset[-1] != n:
            continue
        runs = []
        for a, b in zip(subset, subset[1:]):
            if b - a > 1:
                runs.append(b - a - 1)
        if any(r > k for r in runs):
            continue
        h = sum(1 for r in runs if r == k)
        by_h[h] = by_h.get(h, 0) + 1
    return by_h


def test_v_mh_examples():
    assert v_mh(5, 2, 3, 1) == 2
    assert v_mh(5, 2, 3, 0) == 1
    for n, k in [(5, 2), (7, 3), (9, 4)]:
        assert v_mh(n, k, n, 0) == 1


def test_v_mh_range_checks():
    with pytest.raises(ValueError):
        v_mh(5, 2, 2, 0)  # m below the feasible range
    with pytest.raises(ValueError):
        v_mh(5, 2, 3, 2)  # h too large
    with pytest.raises(ValueError):
        v_mh(5, 2, 6, 0)  # m > n


def test_tables_match_subset_enumeration():
    for n in range(3, 9):
        for k in range(1, n):
            tabs = exact_tables(n, k)
            assert all(v > 0 for v in tabs.V.values())
            positive = set()
            for m in range(min_condition_time(n, k), n + 1):
                by_h = subset_counts(n, k, m)
                assert tabs.W[m] == sum(by_h.values())
                for h in range((n - m) // k + 1):
                    assert tabs.V.get((m, h), 0) == by_h.get(h, 0)
                positive |= {(m, h) for h, count in by_h.items() if count}
            assert set(tabs.V) == positive


def test_no_qualifying_subsets_below_range():
    for n in range(3, 9):
        for k in range(1, n):
            for m in range(1, min_condition_time(n, k)):
                assert subset_counts(n, k, m) == {}


# ---------------------------------------------------------------------------
# success probability
# ---------------------------------------------------------------------------

def test_success_probability_golden_values():
    assert success_probability_exact(4, 2) == Fraction(1, 2)
    assert success_probability_exact(5, 4) == Fraction(1, 2)
    assert success_probability_exact(3, 1) == Fraction(1, 2)
    assert success_probability_exact(5, 2) == Fraction(9, 20)
    assert success_probability_exact(6, 2) == Fraction(13, 30)


def test_success_probability_rejects_bad_power():
    with pytest.raises(ValueError):
        success_probability_exact(5, 5)
    with pytest.raises(ValueError):
        success_probability_exact(5, 0)


def test_degenerate_powers_give_one_half():
    for n in range(3, 9):
        assert success_probability_exact(n, n - 1) == Fraction(1, 2)
        assert success_probability_exact(n, n - 2) == Fraction(1, 2)


def test_generating_function_matches_composition_tables():
    cases = [(n, k) for n in range(2, 21) for k in range(1, n)]
    for n, k in cases + [(60, 6), (100, 2), (200, 1)]:
        assert success_probability_exact(n, k) == exact_tables(n, k).probability


def test_k2_simplification_matches_general_form():
    for n in range(3, 201):
        assert success_probability_k2(n) == success_probability_exact(n, 2)


def k1_binomial_form(n):
    # With a single gap width the arrangement count collapses to one binomial.
    return sum(
        Fraction(math.comb(m - 1, n - m), m * math.comb(n, m))
        for m in range(-((n + 1) // -2), n + 1)
    )


def test_k1_reduction_matches_general_form():
    for n in range(2, 31):
        assert k1_binomial_form(n) == success_probability_exact(n, 1)


# One row pass per k serves a whole n-grid; each test below checks it
# against a reference that never reads the coefficient rows.

def test_grid_matches_composition_tables():
    for k in range(1, 30):
        grid = success_probabilities_exact(range(k + 1, 31), k)
        assert list(grid) == list(range(k + 1, 31))
        for n, p in grid.items():
            assert p == exact_tables(n, k).probability, (n, k)


def test_grid_matches_k2_collapsed_form():
    ns = bounds_grid(2, 400)
    assert success_probabilities_exact(ns, 2) == {n: success_probability_k2(n) for n in ns}


def test_grid_matches_k1_binomial_form():
    ns = range(2, 61)
    assert success_probabilities_exact(ns, 1) == {n: k1_binomial_form(n) for n in ns}


# Linear recurrences with polynomial coefficients, sum_j c_j(n) p_{n+j} = 0,
# a reference that shares nothing with the row pass but its first values.
# Each c_j is listed by its coefficients in n, constant term first.  They
# were guessed from the row pass's first values and solved exactly over Q;
# each holds from the first n the row pass defines, n = k + 1.
RECURRENCES = {
    # 3(n+2) p_{n+2} = (2n+3) p_{n+1} + (n+1) p_n
    1: [(1, 1), (3, 2), (-6, -3)],
    # 3(n+1)(n+2) p_n + 2n(n+2) p_{n+1} + (3n^2+7n-4) p_{n+2}
    #     - 4(6n^2+29n+31) p_{n+3} + 16(n+2)(n+4) p_{n+4} = 0
    2: [(6, 9, 3), (0, 4, 2), (-4, 7, 3), (-124, -116, -24), (128, 96, 16)],
}


def recurrence_coefficients(k, n):
    """[j]: c_j(n) of the recurrence for k."""
    return [sum(c * n**i for i, c in enumerate(poly)) for poly in RECURRENCES[k]]


def recurrence_values(k, top):
    """p_n for n = k+1..top, run forward from the recurrence's first values."""
    order = len(RECURRENCES[k]) - 1
    p = {n: success_probability_exact(n, k) for n in range(k + 1, k + 1 + order)}
    for n in range(k + 1, top - order + 1):
        *lower, lead = recurrence_coefficients(k, n)
        p[n + order] = -sum(c * p[n + j] for j, c in enumerate(lower)) / lead
    return p


@pytest.mark.parametrize("k", sorted(RECURRENCES))
def test_row_pass_satisfies_the_recurrence(k):
    p = success_probabilities_exact(range(k + 1, 601), k)
    order = len(RECURRENCES[k]) - 1
    for n in range(k + 1, 601 - order):
        terms = recurrence_coefficients(k, n)
        assert sum(c * p[n + j] for j, c in enumerate(terms)) == 0, (k, n)


def test_recurrences_reach_the_closed_forms():
    p1 = recurrence_values(1, 300)
    for n in (2, 3, 4, 17, 100, 300):
        assert p1[n] == k1_binomial_form(n), n
    p2 = recurrence_values(2, 300)
    for n in (3, 6, 7, 8, 41, 150, 300):
        assert p2[n] == success_probability_k2(n), n


# Each recurrence's characteristic polynomial, sum_j (leading coefficient of
# c_j in n) x^j, by its factors, constant term first: (x-1)(3x+1) for k = 1
# and (x-1)^2 (16x^2+8x+3) for k = 2.
CHARACTERISTIC_FACTORS = {1: [(-1, 1), (1, 3)], 2: [(-1, 1), (-1, 1), (3, 8, 16)]}


def poly_product(*factors):
    """The product of polynomials given by coefficients, constant term first."""
    out = [Fraction(1)]
    for factor in factors:
        longer = [Fraction(0)] * (len(out) + len(factor) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(factor):
                longer[i + j] += a * b
        out = longer
    return out


def monic(poly):
    """``poly`` over its leading coefficient, trailing zeros dropped; [] if it is 0."""
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    return [Fraction(c) / poly[-1] for c in poly]


def indicial_polynomial(k, s):
    """E_s(a): the coefficient of n^(a + d - s) in sum_j c_j(n) (n + j)^a, as a
    polynomial in a, for c_j of degree d.  With (n + j)^a = n^a sum_m
    binom(a, m) j^m n^(-m), it is sum_m binom(a, m) sum_j [n^(d-s+m)] c_j j^m."""
    d = len(RECURRENCES[k][0]) - 1
    out = [Fraction(0)] * (s + 1)
    binom = [Fraction(1)]  # binom(a, m) as a polynomial in a
    for m in range(s + 1):
        weight = sum(poly[d - s + m] * j**m for j, poly in enumerate(RECURRENCES[k]))
        for i, c in enumerate(binom):
            out[i] += weight * c
        binom = [c / (m + 1) for c in poly_product(binom, (-m, 1))]
    return out


@pytest.mark.parametrize("k", sorted(RECURRENCES))
def test_recurrence_characteristic_polynomial(k):
    assert {len(poly) for poly in RECURRENCES[k]} == {k + 1}  # every c_j of degree k
    chi = [poly[-1] for poly in RECURRENCES[k]]
    assert monic(chi) == monic(poly_product(*CHARACTERISTIC_FACTORS[k]))


@pytest.mark.parametrize("k", sorted(RECURRENCES))
def test_recurrence_indicial_roots_at_one(k):
    # x = 1 is a k-fold characteristic root, so for p_n ~ n^a the first k
    # orders of sum_j c_j(n) p_{n+j} vanish for every a, and the next one
    # vanishes exactly at the indicial roots a = -j/(k+1), j = 1..k.
    for s in range(k):
        assert monic(indicial_polynomial(k, s)) == [], (k, s)
    roots = [Fraction(-j, k + 1) for j in range(1, k + 1)]
    assert monic(indicial_polynomial(k, k)) == poly_product(*((-r, 1) for r in roots))


def test_grid_values_do_not_depend_on_the_grid():
    full = success_probabilities_exact(range(4, 41), 3)
    for ns in ([40, 12, 7], [40, 12, 7][::-1], range(40, 3, -1), [9, 9, 30, 9], [17]):
        assert success_probabilities_exact(ns, 3) == {n: full[n] for n in ns}
    assert success_probability_exact(17, 3) == full[17]


def test_empty_grid_is_empty():
    assert success_probabilities_exact([], 2) == {}


@pytest.mark.parametrize("n, k", [(5, 5), (2, 2), (1, 1)])
def test_grid_with_one_invalid_point_raises_the_one_point_error(n, k):
    with pytest.raises(ValueError) as one_point:
        success_probability_exact(n, k)
    with pytest.raises(ValueError) as grid:
        success_probabilities_exact([k + 3, n, 30], k)
    assert str(grid.value) == str(one_point.value)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=14))
def test_success_probability_matches_plain_subset_enumeration(n):
    # Slow reference: every arrival set holding 1 and n counts 1/(m C(n, m))
    # under each k that no run of missing positions exceeds.
    sets_by_m_and_gap: dict[tuple[int, int], int] = {}
    for bits in range(1 << (n - 2)):
        present = [1, *(q for q in range(2, n) if bits >> (q - 2) & 1), n]
        gap = max(b - a - 1 for a, b in zip(present, present[1:]))
        key = (len(present), gap)
        sets_by_m_and_gap[key] = sets_by_m_and_gap.get(key, 0) + 1
    for k in range(1, n):
        expected = sum(Fraction(count, m * math.comb(n, m))
                       for (m, gap), count in sets_by_m_and_gap.items() if gap <= k)
        assert success_probability_exact(n, k) == expected, (n, k)


def test_probability_lies_in_unit_interval():
    for n in range(2, 12):
        for k in range(1, n):
            p = success_probability_exact(n, k)
            assert 0 < p <= 1


# ---------------------------------------------------------------------------
# conditional success
# ---------------------------------------------------------------------------

def test_conditional_success_golden_state():
    # the state reached at t=6 of the golden trace: two components, one
    # pending inner vertex
    assert conditional_success(9, 2, 6, 2, 1) == Fraction(1, 2)


def test_conditional_success_golden_state_by_prefix_counting():
    # Frequency oracle: over all length-6 arrival prefixes of the n=9, k=2
    # graph, restrict to the information class of the golden prefix and count
    # how often the latest arrival is the sink.
    g = PathPower(9, 2)
    target = canonical_info_state(g, (2, 9, 4, 7, 3, 1))
    members = 0
    sink_last = 0
    for prefix in itertools.permutations(range(1, 10), 6):
        if canonical_info_state(g, prefix) == target:
            members += 1
            sink_last += prefix[-1] == 1
    assert members > 0
    assert Fraction(sink_last, members) == Fraction(1, 2)


def test_conditional_success_zero_slack_is_one_over_components():
    for n in range(3, 10):
        for k in range(1, n):
            for c in range(1, 4):
                for b in range(0, 3):
                    m = n - k * (c - 1) - b
                    if m < c or m > n:
                        continue
                    assert conditional_success(n, k, m, c, b) == Fraction(1, c)


def test_conditional_success_full_graph():
    assert conditional_success(7, 2, 7, 1, 0) == 1


def test_conditional_success_rejects_infeasible():
    with pytest.raises(ValueError):
        conditional_success(9, 2, 8, 3, 0)  # needs 4 connectors, only 1 left
    with pytest.raises(ValueError):
        conditional_success(9, 2, 5, 0, 0)
    with pytest.raises(ValueError):
        conditional_success(9, 2, 5, 1, -1)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_upper_bound_examples():
    assert abs(upper_bound(5, 2) - 0.75) < 1e-12
    assert upper_bound(4, 2) == 0.5
    assert upper_bound(5, 4) == 0.5


def test_upper_bound_matches_beta_integral():
    # independent high-precision oracle for the closed form
    for n, k in [(5, 2), (10, 1), (20, 2), (50, 3), (200, 2), (150, 1)]:
        m = (n - 2) // (k + 1)
        expected = float(m * mpmath.beta(1 + mpmath.mpf(1) / (k + 1), m))
        assert abs(upper_bound(n, k) - expected) <= 1e-12 * expected


def test_upper_bound_keeps_its_precision_at_huge_n():
    # A difference of two lgamma values near m ln m lost all precision by
    # n = 1e16 (k = 1) and returned 1.0; it was off by 2e-7 from n = 1e9.
    for n in (10 ** e for e in range(6, 24)):
        for k in range(1, 5):
            m = (n - 2) // (k + 1)
            with mpmath.workdps(30):
                expected = m * mpmath.beta(1 + mpmath.mpf(1) / (k + 1), m)
                assert abs(upper_bound(n, k) / expected - 1) <= 1e-12, (n, k)


def test_asymptotic_constant():
    expected = float(mpmath.gamma(mpmath.mpf(4) / 3) * mpmath.cbrt(3))
    c = asymptotic_upper_constant()
    assert abs(c - expected) <= 1e-12
    assert round(c, 2) == 1.29
    assert c <= 1.2879


def test_lower_bound_direct_arithmetic():
    # spelled-out evaluation of the displayed product at n=100, k=2, eps=0.5
    q = 0.5 * 100 ** (-1 / 3)
    expected = (1 - 0.5**3) * (1 - q) * q
    assert abs(lower_bound_tau_p(100, 2, 0.5) - expected) < 1e-15
    assert abs(recommended_p(100, 2, 0.5) - (1 - q)) < 1e-15


def test_lower_bound_first_factor_tends_to_one():
    assert lower_bound_tau_p(100, 2, 0.999) / (
        (1 - 0.001 * 100 ** (-1 / 3)) * 0.001 * 100 ** (-1 / 3)
    ) == pytest.approx(1 - 0.001**3)


def test_lower_bound_domain_checks():
    with pytest.raises(ValueError):
        lower_bound_tau_p(100, 2, 0.0)
    with pytest.raises(ValueError):
        lower_bound_tau_p(100, 2, 1.0)
    with pytest.raises(ValueError):
        lower_bound_tau_p(5, 3, 0.5)  # k >= n-2


def test_best_epsilon_is_grid_argmax():
    for n, k in [(50, 1), (100, 2), (200, 3)]:
        eps = best_epsilon(n, k)
        values = [lower_bound_tau_p(n, k, i / 10) for i in range(1, 10)]
        assert lower_bound_tau_p(n, k, float(eps)) == max(values)


def test_bound_report_brackets_exact_value():
    for n, k in [(20, 1), (30, 2), (40, 3)]:
        rep = bound_report(n, k)
        p = float(success_probability_exact(n, k))
        assert rep.lower <= p < rep.upper
        assert 0.0 < rep.p < 1.0
