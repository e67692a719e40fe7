from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from fatpoints.combinatorics import (
    A_ratio,
    binom,
    linear_expected_h0,
    neighbourhood_count,
    phi_hyp,
    psi_hyp_alpha1,
    rising,
)
from fatpoints.effect_varieties import p3_rational_curve_chi
from fatpoints.systems import Space, point_conditions


def pascal_binom(a: int, b: int) -> int:
    """Independent route: Pascal's triangle, no factorials."""
    if b < 0 or b > a:
        return 0
    row = [1]
    for _ in range(a):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[b]


def test_binom_examples():
    assert binom(6, 2) == 15
    assert binom(4, 3) == 4
    assert binom(3, 5) == 0
    assert binom(5, -1) == 0


def test_binom_rejects_negative_top():
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_matches_pascal():
    for a in range(12):
        for b in range(-2, 14):
            assert binom(a, b) == pascal_binom(a, b)


def test_rising_examples():
    assert rising(5, 0) == 1
    assert rising(5, -2) == 0
    assert rising(3, 2) == 20
    with pytest.raises(ValueError):
        rising(-1, 2)


def test_phi_hyp_examples():
    assert phi_hyp(2, 1, 2) == -1
    assert phi_hyp(4, 2, 3) == -2
    assert phi_hyp(4, 2, 5) == 5


def test_phi_hyp_closed_form_quartic():
    # phi(4,2,n) = n(n^3 - 2n^2 - 13n + 14)/24
    for n in range(2, 12):
        assert phi_hyp(4, 2, n) == n * (n**3 - 2 * n**2 - 13 * n + 14) // 24


def test_phi_hyp_preconditions():
    with pytest.raises(ValueError):
        phi_hyp(3, 2, 3)  # d < 2e
    with pytest.raises(ValueError):
        phi_hyp(2, 1, 1)  # n < 2


def test_psi_examples_and_identity_at_2e():
    assert psi_hyp_alpha1(4, 2, 3) == phi_hyp(4, 2, 3) == -2
    assert psi_hyp_alpha1(2, 1, 2) == -1
    for e in range(1, 11):
        for n in range(2, 11):
            assert psi_hyp_alpha1(2 * e, e, n) == phi_hyp(2 * e, e, n)


def test_psi_dual_evaluation():
    # independent evaluation straight from the binomial expression
    for d, e, n in [(5, 2, 3), (6, 3, 4), (7, 2, 2)]:
        direct = (
            pascal_binom(d + n, n)
            - pascal_binom(d - e + n, n)
            - n * pascal_binom(e + n, n)
            + n
        )
        assert psi_hyp_alpha1(d, e, n) == direct


def test_A_ratio_values():
    assert A_ratio(3, 3) == Fraction(1, 5)
    assert A_ratio(1, 3) == Fraction(-3, 2)
    assert A_ratio(4, 3) > A_ratio(3, 3)
    # closed form A(3) = n(n^2 + 15n - 46)/120
    for n in range(1, 10):
        assert A_ratio(3, n) == Fraction(n * (n * n + 15 * n - 46), 120)


def test_A_ratio_monotone_grid():
    for e in range(1, 11):
        for n in range(3, 11):
            assert A_ratio(e + 1, n) > A_ratio(e, n)


def test_phi_monotone_in_d_small_grid():
    for e in range(1, 6):
        for n in range(2, 7):
            for d in range(2 * e, 20):
                assert phi_hyp(d + 1, e, n) >= phi_hyp(d, e, n)


def test_rising_identity_small_grid():
    for r in range(1, 7):
        for s in range(1, 7):
            for t in range(1, 7):
                lhs = rising(r + s, t)
                assert lhs == rising(s, t) + r * sum(
                    rising(s, i - 1) * rising(r + s + i, t - i) for i in range(1, t + 1)
                )
                assert lhs >= rising(s, t - 1) * (s + t + r * t)


def toric_count(n: int, d: int, mults) -> int:
    """Independent route for s <= n+1 points, placed at coordinate points:
    x^a vanishes to order d - a_i at the i-th, so count the exponents a with
    a_i <= d - m_i, one by one."""
    def count(free: int, left: int, caps) -> int:
        if free == 0:
            return int(left == 0)
        cap = caps[0] if caps else left
        return sum(count(free - 1, left - a, caps[1:]) for a in range(min(cap, left) + 1))
    return count(n + 1, d, [d - m for m in mults])


def test_linear_expected_h0_examples():
    # the sextic with three quadruple points in P^3 and the octics of degree
    # 14 with four 8-fold points: their lines are in the base locus, so h0
    # is above the floor (24 and 200)
    assert linear_expected_h0(3, 6, [4, 4, 4]) == 27
    assert linear_expected_h0(3, 14, [8, 8, 8, 8]) == 206
    # quadrics singular at h <= n points are the quadratic forms on the
    # quotient by the span of the points
    for n in range(1, 8):
        for h in range(n + 1):
            assert linear_expected_h0(n, 2, [2] * h) == binom(n - h + 2, 2), (n, h)
    # empty: a multiplicity above d, or multiplicities summing above n d
    assert linear_expected_h0(2, 3, [4]) == 0
    assert linear_expected_h0(2, 3, [2, 2, 2, 2]) == 0
    assert linear_expected_h0(3, 2, [2, 2, 2, 1]) == 0
    with pytest.raises(ValueError):
        linear_expected_h0(2, 3, [1] * 5)


def test_linear_expected_h0_is_the_toric_count():
    for n in range(1, 5):
        for d in range(7 - n):
            for s in range(n + 2):
                for mults in combinations_with_replacement(range(1, d + 2), s):
                    assert linear_expected_h0(n, d, mults) == toric_count(n, d, mults), (n, d, mults)


def test_neighbourhood_count_is_the_monomial_count():
    # forms of degree d modulo those vanishing to order m along the P^s
    # x_{s+1} = ... = x_n = 0: the monomials whose degree in x_{s+1..n} is
    # below m, counted one exponent vector at a time
    for n in range(1, 6):
        for d in range(9):
            exps = [a for a in product(range(d + 1), repeat=n + 1) if sum(a) == d]
            for s in range(n):
                for m in range(10):
                    want = sum(1 for a in exps if sum(a[s + 1 :]) < m)
                    assert neighbourhood_count(n, s, d, m) == want, (n, s, d, m)
    with pytest.raises(ValueError):
        neighbourhood_count(3, 3, 2, 1)


def test_neighbourhood_count_closed_forms():
    # the double rational normal curve, N_C = O(n+2)^(n-1): (d-1)n^2 + 2 for
    # d >= 2; at d = 1 the normal term has no sections, which leaves the
    # n + 1 of O_C(n)
    for n in range(2, 8):
        for d in range(1, 12):
            h0 = neighbourhood_count(n, 1, d, 2, e=n, c=n + 2)
            assert h0 == ((d - 1) * n * n + 2 if d >= 2 else n + 1), (n, d)
    # a rational curve of degree e in P^3: chi(O_2C(d)) = 3de - 4e + 5; the
    # count is chi except at d = 1, e >= 3, where de - 2e + 1 < -1
    for e in range(1, 9):
        for d in range(1, 12):
            chi = 3 * d * e - 4 * e + 5
            assert p3_rational_curve_chi(d, e) == pascal_binom(d + 3, 3) - chi
            h0 = neighbourhood_count(3, 1, d, 2, e=e, c=2 * e - 1)
            assert (h0 == chi) == (d > 1 or e < 3), (d, e)
    assert p3_rational_curve_chi(1, 3) == 2
    # chi(O_2C) = 5 - 4e, so the constants leave 1 - (5 - 4e) at d = 0
    for e in range(1, 9):
        assert p3_rational_curve_chi(0, e) == 4 * e - 4


def test_neighbourhood_count_line_excess():
    # the line through points of multiplicity mi and mj, written out: the
    # normal derivatives of order r are binary forms of degree d - r with a
    # (mi - r)+-fold and a (mj - r)+-fold point
    for n in range(2, 6):
        for d in range(9):
            for mi in range(7):
                for mj in range(mi + 1):
                    for alpha in range(1, d + 4):
                        want = sum(
                            pascal_binom(n - 2 + r, r)
                            * max(d - r + 1 - max(mi - r, 0) - max(mj - r, 0), 0)
                            for r in range(alpha)
                        )
                        got = neighbourhood_count(n, 1, d, alpha, points=(mi, mj))
                        assert got == want, (n, d, mi, mj, alpha)


def line_point_overlap(m: int, alpha: int, n: int) -> int:
    """Length of the intersection of an m-fold point with the alpha-fold
    structure on a line through it (inside P^n), written out as the jets of
    normal order k < min(alpha, m), each with m - k tangent orders."""
    return sum(pascal_binom(k + n - 2, n - 2) * (m - k) for k in range(min(alpha, m)))


def test_point_term_of_the_removal_count():
    # an m-fold point meets the alpha-fold P^s in neighbourhood_count(n, s,
    # m - 1, alpha): on a line that is the written-out overlap above, and
    # once alpha >= m it is the whole point
    for n in range(2, 8):
        for m in range(1, 12):
            for alpha in range(1, 14):
                want = line_point_overlap(m, alpha, n)
                assert neighbourhood_count(n, 1, m - 1, alpha) == want, (n, m, alpha)
    for n in range(1, 7):
        for s in range(n):
            for m in range(1, 8):
                for k in range(m, m + 4):
                    want = point_conditions(m, Space((n,)))
                    assert neighbourhood_count(n, s, m - 1, k) == want, (n, s, m, k)
