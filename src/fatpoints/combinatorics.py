"""Exact integer combinatorics behind the dimension counts.

Everything here is pure integer (or exact rational) arithmetic: binomial
coefficients, rising factorials, and the inequality functions that decide
whether removing a multiple divisor from a fat-point system can raise its
virtual dimension. Python ints are arbitrary precision, so nothing here needs
an overflow guard (verify's eta grid check, in int64 arrays, bounds its own).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence


def binom(a: int, b: int) -> int:
    """Binomial coefficient C(a, b) with the "0 when b < 0 or b > a" convention.

    Negative tops are rejected: every formula in this package keeps its tops
    nonnegative via explicit degree guards, so a negative ``a`` signals a
    caller bug rather than a request for the generalized binomial.
    """
    if a < 0:
        raise ValueError(f"binom: negative top {a}")
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def rising(r: int, z: int) -> int:
    """Rising factorial (r)_(z) = (r+1)(r+2)...(r+z); 1 if z == 0, 0 if z < 0."""
    if r < 0:
        raise ValueError(f"rising: negative base {r}")
    if z < 0:
        return 0
    out = 1
    for i in range(1, z + 1):
        out *= r + i
    return out


def neighbourhood_count(n: int, s: int, d: int, k: int, e: int = 1, c: int = 1, points: Sequence[int] = ()) -> int:
    """sum_{j<k} C(n-s-1+j, j) f(d e - c j - sum_{m in points} (m - j)+): the
    conditions that vanishing to order k along Y = P^s, embedded by O(e) with
    N_Y = O(c)^(n-s), costs the degree-d forms of P^n with multiplicity m at
    the points on Y. f(a) = h0(O_{P^s}(a)) = C(a+s, s), 0 for a < 0.

    I^j/I^(j+1) = Sym^j N*_Y for the ideal I of Y, so h0(O_kY(d)) is at most
    the sum with no points: for the rational normal curve of P^n (s = 1, e = n,
    c = n + 2) at k = 2 and d >= 2, dn + 1 + (n - 1)(dn - n - 1) = (d - 1)n^2 + 2.
    In normal coordinates x' of a linear Y, F = sum_beta x'^beta F_beta, and F
    vanishes to order k along Y when F_beta = 0 for |beta| < k; F_beta of order
    j is a form of degree d - j on Y, already of order (m - j)+ at a point of
    multiplicity m. At d = m - 1 with no points the sum is the length an m-fold
    point shares with the k-fold Y, the whole point C(m+n-1, n) once k >= m.
    A rational curve C of degree e in P^3 has deg N_C = 4e - 2, so c = 2e - 1
    gives chi(O_kC(d)), balanced or not, wherever every term has a >= 0: at
    k = 2 and d >= 2 that is 3de - 4e + 5.
    """
    if not 0 <= s < n:
        raise ValueError(f"neighbourhood_count: need 0 <= s < n, got s={s}, n={n}")
    out = 0
    for j in range(k):
        a = d * e - c * j - sum(max(m - j, 0) for m in points)
        if a >= 0:
            out += binom(n - s - 1 + j, j) * binom(a + s, s)
    return out


def phi_hyp(d: int, e: int, n: int) -> int:
    """Feasibility margin for a double degree-e hypersurface on P^n systems.

    phi(d,e,n) = C(d+n,n) - C(d-2e+n,n) - (n+1)C(e+n,n) + n + 1.
    A simple smooth hypersurface of degree e through enough double points can
    be a 2-special-effect variety for a degree-d system exactly when this is
    negative (the point-count window is then nonempty).
    """
    if n < 2 or e < 1 or d < 2 * e:
        raise ValueError(f"phi_hyp: need d >= 2e >= 2 and n >= 2, got {(d, e, n)}")
    return binom(d + n, n) - binom(d - 2 * e + n, n) - (n + 1) * binom(e + n, n) + n + 1


def psi_hyp_alpha1(d: int, e: int, n: int) -> int:
    """Analogue of :func:`phi_hyp` for removing the hypersurface only once.

    psi(d,e,n) = C(d+n,n) - C(d-e+n,n) - n*C(e+n,n) + n. At d = 2e this equals
    phi_hyp(2e,e,n), which is why the single-removal case contributes no new
    examples.
    """
    if n < 2 or e < 1 or d < 2 * e:
        raise ValueError(f"psi_hyp_alpha1: need d >= 2e >= 2 and n >= 2, got {(d, e, n)}")
    return binom(d + n, n) - binom(d - e + n, n) - n * binom(e + n, n) + n


def A_ratio(e: int, n: int) -> Fraction:
    """Exact rational A(e) = (n+e+1)...(n+2e) / ((e+1)...(2e)) - n - 1.

    Strictly increasing in e (for fixed n); its sign at e = 3 drives the
    nonnegativity of phi_hyp for d >= 2e >= 6, n >= 3.
    """
    if e < 1 or n < 1:
        raise ValueError(f"A_ratio: need e >= 1 and n >= 1, got {(e, n)}")
    return Fraction(rising(n + e, e), rising(e, e)) - (n + 1)


def linear_expected_h0(n: int, d: int, mults: Sequence[int]) -> int:
    """h0 of degree-d forms on P^n with multiplicity m_i at s <= n+2 general
    points: the linear expected dimension plus one, C(n+d, n) +
    sum_{r<n} sum_{|I|=r+1} (-1)^(r+1) C(n+k_I-r-1, n), where
    k_I = max(sum_{i in I} m_i - r d, 0) is the multiplicity of the span of
    the points I in the base locus. Brambilla, Dumitrescu and Postinghel ("On
    a notion of speciality of linear systems in P^n", Trans. AMS 2015) prove
    it is h0 for s <= n+2 points in general position with every m_i <= d and
    sum m_i <= n d; for s <= n+1 it is the inclusion-exclusion count of the
    monomials x^a with a_i <= d - m_i. Otherwise the system is empty: x^a
    vanishes to order d - a_i at the i-th coordinate point, which sum to n d,
    and the rational normal curves through n+2 general points cover P^n.
    """
    s = [m for m in mults if m > 0]
    if n < 1 or d < 0 or len(s) > n + 2:
        raise ValueError(f"linear_expected_h0: need n >= 1, d >= 0, at most n+2 points, got {(n, d, s)}")
    if any(m > d for m in s) or sum(s) > n * d:
        return 0
    out = binom(n + d, n)
    for r in range(min(n, len(s))):
        for I in combinations(s, r + 1):
            out += (-1) ** (r + 1) * binom(n + max(sum(I) - r * d, 0) - r - 1, n)
    return out
