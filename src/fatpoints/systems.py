"""Linear systems with fat base points and their virtual/expected dimensions.

A system lives on a product of projective spaces (a single P^n being the
one-factor case), carries one degree per factor, and a multiset of anonymous
fat points given as (multiplicity, count) groups. Points are anonymous
because the theory always places them in general position; actual coordinates
exist only inside the oracle module.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import product as iproduct
from typing import Sequence

from .combinatorics import binom, linear_expected_h0, neighbourhood_count


@dataclass(frozen=True)
class Space:
    """A product P^{n_1} x ... x P^{n_t}; factors = (n_1, ..., n_t)."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.factors) == 0:
            raise ValueError("Space needs at least one factor")
        if any(n < 1 for n in self.factors):
            raise ValueError(f"factor dimensions must be >= 1, got {self.factors}")

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    @property
    def n(self) -> int:
        """Dimension of a single projective space; only valid when t = 1."""
        if len(self.factors) != 1:
            raise ValueError("Space.n is only defined for a single factor")
        return self.factors[0]


@dataclass(frozen=True)
class FatPointGroup:
    multiplicity: int
    count: int

    def __post_init__(self) -> None:
        if self.multiplicity < 1 or self.count < 1:
            raise ValueError(f"invalid fat point group {self}")


@dataclass(frozen=True)
class LinearSystem:
    space: Space
    multidegree: tuple[int, ...]
    points: tuple[FatPointGroup, ...]

    def __post_init__(self) -> None:
        if len(self.multidegree) != self.space.nfactors:
            raise ValueError("multidegree length must match the number of factors")
        if any(d < 0 for d in self.multidegree):
            raise ValueError(f"degrees must be >= 0, got {self.multidegree}")

    @property
    def total_points(self) -> int:
        return sum(g.count for g in self.points)

    def first_points(self, h: int) -> LinearSystem:
        """The system cut to its first h points, groups taken in order."""
        if not (0 <= h <= self.total_points):
            raise ValueError(f"point count out of range: {h}")
        groups: list[FatPointGroup] = []
        for g in self.points:
            if h <= 0:
                break
            groups.append(FatPointGroup(g.multiplicity, min(g.count, h)))
            h -= g.count
        return LinearSystem(self.space, self.multidegree, tuple(groups))

    def point_multiplicities(self) -> tuple[int, ...]:
        """Multiplicities of the individual points, flattened in group order."""
        out: list[int] = []
        for g in self.points:
            out.extend([g.multiplicity] * g.count)
        return tuple(out)

    def __str__(self) -> str:
        space = "x".join(f"P{n}" for n in self.space.factors)
        deg = ",".join(str(d) for d in self.multidegree)
        pts = " + ".join(
            f"{g.multiplicity}^{g.count}" if g.count > 1 else str(g.multiplicity)
            for g in self.points
        )
        return f"L_{{{space};({deg})}}({pts})" if pts else f"L_{{{space};({deg})}}"


@dataclass(frozen=True)
class DimReport:
    monomials: int
    conditions: int
    virtual_dim: int
    expected_dim: int

    def to_json(self) -> dict:
        return asdict(self)


def make_system(
    factors: Sequence[int],
    multidegree: Sequence[int],
    points: Sequence[tuple[int, int]] = (),
) -> LinearSystem:
    """Convenience constructor; points are (multiplicity, count) pairs."""
    return LinearSystem(
        Space(tuple(factors)),
        tuple(multidegree),
        tuple(FatPointGroup(m, c) for m, c in points),
    )


def monomial_count(space: Space, multidegree: Sequence[int]) -> int:
    """h^0 of the unconstrained system: prod C(d_i + n_i, n_i)."""
    if len(multidegree) != space.nfactors:
        raise ValueError("multidegree length must match the number of factors")
    out = 1
    for d, n in zip(multidegree, space.factors):
        if d < 0:
            raise ValueError(f"degrees must be >= 0, got {d}")
        out *= binom(d + n, n)
    return out


def point_conditions(m: int, space: Space) -> int:
    """Number of linear conditions a multiplicity-m point imposes: the
    derivatives of order < m in N = sum(n_i) local coordinates,
    C(m-1+N, N). On P^n this is C(m+n-1, n); on a product a double point
    imposes N+1.
    """
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got {m}")
    N = sum(space.factors)
    return binom(m - 1 + N, N)


def dim_report(sys: LinearSystem) -> DimReport:
    """The virtual dimension is monomial_count - 1 - the sum of the naive
    point conditions; the expected dimension floors it at -1."""
    mono = monomial_count(sys.space, sys.multidegree)
    cond = sum(g.count * point_conditions(g.multiplicity, sys.space) for g in sys.points)
    nu = mono - 1 - cond
    return DimReport(mono, cond, nu, max(nu, -1))


def virtual_dim(sys: LinearSystem) -> int:
    return dim_report(sys).virtual_dim


def check_lines(sys: LinearSystem, lines: Sequence[tuple[int, int, int]]) -> None:
    """Reject a line (i, j, alpha) that does not join two distinct base points
    of sys, given by flattened point indices, has alpha < 1, or joins the
    same two points as an earlier line, in either order and at any alpha:
    lower_h0 would charge its excess twice."""
    h = sys.total_points
    seen: set[frozenset[int]] = set()
    for i, j, alpha in lines:
        if i == j or not (0 <= i < h and 0 <= j < h):
            raise ValueError(f"line scheme ({i},{j}) must join two distinct base points")
        if alpha < 1:
            raise ValueError("line multiplicity must be >= 1")
        pair = frozenset((i, j))
        if pair in seen:
            raise ValueError(f"line scheme ({i},{j}) is given twice")
        seen.add(pair)


@dataclass(frozen=True)
class LinearSubspace:
    """The P^s x_{s+1} = ... = x_n = 0 of a single P^n, through the first
    through_first base points of a system."""

    s: int
    through_first: int

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError("subspace dimension must be >= 1")
        if self.through_first < 1:
            raise ValueError("a subspace candidate must contain base points")


def check_subspace(sys: LinearSystem, Y: LinearSubspace) -> None:
    """Reject a subspace Y that is no proper subspace of the single P^n of
    sys, or that claims more base points than sys has."""
    if sys.space.nfactors != 1:
        raise NotImplementedError("linear subspace candidates live in a single P^n")
    if Y.s > sys.space.n - 1:
        raise ValueError(f"need 1 <= s <= n-1, got s={Y.s} in P^{sys.space.n}")
    if Y.through_first > sys.total_points:
        raise ValueError("subspace claims more incident points than the system has")


def lower_h0(sys: LinearSystem, lines: Sequence[tuple[int, int, int]] = ()) -> int:
    """A proven lower bound on the generic h0 of a fat-point system over Q,
    the largest of five rules in integer arithmetic:

    1. the floor max(virtual_dim + 1, 0);
    2. a divisor witness: when monomial_count(e) > h, some divisor Y of
       multidegree e passes through all h points, and multiplying by y^alpha
       embeds residual_divisor(L, Y, alpha) (degree d - alpha e, each
       multiplicity m - alpha floored at 0) in L, so lower(L) >=
       lower(L - alpha Y) for alpha up to the largest multiplicity. Only
       minimal e are tried: for e' >= e, L - alpha Y' embeds in L - alpha Y;
    3. linear_expected_h0, on a single P^n with at most n+2 points;
    4. the Cremona transformation (Laface and Ugaglia, Trans. AMS 2006), on
       a single P^n, n >= 2: put the largest m_0..m_n, each at most d, at
       the frame e_0..e_n, with k = (n-1) d - (m_0 + ... + m_n) < 0. F in L
       uses only x^a with a_j <= w_j = d - m_j, and u = w - a maps these a
       onto the u of degree d + k with u_j <= (d + k) - (m_j + k), those of
       Cr L = L(d + k; (m_0 + k)+, ..., (m_n + k)+, m_{n+1}, ...). That is
       G(x) = x^w F(1/x), and on the torus mult_q G = mult_{1/q} F, with
       1/q general for general q: h0(L) = h0(Cr L), 0 when d + k < 0, so
       lower(L) >= lower(Cr L), and the degree drops at each step;
    5. a pencil: in rule 2, when monomial_count(e) >= h + 2 and lower(L -
       alpha Y) >= 1, lower(L) >= lower(L - alpha Y) + alpha. Take Y1, Y2
       through the points, G0 != 0 in L - alpha Y, Y1 not dividing Y2^alpha
       G0 (all but finitely many in the pencil): Y1^alpha (L - alpha Y) and
       Y1^a Y2^(alpha-a) G0, a < alpha, are independent (reduce mod Y1).

    Each line (i, j, alpha) through base points i and j of a single P^n,
    n >= 2, then subtracts at most neighbourhood_count(n, 1, d, alpha,
    points=(m_i, m_j)), the conditions it costs forms through the points:
    none when alpha <= m_i + m_j - d, where the line is in the base locus.
    """
    mults = sys.point_multiplicities()
    bound = _lower_h0(sys.space.factors, sys.multidegree, tuple(sorted(mults, reverse=True)))
    if not lines:
        return bound
    if sys.space.nfactors != 1 or sys.space.n < 2:
        raise ValueError("a line bound needs a single P^n with n >= 2")
    check_lines(sys, lines)
    n, d = sys.space.n, sys.multidegree[0]
    for i, j, alpha in lines:
        bound -= neighbourhood_count(n, 1, d, alpha, points=(mults[i], mults[j]))
    return max(bound, 0)


@lru_cache(maxsize=None)
def _lower_h0(factors: tuple[int, ...], degree: tuple[int, ...], mults: tuple[int, ...]) -> int:
    space = Space(factors)
    best = max(monomial_count(space, degree) - sum(point_conditions(m, space) for m in mults), 0)
    if len(factors) == 1:
        (n,), (d,) = factors, degree
        if len(mults) <= n + 2:
            best = max(best, linear_expected_h0(n, d, mults))
        k = (n - 1) * d - sum(mults[: n + 1])
        if n >= 2 and len(mults) > n and mults[0] <= d and k < 0 <= d + k:
            cremona = [m + k for m in mults[: n + 1] if m + k > 0] + list(mults[n + 1 :])
            best = max(best, _lower_h0(factors, (d + k,), tuple(sorted(cremona, reverse=True))))

    def through(e: tuple[int, ...]) -> bool:
        return any(e) and monomial_count(space, e) > len(mults)

    # the e passing through form an up-set: e is minimal when no unit step down passes
    for e in iproduct(*(range(d + 1) for d in degree)):
        if not through(e) or any(k and through(e[:i] + (k - 1,) + e[i + 1 :]) for i, k in enumerate(e)):
            continue
        pencil = monomial_count(space, e) >= len(mults) + 2
        for alpha in range(1, max(mults, default=0) + 1):
            rest = tuple(d - alpha * k for d, k in zip(degree, e))
            if min(rest) < 0:
                break
            low = _lower_h0(factors, rest, tuple(m - alpha for m in mults if m > alpha))
            best = max(best, low + alpha if pencil and low else low)
    return best


def _json_int(value: object, field: str) -> int:
    """value, if it is a JSON integer: a bool, float or string is none."""
    if type(value) is not int:
        raise ValueError(f"system spec {field} must be an integer, got {value!r}")
    return value


def system_from_json(obj: dict | str) -> LinearSystem:
    """A system from its JSON spec, a dict or its text:
    {"space":[3], "degree":[9], "points":[{"mult":6,"count":1},{"mult":4,"count":8}]}"""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("system spec must be a JSON object")
    try:
        space, degree = obj["space"], obj["degree"]
    except KeyError as exc:
        raise ValueError(f"system spec is missing the {exc} field") from None
    for field, value in (("space", space), ("degree", degree)):
        if not isinstance(value, list):
            raise ValueError(f"system spec {field} must be a list, got {value!r}")
    points = obj.get("points", [])
    try:
        groups = [(_json_int(p["mult"], "mult"), _json_int(p.get("count", 1), "count")) for p in points]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed points entry: {exc}") from None
    return make_system(
        [_json_int(n, "space") for n in space], [_json_int(d, "degree") for d in degree], groups
    )
