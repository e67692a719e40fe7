"""Linear systems with fat base points and their virtual/expected dimensions.

A system lives on a product of projective spaces (a single P^n being the
one-factor case), carries one degree per factor, and a multiset of anonymous
fat points given as (multiplicity, count) groups. Points are anonymous
because the theory always places them in general position; actual coordinates
exist only inside the oracle module.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .combinatorics import binom


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
        return {
            "monomials": self.monomials,
            "conditions": self.conditions,
            "virtual_dim": self.virtual_dim,
            "expected_dim": self.expected_dim,
        }


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
    """Number of linear conditions a multiplicity-m point imposes.

    On P^n this is C(m+n-1, n). On a product only simple and double points
    are supported (1 and sum(n_i)+1 conditions); the multihomogeneous theory
    used here gives no condition count for m >= 3.
    """
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got {m}")
    if space.nfactors == 1:
        return binom(m + space.n - 1, space.n)
    if m == 1:
        return 1
    if m == 2:
        return sum(space.factors) + 1
    raise NotImplementedError(
        f"multiplicity {m} points on a product space are not supported (only m <= 2)"
    )


def virtual_dim(sys: LinearSystem) -> int:
    """monomial_count - 1 - sum of naive point conditions."""
    cond = sum(g.count * point_conditions(g.multiplicity, sys.space) for g in sys.points)
    return monomial_count(sys.space, sys.multidegree) - 1 - cond


def expected_dim(sys: LinearSystem) -> int:
    return max(virtual_dim(sys), -1)


def dim_report(sys: LinearSystem) -> DimReport:
    mono = monomial_count(sys.space, sys.multidegree)
    cond = sum(g.count * point_conditions(g.multiplicity, sys.space) for g in sys.points)
    nu = mono - 1 - cond
    return DimReport(mono, cond, nu, max(nu, -1))


# JSON wire format, shared by the CLI and the oracle:
#   {"space":[3], "degree":[9], "points":[{"mult":6,"count":1},{"mult":4,"count":8}]}

def system_to_json(sys: LinearSystem) -> dict:
    return {
        "space": list(sys.space.factors),
        "degree": list(sys.multidegree),
        "points": [{"mult": g.multiplicity, "count": g.count} for g in sys.points],
    }


def system_from_json(obj: dict | str) -> LinearSystem:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("system spec must be a JSON object")
    try:
        space = obj["space"]
        degree = obj["degree"]
    except KeyError as exc:
        raise ValueError(f"system spec is missing the {exc} field") from None
    points = obj.get("points", [])
    try:
        groups = [(int(p["mult"]), int(p.get("count", 1))) for p in points]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed points entry: {exc}") from None
    return make_system([int(n) for n in space], [int(d) for d in degree], groups)
