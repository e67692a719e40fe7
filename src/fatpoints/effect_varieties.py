"""Special-effect candidates and their numerical/cohomological classification.

A candidate variety through some of the base points is "special effect" for a
system when removing it alpha-fold raises the virtual dimension while the
residual stays effective; a configuration chains several removals. The
residual virtual dimension is computed per variety class:

  * divisors: componentwise degree/multiplicity subtraction;
  * linear subspaces: the multiple-subspace condition count;
  * rational normal curves: the double-curve postulation value (d >= 3);
  * rational curves in P^3: the blow-up Euler characteristic closed form;
  * lines inside configurations: Euler-characteristic additivity of the
    restriction to the new multiple line, with the germ at each fat point it
    meets absorbed by that point (valid when the point is fat enough, which
    is checked and reported).

The cohomological (h^1) check follows the three-condition definition, with
h^2 of the residual asserted zero only where that is actually known: divisors
with effective residual, and smooth rational curves through double points.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence, Union

from .combinatorics import binom
from .oracle import (
    OracleConfig,
    SubspaceScheme,
    h0_oracle,
    restrict_to_subspace,
)
from .systems import (
    FatPointGroup,
    LinearSystem,
    monomial_count,
    point_conditions,
    virtual_dim,
)


@dataclass(frozen=True)
class Hypersurface:
    """A divisor of multidegree e passing through point groups with the given
    multiplicities; point_mults lists (group_index, c) pairs."""

    multidegree: tuple[int, ...]
    point_mults: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if all(e == 0 for e in self.multidegree) or any(e < 0 for e in self.multidegree):
            raise ValueError("divisor multidegree needs entries >= 0, at least one positive")
        if any(c < 1 for _, c in self.point_mults):
            raise ValueError("point multiplicities on the divisor must be >= 1")
        seen = [g for g, _ in self.point_mults]
        if len(seen) != len(set(seen)):
            raise ValueError("duplicate group index in point_mults")

    @classmethod
    def through_all(cls, sys: LinearSystem, e: Sequence[int], c: int = 1) -> "Hypersurface":
        return cls(tuple(e), tuple((i, c) for i in range(len(sys.points))))


@dataclass(frozen=True)
class LinearSubspace:
    s: int
    through_first: int  # number of system points spanning / lying on it

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError("subspace dimension must be >= 1")
        if self.through_first < 1:
            raise ValueError("a subspace candidate must contain base points")


@dataclass(frozen=True)
class RationalNormalCurve:
    """The degree-n rational normal curve through the base points of P^n."""


@dataclass(frozen=True)
class RationalCurveP3:
    """A smooth rational curve of degree e in P^3 through the base points."""

    e: int

    def __post_init__(self) -> None:
        if self.e < 1:
            raise ValueError("curve degree must be >= 1")


@dataclass(frozen=True)
class Line:
    """The line joining two base points, given by flattened point indices."""

    through_pair: tuple[int, int]

    def __post_init__(self) -> None:
        i, j = self.through_pair
        if i == j:
            raise ValueError("a line needs two distinct points")
        if min(i, j) < 0:
            raise ValueError(f"line point indices must be >= 0, got {self.through_pair}")


EffectVariety = Union[Hypersurface, LinearSubspace, RationalNormalCurve, RationalCurveP3, Line]

# the most points of P^3 in general position on a line (2) and on a conic (3)
GENERAL_POSITION_CAP = {1: 2, 2: 3}


@dataclass
class SevReport:
    holds_property: bool
    is_sev: bool
    alpha_max: int
    nu_system: int
    nu_residual: int | None
    checks: dict[str, bool] = field(default_factory=dict)
    values: dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConfigStep:
    variety: EffectVariety
    alpha: int

    def __post_init__(self) -> None:
        if self.alpha < 1:
            raise ValueError("step multiplicity must be >= 1")


@dataclass
class H1Report:
    cond_a: bool  # h0 of the restriction vanishes
    cond_b: bool  # the residual system is nonempty
    cond_c: bool  # h1 of the restriction exceeds h2 of the residual
    h2_handled: bool
    values: dict[str, object] = field(default_factory=dict)

    @property
    def is_h1_sev(self) -> bool:
        return self.cond_a and self.cond_b and self.cond_c

    def to_json(self) -> dict:
        return {
            "cond_a": self.cond_a,
            "cond_b": self.cond_b,
            "cond_c": self.cond_c,
            "h2_handled": self.h2_handled,
            "is_h1_sev": self.is_h1_sev,
            "values": dict(self.values),
        }


# ---------------------------------------------------------------------------
# residual virtual dimensions per variety class

def residual_divisor(sys: LinearSystem, Y: Hypersurface, alpha: int) -> LinearSystem:
    """The system left after removing the divisor alpha times: multidegree
    d - alpha*e, point multiplicities m - alpha*c floored at zero."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if len(Y.multidegree) != sys.space.nfactors:
        raise ValueError("divisor multidegree length must match the space")
    new_deg = tuple(d - alpha * e for d, e in zip(sys.multidegree, Y.multidegree))
    if any(d < 0 for d in new_deg):
        raise ValueError(f"degree underflow: removing {alpha} x {Y.multidegree} from {sys.multidegree}")
    cuts = dict(Y.point_mults)
    for g in cuts:
        if not (0 <= g < len(sys.points)):
            raise ValueError(f"divisor references missing point group {g}")
    groups = []
    for idx, g in enumerate(sys.points):
        m = g.multiplicity - alpha * cuts.get(idx, 0)
        if m > 0:
            groups.append(FatPointGroup(m, g.count))
    return LinearSystem(sys.space, new_deg, tuple(groups))


def multiple_subspace_conditions(d: int, n: int, s: int, m: int) -> int:
    """Conditions for vanishing to order m along a linear P^s inside P^n:
    sum_i C(d+s-i, d-i) C(n-s-1+i, i) over derivative orders i < m."""
    return sum(binom(d + s - i, d - i) * binom(n - s - 1 + i, i) for i in range(m))


def linear_space_residual_nu(
    sys: LinearSystem, s: int, m: int, points_on: int | None = None
) -> int:
    """Virtual dimension of |dH - m Y - (points off Y)| for a linear Y = P^s.

    The first ``points_on`` system points lie on Y (default s+1, the points
    spanning it) and are absorbed by the m-fold removal; the remaining points
    impose their full conditions.
    """
    if sys.space.nfactors != 1:
        raise ValueError("linear subspace residuals need a single factor")
    n = sys.space.n
    if not (1 <= s <= n - 1):
        raise ValueError(f"need 1 <= s <= n-1, got s={s} in P^{n}")
    if m < 1:
        raise ValueError("m must be >= 1")
    h = sys.total_points
    on = min(s + 1, h) if points_on is None else points_on
    if not (0 <= on <= h):
        raise ValueError(f"points_on out of range: {on}")
    mults = sys.point_multiplicities()
    off_conditions = sum(binom(mj + n - 1, n) for mj in mults[on:])
    d = sys.multidegree[0]
    return binom(d + n, n) - 1 - multiple_subspace_conditions(d, n, s, m) - off_conditions


def rnc_double_residual_nu(d: int, n: int) -> int:
    """Virtual dimension of |dH - 2 C_n| for the rational normal curve,
    C(d+n,n) - 1 - ((d-1)n^2 + 2); the postulation value needs d >= 3."""
    if d < 3:
        raise NotImplementedError("double rational-normal-curve postulation needs d >= 3")
    if n < 2:
        raise ValueError("need n >= 2")
    return binom(d + n, n) - 1 - ((d - 1) * n * n + 2)


def p3_rational_curve_chi(d: int, e: int) -> int:
    """Euler characteristic of the double removal of a degree-e smooth
    rational curve in P^3 from degree-d forms: C(d+3,3) - 3de + 4e - 5."""
    if d < 1 or e < 1:
        raise ValueError("need d >= 1 and e >= 1")
    return binom(d + 3, 3) - 3 * d * e + 4 * e - 5


def line_point_overlap(m: int, alpha: int, n: int) -> int:
    """Length of the intersection of an m-fold point with the alpha-fold
    structure on a line through it (inside P^n)."""
    return sum(binom(k + n - 2, n - 2) * (m - k) for k in range(min(alpha, m)))


def _pair_mults(sys: LinearSystem, pair: tuple[int, int]) -> tuple[int, int]:
    """Multiplicities of the two base points a line joins, in a P^n, n >= 2."""
    if sys.space.factors == (1,):
        raise ValueError("line candidates need n >= 2")
    mults = sys.point_multiplicities()
    i, j = pair
    if not (0 <= i < len(mults) and 0 <= j < len(mults)):
        raise ValueError(f"line pair {pair} references missing points")
    return mults[i], mults[j]


def _line_step_chi(sys: LinearSystem, pair: tuple[int, int], alpha: int) -> tuple[int, dict]:
    """chi of the restriction of the accumulated system to a new alpha-fold
    line; its negative is the change in virtual dimension."""
    n = sys.space.n
    cond = multiple_subspace_conditions(sys.multidegree[0], n, 1, alpha)
    overlap = sum(line_point_overlap(m, alpha, n) for m in _pair_mults(sys, pair))
    return cond - overlap, {"line_conditions": cond, "point_overlap": overlap}


def curve_restriction_cohomology(
    sys: LinearSystem, e: int, mults_on_curve: Sequence[int]
) -> tuple[int, int]:
    """(h0, h1) of the system restricted to a smooth rational curve of degree
    e through points of the listed multiplicities: a degree d*e - sum(m) line
    bundle on P^1."""
    if sys.space.nfactors != 1:
        raise ValueError("curve restriction needs a single factor")
    deg = sys.multidegree[0] * e - sum(mults_on_curve)
    return max(deg + 1, 0), max(-deg - 1, 0)


# ---------------------------------------------------------------------------
# alpha-special-effect classification

def _scan_report(
    sys: LinearSystem,
    nu_of_alpha: dict[int, int],
    checks: dict[str, bool],
    values: dict[str, object],
) -> SevReport:
    """Shared verdict logic: largest alpha whose removal beats nu(L), the
    decreasing tail above it, and effectiveness of the residual."""
    nu_sys = virtual_dim(sys)
    winners = [a for a, nu in nu_of_alpha.items() if nu > nu_sys]
    alpha_max = max(winners) if winners else 0
    values["nu_by_alpha"] = dict(sorted(nu_of_alpha.items()))
    if not winners:
        checks["special_inequality"] = False
        return SevReport(False, False, 0, nu_sys, None, checks, values)
    nu_res = nu_of_alpha[alpha_max]
    checks["special_inequality"] = True
    checks["beta_tail_decreases"] = all(
        nu < nu_res for a, nu in nu_of_alpha.items() if a > alpha_max
    )
    checks["residual_nonneg"] = nu_res >= 0
    holds = all(v for k, v in checks.items() if k != "residual_nonneg")
    return SevReport(holds, holds and nu_res >= 0, alpha_max, nu_sys, nu_res, checks, values)


def _classify_divisor(sys: LinearSystem, Y: Hypersurface, checks: dict[str, bool]) -> SevReport:
    """The divisor verdict, which also requires the caller's own checks."""
    values: dict[str, object] = {}
    bounds = [d // e for d, e in zip(sys.multidegree, Y.multidegree) if e > 0]
    for g, c in Y.point_mults:
        m = sys.points[g].multiplicity
        bounds.append(-(-m // c))  # ceil(m/c)
    alpha_bound = min(bounds)
    values["alpha_bound"] = alpha_bound
    checks["alpha_admissible"] = alpha_bound >= 1
    if alpha_bound < 1:
        return SevReport(False, False, 0, virtual_dim(sys), None, checks, values)
    nu_of_alpha = {
        a: virtual_dim(residual_divisor(sys, Y, a)) for a in range(1, alpha_bound + 1)
    }
    return _scan_report(sys, nu_of_alpha, checks, values)


def _check_subspace(sys: LinearSystem, Y: LinearSubspace) -> None:
    if sys.space.nfactors != 1:
        raise NotImplementedError("linear subspace candidates live in a single P^n")
    if not (1 <= Y.s <= sys.space.n - 1):
        raise ValueError(f"need 1 <= s <= n-1, got s={Y.s} in P^{sys.space.n}")


def _classify_subspace(sys: LinearSystem, Y: LinearSubspace) -> SevReport:
    _check_subspace(sys, Y)
    mults = sys.point_multiplicities()
    if Y.through_first > len(mults):
        raise ValueError("subspace claims more incident points than the system has")
    checks = {"points_span": Y.through_first >= Y.s + 1}
    if Y.s == sys.space.n - 1:
        # a hyperplane is the degree-1 divisor through its points, one group each
        groups = tuple(FatPointGroup(m, 1) for m in mults)
        H = Hypersurface((1,), tuple((i, 1) for i in range(Y.through_first)))
        return _classify_divisor(LinearSystem(sys.space, sys.multidegree, groups), H, checks)
    nu_of_alpha = {
        a: linear_space_residual_nu(sys, Y.s, a, points_on=Y.through_first)
        for a in range(1, max(mults) + 1)
    }
    return _scan_report(sys, nu_of_alpha, checks, {})


def _require_double_points(sys: LinearSystem, what: str) -> None:
    if any(m != 2 for m in sys.point_multiplicities()):
        raise NotImplementedError(f"{what} classification is only known for double-point systems")


def _classify_rnc(sys: LinearSystem, Y: RationalNormalCurve) -> SevReport:
    if sys.space.nfactors != 1:
        raise NotImplementedError("rational normal curves live in a single P^n")
    _require_double_points(sys, "rational normal curve")
    n = sys.space.n
    d = sys.multidegree[0]
    h = sys.total_points
    checks: dict[str, bool] = {}
    values: dict[str, object] = {}
    on_curve = min(h, n + 3)  # the curve is determined by n+3 general points
    off = h - on_curve
    nu_res = rnc_double_residual_nu(d, n) - off * (n + 1)
    values["points_on_curve"] = on_curve
    values["nu_double_curve"] = rnc_double_residual_nu(d, n)
    return _scan_report(sys, {2: nu_res}, checks, values)


def _classify_p3_curve(sys: LinearSystem, Y: RationalCurveP3) -> SevReport:
    if sys.space.nfactors != 1 or sys.space.n != 3:
        raise NotImplementedError("this curve class lives in P^3")
    _require_double_points(sys, "rational curve")
    d = sys.multidegree[0]
    h = sys.total_points
    e = Y.e
    checks: dict[str, bool] = {}
    values: dict[str, object] = {}
    checks["curve_through_points"] = 2 * e >= h
    span_cap = GENERAL_POSITION_CAP.get(e)
    if span_cap is not None:
        checks["points_general_position"] = h <= span_cap
    chi = p3_rational_curve_chi(d, e)
    values["chi"] = chi
    if e == 1:
        values["nu_as_multiple_line"] = (
            binom(d + 3, 3) - 1 - multiple_subspace_conditions(d, 3, 1, 2)
        )
    return _scan_report(sys, {2: chi - 1}, checks, values)


def _classify_line(sys: LinearSystem, Y: Line) -> SevReport:
    if sys.space.nfactors != 1:
        raise NotImplementedError("line candidates live in a single P^n")
    checks: dict[str, bool] = {}
    values: dict[str, object] = {}
    nu_sys = virtual_dim(sys)
    max_alpha = max(_pair_mults(sys, Y.through_pair))
    nu_of_alpha = {}
    for a in range(1, max_alpha + 1):
        chi, _ = _line_step_chi(sys, Y.through_pair, a)
        nu_of_alpha[a] = nu_sys - chi
    return _scan_report(sys, nu_of_alpha, checks, values)


def classify_alpha_sev(sys: LinearSystem, Y: EffectVariety) -> SevReport:
    """Scan the admissible removal multiplicities for Y and report whether it
    has the special-effect property for sys (and is a special-effect variety,
    i.e. the best residual is also effective)."""
    if isinstance(Y, Hypersurface):
        return _classify_divisor(sys, Y, {})
    if isinstance(Y, LinearSubspace):
        return _classify_subspace(sys, Y)
    if isinstance(Y, RationalNormalCurve):
        return _classify_rnc(sys, Y)
    if isinstance(Y, RationalCurveP3):
        return _classify_p3_curve(sys, Y)
    if isinstance(Y, Line):
        return _classify_line(sys, Y)
    raise NotImplementedError(f"unsupported variety class {type(Y).__name__}")


# ---------------------------------------------------------------------------
# configurations

def classify_configuration(
    sys: LinearSystem,
    steps: Sequence[ConfigStep],
    oracle_cfg: OracleConfig | None = None,
) -> SevReport:
    """Check a sequence of removals (Y_1, alpha_1), ..., (Y_r, alpha_r), all
    divisors or all lines; a single variety goes through classify_alpha_sev.

    Each step must not decrease the running virtual dimension and the total
    change must be strictly positive (the chained special-effect property; the
    known product-space configurations realize one step with equality, so
    strictness is demanded of the sum rather than of every step). The final
    residual must be effective; this is additionally confirmed through the
    oracle by the sufficient condition h^0(L - X) >= 1, reported as
    "oracle_h0_positive" (sufficient-only).
    """
    if not steps:
        raise ValueError("a configuration needs at least one step")
    kinds = {type(s.variety) for s in steps}
    checks: dict[str, bool] = {}
    values: dict[str, object] = {}
    nu_sys = virtual_dim(sys)
    nus = [nu_sys]

    if kinds <= {Hypersurface}:
        # per-group bookkeeping keeps the point_mults group indices stable
        # even after a step exhausts some multiplicities
        deg = list(sys.multidegree)
        mults = [g.multiplicity for g in sys.points]
        counts = [g.count for g in sys.points]
        admissible = True
        for step in steps:
            Y = step.variety
            assert isinstance(Y, Hypersurface)
            if len(Y.multidegree) != sys.space.nfactors:
                raise ValueError("divisor multidegree length must match the space")
            bound = min(
                [d // e for d, e in zip(deg, Y.multidegree) if e > 0]
                + [-(-mults[g] // c) for g, c in Y.point_mults if mults[g] > 0]
            )
            admissible = admissible and step.alpha <= bound
            deg = [d - step.alpha * e for d, e in zip(deg, Y.multidegree)]
            if any(d < 0 for d in deg):
                raise ValueError("degree underflow in configuration step")
            cuts = dict(Y.point_mults)
            mults = [max(m - step.alpha * cuts.get(g, 0), 0) for g, m in enumerate(mults)]
            cond = sum(
                c * point_conditions(m, sys.space) for m, c in zip(mults, counts) if m >= 1
            )
            nus.append(monomial_count(sys.space, deg) - 1 - cond)
        checks["alpha_admissible"] = admissible
        oracle_sys = LinearSystem(
            sys.space,
            tuple(deg),
            tuple(FatPointGroup(m, c) for m, c in zip(mults, counts) if m >= 1),
        )
        oracle_lines: list[tuple[int, int, int]] = []
    elif kinds <= {Line}:
        seen: list[tuple[tuple[int, int], int]] = []
        absorbed = True
        mults = sys.point_multiplicities()
        for step in steps:
            Y = step.variety
            assert isinstance(Y, Line)
            pair = (min(Y.through_pair), max(Y.through_pair))
            if any(pair == prev for prev, _ in seen):
                raise NotImplementedError("repeated lines in a configuration are not supported")
            # a point shared by two lines must be fat enough to absorb the
            # overlap of the two multiple-line germs
            for prev, prev_alpha in seen:
                for pt in set(prev) & set(pair):
                    absorbed = absorbed and mults[pt] >= step.alpha + prev_alpha - 1
            seen.append((pair, step.alpha))
            chi, _ = _line_step_chi(sys, Y.through_pair, step.alpha)
            nus.append(nus[-1] - chi)
        checks["line_overlaps_absorbed"] = absorbed
        oracle_sys = sys
        oracle_lines = [(s.variety.through_pair[0], s.variety.through_pair[1], s.alpha) for s in steps]  # type: ignore[union-attr]
    else:
        raise NotImplementedError(
            "configurations chain all divisors or all lines; classify a single "
            "variety with classify_alpha_sev"
        )

    deltas = [b - a for a, b in zip(nus, nus[1:])]
    checks["steps_nondecreasing"] = all(dlt >= 0 for dlt in deltas)
    checks["total_strict_increase"] = nus[-1] > nu_sys
    checks["residual_nonneg"] = nus[-1] >= 0
    values["nu_steps"] = nus
    values["step_deltas"] = deltas

    res = h0_oracle(oracle_sys, oracle_cfg, extra_schemes=tuple(oracle_lines))
    checks["oracle_h0_positive"] = res.h0 >= 1
    values["oracle_h0"] = res.h0
    values["oracle_check"] = "sufficient-only"

    effectiveness = ("residual_nonneg", "oracle_h0_positive")
    holds = all(v for k, v in checks.items() if k not in effectiveness)
    is_sev = holds and all(checks[k] for k in effectiveness)
    return SevReport(
        holds,
        is_sev,
        max(s.alpha for s in steps),
        nu_sys,
        nus[-1],
        checks,
        values,
    )


# ---------------------------------------------------------------------------
# h1-special-effect check

def _curve_data(sys: LinearSystem, Y: EffectVariety) -> tuple[int, list[int]] | None:
    """Curve degree and the multiplicities of the base points on it; a curve
    class lives where classify_alpha_sev accepts it."""
    mults = list(sys.point_multiplicities())
    if isinstance(Y, RationalNormalCurve):
        if sys.space.nfactors != 1:
            raise NotImplementedError("rational normal curves live in a single P^n")
        n = sys.space.n
        return n, mults[: min(len(mults), n + 3)]
    if isinstance(Y, RationalCurveP3):
        if sys.space.factors != (3,):
            raise NotImplementedError("this curve class lives in P^3")
        cap = GENERAL_POSITION_CAP.get(Y.e, 2 * Y.e)
        return Y.e, mults[: min(len(mults), cap)]
    if isinstance(Y, Line):
        if sys.space.nfactors != 1:
            raise NotImplementedError("line candidates live in a single P^n")
        return 1, list(_pair_mults(sys, Y.through_pair))
    return None


def h1_sev_check(
    sys: LinearSystem, Y: EffectVariety, oracle_cfg: OracleConfig | None = None
) -> H1Report:
    """The three-condition cohomological check: (a) the restriction to Y has
    no sections, (b) the residual is nonempty, (c) h^1 of the restriction
    exceeds h^2 of the residual. h^2 is only asserted where known (effective
    divisor residuals; smooth rational curves through double points);
    otherwise the report flags it unhandled and leaves (c) unestablished."""
    values: dict[str, object] = {}

    if isinstance(Y, Hypersurface):
        res_sys = residual_divisor(sys, Y, 1)
        r_full = h0_oracle(sys, oracle_cfg)
        r_res = h0_oracle(res_sys, oracle_cfg)
        h0_restr = r_full.h0 - r_res.h0
        chi_restr = virtual_dim(sys) - virtual_dim(res_sys)
        h1_restr = h0_restr - chi_restr
        effective = r_res.h0 >= 1
        values.update(
            h0_system=r_full.h0,
            h0_residual=r_res.h0,
            h0_restriction=h0_restr,
            chi_restriction=chi_restr,
            h1_restriction=h1_restr,
            h2_residual=0 if effective else None,
        )
        return H1Report(
            cond_a=h0_restr == 0,
            cond_b=r_res.h0 >= 1,
            cond_c=effective and h1_restr > 0,
            h2_handled=effective,
            values=values,
        )

    if isinstance(Y, LinearSubspace):
        _check_subspace(sys, Y)
        restricted = restrict_to_subspace(sys, Y.s, points_on=Y.through_first)
        rr = h0_oracle(restricted, oracle_cfg)
        cond_a = rr.h0 == 0
        assert rr.h1 is not None
        values.update(h0_restriction=rr.h0, h1_restriction=rr.h1)
        if cond_a:
            # the restriction sequence then identifies h0(L - Y) with h0(L)
            h0_res = h0_oracle(sys, oracle_cfg).h0
        else:
            h0_res = h0_oracle(sys, oracle_cfg, subspace=SubspaceScheme(Y.s, Y.through_first)).h0
        values.update(h0_residual=h0_res, h2_residual=None)
        return H1Report(
            cond_a=cond_a,
            cond_b=h0_res >= 1,
            cond_c=False,
            h2_handled=False,
            values=values,
        )

    curve = _curve_data(sys, Y)
    if curve is None:
        raise NotImplementedError(f"unsupported variety class {type(Y).__name__}")
    e, mults_on = curve
    h0_restr, h1_restr = curve_restriction_cohomology(sys, e, mults_on)
    cond_a = h0_restr == 0
    values.update(
        restriction_degree=sys.multidegree[0] * e - sum(mults_on),
        h0_restriction=h0_restr,
        h1_restriction=h1_restr,
    )
    h0_full = h0_oracle(sys, oracle_cfg).h0
    if cond_a:
        h0_res = h0_full
        values["h0_residual"] = h0_res
    else:
        # only the exact-sequence lower bound is available
        h0_res = max(h0_full - h0_restr, 0)
        values["h0_residual_lower_bound"] = h0_res
    handled = all(m == 2 for m in mults_on)
    values["h2_residual"] = 0 if handled else None
    return H1Report(
        cond_a=cond_a,
        cond_b=h0_res >= 1,
        cond_c=handled and h1_restr > 0,
        h2_handled=handled,
        values=values,
    )
