"""Special-effect candidates and their numerical/cohomological classification.

A candidate variety through some of the base points is "special effect" for a
system when removing it alpha-fold raises the virtual dimension while the
residual stays effective; a configuration chains several removals. A divisor's
residual subtracts degrees and multiplicities componentwise. Every other class
(a linear subspace, the rational normal curve, a rational curve in P^3, a line)
reads nu(L - alpha Y) from one removal count: the conditions of
combinatorics.neighbourhood_count, read off its normal bundle, less the length
neighbourhood_count(n, s, m - 1, alpha) that each m-fold point on Y shares with
the alpha-fold Y, the whole point once alpha >= m. The subspace type,
systems.LinearSubspace, is the one the oracle's subspace calls take, and
systems.check_subspace decides whether it fits a system for every reader.

One scan, _scan_alpha, reads alpha from 1 to the most times Y fits in L:
floor(d/e), and ceil(m/c) over the points on Y, for a divisor; min(d, m on
Y) for every other class, the divisor bound with e = c = 1, since no nonzero
form of degree d vanishes to order above d anywhere. On that range a
hyperplane's removal count is nu of its divisor residual, so both
descriptions of a hyperplane, and of a line, give one report. The rational
normal curve's normal bundle O(n+2)^(n-1) is balanced; a P^3 curve's need
not be, so it takes double points only, where alpha <= 2 and the count is
chi(O_aC(d)) however N_C splits.

The base points are general, so a divisor or a P^s must exist through them
(checks exists_through_points): a divisor when lower_h0 of its own system
L(e; c at its groups) is at least 1, a P^s, a line included, through at
most s+1 of them. Without it, Y^alpha (L - alpha Y) need not lie in L, and
an affirmative verdict would not imply h0(L) >= nu(L - alpha Y) + 1.

The cohomological (h^1) check follows the three-condition definition, with
h^2 of the residual asserted zero only where that is actually known: divisors
with effective residual, and smooth rational curves through double points.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence, Union

from .combinatorics import binom, neighbourhood_count
from .oracle import OracleConfig, h0_oracle
from .systems import (
    FatPointGroup,
    LinearSubspace,
    LinearSystem,
    Space,
    check_subspace,
    lower_h0,
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
    # Y passes through the general base points it claims; if not, there is no
    # restriction sequence, and the conditions above are not evaluated
    exists: bool = True

    @property
    def is_h1_sev(self) -> bool:
        return self.exists and self.cond_a and self.cond_b and self.cond_c

    def to_json(self) -> dict:
        return {
            "exists_through_points": self.exists,
            "cond_a": self.cond_a,
            "cond_b": self.cond_b,
            "cond_c": self.cond_c,
            "h2_handled": self.h2_handled,
            "is_h1_sev": self.is_h1_sev,
            "values": dict(self.values),
        }


# ---------------------------------------------------------------------------
# residual virtual dimensions per variety class

def _alpha_bound(sys: LinearSystem, Y: Hypersurface, mults: Sequence[int] | None = None) -> int:
    """The most times the divisor Y fits in sys: floor(d/e) per factor with
    e > 0 and ceil(m/c) per group on Y with multiplicity left. Below 1, L - Y
    is empty. ``mults`` gives one multiplicity per group of the original
    system when sys is a running residual whose exhausted groups are gone."""
    if mults is None:
        mults = [g.multiplicity for g in sys.points]
    if len(Y.multidegree) != len(sys.multidegree):
        raise ValueError("divisor multidegree length must match the space")
    for g, _ in Y.point_mults:
        if not (0 <= g < len(mults)):
            raise ValueError(f"divisor references missing point group {g}")
    return min(
        [d // e for d, e in zip(sys.multidegree, Y.multidegree) if e > 0]
        + [-(-mults[g] // c) for g, c in Y.point_mults if mults[g] > 0]
    )


def _divisor_exists(sys: LinearSystem, Y: Hypersurface) -> bool:
    """Whether the divisor Y passes through general base points of sys with
    its multiplicities: lower_h0 of its own system L(e; c at its groups) is
    at least 1. Exact for c = 1, where simple general points impose
    independent conditions; sufficient for c >= 2."""
    groups = tuple(FatPointGroup(c, sys.points[g].count) for g, c in Y.point_mults)
    return lower_h0(LinearSystem(sys.space, Y.multidegree, groups)) >= 1


def residual_divisor(sys: LinearSystem, Y: Hypersurface, alpha: int) -> LinearSystem:
    """The system left after removing the divisor alpha times: multidegree
    d - alpha*e, point multiplicities m - alpha*c floored at zero."""
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    _alpha_bound(sys, Y)  # checks Y against sys
    new_deg = tuple(d - alpha * e for d, e in zip(sys.multidegree, Y.multidegree))
    if any(d < 0 for d in new_deg):
        raise ValueError(f"degree underflow: removing {alpha} x {Y.multidegree} from {sys.multidegree}")
    cuts = dict(Y.point_mults)
    groups = []
    for idx, g in enumerate(sys.points):
        m = g.multiplicity - alpha * cuts.get(idx, 0)
        if m > 0:
            groups.append(FatPointGroup(m, g.count))
    return LinearSystem(sys.space, new_deg, tuple(groups))


def _residual_nu(sys: LinearSystem, alpha: int, on: Sequence[int], s: int = 1, e: int = 1, c: int = 1) -> int:
    """The removal count nu(L - alpha Y) for Y = P^s, or a rational curve
    (s = 1), embedded by O(e) with N_Y = O(c)^(n-s) through points of
    multiplicities ``on``: each m-fold point on Y already imposes the jets of
    normal order j < min(alpha, m) and tangent order < m - j."""
    n, d = sys.space.n, sys.multidegree[0]
    shared = sum(neighbourhood_count(n, s, m - 1, alpha) for m in on)
    return virtual_dim(sys) - neighbourhood_count(n, s, d, alpha, e, c) + shared


def p3_rational_curve_chi(d: int, e: int) -> int:
    """Euler characteristic of the double removal of a degree-e smooth
    rational curve in P^3 from degree-d forms: C(d+3,3) - 3de + 4e - 5."""
    if d < 0 or e < 1:
        raise ValueError("need d >= 0 and e >= 1")
    return binom(d + 3, 3) - 3 * d * e + 4 * e - 5


def _curve_data(sys: LinearSystem, Y: EffectVariety) -> tuple[int, int, list[int]]:
    """Curve degree e, normal-bundle degree c and the multiplicities of the
    base points on it, for a curve class in the space where it lives: the
    rational normal curve of a P^n, c = n + 2, through up to n+3 points; a P^3
    curve, c = 2e - 1, through up to its general-position cap (else 2e); and
    the line joining two base points, c = 1. Lines and rational normal curves
    live in a P^n with n >= 2."""
    mults = list(sys.point_multiplicities())
    if isinstance(Y, RationalNormalCurve):
        if sys.space.nfactors != 1:
            raise NotImplementedError("rational normal curves live in a single P^n")
        n = sys.space.n
        if n == 1:
            raise ValueError("rational normal curves need n >= 2")
        return n, n + 2, mults[: n + 3]
    if isinstance(Y, RationalCurveP3):
        if sys.space.factors != (3,):
            raise NotImplementedError("this curve class lives in P^3")
        return Y.e, 2 * Y.e - 1, mults[: GENERAL_POSITION_CAP.get(Y.e, 2 * Y.e)]
    if isinstance(Y, Line):
        if sys.space.nfactors != 1:
            raise NotImplementedError("line candidates live in a single P^n")
        if sys.space.n == 1:
            raise ValueError("line candidates need n >= 2")
        i, j = Y.through_pair
        if max(i, j) >= len(mults):
            raise ValueError(f"line pair {Y.through_pair} references missing points")
        return 1, 1, [mults[i], mults[j]]
    raise NotImplementedError(f"unsupported variety class {type(Y).__name__}")


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

def _scan_alpha(
    sys: LinearSystem, bound: int, nu: Callable[[int], int], checks: dict[str, bool]
) -> SevReport:
    """The one alpha scan: nu(alpha) for alpha = 1..bound, the most times Y
    fits in sys. The verdict takes the largest alpha whose removal beats
    nu(L), the decreasing tail above it, the caller's own checks and the
    effectiveness of the residual. Below 1, L - Y is empty and no alpha is
    admissible."""
    nu_sys = virtual_dim(sys)
    values: dict[str, object] = {"alpha_bound": bound}
    checks["alpha_admissible"] = bound >= 1
    if bound < 1:
        return SevReport(False, False, 0, nu_sys, None, checks, values)
    nu_of_alpha = {a: nu(a) for a in range(1, bound + 1)}
    values["nu_by_alpha"] = nu_of_alpha
    winners = [a for a, v in nu_of_alpha.items() if v > nu_sys]
    checks["special_inequality"] = bool(winners)
    if not winners:
        return SevReport(False, False, 0, nu_sys, None, checks, values)
    alpha_max = max(winners)
    nu_res = nu_of_alpha[alpha_max]
    checks["beta_tail_decreases"] = all(v < nu_res for a, v in nu_of_alpha.items() if a > alpha_max)
    checks["residual_nonneg"] = nu_res >= 0
    holds = all(v for k, v in checks.items() if k != "residual_nonneg")
    return SevReport(holds, holds and nu_res >= 0, alpha_max, nu_sys, nu_res, checks, values)


def _linear_bound(sys: LinearSystem, on: Sequence[int]) -> int:
    """The most times a linear P^s or a curve through points of
    multiplicities ``on`` fits in sys: min(d, on), the divisor bound read
    with e = c = 1. A form of degree d vanishes to order at most d anywhere,
    so no curve fits more than d times."""
    return min([sys.multidegree[0], *on])


def classify_alpha_sev(sys: LinearSystem, Y: EffectVariety) -> SevReport:
    """Scan the admissible removal multiplicities for Y and report whether it
    has the special-effect property for sys (and is a special-effect variety,
    i.e. the best residual is also effective). A divisor reads nu of its
    residual systems; every other class reads the removal count, alpha up to
    _linear_bound."""
    checks: dict[str, bool] = {}
    if isinstance(Y, Hypersurface):
        bound = _alpha_bound(sys, Y)
        checks["exists_through_points"] = _divisor_exists(sys, Y)
        return _scan_alpha(sys, bound, lambda a: virtual_dim(residual_divisor(sys, Y, a)), checks)
    if isinstance(Y, LinearSubspace):
        check_subspace(sys, Y)
        s, e, c, on = Y.s, 1, 1, sys.point_multiplicities()[: Y.through_first]
        checks["points_span"] = Y.through_first >= Y.s + 1
    else:
        s = 1
        e, c, on = _curve_data(sys, Y)
    if isinstance(Y, (LinearSubspace, Line)):
        # no P^s passes through more than s+1 general points
        checks["exists_through_points"] = len(on) <= s + 1
    if isinstance(Y, RationalCurveP3):
        # the count reads N_C as O(2e-1)^2, but a conic's is O(4) + O(2).
        # Double points keep alpha <= 2, where every term has degree >= 0 and
        # the count is chi(O_aC(d)) however N_C splits
        if any(m != 2 for m in sys.point_multiplicities()):
            raise NotImplementedError("rational curve classification is only known for double-point systems")
        checks["curve_through_points"] = 2 * e >= sys.total_points
        if e in GENERAL_POSITION_CAP:
            checks["points_general_position"] = len(on) == sys.total_points
    return _scan_alpha(sys, _linear_bound(sys, on), lambda a: _residual_nu(sys, a, on, s=s, e=e, c=c), checks)


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
    # every step's alpha must be at most the bound _scan_alpha would read
    admissible = True

    if kinds <= {Hypersurface}:
        # per-group bookkeeping keeps the point_mults group indices stable
        # even after a step exhausts some multiplicities
        mults = [g.multiplicity for g in sys.points]
        residual = sys
        exists = True
        for step in steps:
            Y = step.variety
            assert isinstance(Y, Hypersurface)
            admissible = admissible and step.alpha <= _alpha_bound(residual, Y, mults)
            exists = exists and _divisor_exists(sys, Y)
            deg = tuple(d - step.alpha * e for d, e in zip(residual.multidegree, Y.multidegree))
            if any(d < 0 for d in deg):
                raise ValueError("degree underflow in configuration step")
            cuts = dict(Y.point_mults)
            mults = [max(m - step.alpha * cuts.get(g, 0), 0) for g, m in enumerate(mults)]
            residual = LinearSystem(
                sys.space,
                deg,
                tuple(FatPointGroup(m, g.count) for m, g in zip(mults, sys.points) if m >= 1),
            )
            nus.append(virtual_dim(residual))
        checks["exists_through_points"] = exists
        lines: list[tuple[int, int, int]] = []
    elif kinds <= {Line}:
        seen: list[tuple[tuple[int, int], int]] = []
        absorbed = True
        mults = sys.point_multiplicities()
        for step in steps:
            Y = step.variety
            assert isinstance(Y, Line)
            # a point shared by two lines must be fat enough to absorb the
            # overlap of the two multiple-line germs
            for prev, prev_alpha in seen:
                for pt in set(prev) & set(Y.through_pair):
                    absorbed = absorbed and mults[pt] >= step.alpha + prev_alpha - 1
            seen.append((Y.through_pair, step.alpha))
            on = _curve_data(sys, Y)[2]
            admissible = admissible and step.alpha <= _linear_bound(sys, on)
            nus.append(nus[-1] + _residual_nu(sys, step.alpha, on) - nu_sys)
        checks["line_overlaps_absorbed"] = absorbed
        residual = sys
        lines = [(*s.variety.through_pair, s.alpha) for s in steps]  # type: ignore[union-attr]
    else:
        raise NotImplementedError(
            "configurations chain all divisors or all lines; classify a single "
            "variety with classify_alpha_sev"
        )

    checks["alpha_admissible"] = admissible
    deltas = [b - a for a, b in zip(nus, nus[1:])]
    checks["steps_nondecreasing"] = all(dlt >= 0 for dlt in deltas)
    checks["total_strict_increase"] = nus[-1] > nu_sys
    checks["residual_nonneg"] = nus[-1] >= 0
    values["nu_steps"] = nus
    values["step_deltas"] = deltas

    res = h0_oracle(residual, oracle_cfg, extra_schemes=tuple(lines))
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

def h1_sev_check(
    sys: LinearSystem, Y: EffectVariety, oracle_cfg: OracleConfig | None = None
) -> H1Report:
    """The three-condition cohomological check: (a) the restriction to Y has
    no sections, (b) the residual is nonempty, (c) h^1 of the restriction
    exceeds h^2 of the residual. h^2 is only asserted where known (effective
    divisor residuals; smooth rational curves through double points);
    otherwise the report flags it unhandled and leaves (c) unestablished.
    A divisor or a P^s that cannot pass through its general points
    (_divisor_exists; more than s+1 points) gets a negative report with no
    oracle call."""
    values: dict[str, object] = {}
    if isinstance(Y, Hypersurface):
        empty = _alpha_bound(sys, Y) < 1
        if not _divisor_exists(sys, Y):
            return H1Report(False, False, False, False, exists=False)
        h0_full = h0_oracle(sys, oracle_cfg).h0
        if empty:  # no residual system: no sections, and no chi to take
            h0_res, chi_restr = 0, None
        else:
            res_sys = residual_divisor(sys, Y, 1)
            h0_res = h0_oracle(res_sys, oracle_cfg).h0
            chi_restr = virtual_dim(sys) - virtual_dim(res_sys)
        h0_restr = h0_full - h0_res
        h1_restr = None if chi_restr is None else h0_restr - chi_restr
        handled = h0_res >= 1  # an effective residual has no h2
        values.update(
            h0_system=h0_full,
            h0_residual=h0_res,
            h0_restriction=h0_restr,
            chi_restriction=chi_restr,
            h1_restriction=h1_restr,
            h2_residual=0 if handled else None,
        )
    elif isinstance(Y, LinearSubspace):
        check_subspace(sys, Y)
        if Y.through_first > Y.s + 1:
            return H1Report(False, False, False, False, exists=False)
        restricted = LinearSystem(Space((Y.s,)), sys.multidegree, sys.first_points(Y.through_first).points)
        rr = h0_oracle(restricted, oracle_cfg)
        h0_restr, h1_restr, handled = rr.h0, rr.h1, False
        values.update(h0_restriction=h0_restr, h1_restriction=h1_restr)
        if h0_restr == 0:
            # the restriction sequence then identifies h0(L - Y) with h0(L)
            h0_res = h0_oracle(sys, oracle_cfg).h0
        else:
            h0_res = h0_oracle(sys, oracle_cfg, subspace=Y).h0
        values.update(h0_residual=h0_res, h2_residual=None)
    else:
        e, _, mults_on = _curve_data(sys, Y)
        h0_restr, h1_restr = curve_restriction_cohomology(sys, e, mults_on)
        values.update(
            restriction_degree=sys.multidegree[0] * e - sum(mults_on),
            h0_restriction=h0_restr,
            h1_restriction=h1_restr,
        )
        h0_full = h0_oracle(sys, oracle_cfg).h0
        if h0_restr == 0:
            h0_res = h0_full
            values["h0_residual"] = h0_res
        else:
            # only the exact-sequence lower bound is available
            h0_res = max(h0_full - h0_restr, 0)
            values["h0_residual_lower_bound"] = h0_res
        handled = all(m == 2 for m in mults_on)
        values["h2_residual"] = 0 if handled else None
    return H1Report(h0_restr == 0, h0_res >= 1, handled and h1_restr > 0, handled, values)
