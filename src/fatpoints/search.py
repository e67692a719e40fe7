"""Bounded enumeration drivers for the classification tables.

Each scan walks an explicit parameter grid and keeps the tuples satisfying
the defining inequalities of one candidate family, evaluated exactly in
integer arithmetic. The bounds are arguments: the monotonicity lemmas of the
combinatorics module guarantee nothing is missed above them for the families
enumerated here, but the scans themselves only certify the grid they were
given. Scans never consult the oracle; verify_cgg is the one driver that
does, since its claim is about actual dimensions.

Point-count windows use the strict exact rational lower bound h > (monomials
- residual) / (conditions per point). Printed tables elsewhere often floor
that bound and write "<=", which admits one extra h in some rows; such rows
are flagged in the record notes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product as iproduct
from math import prod

from .combinatorics import binom, neighbourhood_count
from .effect_varieties import (
    GENERAL_POSITION_CAP,
    ConfigStep,
    Hypersurface,
    classify_alpha_sev,
    classify_configuration,
)
# h0_oracle is not called here, but perfbench's tracer test reads search.h0_oracle
from .oracle import OracleConfig, h0_oracle, h0_prefix_oracle  # noqa: F401
from .systems import make_system


@dataclass(frozen=True)
class ScanRecord:
    kind: str
    space: tuple[int, ...]
    degree: tuple[int, ...]
    variety: tuple[int, ...]
    h: int
    notes: tuple[str, ...] = ()
    witness: dict = field(default_factory=dict, compare=False)

    def key(self) -> tuple:
        return (self.kind, self.space, self.degree, self.variety, self.h)

    def cells(self) -> tuple[str, str, str, str, str]:
        def fmt(t: tuple[int, ...]) -> str:
            return str(t[0]) if len(t) == 1 else "(" + ",".join(map(str, t)) + ")"

        space = "x".join(f"P{n}" for n in self.space)
        return space, fmt(self.degree), fmt(self.variety), str(self.h), ";".join(self.notes)


def _check_bounds(n_least: int = 0, **bounds: int) -> None:
    """Reject a negative bound, or n_max < n_least: it would scan nothing without a word."""
    low = {k: v for k, v in bounds.items() if v < (n_least if k == "n_max" else 0)}
    if low:
        raise ValueError(f"scan bounds out of range (n_max >= {n_least}, others >= 0): {low}")


def _strict_lower(numerator: int, denominator: int) -> int:
    """Smallest integer h with h * denominator > numerator."""
    return numerator // denominator + 1


# ---------------------------------------------------------------------------
# hypersurfaces in P^n

def scan_hypersurfaces(n_max: int = 5, e_max: int = 3, d_max: int = 7) -> list[ScanRecord]:
    """All (n, d, e, h), h >= n, where a smooth degree-e hypersurface through
    h double points is a 2-special-effect candidate for the degree-d system:
    enough hypersurfaces through the points, a strictly raised residual, and
    d >= 2e."""
    _check_bounds(n_max=n_max, e_max=e_max, d_max=d_max)
    records = []
    for n in range(2, n_max + 1):
        for e in range(1, e_max + 1):
            for d in range(2 * e, d_max + 1):
                upper = binom(e + n, n) - 1
                h_lo = _strict_lower(binom(d + n, n) - binom(d - 2 * e + n, n), n + 1)
                for h in range(max(h_lo, n), upper + 1):
                    records.append(
                        ScanRecord(
                            "hypersurface",
                            (n,),
                            (d,),
                            (e,),
                            h,
                            witness={"h_max": upper},
                        )
                    )
    records.sort(key=ScanRecord.key)
    return records


# ---------------------------------------------------------------------------
# rational normal curves

def scan_rnc(d_max: int = 5, n_max: int = 5) -> list[ScanRecord]:
    """(n, d) pairs for which the double rational normal curve through n+3
    double points raises the virtual dimension and stays effective. The
    h != n+3 exclusions are re-verified on the same grid."""
    _check_bounds(d_max=d_max, n_max=n_max)
    records = []
    for n in range(2, n_max + 1):
        for d in range(3, d_max + 1):
            cond = neighbourhood_count(n, 1, d, 2, e=n, c=n + 2)  # conditions of the double curve
            nu = binom(d + n, n) - 1 - cond
            special_ineq = (n + 3) * (n + 1) > cond
            if special_ineq and nu >= 0:
                records.append(
                    ScanRecord("rnc", (n,), (d,), (n,), n + 3, witness={"nu_residual": nu})
                )
            # h <= n+2: the property and effectiveness are never both satisfied
            for h in range(2, n + 3):
                if h * (n + 1) > cond and nu >= 0:
                    raise RuntimeError(
                        f"unexpected special-effect curve with h={h} <= n+2 at (n,d)=({n},{d})"
                    )
            # h >= n+4: the off-curve points make the residual negative
            if special_ineq and nu - (n + 1) >= 0:
                raise RuntimeError(f"residual stays effective for h=n+4 at (n,d)=({n},{d})")
    records.sort(key=ScanRecord.key)
    return records


# ---------------------------------------------------------------------------
# rational curves in P^3

def scan_rational_curves_p3(d_max: int = 4, e_max: int = 4) -> list[ScanRecord]:
    """All (d, e, h) passing the three displayed curve conditions in P^3:
    the curve family is big enough for the points (2e >= h), the residual
    Euler characteristic stays effective, and the points outweigh it. Rows
    where the h points could not be in general position while lying on the
    curve (more than 2 on a line, more than 3 on a conic) are emitted with a
    note, since the plain parameter count does not see that. Degrees below
    the imposed multiplicity are skipped: those systems are empty, and
    special-effect candidates only make sense for effective systems."""
    _check_bounds(d_max=d_max, e_max=e_max)
    records = []
    for d in range(2, d_max + 1):
        for e in range(1, e_max + 1):
            cond = neighbourhood_count(3, 1, d, 2, e=e, c=2 * e - 1)  # chi(O_2C(d)) at d >= 2
            if binom(d + 3, 3) - 1 - cond < 0:
                continue
            for h in range(1, 2 * e + 1):
                if not 4 * h > cond:
                    continue
                span_cap = GENERAL_POSITION_CAP.get(e)
                general = span_cap is None or h <= span_cap
                records.append(
                    ScanRecord(
                        "curve3",
                        (3,),
                        (d,),
                        (e,),
                        h,
                        notes=() if general else ("not-general-position",),
                        witness={"general_position": general},
                    )
                )
    records.sort(key=ScanRecord.key)
    return records


# ---------------------------------------------------------------------------
# divisors on products of projective spaces

_PRODUCT_DEFAULTS = {2: (4, 3, 6), 3: (4, 2, 4), 4: (2, 2, 4)}


def _table_floor_note(space: tuple[int, ...], degree: tuple[int, ...], e: tuple[int, ...], h_lo: int) -> tuple[str, ...]:
    """Flag rows whose printed-table lower endpoint (floored bound with a
    non-strict inequality) would admit one more h than the exact bound."""
    if len(space) != 2:
        return ()
    n1, n2 = space
    if n1 == 1 and n2 >= 2 and e[1] == 1 and degree == (2 * e[0], 2):
        m1 = (2 * e[0] + 1) * (n2 + 1) // 2
        if m1 < h_lo:
            return (f"m1={m1}<h_lo",)
    if n1 == 2 and e == (1, 1) and degree == (2, 2):
        m2 = (3 * n2 * n2 + 9 * n2 + 5) // (n2 + 3)
        if m2 < h_lo:
            return (f"m2={m2}<h_lo",)
    return ()


def scan_product_divisors(
    t: int,
    n_max: int | None = None,
    e_max: int | None = None,
    d_max: int | None = None,
) -> list[ScanRecord]:
    """All (spaces, multidegree, divisor multidegree, h) on a t-fold product
    where a simple divisor through h double points is a 2-special-effect
    candidate. Factors are enumerated with nondecreasing dimensions; the two
    orderings of an asymmetric degree pattern on equal factors both appear."""
    if t not in _PRODUCT_DEFAULTS:
        raise NotImplementedError(f"products with t={t} factors are not supported (t in 2..4)")
    dn, de, dd = _PRODUCT_DEFAULTS[t]
    n_max = dn if n_max is None else n_max
    e_max = de if e_max is None else e_max
    d_max = dd if d_max is None else d_max
    _check_bounds(1, n_max=n_max, e_max=e_max, d_max=d_max)
    table = [[binom(k + n, n) for k in range(max(d_max, e_max) + 1)] for n in range(n_max + 1)]

    def factor(n: int, ei: int) -> list[tuple[int, int, int]]:  # (d, C(d+n, n), C(d-2e+n, n))
        return [(d, table[n][d], table[n][d - 2 * ei]) for d in range(max(2 * ei, 1), d_max + 1)]

    records = []
    e_min = 0 if t == 2 else 1  # one factor degree may drop out only for t=2
    for space in combinations_with_replacement(range(1, n_max + 1), t):
        cond_per_point = sum(space) + 1
        for e in iproduct(range(e_min, e_max + 1), repeat=t):
            if all(ei == 0 for ei in e):
                continue
            upper = prod(table[n][ei] for ei, n in zip(e, space)) - 1
            for cols in iproduct(*map(factor, space, e)):
                degree, monos, resids = zip(*cols)
                mono = prod(monos)
                h_lo = _strict_lower(mono - prod(resids), cond_per_point)
                if h_lo > upper:
                    continue
                notes = _table_floor_note(space, degree, e, h_lo)
                for h in range(h_lo, upper + 1):
                    records.append(
                        ScanRecord(
                            "product",
                            space,
                            degree,
                            e,
                            h,
                            notes=notes if h == h_lo else (),
                            witness={"h_max": upper, "monomials": mono},
                        )
                    )
    records.sort(key=ScanRecord.key)
    return records


# ---------------------------------------------------------------------------
# oracle-backed verification of the product-space speciality lists

class CggMismatchError(RuntimeError):
    """The oracle's special set differs from the published classification."""


def _attach_witness_t2(a1: int, a2: int, h: int) -> dict:
    d = max(a1, a2) // 2
    e = (d, 1) if a1 >= a2 else (1, d)
    sys = make_system([1, 1], [a1, a2], [(2, h)])
    rep = classify_alpha_sev(sys, Hypersurface.through_all(sys, e))
    return {"witness": f"divisor {e}", "witness_ok": rep.is_sev, "alpha": rep.alpha_max}


def _attach_witness_t3(degree: tuple[int, int, int], h: int, cfg: OracleConfig | None) -> dict:
    sys = make_system([1, 1, 1], list(degree), [(2, h)])
    if sorted(degree) == [2, 2, 2]:
        rep = classify_alpha_sev(sys, Hypersurface.through_all(sys, (1, 1, 1)))
        return {"witness": "divisor (1,1,1)", "witness_ok": rep.is_sev, "alpha": rep.alpha_max}
    # (2a, 1, 1) up to permutation: remove two transverse simple divisors
    alpha = max(degree) // 2
    pos = degree.index(max(degree))
    others = [i for i in range(3) if i != pos]
    e1 = [0, 0, 0]
    e2 = [0, 0, 0]
    e1[pos] = alpha
    e2[pos] = alpha
    e1[others[0]] = 1
    e2[others[1]] = 1
    steps = [
        ConfigStep(Hypersurface.through_all(sys, tuple(e1)), 1),
        ConfigStep(Hypersurface.through_all(sys, tuple(e2)), 1),
    ]
    rep = classify_configuration(sys, steps, cfg)
    return {
        "witness": f"config {tuple(e1)}+{tuple(e2)}",
        "witness_ok": rep.is_sev,
        "nu_first_residual": rep.values["nu_steps"][1],  # type: ignore[index]
    }


CGG_GRID = {2: (8, 20), 3: (4, 15)}  # factors -> (largest degree, largest h) of the published grid


def verify_cgg(cfg: OracleConfig | None = None) -> list[ScanRecord]:
    """Run the speciality oracle over the P^1 x P^1 and (P^1)^3 double-point
    grids of CGG_GRID and compare the special set with the published
    classification (bidegrees (2a, 2) with h = 2a+1; multidegrees (2,2,2)
    with h = 7 and (2a, 1, 1) with h = 2a+1, up to permutation). Each h0
    comes from one prefix series per multidegree and must be certified,
    exact over Q; no second prime runs. Each special system gets its
    special-effect witness attached and re-verified. A mismatch or an
    uncertified h0 raises CggMismatchError."""
    cfg = cfg or OracleConfig()
    records: list[ScanRecord] = []
    for t, (a_max, h_max) in CGG_GRID.items():
        found = set()
        for degree in combinations_with_replacement(range(a_max, 0, -1), t):  # nonincreasing
            family = make_system([1] * t, list(degree), [(2, h_max)])
            for h, r in enumerate(h0_prefix_oracle(family, cfg)):
                if not r.certified:
                    cut = family.first_points(h)
                    raise CggMismatchError(f"uncertified h0 for {cut}: h0 {r.h0}, lower {r.lower}")
                if not r.special:
                    continue
                found.add((*degree, h))
                if t == 2:
                    variety = (degree[0] // 2, 1) if degree[1] == 2 else (0,)
                    witness = _attach_witness_t2(*degree, h)
                else:
                    variety = (1, 1, 1) if degree == (2, 2, 2) else (degree[0] // 2, 1, 1)
                    witness = _attach_witness_t3(degree, h, cfg)
                records.append(
                    ScanRecord(f"cgg{t}", (1,) * t, degree, variety, h, witness={"h0": r.h0, **witness})
                )
        tail = (2,) if t == 2 else (1, 1)
        expected = {(2 * a, *tail, 2 * a + 1) for a in range(1, a_max // 2 + 1)}
        if t == 3:
            expected.add((2, 2, 2, 7))
        if found != expected:
            name = "P1xP1" if t == 2 else "(P1)^3"
            raise CggMismatchError(f"{name} special set {sorted(found)} != expected {sorted(expected)}")

    bad = [r for r in records if not r.witness.get("witness_ok", False)]
    if bad:
        raise CggMismatchError(f"witness classification failed for {[r.key() for r in bad]}")
    records.sort(key=ScanRecord.key)
    return records
