"""Verification suites behind the `verify` CLI subcommand.

Each suite returns a list of named checks. The expected sides are encoded
independently of the code under test: combinatorial identities are checked
against direct reevaluation, tables against the published parametric
families, and oracle verdicts against the published classification lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from itertools import product as iproduct

import numpy as np

from . import search
from .combinatorics import A_ratio, binom, phi_hyp, psi_hyp_alpha1, rising
# h0_oracle is not called here, but perfbench's tracer test reads verify.h0_oracle
from .oracle import OracleConfig, cross_checked_prefix, h0_oracle, h0_prefix_oracle  # noqa: F401
from .systems import dim_report, expected_dim, make_system


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}" + (f" ({self.detail})" if self.detail else "")


def _fail_detail(failures: list, shown: int = 4) -> str:
    if not failures:
        return ""
    extra = f" and {len(failures) - shown} more" if len(failures) > shown else ""
    return f"failed at {failures[:shown]}{extra}"


# ---------------------------------------------------------------------------
# numerical lemmas

ETA_BLOCK_BYTES = 1 << 18  # the most bytes one temporary of the eta grid check holds


def _eta_grid_monotone(t: int, e_lo: int, e_hi: int, n_lo: int, n_hi: int) -> list:
    """Check eta(e, n) is non-decreasing in every n_i over the whole grid.

    eta is unchanged when the pairs (e_i, n_i) are permuted together, and
    every n_i runs over the same range, so an e-tuple fails exactly when its
    sorted form does: only sorted tuples are evaluated, and the failures are
    listed as every e-tuple whose sorted form failed, in grid order.

    Blocks of sorted tuples, axis 0 over the tuples and axes 1..t over n, are
    evaluated from tables of C(2e+n, n) and C(e+n, n), each temporary under
    ETA_BLOCK_BYTES. They are int64 when C(2e_hi+n_hi, n_hi)^t (t n_hi + 1) <
    2^62, which bounds every term and difference; else Python ints (object)."""
    ns, es = np.arange(n_lo, n_hi + 1), range(e_lo, e_hi + 1)
    dtype = np.int64 if binom(2 * e_hi + n_hi, n_hi) ** t * (t * n_hi + 1) < 2**62 else object
    tab = np.array([[[binom(k * e + n, n) for n in ns] for e in es] for k in (2, 1)], dtype=dtype)

    def along(a: np.ndarray, i: int) -> np.ndarray:  # a's last axis, n, to axis i + 1 of t + 1
        return a.reshape(a.shape[:-1] + (1,) * i + (len(ns),) + (1,) * (t - 1 - i))

    nsum = sum(along(ns.astype(dtype)[None], i) for i in range(t))
    tuples = np.array(list(combinations_with_replacement(es, t)), dtype=np.intp)
    block = max(ETA_BLOCK_BYTES // (16 * len(ns) ** t or 1), 1)  # mono and through stacked
    n_axes = tuple(range(1, t + 1))
    failing = set()
    for start in range(0, len(tuples), block):
        e = tuples[start : start + block]
        mono, through = reduce(np.multiply, (along(tab[:, e[:, i] - e_lo], i) for i in range(t)))
        eta = mono - (through - 1) * (nsum + 1) - 1
        bad = np.any([(np.diff(eta, axis=a) < 0).any(axis=n_axes) for a in n_axes], axis=0)
        failing.update(map(tuple, e[bad].tolist()))
    return [e for e in iproduct(es, repeat=t) if tuple(sorted(e)) in failing]


def verify_lemmas() -> list[Check]:
    checks: list[Check] = []

    bad = []
    for r in range(1, 9):
        for s in range(1, 9):
            for t in range(1, 9):
                lhs = rising(r + s, t)
                rhs = rising(s, t) + r * sum(
                    rising(s, i - 1) * rising(r + s + i, t - i) for i in range(1, t + 1)
                )
                if lhs != rhs:
                    bad.append((r, s, t))
                if lhs < rising(s, t - 1) * (s + t + r * t):
                    bad.append(("ineq", r, s, t))
    checks.append(Check("rising-factorial-identity", not bad, _fail_detail(bad)))

    bad = [
        (e, n)
        for e in range(1, 11)
        for n in range(2, 11)
        if psi_hyp_alpha1(2 * e, e, n) != phi_hyp(2 * e, e, n)
    ]
    checks.append(Check("psi-equals-phi-at-2e", not bad, _fail_detail(bad)))

    bad = [
        (d, e, n)
        for e in range(1, 11)
        for n in range(2, 11)
        for d in range(2 * e, 30)
        if phi_hyp(d + 1, e, n) < phi_hyp(d, e, n)
    ]
    checks.append(Check("phi-monotone-in-d", not bad, _fail_detail(bad)))

    bad = [
        (e, n) for e in range(1, 11) for n in range(3, 11) if A_ratio(e + 1, n) <= A_ratio(e, n)
    ]
    checks.append(Check("A-ratio-increasing", not bad, _fail_detail(bad)))

    bad = [
        (d, e, n)
        for e in range(3, 11)
        for n in range(3, 11)
        for d in range(2 * e, 31)
        if phi_hyp(d, e, n) < 0
    ]
    checks.append(Check("phi-nonnegative-d-ge-2e-ge-6", not bad, _fail_detail(bad)))

    bad = _eta_grid_monotone(2, 2, 8, 2, 8)
    checks.append(Check("eta-monotone-t2", not bad, _fail_detail(bad)))
    bad = _eta_grid_monotone(3, 1, 6, 1, 6) + _eta_grid_monotone(4, 1, 6, 1, 6)
    checks.append(Check("eta-monotone-t3-t4", not bad, _fail_detail(bad)))
    return checks


# ---------------------------------------------------------------------------
# Alexander-Hirschowitz reproduction

AH_QUARTIC_CUBIC = ((2, 4, 5), (3, 4, 9), (4, 4, 14), (4, 3, 7))


def ah_special_keys(n_max: int = 6) -> set[tuple[int, int, int]]:
    keys = {(n, 2, h) for n in range(2, n_max + 1) for h in range(2, n + 1)}
    keys.update(AH_QUARTIC_CUBIC)
    return keys


AH_GRID = {(n, d): 20 for n in range(1, 5) for d in range(2, 6)}  # (n, d) -> largest h


def _ah_table(cfg: OracleConfig) -> tuple[dict, list]:
    """h0 of every double-point system that verify_ah reads, keyed by
    (n, d, h) with its system, from one prefix series per (n, d) family: the
    complement grid AH_GRID, and the AH quadrics on P^5 and P^6 up to h = n.
    Also returns the two-prime disagreements, one per system, in key order."""
    top = dict(AH_GRID)
    for n, d, h in ah_special_keys():
        top[n, d] = max(top.get((n, d), 0), h)
    table: dict[tuple[int, int, int], tuple] = {}  # (n, d, h) -> (system, h0)
    disagreements: list = []
    for (n, d), h_max in sorted(top.items()):
        family = make_system([n], [d], [(2, h_max)])
        series = cross_checked_prefix(family, cfg)
        for h in range(1, h_max + 1):
            sys = family.first_points(h)
            if not series[h].agreed:
                disagreements.append((str(sys), series[h].values))
            table[n, d, h] = (sys, series[h].h0)
    return table, disagreements


def verify_ah(cfg: OracleConfig | None = None) -> list[Check]:
    cfg = cfg or OracleConfig()
    ah = ah_special_keys()
    table, disagreements = _ah_table(cfg)

    def special(key: tuple[int, int, int]) -> bool:
        sys, h0 = table[key]
        return h0 - 1 > expected_dim(sys)

    not_special = [key for key in sorted(ah) if not special(key)]
    checks = [Check("ah-rows-special", not not_special, _fail_detail(not_special))]
    bad_h0 = [(*key, table[key][1]) for key in AH_QUARTIC_CUBIC if table[key][1] != 1]
    checks.append(Check("ah-quartic-cubic-h0-is-1", not bad_h0, _fail_detail(bad_h0)))
    falsely_special = [
        key for key in sorted(table) if key[:2] in AH_GRID and key not in ah and special(key)
    ]
    checks.append(Check("ah-complement-nonspecial", not falsely_special, _fail_detail(falsely_special)))
    checks.append(Check("ah-two-prime-agreement", not disagreements, _fail_detail(disagreements)))

    # h1 = conditions - (monomials - h0) of the double-point quadrics and of
    # the quartic in P^3, from the same table
    h1 = {}
    for key in [(n, 2, h) for n in range(2, 7) for h in range(2, n + 1)] + [(3, 4, 9)]:
        sys, h0 = table[key]
        rep = dim_report(sys)
        h1[key] = rep.conditions - (rep.monomials - h0)
    bad = [(n, h, v) for (n, d, h), v in h1.items() if d == 2 and v != h * (h - 1) // 2]
    if h1[3, 4, 9] != 2:
        bad.append((3, 4, 9, h1[3, 4, 9]))
    checks.append(Check("h1-values", not bad, _fail_detail(bad)))
    return checks


# ---------------------------------------------------------------------------
# published tables

def _expected_product_t2(n_max: int = 4, e_max: int = 3, d_max: int = 6) -> set[tuple]:
    """The six published divisor families on two factors, with the strict
    exact lower bound on h (the printed tables floor it; see the scan notes)."""
    rows: set[tuple] = set()
    for e2 in range(1, e_max + 1):  # P1 x P1, (2, 2e2), (1, e2), h = 2e2+1
        if 2 * e2 <= d_max:
            rows.add(((1, 1), (2, 2 * e2), (1, e2), 2 * e2 + 1))
            rows.add(((1, 1), (2 * e2, 2), (e2, 1), 2 * e2 + 1))
    for n2 in range(2, n_max + 1):  # P1 x Pn2, (2e1, 2), (e1, 1)
        for e1 in range(1, e_max + 1):
            if 2 * e1 > d_max:
                continue
            exact = Fraction((2 * e1 + 1) * (n2 + 1) * (n2 + 2) // 2 - 1, n2 + 2)
            m1 = exact.__floor__() + 1  # strict bound
            M1 = e1 * n2 + e1 + n2
            for h in range(m1, M1 + 1):
                rows.add(((1, n2), (2 * e1, 2), (e1, 1), h))
    for n2 in range(2, n_max + 1):  # P2 x Pn2, (2,2), (1,1), m2 < h <= M2
        m2 = (3 * n2 * n2 + 9 * n2 + 5) // (n2 + 3)
        for h in range(m2 + 1, 3 * n2 + 3):
            rows.add(((2, n2), (2, 2), (1, 1), h))
    if n_max >= 3:
        rows.add(((3, 3), (2, 2), (1, 1), 15))
    if n_max >= 4:
        rows.add(((3, 4), (2, 2), (1, 1), 19))
    return rows


def verify_paper_tables(cfg: OracleConfig | None = None) -> list[Check]:
    cfg = cfg or OracleConfig()
    checks: list[Check] = []

    hyper = search.scan_hypersurfaces()
    got = {(r.space[0], r.degree[0], r.variety[0], r.h) for r in hyper}
    want = {(n, 2, 1, n) for n in range(2, 6)} | {(2, 4, 2, 5), (3, 4, 2, 9), (4, 4, 2, 14)}
    checks.append(
        Check("hypersurface-table", got == want, _fail_detail(sorted(got.symmetric_difference(want))))
    )

    rnc = search.scan_rnc()
    got_rnc = {(r.space[0], r.degree[0]) for r in rnc}
    ok = got_rnc == {(2, 4), (4, 3)} and all(r.h == r.space[0] + 3 for r in rnc)
    checks.append(Check("rnc-table", ok, "" if ok else f"got {sorted(got_rnc)}"))

    curves = search.scan_rational_curves_p3()
    general = {(r.degree[0], r.variety[0], r.h) for r in curves if r.witness["general_position"]}
    ok = general == {(2, 1, 2), (2, 2, 3)} and all(r.degree[0] <= 3 for r in curves)
    checks.append(Check("curves3-table", ok, "" if ok else f"got {sorted(general)}"))

    t2 = search.scan_product_divisors(2)
    got_t2 = {(r.space, r.degree, r.variety, r.h) for r in t2}
    want_t2 = _expected_product_t2()
    checks.append(
        Check(
            "product-t2-table",
            got_t2 == want_t2,
            _fail_detail(sorted(got_t2.symmetric_difference(want_t2))),
        )
    )

    t3 = search.scan_product_divisors(3)
    got_t3 = {(r.space, r.degree, r.variety, r.h) for r in t3}
    want_t3 = {((1, 1, g), (2, 2, 2), (1, 1, 1), 4 * g + 3) for g in (1, 2, 3)}
    checks.append(
        Check("product-t3-table", got_t3 == want_t3, _fail_detail(sorted(got_t3 ^ want_t3)))
    )
    checks.append(Check("product-t4-empty", not search.scan_product_divisors(4)))

    # one prefix series per (space, degree), up to the group's largest h
    records = hyper + rnc + t2 + t3 + [r for r in curves if r.witness["general_position"]]
    top: dict[tuple, int] = {}
    for r in records:
        top[r.space, r.degree] = max(top.get((r.space, r.degree), 0), r.h)
    series = {
        (space, degree): h0_prefix_oracle(make_system(list(space), list(degree), [(2, h)]), cfg)
        for (space, degree), h in top.items()
    }
    unconfirmed = [r.key() for r in records if not series[r.space, r.degree][r.h].special]
    checks.append(Check("scan-records-oracle-special", not unconfirmed, _fail_detail(unconfirmed)))
    return checks


# ---------------------------------------------------------------------------
# product-space speciality lists

def verify_cgg_suite(cfg: OracleConfig | None = None) -> list[Check]:
    try:
        records = search.verify_cgg(cfg=cfg)
    except search.CggMismatchError as exc:
        return [Check("cgg-special-sets", False, str(exc))]
    n2 = sum(1 for r in records if r.kind == "cgg2")
    n3 = len(records) - n2
    return [
        Check("cgg-special-sets", True, f"{n2} special on P1xP1, {n3} on (P1)^3"),
        Check("cgg-witnesses", all(r.witness["witness_ok"] for r in records)),
    ]


SUITES = {
    "ah": verify_ah,
    "paper-tables": verify_paper_tables,
    "cgg": verify_cgg_suite,
    "lemmas": lambda cfg: verify_lemmas(),
}
