"""Acceptance suite: one test per criterion, exact integer expectations,
with the stated runtime ceilings. Criteria 1, 3 and 4 run their oracle calls
through cross_checked_h0, which recomputes an uncertified value at a second
prime and seed; criterion 6 runs verify_cgg, which demands a certified value
for every cut and runs no second prime; criterion 7 collects the always-on
property grids."""
import io
import time
from contextlib import redirect_stdout

from fatpoints.combinatorics import binom
from fatpoints.effect_varieties import (
    ConfigStep,
    Hypersurface,
    Line,
    LinearSubspace,
    classify_alpha_sev,
    classify_configuration,
    h1_sev_check,
)
from fatpoints.oracle import (
    OracleConfig,
    cross_checked_h0,
    h0_oracle,
    restrict_to_subspace,
)
from fatpoints.cli import main
from fatpoints.search import scan_product_divisors, verify_cgg
from fatpoints.systems import expected_dim, make_system, virtual_dim
from fatpoints import verify

CFG = OracleConfig()

AH_SPECIAL = sorted(
    {(n, 2, h) for n in range(2, 7) for h in range(2, n + 1)}
    | {(2, 4, 5), (3, 4, 9), (4, 4, 14), (4, 3, 7)}
)
AH_CONTRACTED_H0 = {(2, 4, 5): 1, (3, 4, 9): 1, (4, 4, 14): 1, (4, 3, 7): 1}


def _report(name: str, failures: list, elapsed: float, limit: float) -> None:
    ok = not failures and elapsed < limit
    print(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.1f}s / limit {limit:.0f}s)")
    assert not failures, f"{name}: {failures[:6]}"
    assert elapsed < limit, f"{name}: took {elapsed:.1f}s, limit {limit}s"


def _checked_h0(sys, failures) -> int:
    cc = cross_checked_h0(sys, CFG)
    if not cc.agreed:
        failures.append(("prime-disagreement", str(sys), cc.values))
    if cc.h0 < max(virtual_dim(sys) + 1, 0):
        failures.append(("semicontinuity", str(sys)))
    return cc.h0


def test_criterion_1_ah_reproduction():
    t0 = time.monotonic()
    failures = []
    for n, d, h in AH_SPECIAL:
        sys = make_system([n], [d], [(2, h)])
        h0 = _checked_h0(sys, failures)
        if not h0 - 1 > expected_dim(sys):
            failures.append(("not-special", n, d, h))
        want = AH_CONTRACTED_H0.get((n, d, h))
        if want is not None and h0 != want:
            failures.append(("h0", n, d, h, h0))
    ah = set(AH_SPECIAL)
    for n in range(1, 5):
        for d in range(2, 6):
            for h in range(1, 21):
                if (n, d, h) in ah:
                    continue
                sys = make_system([n], [d], [(2, h)])
                if _checked_h0(sys, failures) - 1 > expected_dim(sys):
                    failures.append(("falsely-special", n, d, h))
    _report("criterion-1 AH reproduction", failures, time.monotonic() - t0, 60.0)


def test_criterion_2_h1_values():
    t0 = time.monotonic()
    failures = []
    for n in range(2, 7):
        for h in range(2, n + 1):
            got = h0_oracle(make_system([n], [2], [(2, h)]), CFG).h1
            if got != h * (h - 1) // 2:
                failures.append((n, h, got))
    got = h0_oracle(make_system([3], [4], [(2, 9)]), CFG).h1
    if got != 2:
        failures.append(("quartic", got))
    _report("criterion-2 h1 values", failures, time.monotonic() - t0, 5.0)


def test_criterion_3_laface_ugaglia():
    t0 = time.monotonic()
    failures = []
    sys = make_system([3], [9], [(6, 1), (4, 8)])
    if virtual_dim(sys) != 3:
        failures.append(("nu", virtual_dim(sys)))
    h0 = _checked_h0(sys, failures)
    if h0 != 5:
        failures.append(("h0", h0))
    rep = classify_alpha_sev(sys, Hypersurface.through_all(sys, [2]))
    if not (rep.is_sev and rep.alpha_max == 1):
        failures.append(("classify", rep.to_json()))
    h1rep = h1_sev_check(sys, Hypersurface.through_all(sys, [2]), CFG)
    if not (h1rep.cond_a and h1rep.cond_b and h1rep.cond_c):
        failures.append(("h1check", h1rep.to_json()))
    _report("criterion-3 Laface-Ugaglia", failures, time.monotonic() - t0, 10.0)


def test_criterion_4_quartic_triple_points():
    t0 = time.monotonic()
    failures = []
    sys = make_system([3], [6], [(4, 3)])
    h0 = _checked_h0(sys, failures)
    if h0 - 1 != 26:
        failures.append(("dim", h0 - 1))
    rep = classify_alpha_sev(sys, LinearSubspace(2, 3))
    if not (rep.is_sev and rep.alpha_max == 1 and rep.nu_residual == 25):
        failures.append(("plane-1sev", rep.to_json()))
    if rep.values["nu_by_alpha"][2] != 22:
        failures.append(("plane-2sev-nu", rep.values["nu_by_alpha"]))
    restricted = restrict_to_subspace(sys, 2)
    rr = cross_checked_h0(restricted, CFG)
    if not (rr.agreed and rr.h0 - 1 > expected_dim(restricted)):
        failures.append(("restricted-not-special", rr.h0))
    conf = classify_configuration(
        sys, [ConfigStep(Line(p), 2) for p in [(0, 1), (0, 2), (1, 2)]], CFG
    )
    if not conf.is_sev:
        failures.append(("lines-config", conf.to_json()))
    _report("criterion-4 quartic triple points", failures, time.monotonic() - t0, 10.0)


GOLDEN_HYPERSURFACES = """\
space,degree,variety,h,notes
P2,2,1,2,
P2,4,2,5,
P3,2,1,3,
P3,4,2,9,
P4,2,1,4,
P4,4,2,14,
P5,2,1,5,
"""

GOLDEN_RNC = """\
space,degree,variety,h,notes
P2,4,2,5,
P4,3,4,7,
"""

GOLDEN_PRODUCTS_T2 = """\
space,degree,variety,h,notes
P1xP1,"(2,2)","(1,1)",3,
P1xP1,"(2,4)","(1,2)",5,
P1xP1,"(2,6)","(1,3)",7,
P1xP1,"(4,2)","(2,1)",5,
P1xP1,"(6,2)","(3,1)",7,
P1xP2,"(2,2)","(1,1)",5,m1=4<h_lo
P1xP2,"(4,2)","(2,1)",8,m1=7<h_lo
P1xP2,"(6,2)","(3,1)",11,m1=10<h_lo
P1xP3,"(2,2)","(1,1)",6,
P1xP3,"(2,2)","(1,1)",7,
P1xP3,"(4,2)","(2,1)",10,
P1xP3,"(4,2)","(2,1)",11,
P1xP3,"(6,2)","(3,1)",14,
P1xP3,"(6,2)","(3,1)",15,
P1xP4,"(2,2)","(1,1)",8,m1=7<h_lo
P1xP4,"(2,2)","(1,1)",9,
P1xP4,"(4,2)","(2,1)",13,m1=12<h_lo
P1xP4,"(4,2)","(2,1)",14,
P1xP4,"(6,2)","(3,1)",18,m1=17<h_lo
P1xP4,"(6,2)","(3,1)",19,
P2xP2,"(2,2)","(1,1)",8,m2=7<h_lo
P2xP3,"(2,2)","(1,1)",10,m2=9<h_lo
P2xP3,"(2,2)","(1,1)",11,
P2xP4,"(2,2)","(1,1)",13,m2=12<h_lo
P2xP4,"(2,2)","(1,1)",14,
P3xP3,"(2,2)","(1,1)",15,
P3xP4,"(2,2)","(1,1)",19,
"""

GOLDEN_PRODUCTS_T3 = """\
space,degree,variety,h,notes
P1xP1xP1,"(2,2,2)","(1,1,1)",7,
P1xP1xP2,"(2,2,2)","(1,1,1)",11,
P1xP1xP3,"(2,2,2)","(1,1,1)",15,
"""


def _scan_csv(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["scan", "--what", *argv]) == 0
    return out.getvalue()


def test_criterion_5_table_regressions():
    t0 = time.monotonic()
    failures = []
    if _scan_csv("hypersurfaces") != GOLDEN_HYPERSURFACES:
        failures.append("hypersurfaces")
    if _scan_csv("rnc") != GOLDEN_RNC:
        failures.append("rnc")
    if _scan_csv("products") != GOLDEN_PRODUCTS_T2:
        failures.append("products-t2")
    if _scan_csv("products", "--t", "3") != GOLDEN_PRODUCTS_T3:
        failures.append("products-t3")
    if scan_product_divisors(4) != []:
        failures.append("products-t4")
    _report("criterion-5 table regressions", failures, time.monotonic() - t0, 30.0)


def test_criterion_6_cgg_verification():
    t0 = time.monotonic()
    failures = []
    try:
        records = verify_cgg(cfg=CFG)
    except Exception as exc:  # mismatch or uncertified cut
        failures.append(str(exc))
        records = []
    got2 = {(r.degree, r.h) for r in records if r.kind == "cgg2"}
    if got2 != {((2 * d, 2), 2 * d + 1) for d in range(1, 5)}:
        failures.append(("p1p1", sorted(got2)))
    got3 = {(r.degree, r.h) for r in records if r.kind == "cgg3"}
    if got3 != {((2, 2, 2), 7), ((2, 1, 1), 3), ((4, 1, 1), 5)}:
        failures.append(("p1p1p1", sorted(got3)))
    if not all(r.witness["witness_ok"] for r in records):
        failures.append("witnesses")
    _report("criterion-6 CGG verification", failures, time.monotonic() - t0, 120.0)


def test_criterion_7_property_suites():
    t0 = time.monotonic()
    failures = [c.name for c in verify.verify_lemmas() if not c.ok]
    # semicontinuity spot grid on top of the oracle's internal guard
    for n, d, pts in [(2, 3, [(2, 3)]), (3, 4, [(3, 1), (2, 5)]), (4, 2, [(2, 4)])]:
        sys = make_system([n], [d], pts)
        if h0_oracle(sys, CFG).h0 < max(virtual_dim(sys) + 1, 0):
            failures.append(("semicontinuity", n, d))
    _report("criterion-7 property suites", failures, time.monotonic() - t0, 60.0)
