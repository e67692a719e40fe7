from math import isqrt

import pytest

from fatpoints.cli import main
from fatpoints.combinatorics import binom
from fatpoints import search
from fatpoints.oracle import CrossCheckedH0, OracleConfig
from fatpoints.search import (
    CggMismatchError,
    scan_hypersurfaces,
    scan_product_divisors,
    scan_rational_curves_p3,
    scan_rnc,
    verify_cgg,
)

CFG = OracleConfig(trials=2, seed=31337)


def keys(records):
    return {(r.space, r.degree, r.variety, r.h) for r in records}


def test_scan_hypersurfaces_default_table():
    got = keys(scan_hypersurfaces())
    want = {((n,), (2,), (1,), n) for n in range(2, 6)} | {
        ((2,), (4,), (2,), 5),
        ((3,), (4,), (2,), 9),
        ((4,), (4,), (2,), 14),
    }
    assert got == want


def test_scan_hypersurfaces_records_satisfy_inequalities():
    for r in scan_hypersurfaces(6, 4, 9):
        n, d, e, h = r.space[0], r.degree[0], r.variety[0], r.h
        assert binom(e + n, n) - 1 >= h >= n
        assert binom(d - 2 * e + n, n) > binom(d + n, n) - h * (n + 1)
        assert d >= 2 * e
        # no rows in the regime the numerical lemma excludes
        assert not (d >= 2 * e >= 6 and n >= 3)


def rho_linear(n: int, h: int) -> int:
    """Smallest subspace dimension s for which P^s is a 2-special-effect
    variety for the quadric system with h double points in P^n: the paper's
    closed form (2s+1)^2 >= 1 - 12n - 4n^2 + 8hn + 8h, solved exactly over
    the integers (a floored square root would fail at non-square radicands)."""
    if not (2 <= h <= n):
        raise ValueError(f"need 2 <= h <= n, got h={h}, n={n}")
    if 2 * h * (n + 1) > n * n + 3 * n:
        radicand = 1 - 12 * n - 4 * n * n + 8 * h * n + 8 * h
        if radicand >= 0:
            root = isqrt(radicand)
            if root * root < radicand:
                root += 1
            return max(1, root // 2)
    return 1


def test_rho_window_matches_classification():
    # P^s through s+1 of the points is a 2-special-effect variety for the
    # double-point quadric system exactly when rho(n,h) <= s <= h-1
    from fatpoints.effect_varieties import LinearSubspace, classify_alpha_sev
    from fatpoints.systems import make_system

    for n in range(2, 9):
        for h in range(2, n + 1):
            rho = rho_linear(n, h)
            for s in range(1, h):
                rep = classify_alpha_sev(
                    make_system([n], [2], [(2, h)]), LinearSubspace(s, s + 1)
                )
                assert rep.is_sev == (rho <= s <= h - 1), (n, h, s)


def test_rho_linear_values():
    assert rho_linear(4, 4) == 3
    # below the threshold the first branch is off
    for n in range(3, 9):
        for h in range(2, n + 1):
            if 2 * h * (n + 1) <= n * n + 3 * n:
                assert rho_linear(n, h) == 1
            assert rho_linear(n, h) <= h - 1  # the span of the points always works
    with pytest.raises(ValueError):
        rho_linear(3, 5)


def test_scan_rnc():
    got = {(r.space[0], r.degree[0]) for r in scan_rnc()}
    assert got == {(2, 4), (4, 3)}
    assert all(r.h == r.space[0] + 3 for r in scan_rnc())


def test_scan_rational_curves_p3():
    records = scan_rational_curves_p3(d_max=5, e_max=5)
    general = {(r.degree[0], r.variety[0], r.h) for r in records if r.witness["general_position"]}
    assert general == {(2, 1, 2), (2, 2, 3)}
    assert all(r.degree[0] <= 3 for r in records)
    flagged = {(r.degree[0], r.variety[0], r.h) for r in records if not r.witness["general_position"]}
    assert flagged == {(2, 2, 4), (3, 2, 4)}


def test_scan_products_t2_pinned_rows():
    got = keys(scan_product_divisors(2))
    assert ((3, 3), (2, 2), (1, 1), 15) in got
    assert ((3, 4), (2, 2), (1, 1), 19) in got
    assert ((1, 1), (2, 4), (1, 2), 5) in got
    assert ((1, 1), (4, 2), (2, 1), 5) in got
    # the strict exact bound rejects h = m1 = 7 here; only h = 8 remains
    p1p2 = {(r.degree, r.h): r.notes for r in scan_product_divisors(2) if r.space == (1, 2) and r.variety == (2, 1)}
    assert set(p1p2) == {((4, 2), 8)}
    assert p1p2[((4, 2), 8)] == ("m1=7<h_lo",)


def test_scan_products_t2_records_satisfy_inequalities():
    for r in scan_product_divisors(2):
        mono = 1
        resid = 1
        through = 1
        for d, e, n in zip(r.degree, r.variety, r.space):
            assert d >= 2 * e
            mono *= binom(d + n, n)
            resid *= binom(d - 2 * e + n, n)
            through *= binom(e + n, n)
        assert through - 1 >= r.h
        assert resid > mono - r.h * (sum(r.space) + 1)


def test_scan_products_t3_t4():
    got = keys(scan_product_divisors(3))
    assert got == {((1, 1, g), (2, 2, 2), (1, 1, 1), 4 * g + 3) for g in (1, 2, 3)}
    assert scan_product_divisors(4) == []
    with pytest.raises(NotImplementedError):
        scan_product_divisors(5)


def test_scan_determinism():
    assert scan_product_divisors(2) == scan_product_divisors(2)
    assert scan_hypersurfaces() == scan_hypersurfaces()


def test_rendering(capsys):
    assert main(["scan", "--what", "rnc"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0] == "space,degree,variety,h,notes"
    assert "P2,4,2,5," in csv_text
    assert main(["scan", "--what", "rnc", "--format", "md"]) == 0
    assert capsys.readouterr().out.startswith("| space | degree | variety | h | notes |")


def test_verify_cgg_small_grid():
    records = verify_cgg(a2_max=4, h2_max=9, a3_max=2, h3_max=7, cfg=CFG)
    got2 = {(r.degree, r.h) for r in records if r.kind == "cgg2"}
    assert got2 == {((2, 2), 3), ((4, 2), 5)}
    got3 = {(r.degree, r.h) for r in records if r.kind == "cgg3"}
    assert got3 == {((2, 2, 2), 7), ((2, 1, 1), 3)}
    assert all(r.witness["witness_ok"] for r in records)
    assert all(r.witness["h0"] == 1 for r in records)


def test_verify_cgg_detects_wrong_expectation():
    # shrinking h below the special window must not invent mismatches
    records = verify_cgg(a2_max=2, h2_max=2, a3_max=1, h3_max=2, cfg=CFG)
    assert records == []


def test_verify_cgg_mismatch_error_type():
    assert issubclass(CggMismatchError, RuntimeError)


def test_verify_cgg_reports_prime_disagreement(monkeypatch):
    def disagree_at_two(sys, cfg):
        return [
            CrossCheckedH0(9 - h, h != 2, (9 - h, 8 - h) if h == 2 else (9 - h, 9 - h), (1, 2))
            for h in range(sys.total_points + 1)
        ]

    monkeypatch.setattr(search, "cross_checked_prefix", disagree_at_two)
    with pytest.raises(CggMismatchError) as err:
        verify_cgg(a2_max=2, h2_max=3, a3_max=1, h3_max=2, cfg=CFG)
    assert str(err.value) == "prime disagreement for L_{P1xP1;(1,1)}(2^2): (7, 6)"
