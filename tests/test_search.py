from dataclasses import replace
from itertools import combinations_with_replacement, product as iproduct
from math import isqrt, prod

import pytest

from fatpoints.cli import main
from fatpoints.combinatorics import binom
from fatpoints import search
from fatpoints.oracle import OracleConfig
from fatpoints.search import (
    CggMismatchError,
    ScanRecord,
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


def _product_records_pointwise(t, n_max, e_max, d_max):
    """scan_product_divisors re-derived with a binom call per factor and
    degree: the window h_lo..h_max of every (space, e, degree)."""
    records = []
    for space in combinations_with_replacement(range(1, n_max + 1), t):
        for e in iproduct(range(0 if t == 2 else 1, e_max + 1), repeat=t):
            if not any(e):
                continue
            for degree in iproduct(*[range(max(2 * ei, 1), d_max + 1) for ei in e]):
                mono = prod(binom(d + n, n) for d, n in zip(degree, space))
                resid = prod(binom(d - 2 * ei + n, n) for d, ei, n in zip(degree, e, space))
                upper = prod(binom(ei + n, n) for ei, n in zip(e, space)) - 1
                h_lo = (mono - resid) // (sum(space) + 1) + 1
                notes = search._table_floor_note(space, degree, e, h_lo)
                records += [
                    ScanRecord("product", space, degree, e, h, notes if h == h_lo else (),
                               {"h_max": upper, "monomials": mono})
                    for h in range(h_lo, upper + 1)
                ]
    return sorted(records, key=ScanRecord.key)


@pytest.mark.parametrize(
    "t, bounds",
    [(2, (4, 3, 6)), (3, (4, 2, 4)), (4, (2, 2, 4)), (2, (5, 4, 8)), (3, (3, 3, 6))],
)
def test_scan_products_complete(t, bounds):
    got = scan_product_divisors(t, *bounds)
    want = _product_records_pointwise(t, *bounds)
    assert got == want
    assert [r.witness for r in got] == [r.witness for r in want]  # witness is compare=False
    if bounds == search._PRODUCT_DEFAULTS[t]:
        assert got == scan_product_divisors(t)


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


def _cgg_within(records, a2_max, h2_max, a3_max, h3_max):
    """(kind, degree, h) of the records inside smaller degree and h bounds."""
    bounds = {"cgg2": (a2_max, h2_max), "cgg3": (a3_max, h3_max)}
    return {
        (r.kind, r.degree, r.h)
        for r in records
        if max(r.degree) <= bounds[r.kind][0] and r.h <= bounds[r.kind][1]
    }


def test_verify_cgg_small_grid():
    records = verify_cgg(cfg=CFG)
    assert _cgg_within(records, 4, 9, 2, 7) == {
        ("cgg2", (2, 2), 3), ("cgg2", (4, 2), 5), ("cgg3", (2, 2, 2), 7), ("cgg3", (2, 1, 1), 3)
    }
    assert all(r.witness["witness_ok"] for r in records)
    assert all(r.witness["h0"] == 1 for r in records)


def test_verify_cgg_detects_wrong_expectation():
    # below the special windows the published grid holds no special system
    assert _cgg_within(verify_cgg(cfg=CFG), 2, 2, 1, 2) == set()


def test_verify_cgg_mismatch_error_type():
    assert issubclass(CggMismatchError, RuntimeError)


def test_verify_cgg_rejects_uncertified_cut(monkeypatch):
    real = search.h0_prefix_oracle

    def open_at_two(sys, cfg):
        series = real(sys, cfg)
        if sys.multidegree == (1, 1):
            series[2] = replace(series[2], certified=False)
        return series

    monkeypatch.setattr(search, "h0_prefix_oracle", open_at_two)
    with pytest.raises(CggMismatchError) as err:
        verify_cgg(cfg=CFG)
    assert str(err.value) == "uncertified h0 for L_{P1xP1;(1,1)}(2^2): h0 0, lower 0"
