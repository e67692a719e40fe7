from dataclasses import replace
from itertools import product as iproduct

import pytest

from fatpoints.cli import main
from fatpoints.combinatorics import binom
from fatpoints import oracle, search, verify
from fatpoints.oracle import CrossCheckedH0, OracleConfig, cross_checked_h0, h0_oracle
from fatpoints.systems import make_system
from fatpoints.verify import (
    SUITES,
    _eta_grid_monotone,
    ah_special_keys,
    verify_ah,
    verify_cgg_suite,
    verify_lemmas,
    verify_paper_tables,
)

CFG = OracleConfig(trials=2, seed=606)


def test_ah_keys():
    keys = ah_special_keys()
    assert (2, 2, 2) in keys and (6, 2, 6) in keys and (4, 3, 7) in keys
    assert (3, 3, 5) not in keys
    assert len(keys) == 15 + 4


def test_lemma_suite_passes():
    assert all(c.ok for c in verify_lemmas())


def test_table_suite_passes():
    checks = verify_paper_tables(CFG)
    assert all(c.ok for c in checks)
    assert {c.name for c in checks} >= {
        "hypersurface-table",
        "rnc-table",
        "curves3-table",
        "product-t2-table",
        "product-t3-table",
        "product-t4-empty",
        "scan-records-oracle-special",
    }


def test_ah_suite_passes():
    checks = verify_ah(CFG)
    assert all(c.ok for c in checks)
    assert "h1-values" in {c.name for c in checks}


def test_cgg_suite_small():
    checks = verify_cgg_suite(CFG)
    assert all(c.ok for c in checks)


def test_suite_registry():
    assert set(SUITES) == {"ah", "paper-tables", "cgg", "lemmas"}
    assert all(c.ok for c in SUITES["lemmas"](CFG))


def test_check_line_format():
    line = verify_lemmas()[0].line()
    assert line.startswith("PASS ") or line.startswith("FAIL ")


def _eta_failures(t, e_lo, e_hi, n_lo, n_hi, sorted_only=False):
    """e-tuples where eta(e, n) drops as some n_i steps up, point by point.
    With sorted_only, only nondecreasing e are evaluated and each e whose
    sorted form fails is listed: eta is unchanged when the pairs (e_i, n_i)
    are permuted together."""

    def eta(e, n):
        mono = through = 1
        for ei, ni in zip(e, n):
            mono *= binom(2 * ei + ni, ni)
            through *= binom(ei + ni, ni)
        return mono - (through - 1) * (sum(n) + 1) - 1

    grid = list(iproduct(range(n_lo, n_hi + 1), repeat=t))
    steps = [(n, n[:i] + (n[i] + 1,) + n[i + 1 :]) for n in grid for i in range(t) if n[i] < n_hi]

    def fails(e):
        value = {n: eta(e, n) for n in grid}
        return any(value[up] < value[n] for n, up in steps)

    es = list(iproduct(range(e_lo, e_hi + 1), repeat=t))
    if not sorted_only:
        return [e for e in es if fails(e)]
    failing = {e for e in es if list(e) == sorted(e) and fails(e)}
    return [e for e in es if tuple(sorted(e)) in failing]


def test_eta_grid_against_pointwise_python_ints(monkeypatch):
    # n = 0 makes eta drop, so the first grids list failures in every
    # order of e; the (2, 20, 22, 25, 32) grid's binomials are beyond int64
    # on their own
    assert binom(2 * 22 + 32, 32) > 2**63
    small = [(2, 0, 3, 0, 4), (3, 0, 2, 0, 3), (2, 1, 3, 0, 3), (2, 20, 22, 25, 32)]
    for grid in small:
        want = _eta_failures(*grid)
        assert _eta_failures(*grid, sorted_only=True) == want, grid
        assert _eta_grid_monotone(*grid) == want, grid
    assert (0, 1) in _eta_grid_monotone(2, 0, 3, 0, 4) and (1, 0) in _eta_grid_monotone(2, 0, 3, 0, 4)

    # the int64 guard C(2e_hi+n_hi, n_hi)^t (t n_hi + 1) < 2^62: the t = 4
    # lemma grid sits just under it; (3, 6, 9, 6, 9) is over it, and its
    # products overflow int64, which would list spurious failures
    assert binom(18, 6) ** 4 * 25 < 2**62 <= binom(18, 6) ** 4 * 25 * 2
    assert binom(27, 9) ** 3 > 2**63
    for grid in [(4, 1, 6, 1, 6), (3, 6, 9, 6, 9)]:
        assert _eta_grid_monotone(*grid) == _eta_failures(*grid, sorted_only=True) == [], grid

    # 60 failures from 14 sorted tuples at positions 1..14 of 35; blocks of
    # three tuples put them in five blocks
    grid = (3, 0, 4, 1, 5)
    want = _eta_failures(*grid)
    assert len(want) == 60 and _eta_grid_monotone(*grid) == want
    monkeypatch.setattr(verify, "ETA_BLOCK_BYTES", 3 * 16 * 5**3)
    assert _eta_grid_monotone(*grid) == want


def uncertify(monkeypatch, module, space, degree, h):
    """Mark cut h of the prefix series of one (space, degree) family, as the
    module reads it, as not certified."""
    real = module.h0_prefix_oracle

    def series(sys, cfg):
        out = real(sys, cfg)
        if (sys.space.factors, sys.multidegree) == (space, degree):
            out[h] = replace(out[h], certified=False)
        return out

    monkeypatch.setattr(module, "h0_prefix_oracle", series)


def test_ah_complement_rejects_uncertified_cut(monkeypatch):
    uncertify(monkeypatch, verify, (1,), (2,), 5)
    checks = {c.name: c for c in verify_ah(CFG)}
    assert checks["ah-complement-nonspecial"].ok
    row = checks["ah-two-prime-agreement"]
    assert not row.ok
    assert row.detail == "failed at [(1, 2, 5, 0, 0)]"


def test_ah_table_matches_each_system_cross_checked():
    table = verify._ah_table(CFG)
    for n, d, h in sorted(ah_special_keys()):
        sys = make_system([n], [d], [(2, h)])
        r = table[n, d, h]
        assert r == h0_oracle(sys, CFG)
        assert cross_checked_h0(sys, CFG) == CrossCheckedH0(r.h0, True, (r.h0,), (r.prime,), True)


@pytest.mark.parametrize(
    "suite, module, space, degree, h, line",
    [
        ("ah", verify, (4,), (3,), 7, "FAIL ah-two-prime-agreement (failed at [(4, 3, 7, 1, 1)])"),
        (
            "cgg", search, (1, 1, 1), (2, 2, 2), 7,
            "FAIL cgg-special-sets (uncertified h0 for L_{P1xP1xP1;(2,2,2)}(2^7): h0 1, lower 1)",
        ),
        (
            "paper-tables", verify, (2, 2), (2, 2), 8,
            "FAIL scan-records-oracle-special (failed at [('product', (2, 2), (2, 2), (1, 1), 8)])",
        ),
    ],
)
def test_verify_exits_1_on_an_uncertified_cut(monkeypatch, capsys, suite, module, space, degree, h, line):
    uncertify(monkeypatch, module, space, degree, h)
    assert main(["verify", suite, "--trials", "2"]) == 1
    assert line in capsys.readouterr().out.splitlines()


def record_cuts(monkeypatch):
    """Every OracleResult of every oracle call or series, in call order."""
    cuts = []
    real = oracle._oracle_series

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        cuts.extend(out)
        return out

    monkeypatch.setattr(oracle, "_oracle_series", recording)
    return cuts


def test_elimination_counts_at_default_config(monkeypatch):
    # one prefix series per (space, degree) family, of 1-3 trials, no
    # second prime, and h1-values read from the AH table; per-system oracle calls took 246 and
    # 123 eliminations, two primes on every cut 72, 142 and 90, and before
    # the double rational normal curve bound closed (4, 3, 7) 23, 58 and 58;
    # paper-tables took 56 before section certificates. Cuts of frame
    # points alone need no trial, and a prefix of frame points alone builds
    # no matrix: ah, cgg and paper-tables took 18, 58 and 39 while every
    # point was sampled
    calls = []
    real = oracle._pivot_columns

    def counting(A, p):
        calls.append(A.shape)
        return real(A, p)

    monkeypatch.setattr(oracle, "_pivot_columns", counting)
    cuts = record_cuts(monkeypatch)
    assert all(c.ok for c in SUITES["ah"](OracleConfig()))
    assert len(calls) == 11
    calls.clear()
    assert all(c.ok for c in SUITES["cgg"](OracleConfig()))
    assert len(calls) == 53
    calls.clear()
    assert all(c.ok for c in verify_paper_tables(OracleConfig()))
    assert len(calls) == 35
    # every cut the suites read is certified, and no second prime runs
    assert len(cuts) == 349 + 1078 + 305
    assert all(r.certified and r.prime == oracle.DEFAULT_PRIME for r in cuts)


def test_paper_tables_certified_at_other_seeds(monkeypatch):
    # the double-point product cuts close at any seed: a pencil in lower_h0
    # or the section certificate
    cuts = record_cuts(monkeypatch)
    for seed in (5, 7):
        assert all(c.ok for c in verify_paper_tables(OracleConfig(seed=seed)))
    assert len(cuts) == 2 * 305 and all(r.certified for r in cuts)


def test_ah_uncertified_quartic_reported_once(monkeypatch):
    uncertify(monkeypatch, verify, (3,), (4,), 9)
    checks = {c.name: c for c in verify_ah(CFG)}
    assert checks["ah-rows-special"].ok and checks["ah-quartic-cubic-h0-is-1"].ok
    row = checks["ah-two-prime-agreement"]
    assert not row.ok
    assert row.detail == "failed at [(3, 4, 9, 1, 1)]"
