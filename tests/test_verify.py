from itertools import product as iproduct

from fatpoints.combinatorics import binom
from fatpoints import oracle, verify
from fatpoints.oracle import CrossCheckedH0, OracleConfig, cross_checked_h0
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


def _eta_failures(t, e_lo, e_hi, n_lo, n_hi):
    """e-tuples where eta(e, n) drops as some n_i steps up, point by point."""

    def eta(e, n):
        mono = through = 1
        for ei, ni in zip(e, n):
            mono *= binom(2 * ei + ni, ni)
            through *= binom(ei + ni, ni)
        return mono - (through - 1) * (sum(n) + 1) - 1

    steps = [
        (n, n[:i] + (n[i] + 1,) + n[i + 1 :])
        for n in iproduct(range(n_lo, n_hi + 1), repeat=t)
        for i in range(t)
        if n[i] < n_hi
    ]
    return [
        e
        for e in iproduct(range(e_lo, e_hi + 1), repeat=t)
        if any(eta(e, up) < eta(e, n) for n, up in steps)
    ]


def test_eta_grid_against_pointwise_python_ints():
    # n = 0 makes eta drop, so the first grids list failures in every
    # order of e; the last grid's binomials are beyond int64 on their own
    assert binom(2 * 22 + 32, 32) > 2**63
    for grid in [(2, 0, 3, 0, 4), (3, 0, 2, 0, 3), (2, 1, 3, 0, 3), (2, 20, 22, 25, 32)]:
        want = _eta_failures(*grid)
        assert _eta_grid_monotone(*grid) == want, grid
    assert (0, 1) in _eta_grid_monotone(2, 0, 3, 0, 4) and (1, 0) in _eta_grid_monotone(2, 0, 3, 0, 4)


def test_ah_complement_reports_prime_disagreement(monkeypatch):
    real = verify.cross_checked_prefix

    def disagree_on_conics(sys, cfg):
        series = real(sys, cfg)
        if sys.space.factors == (1,) and sys.multidegree == (2,):
            series[5] = CrossCheckedH0(0, False, (0, 1, 0), (1, 2, 3))
        return series

    monkeypatch.setattr(verify, "cross_checked_prefix", disagree_on_conics)
    checks = {c.name: c for c in verify_ah(CFG)}
    assert checks["ah-complement-nonspecial"].ok
    agreement = checks["ah-two-prime-agreement"]
    assert not agreement.ok
    assert agreement.detail == "failed at [('L_{P1;(2)}(2^5)', (0, 1, 0))]"


def test_ah_table_matches_each_system_cross_checked():
    table, disagreements = verify._ah_table(CFG)
    assert not disagreements
    for n, d, h in sorted(ah_special_keys()):
        sys = make_system([n], [d], [(2, h)])
        assert table[n, d, h] == (sys, cross_checked_h0(sys, CFG).h0)


def test_elimination_counts_at_default_config(monkeypatch):
    # one prefix series per (space, degree) family, of 1-3 trials, a second
    # prime only up to the largest cut not certified by its lower bound, and
    # h1-values read from the AH table; per-system oracle calls took 246 and
    # 123 eliminations, two primes on every cut 72, 142 and 90, and before
    # the double rational normal curve bound closed (4, 3, 7) 23, 58 and 58
    calls = []
    real = oracle._pivot_columns

    def counting(A, p):
        calls.append(A.shape)
        return real(A, p)

    monkeypatch.setattr(oracle, "_pivot_columns", counting)
    assert all(c.ok for c in SUITES["ah"](OracleConfig()))
    assert len(calls) == 18
    calls.clear()
    assert all(c.ok for c in SUITES["cgg"](OracleConfig()))
    assert len(calls) == 58
    calls.clear()
    assert all(c.ok for c in verify_paper_tables(OracleConfig()))
    assert len(calls) == 56


def test_ah_quartic_disagreement_reported_once(monkeypatch):
    real = verify.cross_checked_prefix

    def disagree_on_p3_quartics(sys, cfg):
        series = real(sys, cfg)
        if sys.space.factors == (3,) and sys.multidegree == (4,):
            series[9] = CrossCheckedH0(1, False, (1, 2, 1), (1, 2, 3))
        return series

    monkeypatch.setattr(verify, "cross_checked_prefix", disagree_on_p3_quartics)
    checks = {c.name: c for c in verify_ah(CFG)}
    assert checks["ah-rows-special"].ok and checks["ah-quartic-cubic-h0-is-1"].ok
    agreement = checks["ah-two-prime-agreement"]
    assert not agreement.ok
    assert agreement.detail == "failed at [('L_{P3;(4)}(2^9)', (1, 2, 1))]"
