import pytest

from fatpoints.combinatorics import binom
from fatpoints.effect_varieties import (
    GENERAL_POSITION_CAP,
    ConfigStep,
    Hypersurface,
    Line,
    LinearSubspace,
    RationalCurveP3,
    RationalNormalCurve,
    classify_alpha_sev,
    classify_configuration,
    curve_restriction_cohomology,
    h1_sev_check,
    p3_rational_curve_chi,
    residual_divisor,
)
from fatpoints.oracle import OracleConfig, h0_oracle
from fatpoints.systems import FatPointGroup, LinearSystem, make_system, virtual_dim

CFG = OracleConfig(trials=2, seed=20259)

LAFACE_UGAGLIA = make_system([3], [9], [(6, 1), (4, 8)])
QUARTIC43 = make_system([3], [6], [(4, 3)])


def test_residual_divisor_examples():
    quadric = Hypersurface.through_all(LAFACE_UGAGLIA, [2])
    assert residual_divisor(LAFACE_UGAGLIA, quadric, 1) == make_system(
        [3], [7], [(5, 1), (3, 8)]
    )
    plane = Hypersurface.through_all(QUARTIC43, [1])
    assert residual_divisor(QUARTIC43, plane, 2) == make_system([3], [4], [(2, 3)])
    quad_sys = make_system([4], [2], [(2, 6)])
    hyp = Hypersurface.through_all(quad_sys, [1])
    assert residual_divisor(quad_sys, hyp, 2) == make_system([4], [0], [])


def test_residual_divisor_underflow():
    with pytest.raises(ValueError):
        residual_divisor(QUARTIC43, Hypersurface.through_all(QUARTIC43, [2]), 4)


def test_residual_divisor_composition():
    quadric = Hypersurface.through_all(LAFACE_UGAGLIA, [2])
    once_twice = residual_divisor(residual_divisor(LAFACE_UGAGLIA, quadric, 1), quadric, 1)
    assert once_twice == residual_divisor(LAFACE_UGAGLIA, quadric, 2)


def test_linear_space_residual_values():
    # |4H - 2 line| and |2H - 2 line| in P^3, both base points on the line
    line = LinearSubspace(1, 2)
    assert classify_alpha_sev(make_system([3], [4], [(2, 2)]), line).values["nu_by_alpha"][2] == 21
    assert classify_alpha_sev(make_system([3], [2], [(2, 2)]), line).values["nu_by_alpha"][2] == 2


def test_linear_space_residual_span_corollary():
    # removing the span of all h points twice stays effective for quadrics
    for n in range(2, 9):
        for h in range(2, n + 1):
            sys = make_system([n], [2], [(2, h)])
            assert classify_alpha_sev(sys, LinearSubspace(h - 1, h)).values["nu_by_alpha"][2] >= 0


def test_line_as_a_subspace_reads_the_line_count():
    # the P^1 through the first two points is the line through points 0 and
    # 1: both scan alpha up to min(d, m on the line) and read nu(L - alpha Y)
    # from the one removal count, so they give one report, also where a
    # point off the line is fatter than those on it, a point on it is fatter
    # than alpha, or d = 0 leaves no alpha at all
    for n in (2, 3, 4, 5):
        for d in range(8):
            for points in (
                [(4, 3)], [(2, 2)], [(5, 1), (2, 3)], [(1, 1), (3, 2)], [(3, 2), (1, 2)],
                [(1, 1), (3, 1), (5, 1)], [(3, 1), (4, 1), (1, 1)],
            ):
                sys = make_system([n], [d], points)
                a = classify_alpha_sev(sys, LinearSubspace(1, 2)).to_json()
                b = classify_alpha_sev(sys, Line((0, 1))).to_json()
                assert a["checks"].pop("points_span")
                assert a == b, (n, d, points)
                on = sys.point_multiplicities()[:2]
                assert b["values"]["alpha_bound"] == min(d, *on), (n, d, points)
    rep = classify_alpha_sev(QUARTIC43, LinearSubspace(1, 2))
    assert rep.values["nu_by_alpha"] == {1: 24, 2: 24, 3: 21, 4: 13} and rep.alpha_max == 2
    # P2:d=4:3,4,1: the point off the line is not read, so alpha stops at 3
    rep = classify_alpha_sev(make_system([2], [4], [(3, 1), (4, 1), (1, 1)]), Line((0, 1)))
    assert (rep.is_sev, rep.alpha_max, rep.values["nu_by_alpha"]) == (True, 3, {1: -1, 2: 0, 3: 0})


def hyperplane_as_a_divisor(sys, Y):
    """The report of a hyperplane read as the degree-1 divisor through its
    points, one group each, scanned up to the divisor bound, with the
    points_span check first and required for the property."""
    groups = tuple(FatPointGroup(m, 1) for m in sys.point_multiplicities())
    H = Hypersurface((1,), tuple((i, 1) for i in range(Y.through_first)))
    rep = classify_alpha_sev(LinearSystem(sys.space, sys.multidegree, groups), H)
    span = Y.through_first >= Y.s + 1
    rep.checks = {"points_span": span, **rep.checks}
    rep.holds_property, rep.is_sev = rep.holds_property and span, rep.is_sev and span
    return rep


def test_hyperplane_reads_its_divisor_residual():
    # on alpha <= min(d, m on H) the removal count of a hyperplane is nu of
    # its divisor residual (two hockey-stick identities), so it keeps the
    # divisor's report
    for n in (2, 3, 4, 5):
        for d in range(7):
            for points in ([(3, 1), (1, 2)], [(2, 3)], [(4, 1), (2, 2), (1, 1)], [(1, 1), (3, 1), (5, 1)]):
                sys = make_system([n], [d], points)
                for k in range(1, sys.total_points + 1):
                    Y = LinearSubspace(n - 1, k)
                    want = hyperplane_as_a_divisor(sys, Y).to_json()
                    assert classify_alpha_sev(sys, Y).to_json() == want, (n, d, points, k)


def test_subspace_residual_is_below_the_oracle():
    # the removal count bounds the conditions that Y and the points impose
    # together, so h0(L - Y) >= nu(L - Y) + 1; a point fatter than Y's
    # multiplicity 1 keeps its conditions past the first normal order, e.g.
    # |2H - 2p - line through p| has h0 5 and nu 4
    rep = classify_alpha_sev(make_system([3], [2], [(2, 1)]), LinearSubspace(1, 1))
    assert rep.values["nu_by_alpha"][1] == 4
    for n, d in ((3, 2), (3, 3), (4, 2)):
        for m in (1, 2, 3):
            for h in (1, 2, 3):
                for s in range(1, n - 1):
                    for t in range(1, min(h, s + 2) + 1):
                        sys, Y = make_system([n], [d], [(m, h)]), LinearSubspace(s, t)
                        nu = classify_alpha_sev(sys, Y).values["nu_by_alpha"][1]
                        assert h0_oracle(sys, CFG, subspace=Y).h0 >= nu + 1, (n, d, m, h, s, t)


def rnc_double_nu(d, n):
    """nu(dH - 2C) for the rational normal curve of P^n, no base points."""
    return classify_alpha_sev(make_system([n], [d], []), RationalNormalCurve()).values["nu_by_alpha"][2]


def test_rnc_residual_values():
    assert rnc_double_nu(3, 3) == -1
    assert rnc_double_nu(4, 2) == 0
    assert rnc_double_nu(3, 4) == 0


def test_rnc_residual_self_consistency():
    # the double curve costs (d-1)n^2 + 2 conditions from d = 2 on
    for d in range(2, 9):
        for n in range(2, 7):
            assert rnc_double_nu(d, n) == binom(d + n, n) - 1 - ((d - 1) * n * n + 2)


def test_p3_curve_chi_values():
    assert p3_rational_curve_chi(2, 1) == 3
    assert p3_rational_curve_chi(2, 2) == 1
    assert p3_rational_curve_chi(3, 1) == 10


def test_classify_quadric_laface_ugaglia():
    rep = classify_alpha_sev(LAFACE_UGAGLIA, Hypersurface.through_all(LAFACE_UGAGLIA, [2]))
    assert rep.is_sev and rep.alpha_max == 1
    assert rep.nu_residual == 4 and rep.nu_system == 3


def test_classify_plane_on_quartic43():
    rep = classify_alpha_sev(QUARTIC43, LinearSubspace(2, 3))
    assert rep.is_sev and rep.alpha_max == 1 and rep.nu_residual == 25
    assert rep.values["nu_by_alpha"][2] == 22  # rejected: 22 < 25
    # the same plane offered as a degree-1 divisor gives the same verdict
    rep2 = classify_alpha_sev(QUARTIC43, Hypersurface.through_all(QUARTIC43, [1]))
    assert (rep2.is_sev, rep2.alpha_max, rep2.nu_residual) == (True, 1, 25)


def test_classify_span_subspace_family():
    for n in range(2, 9):
        for h in range(2, n + 1):
            rep = classify_alpha_sev(
                make_system([n], [2], [(2, h)]), LinearSubspace(h - 1, h)
            )
            assert rep.is_sev and rep.alpha_max == 2


def test_classify_hyperplane_residuals():
    # a hyperplane through the first k points, removed alpha times: degree
    # d - alpha, and each of those points loses alpha of its multiplicity
    for n in range(2, 5):
        for d in range(0, 6):
            for points in ([(3, 1), (1, 2)], [(2, 3)], [(4, 1), (2, 2), (1, 1)]):
                sys = make_system([n], [d], points)
                mults = sys.point_multiplicities()
                for k in range(1, len(mults) + 1):
                    rep = classify_alpha_sev(sys, LinearSubspace(n - 1, k))
                    assert list(rep.checks)[0] == "points_span"
                    assert rep.checks["points_span"] == (k >= n)
                    bound = min([d, *mults[:k]])
                    assert rep.values["alpha_bound"] == bound
                    if bound < 1:
                        assert "nu_by_alpha" not in rep.values and rep.alpha_max == 0
                        continue
                    want = {}
                    for a in range(1, bound + 1):
                        on = sum(binom(m - a + n - 1, n) for m in mults[:k] if m > a)
                        off = sum(binom(m + n - 1, n) for m in mults[k:])
                        want[a] = binom(d - a + n, n) - 1 - on - off
                    assert rep.values["nu_by_alpha"] == want, (n, d, points, k)


def test_classify_rnc_examples():
    rep = classify_alpha_sev(make_system([3], [3], [(2, 6)]), RationalNormalCurve())
    assert rep.holds_property and not rep.is_sev and rep.nu_residual == -1
    rep = classify_alpha_sev(make_system([2], [4], [(2, 5)]), RationalNormalCurve())
    assert rep.is_sev and rep.alpha_max == 2
    rep = classify_alpha_sev(make_system([4], [3], [(2, 7)]), RationalNormalCurve())
    assert rep.is_sev and rep.alpha_max == 2


def test_classify_rnc_scans_alpha():
    # the twisted cubic through 6 points of P^3 is a 3-fold special-effect
    # curve of the systems with 6 points of multiplicity m = (d + 1) / 2,
    # and nu(L - 3C) + 1 is the certified h0
    cfg = OracleConfig()
    for d, m, h0 in ((7, 4, 4), (9, 5, 14), (11, 6, 32), (13, 7, 60)):
        sys = make_system([3], [d], [(m, 6)])
        rep = classify_alpha_sev(sys, RationalNormalCurve())
        assert rep.is_sev and rep.alpha_max == 3 and rep.values["alpha_bound"] == m, (d, m)
        res = h0_oracle(sys, cfg)
        assert res.certified and res.h0 == rep.nu_residual + 1 == h0, (d, m)


def test_classify_rnc_too_many_points():
    rep = classify_alpha_sev(make_system([2], [4], [(2, 6)]), RationalNormalCurve())
    assert not rep.is_sev  # an off-curve double point kills effectivity


def test_classify_p3_curves():
    rep = classify_alpha_sev(make_system([3], [2], [(2, 2)]), RationalCurveP3(1))
    assert rep.is_sev and rep.alpha_max == 2 and rep.nu_residual == 2
    rep = classify_alpha_sev(make_system([3], [2], [(2, 3)]), RationalCurveP3(2))
    assert rep.is_sev and rep.alpha_max == 2 and rep.nu_residual == 0
    # four general points are never coplanar, so no conic through them
    rep = classify_alpha_sev(make_system([3], [2], [(2, 4)]), RationalCurveP3(2))
    assert not rep.holds_property and not rep.checks["points_general_position"]


def test_p3_curve_scan_is_the_double_curve_reading():
    # at double points a P^3 curve scans alpha <= min(d, 2). From d = 2 on,
    # its verdict is the alpha = 2 reading: nu(L) less chi(O_2C(d)) = 3de -
    # 4e + 5, plus 4 for each of the first cap points on C. At d <= 1 no
    # nonzero form is singular along C, so alpha stops at d
    for d in range(9):
        for h in range(10):
            sys = make_system([3], [d], [(2, h)] if h else [])
            for e in range(1, 6):
                rep = classify_alpha_sev(sys, RationalCurveP3(e))
                if d <= 1:
                    assert rep.values["alpha_bound"] == d and not rep.is_sev, (d, h, e)
                    continue
                cap = GENERAL_POSITION_CAP.get(e, 2 * e)
                nu2 = virtual_dim(sys) - (3 * d * e - 4 * e + 5) + 4 * min(h, cap)
                special = nu2 > virtual_dim(sys)
                holds = special and 2 * e >= h and (e not in GENERAL_POSITION_CAP or h <= cap)
                got = (rep.alpha_max, rep.nu_residual, rep.holds_property, rep.is_sev)
                assert got == (2 if special else 0, nu2 if special else None, holds, holds and nu2 >= 0), (d, h, e)


def test_p3_curves_take_double_points_only():
    # a conic's normal bundle is O(4) + O(2), not the O(3)^2 the count reads.
    # At triple points alpha reaches 3, and the count would give nu(L - 3C) =
    # 1 for the cubics through three triple points, whose certified h0 is 1:
    # that system is unsupported, not a verdict
    with pytest.raises(NotImplementedError, match="double-point"):
        classify_alpha_sev(make_system([3], [3], [(3, 3)]), RationalCurveP3(2))


def test_classify_line_matches_subspace_rule():
    sys = make_system([3], [2], [(2, 2)])
    rep = classify_alpha_sev(sys, Line((0, 1)))
    assert rep.is_sev and rep.alpha_max == 2 and rep.nu_residual == 2


def test_line_rejects_bad_pairs():
    for pair in ((1, 1), (-1, 0)):
        with pytest.raises(ValueError):
            Line(pair)
    with pytest.raises(ValueError, match="missing points"):
        classify_alpha_sev(QUARTIC43, Line((0, 3)))
    with pytest.raises(ValueError, match="missing points"):
        h1_sev_check(QUARTIC43, Line((3, 0)), CFG)


def test_classify_unsupported_class():
    class Weird:
        pass

    with pytest.raises(NotImplementedError):
        classify_alpha_sev(QUARTIC43, Weird())


def test_configuration_three_lines():
    steps = [ConfigStep(Line(p), 2) for p in [(0, 1), (0, 2), (1, 2)]]
    rep = classify_configuration(QUARTIC43, steps, CFG)
    assert rep.is_sev
    assert rep.values["nu_steps"] == [23, 24, 25, 26]
    assert rep.checks["oracle_h0_positive"] and rep.values["oracle_check"] == "sufficient-only"


def test_configuration_six_lines_on_triple_points():
    sys = make_system([3], [4], [(3, 4)])
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    rep = classify_configuration(sys, [ConfigStep(Line(p), 2) for p in pairs], CFG)
    assert rep.is_sev
    assert rep.nu_system == -6 and rep.nu_residual == 0


def test_configuration_single_step_matches_classification():
    quadric = Hypersurface.through_all(LAFACE_UGAGLIA, [2])
    single = classify_configuration(LAFACE_UGAGLIA, [ConfigStep(quadric, 1)], CFG)
    direct = classify_alpha_sev(LAFACE_UGAGLIA, quadric)
    assert single.is_sev == direct.is_sev
    assert single.nu_residual == direct.nu_residual


def test_configuration_product_divisor_pair():
    # (2a,1,1) with 2a+1 double points: remove two transverse simple divisors
    for a in (1, 2):
        sys = make_system([1, 1, 1], [2 * a, 1, 1], [(2, 2 * a + 1)])
        steps = [
            ConfigStep(Hypersurface.through_all(sys, (a, 0, 1)), 1),
            ConfigStep(Hypersurface.through_all(sys, (a, 1, 0)), 1),
        ]
        rep = classify_configuration(sys, steps, CFG)
        assert rep.is_sev
        assert rep.values["nu_steps"] == [-1, 0, 0]


def test_configuration_step_through_an_exhausted_group():
    # a line through the simple point uses it up; the conic after it names
    # that group again, which no longer bounds alpha, and the double group
    # keeps its index
    sys = make_system([2], [4], [(1, 1), (2, 4)])
    steps = [
        ConfigStep(Hypersurface((1,), ((0, 1),)), 1),
        ConfigStep(Hypersurface((2,), ((0, 1), (1, 1))), 1),
    ]
    rep = classify_configuration(sys, steps, CFG)
    assert rep.checks["alpha_admissible"]
    assert rep.values["nu_steps"] == [
        virtual_dim(sys),
        virtual_dim(make_system([2], [3], [(2, 4)])),
        virtual_dim(make_system([2], [1], [(1, 4)])),
    ] == [1, -3, -2]
    assert rep.values["oracle_h0"] == 0  # no line through 4 general points


def test_configuration_rejects_mixed_and_empty():
    with pytest.raises(ValueError):
        classify_configuration(QUARTIC43, [])
    steps = [
        ConfigStep(Line((0, 1)), 2),
        ConfigStep(Hypersurface.through_all(QUARTIC43, [1]), 1),
    ]
    with pytest.raises(NotImplementedError):
        classify_configuration(QUARTIC43, steps, CFG)


def test_configuration_rejects_repeated_line():
    # a line given twice is malformed input, the one check of systems.check_lines
    steps = [ConfigStep(Line((0, 1)), 2), ConfigStep(Line((1, 0)), 2)]
    with pytest.raises(ValueError, match="given twice"):
        classify_configuration(QUARTIC43, steps, CFG)


def test_configuration_flags_unabsorbed_overlap():
    # two double lines through a shared double point: the shared point is not
    # fat enough to absorb the germ overlap, so the chi accounting is not
    # trusted and the configuration is not accepted
    sys = make_system([3], [2], [(2, 3)])
    steps = [ConfigStep(Line((0, 1)), 2), ConfigStep(Line((0, 2)), 2)]
    rep = classify_configuration(sys, steps, CFG)
    assert not rep.checks["line_overlaps_absorbed"]
    assert not rep.is_sev


def test_curve_restriction_cohomology():
    assert curve_restriction_cohomology(make_system([4], [3], [(2, 7)]), 4, [2] * 7) == (0, 1)
    assert curve_restriction_cohomology(make_system([3], [2], [(2, 2)]), 1, [2, 2]) == (0, 1)
    assert curve_restriction_cohomology(make_system([3], [2], [(2, 2)]), 1, [2]) == (1, 0)
    for e, mults in [(1, [2, 2]), (3, [2] * 5), (2, [4, 3])]:
        sys = make_system([3], [5], [(2, 2)])
        h0, h1 = curve_restriction_cohomology(sys, e, mults)
        assert h0 - h1 == 5 * e - sum(mults) + 1


def test_h1_check_laface_ugaglia_quadric():
    rep = h1_sev_check(LAFACE_UGAGLIA, Hypersurface.through_all(LAFACE_UGAGLIA, [2]), CFG)
    assert rep.cond_a and rep.cond_b and rep.cond_c and rep.h2_handled
    assert rep.is_h1_sev
    assert rep.values["h0_system"] == 5 and rep.values["h0_residual"] == 5


def test_h1_check_span_subspace():
    for n, h in [(3, 2), (4, 3), (5, 5), (6, 4)]:
        sys = make_system([n], [2], [(2, h)])
        rep = h1_sev_check(sys, LinearSubspace(h - 1, h), CFG)
        assert rep.cond_a and rep.cond_b
        assert rep.values["h1_restriction"] == h * (h - 1) // 2
        assert not rep.h2_handled  # h^2 of the residual is not computed here


def test_h1_check_plane_on_quartic43_fails_a():
    rep = h1_sev_check(QUARTIC43, LinearSubspace(2, 3), CFG)
    assert not rep.cond_a
    assert rep.values["h0_restriction"] == 1  # the restricted planar system is special


def test_h1_check_rnc_for_cubics_p4():
    rep = h1_sev_check(make_system([4], [3], [(2, 7)]), RationalNormalCurve(), CFG)
    assert rep.is_h1_sev and rep.h2_handled
    assert rep.values["restriction_degree"] == -2


def test_h1_check_quartic_divisors():
    # the conic/quadric through all double points of the quartic systems
    for n in (2, 3, 4):
        s = binom(2 + n, n) - 1
        sys = make_system([n], [4], [(2, s)])
        rep = h1_sev_check(sys, Hypersurface.through_all(sys, [2]), CFG)
        assert rep.is_h1_sev
        expected_h1 = 2 if n == 3 else 1
        assert rep.values["h1_restriction"] == expected_h1


def test_h1_check_line_on_quartic43():
    rep = h1_sev_check(QUARTIC43, Line((0, 1)), CFG)
    assert rep.cond_a and rep.cond_b
    assert not rep.h2_handled  # points are 4-fold, outside the double-point case


def test_h1_check_p3_curve():
    # the line through two double points of P^3 has restriction degree 2 - 4:
    # no sections, h1 = 1, and h0 of the quadrics is the residual's
    rep = h1_sev_check(make_system([3], [2], [(2, 2)]), RationalCurveP3(1), CFG)
    assert rep.is_h1_sev
    assert rep.values["h1_restriction"] == 1 and rep.values["h0_residual"] == 3
    # quartics restrict with degree 0, so only the exact-sequence bound 27 - 1
    rep = h1_sev_check(make_system([3], [4], [(2, 2)]), RationalCurveP3(1), CFG)
    assert not rep.cond_a
    assert rep.values["h0_residual_lower_bound"] == 26


def test_h1_check_product_divisor():
    sys = make_system([1, 1, 1], [2, 2, 2], [(2, 7)])
    rep = h1_sev_check(sys, Hypersurface.through_all(sys, (1, 1, 1)), CFG)
    assert rep.is_h1_sev
    assert rep.values["h1_restriction"] == 2


def test_every_subspace_caller_checks_the_subspace():
    # a product, P^n itself and more points than the system has are rejected,
    # each with one error type, by every function that takes a subspace
    callers = [
        lambda sys, Y: h0_oracle(sys, CFG, subspace=Y),
        classify_alpha_sev,
        lambda sys, Y: h1_sev_check(sys, Y, CFG),
    ]
    for sys, Y, error, message in [
        (make_system([1, 1], [2, 2], [(2, 2)]), LinearSubspace(1, 1), NotImplementedError, "single P"),
        (make_system([3], [4], [(2, 3)]), LinearSubspace(3, 3), ValueError, "s <= n-1, got s=3"),
        (make_system([3], [4], [(2, 3)]), LinearSubspace(2, 4), ValueError, "more incident points"),
    ]:
        for call in callers:
            with pytest.raises(error, match=message):
                call(sys, Y)


def test_h1_check_subspace_fallback_residual():
    # condition (a) fails for the plane, so the residual h0 comes from the
    # oracle with explicit vanishing on the subspace: one section of the 27
    # is lost to the plane
    rep = h1_sev_check(QUARTIC43, LinearSubspace(2, 3), CFG)
    assert rep.values["h0_residual"] == 26


def test_sev_report_json_fields():
    rep = classify_alpha_sev(LAFACE_UGAGLIA, Hypersurface.through_all(LAFACE_UGAGLIA, [2]))
    obj = rep.to_json()
    assert set(obj) == {
        "holds_property",
        "is_sev",
        "alpha_max",
        "nu_system",
        "nu_residual",
        "checks",
        "values",
    }
