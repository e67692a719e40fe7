import pytest

from fatpoints.combinatorics import binom
from fatpoints.effect_varieties import (
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
    linear_space_residual_nu,
    p3_rational_curve_chi,
    residual_divisor,
    rnc_double_residual_nu,
)
from fatpoints.oracle import OracleConfig
from fatpoints.systems import make_system, virtual_dim

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
    assert linear_space_residual_nu(make_system([3], [4], [(2, 2)]), 1, 2) == 21
    assert linear_space_residual_nu(make_system([3], [2], [(2, 2)]), 1, 2) == 2


def test_linear_space_residual_span_corollary():
    # removing the span of all h points twice stays effective for quadrics
    for n in range(2, 9):
        for h in range(2, n + 1):
            sys = make_system([n], [2], [(2, h)])
            assert linear_space_residual_nu(sys, h - 1, 2, points_on=h) >= 0


def test_rnc_residual_values():
    assert rnc_double_residual_nu(3, 3) == -1
    assert rnc_double_residual_nu(4, 2) == 0
    assert rnc_double_residual_nu(3, 4) == 0
    with pytest.raises(NotImplementedError):
        rnc_double_residual_nu(2, 3)


def test_rnc_residual_self_consistency():
    for d in range(3, 9):
        for n in range(2, 7):
            assert rnc_double_residual_nu(d, n) == binom(d + n, n) - 1 - ((d - 1) * n * n + 2)


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
    steps = [ConfigStep(Line((0, 1)), 2), ConfigStep(Line((1, 0)), 2)]
    with pytest.raises(NotImplementedError):
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
