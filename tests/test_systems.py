import json

import pytest

from fatpoints.combinatorics import binom, neighbourhood_count
from fatpoints.effect_varieties import ConfigStep, Line, classify_configuration
from fatpoints.oracle import h0_oracle
from fatpoints.systems import (
    FatPointGroup,
    LinearSystem,
    Space,
    dim_report,
    lower_h0,
    make_system,
    monomial_count,
    point_conditions,
    system_from_json,
    virtual_dim,
)


def test_space_validation():
    with pytest.raises(ValueError):
        Space(())
    with pytest.raises(ValueError):
        Space((0,))
    assert Space((3,)).n == 3
    with pytest.raises(ValueError):
        Space((1, 1)).n


def test_monomial_count_examples():
    assert monomial_count(Space((3,)), (9,)) == 220
    assert monomial_count(Space((1, 1)), (2, 2)) == 9
    assert monomial_count(Space((5,)), (0,)) == 1
    with pytest.raises(ValueError):
        monomial_count(Space((1, 1)), (2,))


def test_point_conditions_examples():
    assert point_conditions(6, Space((3,))) == 56
    assert point_conditions(2, Space((1, 1, 1))) == 4
    assert point_conditions(2, Space((4,))) == 5
    assert point_conditions(1, Space((2, 3))) == 1
    # a point of a product counts as one of P^N, N = sum(n_i)
    assert point_conditions(3, Space((1, 1))) == point_conditions(3, Space((2,))) == 6
    assert point_conditions(4, Space((1, 2))) == 20


def test_virtual_dim_known_systems():
    assert virtual_dim(make_system([3], [9], [(6, 1), (4, 8)])) == 3
    assert virtual_dim(make_system([3], [7], [(5, 1), (3, 8)])) == 4
    assert virtual_dim(make_system([3], [6], [(4, 3)])) == 23


def test_expected_dim_examples():
    assert dim_report(make_system([3], [4], [(2, 9)])).expected_dim == -1
    assert dim_report(make_system([3], [9], [(6, 1), (4, 8)])).expected_dim == 3
    sys = make_system([2], [5], [])
    assert dim_report(sys).expected_dim == monomial_count(sys.space, sys.multidegree) - 1


def test_dim_report_examples():
    rep = dim_report(make_system([2], [4], [(2, 5)]))
    assert (rep.monomials, rep.conditions, rep.virtual_dim, rep.expected_dim) == (15, 15, -1, -1)
    rep = dim_report(make_system([4], [3], [(2, 7)]))
    assert (rep.monomials, rep.conditions, rep.virtual_dim, rep.expected_dim) == (35, 35, -1, -1)
    rep = dim_report(make_system([1], [0], [(1, 1)]))
    assert (rep.monomials, rep.conditions, rep.virtual_dim, rep.expected_dim) == (1, 1, -1, -1)


def test_adding_points_strictly_decreases_virtual_dim():
    base = make_system([3], [5], [(2, 2)])
    for extra in [(1, 1), (2, 3), (4, 1)]:
        bigger = make_system([3], [5], [(2, 2), extra])
        assert virtual_dim(bigger) < virtual_dim(base)


def test_virtual_dim_permutation_invariance():
    a = make_system([3], [7], [(5, 1), (3, 8)])
    b = make_system([3], [7], [(3, 8), (5, 1)])
    assert virtual_dim(a) == virtual_dim(b)
    # products: permute factors together with the multidegree
    c = make_system([1, 2], [4, 2], [(2, 5)])
    d = make_system([2, 1], [2, 4], [(2, 5)])
    assert virtual_dim(c) == virtual_dim(d)


def test_group_validation():
    with pytest.raises(ValueError):
        FatPointGroup(0, 1)
    with pytest.raises(ValueError):
        FatPointGroup(2, 0)
    with pytest.raises(ValueError):
        LinearSystem(Space((2,)), (-1,), ())


def test_point_multiplicities_flattening():
    sys = make_system([3], [9], [(6, 1), (4, 8)])
    assert sys.point_multiplicities() == (6,) + (4,) * 8
    assert sys.total_points == 9


def test_json_round_trip_and_shape():
    sys = make_system([3], [9], [(6, 1), (4, 8)])
    obj = {
        "space": [3],
        "degree": [9],
        "points": [{"mult": 6, "count": 1}, {"mult": 4, "count": 8}],
    }
    assert system_from_json(obj) == sys
    assert system_from_json(json.dumps(obj)) == sys


MALFORMED_SPECS = [
    {"space": "33", "degree": [2]},
    {"space": [3], "degree": 9},
    {"space": [3], "degree": [4], "points": [{"mult": 2.7}]},
    {"space": [3], "degree": [4], "points": [{"mult": True}]},
    {"space": [3.9], "degree": [4]},
]


def test_json_errors():
    with pytest.raises(ValueError):
        system_from_json({"space": [3]})
    with pytest.raises(ValueError):
        system_from_json({"space": [3], "degree": [2], "points": [{"count": 2}]})
    with pytest.raises(ValueError):
        system_from_json("[1,2]")
    # space and degree are lists, and every number a JSON integer: a string,
    # bool or float is not read as one
    for bad in MALFORMED_SPECS:
        with pytest.raises(ValueError, match="system spec"):
            system_from_json(bad)
    with pytest.raises(ValueError, match="count must be an integer"):
        system_from_json({"space": [3], "degree": [4], "points": [{"mult": 2, "count": 3.0}]})


def test_first_points():
    sys = make_system([3], [2], [(2, 5), (1, 2)])
    assert sys.first_points(6) == make_system([3], [2], [(2, 5), (1, 1)])
    assert sys.first_points(3) == make_system([3], [2], [(2, 3)])
    assert sys.first_points(0) == make_system([3], [2], [])
    assert sys.first_points(7) == sys
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="out of range"):
            sys.first_points(bad)


def test_lower_h0_examples():
    # P1xP1, bidegree (2d, 2), 2d+1 double points: the floor is 0, and the
    # (d, 1)-curve through the points, taken twice, leaves the constants
    for d in range(1, 5):
        sys = make_system([1, 1], [2 * d, 2], [(2, 2 * d + 1)])
        assert virtual_dim(sys) + 1 == 0
        assert lower_h0(sys) == 1
    # the degree-9 counterexample in P^3: the quadric through the nine points
    # leaves the degree-7 system with a 5-fold and eight triple points
    sys = make_system([3], [9], [(6, 1), (4, 8)])
    assert virtual_dim(sys) + 1 == 4
    assert lower_h0(sys) == 5
    # no points, and the floor where nothing else applies
    assert lower_h0(make_system([2], [3], [])) == 10
    # cubics double at 7 points of P^4: the floor is 0, and the Cremona
    # reduction at five of them leaves quadrics double at 2 points and
    # through 5, then hyperplanes through 4 points, 1; plane quartics
    # double at 5 points, the double conic: the reduction at three of them
    # leaves conics double at 2 points, the double line
    assert lower_h0(make_system([4], [3], [(2, 7)])) == 1
    assert lower_h0(make_system([2], [4], [(2, 5)])) == 1
    assert lower_h0(make_system([2], [5], [(2, 3), (1, 2)])) == virtual_dim(
        make_system([2], [5], [(2, 3), (1, 2)])
    ) + 1
    # group order does not matter
    assert lower_h0(make_system([3], [9], [(4, 8), (6, 1)])) == 5
    # a pencil of forms of degree e = d/2 through the h double points: its
    # Sym^2 has dimension 3, one above the floor on the products
    assert lower_h0(make_system([1, 2], [2, 2], [(2, 4)])) == 3
    assert lower_h0(make_system([1, 2], [4, 2], [(2, 7)])) == 3
    assert lower_h0(make_system([3, 3], [2, 2], [(2, 14)])) == 3
    assert lower_h0(make_system([2], [4], [(2, 4)])) == 3  # 15 - 12, the floor too
    # a net through the points is not a pencil: the floor stays, 30 - 25
    assert lower_h0(make_system([1, 3], [2, 2], [(2, 5)])) == 5


def test_lower_h0_keeps_the_double_rational_normal_curve_bound():
    # forms singular along the rational normal curve C through at most n+3
    # points of multiplicity at most 2 lie in L, and at least C(n+d, n) -
    # h0(O_2C(d)) of them are independent; the Cremona rule and the others
    # reach that count on every such system
    for n in range(2, 6):
        for d in range(2, 9):
            rnc = binom(n + d, n) - neighbourhood_count(n, 1, d, 2, e=n, c=n + 2)
            for doubles in range(n + 4):
                for simples in range(n + 4 - doubles):
                    pts = [(m, c) for m, c in ((2, doubles), (1, simples)) if c]
                    sys = make_system([n], [d], pts)
                    assert lower_h0(sys) >= rnc, (n, d, doubles, simples)


def test_lower_h0_with_lines():
    # double lines through 8-fold points of degree-14 forms and through
    # 5-fold points of octics in P^4 lie in the base locus (Bezout): no excess
    three = ((0, 1, 2), (0, 2, 2), (1, 2, 2))
    assert lower_h0(make_system([3], [14], [(8, 4)]), three) == 206
    assert lower_h0(make_system([4], [8], [(5, 5)]), three) == 155
    # the sextic with three quadruple points: 23 + 3 lines = 26, plus one
    assert lower_h0(make_system([3], [6], [(4, 3)]), three) == 27
    # a double line through the 6-fold point and a 4-fold point of the
    # degree-9 system: its first normal derivatives are binary forms of
    # degree 8 with a 5-fold and a triple point, 2 x 1 conditions
    sys = make_system([3], [9], [(6, 1), (4, 8)])
    assert lower_h0(sys, ((0, 1, 2), (0, 2, 2))) == lower_h0(sys) - 2 - 2 == 1
    # triple lines through triple points of sextics: 1 + 2 x 2 + 3 x 3 = 14
    # conditions each, from the 54 of the pure system
    assert lower_h0(make_system([3], [6], [(3, 3)]), ((0, 1, 3), (0, 2, 3))) == 54 - 14 - 14
    # plane quartics triple along a line are its cube times a linear form: 3,
    # and none contain two triple lines, where the bound is floored at 0
    assert lower_h0(make_system([2], [4], [(1, 2)]), ((0, 1, 3),)) == 3
    assert lower_h0(make_system([2], [4], [(1, 3)]), ((0, 1, 3), (0, 2, 3))) == 0
    # the line bound needs a single P^n, n >= 2
    for spec in [([1], [3], [(1, 2)]), ([1, 1], [2, 2], [(1, 2)])]:
        with pytest.raises(ValueError):
            lower_h0(make_system(*spec), ((0, 1, 1),))


def test_bad_lines_raise_in_lower_h0_and_the_oracle():
    # a line must join two distinct base points with alpha >= 1: a missing
    # point, a repeated one or a negative index that would wrap around is
    # malformed input, never an IndexError or a silent bound
    sys = make_system([3], [4], [(2, 3)])
    for bad in ((0, 5, 2), (0, 0, 2), (-1, 1, 2), (0, 1, 0)):
        with pytest.raises(ValueError, match="line"):
            lower_h0(sys, (bad,))
        with pytest.raises(ValueError, match="line"):
            h0_oracle(sys, extra_schemes=(bad,))


def test_a_line_given_twice_is_rejected():
    # lower_h0 charges each line's excess once per scheme, so the same line
    # given twice would lower the bound and leave a certified answer open:
    # every spelling of the repeat is malformed input, for the bound, the
    # oracle and a configuration alike
    sys = make_system([3], [6], [(3, 5)])
    once = h0_oracle(sys, extra_schemes=((0, 4, 2),))
    assert once.certified and (once.h0, once.lower, once.trials_used) == (29, 29, 1)
    for twice in (((0, 4, 2), (4, 0, 2)), ((0, 4, 2), (0, 4, 2)), ((0, 4, 2), (0, 4, 3))):
        with pytest.raises(ValueError, match="given twice"):
            lower_h0(sys, twice)
        with pytest.raises(ValueError, match="given twice"):
            h0_oracle(sys, extra_schemes=twice)
        steps = [ConfigStep(Line((i, j)), alpha) for i, j, alpha in twice]
        with pytest.raises(ValueError, match="given twice"):
            classify_configuration(sys, steps)
