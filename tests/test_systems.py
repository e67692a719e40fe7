import json

import pytest

from fatpoints.systems import (
    FatPointGroup,
    LinearSystem,
    Space,
    dim_report,
    expected_dim,
    make_system,
    monomial_count,
    point_conditions,
    system_from_json,
    system_to_json,
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


def test_point_conditions_product_multiplicity_cap():
    with pytest.raises(NotImplementedError):
        point_conditions(3, Space((1, 1)))


def test_virtual_dim_known_systems():
    assert virtual_dim(make_system([3], [9], [(6, 1), (4, 8)])) == 3
    assert virtual_dim(make_system([3], [7], [(5, 1), (3, 8)])) == 4
    assert virtual_dim(make_system([3], [6], [(4, 3)])) == 23


def test_expected_dim_examples():
    assert expected_dim(make_system([3], [4], [(2, 9)])) == -1
    assert expected_dim(make_system([3], [9], [(6, 1), (4, 8)])) == 3
    sys = make_system([2], [5], [])
    assert expected_dim(sys) == monomial_count(sys.space, sys.multidegree) - 1


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
    obj = system_to_json(sys)
    assert obj == {
        "space": [3],
        "degree": [9],
        "points": [{"mult": 6, "count": 1}, {"mult": 4, "count": 8}],
    }
    assert system_from_json(obj) == sys
    assert system_from_json(json.dumps(obj)) == sys


def test_json_errors():
    with pytest.raises(ValueError):
        system_from_json({"space": [3]})
    with pytest.raises(ValueError):
        system_from_json({"space": [3], "degree": [2], "points": [{"count": 2}]})
    with pytest.raises(ValueError):
        system_from_json("[1,2]")


def test_first_points():
    sys = make_system([3], [2], [(2, 5), (1, 2)])
    assert sys.first_points(6) == make_system([3], [2], [(2, 5), (1, 1)])
    assert sys.first_points(3) == make_system([3], [2], [(2, 3)])
    assert sys.first_points(0) == make_system([3], [2], [])
    assert sys.first_points(7) == sys
    for bad in (-1, 8):
        with pytest.raises(ValueError, match="out of range"):
            sys.first_points(bad)
