"""Properties of the oracle on small random fat-point systems."""
from itertools import combinations, product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fatpoints.combinatorics import linear_expected_h0
from fatpoints.oracle import (
    OracleConfig,
    _section_lower,
    cross_checked_h0,
    h0_oracle,
    h0_prefix_oracle,
)
from fatpoints.systems import Space, lower_h0, make_system, monomial_count, point_conditions, virtual_dim

CFG = OracleConfig(trials=2, seed=1357)
# derandomized: every run draws the same examples, so tier-1 stays reproducible
SMALL = settings(derandomize=True, max_examples=50, deadline=None)


def groups(max_mult: int):
    """Up to three (multiplicity, count) groups."""
    return st.lists(st.tuples(st.integers(1, max_mult), st.integers(1, 3)), max_size=3)


# single factors P^2, P^3 and the product P1xP1, where multiplicity is at most 2
systems = st.one_of(
    st.builds(make_system, st.just([2]), st.tuples(st.integers(0, 6)), groups(4)),
    st.builds(make_system, st.just([3]), st.tuples(st.integers(0, 4)), groups(3)),
    st.builds(
        make_system, st.just([1, 1]), st.tuples(st.integers(0, 3), st.integers(0, 3)), groups(2)
    ),
)


@SMALL
@given(st.integers(0, 12), groups(6))
def test_p1_h0_closed_form(d, pts):
    # on P^1 the forms vanishing to order m_i at distinct points are the
    # multiples of the product of the m_i-th powers of their linear forms
    sys = make_system([1], [d], pts)
    assert h0_oracle(sys, CFG).h0 == max(d + 1 - sum(m * c for m, c in pts), 0)


@SMALL
@given(systems)
def test_h0_at_least_virtual(sys):
    assert h0_oracle(sys, CFG).h0 >= max(virtual_dim(sys) + 1, 0)


@SMALL
@given(systems, st.randoms(use_true_random=False))
def test_h0_independent_of_group_order(sys, rnd):
    shuffled = list(sys.points)
    rnd.shuffle(shuffled)
    other = make_system(sys.space.factors, sys.multidegree, [(g.multiplicity, g.count) for g in shuffled])
    assert h0_oracle(other, CFG).h0 == h0_oracle(sys, CFG).h0


@SMALL
@given(systems)
def test_prefix_series_equals_each_cut(sys):
    series = h0_prefix_oracle(sys, CFG)
    assert series == [h0_oracle(sys.first_points(h), CFG) for h in range(sys.total_points + 1)]


@SMALL
@given(systems)
def test_adding_a_point_never_raises_h0(sys):
    h0s = [res.h0 for res in h0_prefix_oracle(sys, CFG)]
    assert all(after <= before for before, after in zip(h0s, h0s[1:]))


@SMALL
@given(systems)
def test_two_primes_agree(sys):
    cuts = [sys.first_points(h) for h in range(sys.total_points + 1)]
    assert all(cross_checked_h0(cut, CFG).agreed for cut in cuts)


@SMALL
@given(systems, st.integers(0, 8))
def test_raising_a_multiplicity_never_raises_h0(sys, pick):
    # one group per point keeps every point's flattened index, so both
    # systems sample the same points; products allow multiplicity 2 at most
    mults = list(sys.point_multiplicities())
    raisable = [i for i, m in enumerate(mults) if sys.space.nfactors == 1 or m < 2]
    assume(raisable)
    mults[raisable[pick % len(raisable)]] += 1
    raised = make_system(sys.space.factors, sys.multidegree, [(m, 1) for m in mults])
    assert h0_oracle(raised, CFG).h0 <= h0_oracle(sys, CFG).h0


@SMALL
@given(systems)
def test_lower_bound_never_exceeds_h0(sys):
    assert lower_h0(sys) <= h0_oracle(sys, CFG).h0


@SMALL
@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.just(n), st.integers(0, 5), st.lists(st.integers(1, 6), max_size=n + 2)
    )
))
def test_linear_expected_h0_is_h0_for_at_most_n_plus_2_points(case):
    n, d, mults = case
    sys = make_system([n], [d], [(m, 1) for m in mults])
    assert linear_expected_h0(n, d, mults) == h0_oracle(sys, CFG).h0


@st.composite
def line_systems(draw):
    """A system on P^2, P^3 or P^4 with 2 to 4 points and 1 to 3 distinct
    lines through pairs of them, each of multiplicity at most 3."""
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, 10 - 2 * n))
    mults = draw(st.lists(st.integers(1, d), min_size=2, max_size=4))
    lines = draw(st.lists(
        st.tuples(st.sampled_from(list(combinations(range(len(mults)), 2))), st.integers(1, 3)),
        min_size=1, max_size=3, unique_by=lambda line: line[0],
    ))
    return make_system([n], [d], [(m, 1) for m in mults]), tuple((i, j, a) for (i, j), a in lines)


@SMALL
@given(line_systems())
def test_line_bound_never_exceeds_h0(case):
    sys, lines = case
    assert lower_h0(sys, lines) <= h0_oracle(sys, CFG, extra_schemes=lines).h0


def bound_grid(max_monomials=None):
    """m^h on P^2-P^4 (degree <= 8, m <= 4) and on P1xP1, P1xP2, P2xP2 and
    (P1)^3 (total degree <= 8, m <= 2), for h up to one point past the
    floor's first 0; optionally only where monomial_count is at most
    max_monomials."""
    for factors, top, mmax in [
        ((2,), 8, 4), ((3,), 8, 4), ((4,), 8, 4),
        ((1, 1), 4, 2), ((1, 2), 4, 2), ((2, 2), 4, 2), ((1, 1, 1), 2, 2),
    ]:
        space = Space(factors)
        for degree in product(range(1, top + 1), repeat=len(factors)):
            mono = monomial_count(space, degree)
            if sum(degree) > 8 or mono > (max_monomials or mono):
                continue
            for m in range(1, mmax + 1):
                for h in range(1, mono // point_conditions(m, space) + 2):
                    yield make_system(factors, degree, [(m, h)])


def bounds_within_h0(sys, cfg):
    """Neither lower bound exceeds h0; h0_oracle itself raises where a bound
    exceeds a trial value."""
    res = h0_oracle(sys, cfg)
    return lower_h0(sys) <= res.h0 and _section_lower(sys, cfg, 0, res.cols) <= res.h0


def test_lower_bounds_never_exceed_h0_on_grid():
    # every fifth system with at most 50 monomials (26 section certificates);
    # the whole grid, 5,196 systems with 624 certificates, takes about 70 s
    cfg = OracleConfig(seed=5)
    assert all(bounds_within_h0(sys, cfg) for sys in list(bound_grid(50))[::5])
