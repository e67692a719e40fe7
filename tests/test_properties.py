"""Properties of the oracle on small random fat-point systems."""
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fatpoints.oracle import OracleConfig, cross_checked_prefix, h0_oracle, h0_prefix_oracle
from fatpoints.systems import make_system, virtual_dim

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
    assert all(cc.agreed for cc in cross_checked_prefix(sys, CFG))


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
