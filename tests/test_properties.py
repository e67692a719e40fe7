"""Properties of the oracle on small random fat-point systems."""
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints.oracle import OracleConfig, h0_oracle
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
