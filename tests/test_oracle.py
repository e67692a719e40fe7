import random
from bisect import bisect_left
from dataclasses import replace

import numpy as np
import pytest

from fatpoints import oracle
from fatpoints.oracle import (
    DEFAULT_PRIME,
    PANEL,
    OracleConfig,
    OracleSamplingError,
    PrimeField,
    SECOND_PRIME,
    CrossCheckedH0,
    OracleResult,
    SubspaceScheme,
    _RowBuilder,
    _basis,
    _condition_matrix,
    _halves,
    _join_inverses,
    _pivot_columns,
    _sub_mulmod,
    _unit_lower_inverse,
    cross_checked_h0,
    h0_oracle,
    h0_prefix_oracle,
    rank_mod_p,
    restrict_to_subspace,
    sample_points,
)
from fatpoints.combinatorics import binom
from fatpoints.systems import Space, dim_report, expected_dim, lower_h0, make_system, virtual_dim

CFG = OracleConfig(trials=2, seed=4242)


def slow_pivot_columns(rows, p):
    """Independent elimination in plain Python lists, one column at a time
    and one row at a time. It reduces the columns in order, so its rank
    after column c is the rank of the first c + 1 columns: the columns where
    the rank grows are the column rank profile."""
    rows = [[int(x) % p for x in row] for row in rows]
    rank = 0
    pivots = []
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        pivots.append(c)
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank][c:]
        inv = pow(top[0], -1, p)
        # rows below the pivot row; columns left of c are never read again
        for row in rows[rank + 1 :]:
            if row[c]:
                f = row[c] * inv % p
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], top)]
        rank += 1
    return pivots


def slow_rank_mod_p(rows, p):
    return len(slow_pivot_columns(rows, p))


def _product_mod(rng, m, r, n, p):
    """A random m x n matrix of rank at most r: an m x r times r x n product mod p."""
    a = np.array([[rng.randrange(p) for _ in range(r)] for _ in range(m)], dtype=np.int64)
    b = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(r)], dtype=np.int64)
    out = np.zeros((m, n), dtype=np.int64)
    for k in range(r):  # one rank-one term at a time: each product is below 2^62
        out = (out + a[:, k, None] * b[k] % p) % p
    return out


def test_rank_against_independent_elimination(monkeypatch):
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randrange(1, 8)
        n = rng.randrange(1, 8)
        r = rng.randrange(0, min(m, n) + 1)
        # random rank-r matrix: product of m x r and r x n
        a = [[rng.randrange(97) for _ in range(r)] for _ in range(m)]
        b = [[rng.randrange(97) for _ in range(n)] for _ in range(r)]
        mat = [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(n)] for i in range(m)]
        got = rank_mod_p(np.array(mat, dtype=np.int64), 97)
        assert got == slow_rank_mod_p(mat, 97)
        assert got <= r
    # column counts on both sides of one and two PANEL boundaries, so pivots
    # land in later panels and the rows below take trailing updates; some
    # matrices get an empty column at the start of their second panel
    p = DEFAULT_PRIME
    for m, n, r, zero_col in [
        (90, 63, 50, None),
        (40, 64, 33, None),
        (100, 65, 60, PANEL),
        (70, 130, 66, PANEL),
        (135, 129, 70, None),
    ]:
        mat = _product_mod(rng, m, r, n, p)
        if zero_col is not None:
            mat[:, zero_col] = 0
        got = rank_mod_p(mat, p)
        assert got == slow_rank_mod_p(mat.tolist(), p), (m, n, r)
        assert got <= r
    full = np.full((130, 130), p - 1, dtype=np.int64)
    assert rank_mod_p(full, p) == slow_rank_mod_p(full.tolist(), p) == 1

    # tall matrices, whose panels are factored as halves down to 8 or fewer
    # columns; each half-panel boundary b gets a zero column and a column
    # that depends only on the columns left of b in its panel, and the top
    # rows start with 48 zeros, so that the pivot searches swap rows
    widths = []
    real_factor = oracle._factor

    def recording(A, r, c0, c1, p, inverse):
        widths.append(c1 - c0)
        return real_factor(A, r, c0, c1, p, inverse)

    monkeypatch.setattr(oracle, "_factor", recording)
    for m, n, r, bounds in [
        (170, 40, 36, (5, 10, 20)),
        (280, 70, 60, (8, 16, 32, 65)),
        (300, 64, 60, (8, 16, 32)),
    ]:
        mat = _product_mod(rng, m, r, n, p)
        mat[: m // 4, :48] = 0
        for b in bounds:
            start = b - b % PANEL
            mat[:, b] = 0
            mix = [rng.randrange(p) for _ in range(start, b)]
            mat[:, b + 1] = np.array(
                [sum(x * int(v) for x, v in zip(mix, row[start:b])) % p for row in mat.tolist()]
            )
        widths.clear()
        pivots = _pivot_columns(mat, p)
        assert {min(n, PANEL) // 2**j for j in range(4)} <= set(widths), (m, n, sorted(set(widths)))
        assert pivots == slow_pivot_columns(mat.tolist(), p), (m, n, r)
        assert not {c for b in bounds for c in (b, b + 1)} & set(pivots)


def test_join_inverses_matches_forward_substitution():
    # a split panel's L11^-1 is joined from its halves' inverses
    rng = np.random.default_rng(3)
    p = DEFAULT_PRIME
    for k1, k2 in [(1, 1), (5, 3), (32, 32), (8, 0), (0, 4)]:
        k = k1 + k2
        L = np.tril(rng.integers(0, p, (k, k)), -1) + np.eye(k, dtype=np.int64)
        joined = _join_inverses(
            _unit_lower_inverse(L[:k1, :k1], p), L[k1:, :k1], _unit_lower_inverse(L[k1:, k1:], p), p
        )
        assert np.array_equal(joined, _unit_lower_inverse(L, p)), (k1, k2)
        product = [[sum(int(a) * int(b) for a, b in zip(row, col)) % p for col in joined.T] for row in L]
        assert product == np.eye(k, dtype=np.int64).tolist()


def _profile_matrix(rng, m, n, fresh, p):
    """An m x n matrix whose rows are random at the indices in fresh and
    random combinations of two earlier rows elsewhere (zero before any)."""
    rows = []
    for i in range(m):
        if i in fresh or not rows:
            rows.append([rng.randrange(p) if i in fresh else 0 for _ in range(n)])
            continue
        a, b = rng.choice(rows), rng.choice(rows)
        x, y = rng.randrange(p), rng.randrange(p)
        rows.append([(x * u + y * v) % p for u, v in zip(a, b)])
    return np.array(rows, dtype=np.int64)


def test_pivot_profile_gives_every_prefix_rank():
    # the rank of the first k rows is the number of pivot columns of the
    # transpose below k; the row counts put independent rows in the first,
    # second and third PANEL of the transpose, so its trailing updates run
    rng = random.Random(11)
    p = DEFAULT_PRIME
    fresh = {0, 1, 4, 30, 61, 62, 65, 90, 127, 128, 129}
    for m, n in [(63, 12), (64, 12), (65, 12), (129, 12), (130, 12), (130, 8)]:
        mat = _profile_matrix(rng, m, n, fresh, p)
        # fresh row 61 duplicated across the panel boundary (as the last row
        # when m < 65)
        mat[min(PANEL, m - 1)] = mat[61]
        pivots = _pivot_columns(np.ascontiguousarray(mat.T), p)
        assert pivots == sorted(set(pivots))
        assert len(pivots) == rank_mod_p(mat, p)
        for k in range(m + 1):
            assert bisect_left(pivots, k) == slow_rank_mod_p(mat[:k].tolist(), p), (m, n, k)


def test_exact_product_at_the_bound():
    # every entry p - 1 over PANEL inner terms gives the largest sums
    # _sub_mulmod forms, from the smallest and the largest B
    for p in (DEFAULT_PRIME, SECOND_PRIME):
        x = np.full((3, PANEL), p - 1, dtype=np.int64)
        u = np.full((PANEL, 2), p - 1, dtype=np.int64)
        for b in (0, p - 1):
            B = np.full((3, 2), b, dtype=np.int64)
            _sub_mulmod(B, x, *_halves(u), p)
            want = (b - PANEL * (p - 1) * (p - 1)) % p
            assert B.tolist() == [[want, want]] * 3, (p, b)


def _rows(sys, points, m, p=DEFAULT_PRIME):
    return _RowBuilder(sys, p).rows(points, m)


def test_monomial_exponents_counts():
    assert len(_basis((3,), (9,))) == 220
    assert len(_basis((1, 1), (2, 2))) == 9
    exps = _basis((2,), (2,))
    assert all(sum(e) == 2 for e in exps) and len(set(exps)) == 6


def test_sample_points_deterministic():
    pts1 = sample_points(Space((3,)), 5, CFG)
    pts2 = sample_points(Space((3,)), 5, CFG)
    assert pts1 == pts2
    assert sample_points(Space((3,)), 0, CFG) == []
    # distinct points, nonzero coordinates, last coordinate normalized
    assert len(set(pts1)) == 5
    for (coords,) in pts1:
        assert coords[-1] == 1 and all(c != 0 for c in coords)
    # a different trial gives different points
    assert pts1 != sample_points(Space((3,)), 5, CFG, trial=1)


def test_sample_points_prefix_consistent():
    for space, kwargs in [
        (Space((3,)), {}),
        (Space((1, 1)), {}),
        (Space((4,)), {"subspace": 2}),
        (Space((2,)), {"salt": "off", "trial": 2}),
    ]:
        many = sample_points(space, 12, CFG, **kwargs)
        for h in range(13):
            assert many[:h] == sample_points(space, h, CFG, **kwargs)


def test_sample_points_subspace_constraint():
    pts = sample_points(Space((4,)), 6, CFG, subspace=2)
    for (coords,) in pts:
        assert coords[3] == coords[4] == 0 and coords[2] == 1
    for bad in (0, 5):
        with pytest.raises(ValueError, match="1 <= s <= n"):
            sample_points(Space((4,)), 2, CFG, subspace=bad)


def test_fat_point_row_counts():
    sys3 = make_system([3], [4], [(2, 1)])
    pt = sample_points(Space((3,)), 1, CFG)[0]
    assert _rows(sys3, [pt], 1).shape == (1, 35)
    assert _rows(sys3, [pt], 2).shape == (4, 35)
    assert _rows(sys3, [pt], 6).shape == (56, 35)
    assert _rows(sys3, [pt, pt, pt], 2).shape == (12, 35)
    assert _rows(sys3, [], 2).shape == (0, 35)
    sysp = make_system([1, 1, 1], [2, 2, 2], [(2, 1)])
    ptp = sample_points(Space((1, 1, 1)), 1, CFG)[0]
    assert _rows(sysp, [ptp], 2).shape == (4, 27)
    with pytest.raises(NotImplementedError):
        _rows(sysp, [ptp], 3)
    with pytest.raises(ValueError, match="nonzero coordinate"):
        _rows(sys3, [((0, 0, 0, 0),)], 1)


def test_fat_point_rows_kill_expected_monomials():
    # at a coordinate point the m-fold conditions kill exactly the monomials
    # of low degree in the other variables
    sys3 = make_system([2], [3], [(2, 1)])
    pt = ((1, 0, 0),)
    rows = _rows(sys3, [pt], 2)
    rank = rank_mod_p(rows, DEFAULT_PRIME)
    assert rank == 3
    h0 = 10 - rank
    assert h0 == 7  # cubics with a double point at a coordinate point


def coordinate_points(factors, k):
    return [tuple(tuple(int(c == i) for c in range(n + 1)) for n in factors) for i in range(k)]


def test_frame_conditions_delete_columns():
    # at the coordinate points every condition is a monomial: the rows of a
    # point of multiplicity m at e_i, and of a line e_i e_j of multiplicity
    # alpha, vanish off the columns of order below m (alpha) there, and all
    # of them together have rank the size of the union of those columns
    p = DEFAULT_PRIME
    for factors, degree, mults, lines in [
        ([2], [4], (3, 3), ()),  # 3 + 3 >= 4 + 2: the two sets overlap
        ([3], [5], (4, 4, 3), ()),
        ([3], [3], (4, 1), ()),  # m >= d + 1 deletes every column
        ([2], [2], (1, 3, 1), ()),
        ([1, 1], [2, 2], (2, 2), ()),  # double points (e_i, e_i)
        ([1, 2], [2, 3], (2, 1), ()),
        ([2, 2], [1, 2], (2, 2, 2), ()),
        ([1, 1, 1], [1, 2, 2], (2, 2), ()),
        # alpha 2 <= 4 + 4 - 6: the line 01 lies in the base locus already
        ([3], [6], (4, 4, 1), ((0, 1, 2), (0, 2, 1))),
        ([2], [5], (3, 3, 2), ((0, 1, 1), (1, 2, 2))),
        ([4], [4], (2, 2, 2), ((0, 1, 3), (1, 2, 3), (0, 2, 1))),
    ]:
        builder = _RowBuilder(make_system(factors, degree, []), p)
        frame = coordinate_points(factors, len(mults))
        blocks = [builder.rows([pt], m) for pt, m in zip(frame, mults)]
        blocks += [builder.line_rows((frame[i], frame[j]), alpha) for i, j, alpha in lines]
        A = np.vstack(blocks)
        drop = np.zeros(builder.cols, dtype=bool)
        for i, m in enumerate(mults):
            drop |= builder.orders((i,)) < m
        for i, j, alpha in lines:
            # Bezout: the line adds columns exactly past the order that its
            # two points force along it
            line = builder.orders((i, j)) < alpha
            assert (line & ~drop).any() == (alpha > mults[i] + mults[j] - degree[0]), (i, j)
        for i, j, alpha in lines:
            drop |= builder.orders((i, j)) < alpha
        case = (factors, degree, mults, lines)
        assert rank_mod_p(A, p) == drop.sum() == slow_rank_mod_p(A.tolist(), p), case
        assert not A[:, ~drop].any(), case
        sys = make_system(factors, degree, [(m, 1) for m in mults])
        res = h0_oracle(sys, CFG, extra_schemes=lines)
        assert (res.h0, res.lower, res.trials_used) == (builder.cols - drop.sum(), res.h0, 1), case
        if max(mults) > sum(degree):
            assert drop.all(), case


def _value_row(sys, point, p=DEFAULT_PRIME):
    """Every monomial evaluated at the point, each factor scaled so its last
    nonzero coordinate is 1, in plain Python."""
    flat = []
    for coords in point:
        last = max(i for i, x in enumerate(coords) if x % p)
        inv = pow(coords[last], -1, p)
        flat.extend(x * inv % p for x in coords)
    row = []
    for exps in _basis(sys.space.factors, sys.multidegree):
        val = 1
        for x, a in zip(flat, exps):
            val = val * pow(x, a, p) % p
        row.append(val)
    return row


def test_batched_rows_match_single_points():
    # a batch is the per-point rows stacked in point order, also when its
    # points lie in different charts and are built in separate sub-batches
    rng = random.Random(11)
    for factors, degree, mults in [([3], [6], (1, 2, 3, 4)), ([1, 1], [2, 3], (1, 2))]:
        sys = make_system(factors, degree, [])
        builder = _RowBuilder(sys, DEFAULT_PRIME)
        for m in mults:
            pts = sample_points(sys.space, rng.randrange(2, 7), CFG, salt=f"batch{m}")
            # a point given at another scale is the same point
            pts.append(tuple(tuple(3 * x for x in coords) for coords in pts[0]))
            single = [builder.rows([pt], m) for pt in pts]
            assert np.array_equal(builder.rows(pts, m), np.vstack(single)), (factors, m)
            assert single[0].shape[0] == binom(sum(factors) + m - 1, m - 1)
            assert all(block[0].tolist() == _value_row(sys, pt) for block, pt in zip(single, pts))
            assert np.array_equal(single[0], single[-1])
    # a mixed group in P^3: points on a plane (chart x_2) and on a line
    # (chart x_1) interleaved with free points (chart x_3)
    sys = make_system([3], [4], [])
    builder = _RowBuilder(sys, DEFAULT_PRIME)
    plane = sample_points(Space((3,)), 3, CFG, subspace=2)
    line = sample_points(Space((3,)), 2, CFG, subspace=1)
    free = sample_points(Space((3,)), 3, CFG, salt="free")
    pts = [plane[0], free[0], line[0], free[1], plane[1], plane[2], line[1], free[2]]
    for m in (1, 2, 3):
        single = [builder.rows([pt], m) for pt in pts]
        assert np.array_equal(builder.rows(pts, m), np.vstack(single)), m
        assert all(block[0].tolist() == _value_row(sys, pt) for block, pt in zip(single, pts))
    # on P1xP1 a point may take a different chart in either factor
    sys = make_system([1, 1], [2, 3], [])
    builder = _RowBuilder(sys, DEFAULT_PRIME)
    pts = [((1, 0), (5, 1)), ((3, 7), (2, 9)), ((4, 1), (1, 0)), ((1, 0), (0, 1)), ((6, 1), (8, 1))]
    for m in (1, 2):
        single = [builder.rows([pt], m) for pt in pts]
        assert np.array_equal(builder.rows(pts, m), np.vstack(single)), m
        assert all(block[0].tolist() == _value_row(sys, pt) for block, pt in zip(single, pts))


def _line_rows(sys, line, alpha, p=DEFAULT_PRIME):
    return _RowBuilder(sys, p).line_rows(line, alpha)


def _line_conditions(n, d, alpha):
    """Conditions imposed on degree-d forms of P^n by vanishing to order alpha
    along a line, for alpha <= d+1: in coordinates where the line is
    x_2 = ... = x_n = 0, the monomials killed are those of degree k < alpha in
    x_2..x_n (C(n-2+k, k) of them) times any of the d-k+1 monomials of degree
    d-k in x_0, x_1."""
    return sum(binom(n - 2 + k, k) * (d - k + 1) for k in range(alpha))


def test_line_rows_examples():
    pts = sample_points(Space((3,)), 2, CFG)
    line = (pts[0], pts[1])
    sys1 = make_system([3], [1], [])
    rows = _line_rows(sys1, line, 1)
    assert rank_mod_p(rows, DEFAULT_PRIME) == 2  # planes containing the line
    sys2 = make_system([3], [2], [])
    rows = _line_rows(sys2, line, 2)
    assert rank_mod_p(rows, DEFAULT_PRIME) == 7  # quadrics doubly on it: h0 = 3
    with pytest.raises(ValueError):
        _line_rows(sys2, (pts[0], pts[0]), 2)
    # the same point given at two scales is still a degenerate line
    scaled = (tuple(2 * x for x in pts[0][0]),)
    with pytest.raises(ValueError):
        _line_rows(sys2, (pts[0], scaled), 2)
    for n in (2, 3, 4):
        space = Space((n,))
        a, b = sample_points(space, 2, CFG, salt="line")
        e0 = (tuple(int(i == 0) for i in range(n + 1)),)
        e1n = (tuple(int(i in (1, n)) for i in range(n + 1)),)
        for d in range(1, 9):
            sys = make_system([n], [d], [])
            for alpha in range(1, min(4, d + 1) + 1):
                want = _line_conditions(n, d, alpha)
                assert rank_mod_p(_line_rows(sys, (a, b), alpha), DEFAULT_PRIME) == want
                # e0 + t (e1 + en) has its last nonzero coordinate at 0 for
                # t = 0 and at n otherwise, so this line spans two charts
                for line in ((e0, e1n), (e1n, e0)):
                    got = rank_mod_p(_line_rows(sys, line, alpha), DEFAULT_PRIME)
                    assert got == want, (n, d, alpha, line)


def test_h0_oracle_known_values():
    assert h0_oracle(make_system([4], [3], [(2, 7)]), CFG).h0 == 1
    assert h0_oracle(make_system([3], [6], [(4, 3)]), CFG).h0 == 27
    assert h0_oracle(make_system([3], [9], [(6, 1), (4, 8)]), CFG).h0 == 5


def test_h0_oracle_with_triple_line_scheme():
    # the doubled lines of the 4^3 example lie in the base locus, so h0 stays 27
    sys = make_system([3], [6], [(4, 3)])
    res = h0_oracle(sys, CFG, extra_schemes=((0, 1, 2), (0, 2, 2), (1, 2, 2)))
    assert res.h0 == 27
    assert res.h1 is None  # naive condition count is meaningless here
    assert res.special is None  # so is the pure system's expected dimension


THREE_LINES = ((0, 1, 2), (0, 2, 2), (1, 2, 2))


def test_line_calls_certify_at_one_trial():
    # the benchmark's line calls: h0 (pinned at two primes and five seeds)
    # meets the restriction bound, so the first trial certifies it
    cfg = OracleConfig()
    for spec, lines, h0, rank, rows, lower in [
        (([3], [14], [(8, 4)]), THREE_LINES, 206, 474, 660, 206),
        (([4], [8], [(5, 5)]), THREE_LINES, 155, 340, 485, 155),
        (([3], [9], [(6, 1), (4, 8)]), THREE_LINES[:2], 1, 219, 296, 1),
        (([3], [6], [(4, 3)]), THREE_LINES, 27, 57, 144, 27),
    ]:
        res = h0_oracle(make_system(*spec), cfg, extra_schemes=lines)
        assert (res.h0, res.rank, res.rows) == (h0, rank, rows), spec
        assert (res.lower, res.certified, res.trials_used) == (lower, True, 1), spec
    # triple lines through two pairs of triple points: each costs at most 14
    # conditions and lower_h0 leaves 26, but the three points and both lines
    # lie on the frame, so the count of columns left is exact (this read
    # (30, 26, False, 3) while every point was sampled)
    res = h0_oracle(make_system([3], [6], [(3, 3)]), cfg, extra_schemes=((0, 1, 3), (0, 2, 3)))
    assert (res.h0, res.lower, res.certified, res.trials_used) == (30, 30, True, 1)
    # a subspace call certifies like a pure one: quadrics vanishing on a
    # plane through 3 of 7 points, where the 3 points on it impose nothing
    res = h0_oracle(make_system([3], [2], [(1, 7)]), cfg, subspace=SubspaceScheme(2, 3))
    assert (res.h0, res.lower, res.certified, res.trials_used) == (0, 0, True, 1)


def test_subspace_calls_certify_at_one_trial(monkeypatch):
    # on forms vanishing on the P^s, a point of multiplicity m on it imposes
    # at most C(m-1+n, n) - C(m-1+s, s) conditions: the plane through the
    # sextic's three quadruple points leaves 56 - 3 x (20 - 10) = 26
    sextic, plane = make_system([3], [6], [(4, 3)]), SubspaceScheme(2, 3)
    res = h0_oracle(sextic, OracleConfig(), subspace=plane)
    assert (res.h0, res.lower, res.certified, res.trials_used) == (26, 26, True, 1)
    # points sampled off the plane impose all 60 conditions: the trial value
    # 0 is below the bound, which must fail loudly
    real = oracle.sample_points
    monkeypatch.setattr(
        oracle, "sample_points", lambda space, h, cfg, subspace=None, **kw: real(space, h, cfg, **kw)
    )
    with pytest.raises(OracleSamplingError, match="lower bound 26"):
        h0_oracle(sextic, OracleConfig(), subspace=plane)


def test_double_point_product_cuts_certify_at_one_trial():
    # the forms of degree e = d/2 through the h points span V of dimension
    # k = monomial_count(e) - h, and h0 = C(k+1, 2), that of Sym^2 V: k = 2
    # is the pencil rule of lower_h0, k >= 3 the section certificate
    for spec, k in [
        (([1, 2], [2, 2], [(2, 4)]), 2),
        (([3, 3], [2, 2], [(2, 14)]), 2),
        (([2], [4], [(2, 4)]), 2),
        (([1, 3], [2, 2], [(2, 5)]), 3),
        (([1, 4], [2, 2], [(2, 6)]), 4),
    ]:
        sys, want = make_system(*spec), binom(k + 1, 2)
        res = h0_oracle(sys, OracleConfig())
        assert (res.h0, res.lower, res.certified, res.trials_used) == (want, want, True, 1), spec
        assert (lower_h0(sys) == want) == (k == 2), spec


def test_section_certificate_needs_independent_value_rows(monkeypatch):
    # with a point taken twice, the value rows have rank h - 1 and V is not
    # the generic space: its products would overshoot, so no certificate
    sys = make_system([1, 4], [2, 2], [(2, 6)])
    assert oracle._section_lower(sys, OracleConfig(), 0, 100) == 10
    real = oracle.sample_points

    def first_point_twice(*args, **kwargs):
        points = real(*args, **kwargs)
        return points[:1] + points[:-1]

    monkeypatch.setattr(oracle, "sample_points", first_point_twice)
    assert oracle._section_lower(sys, OracleConfig(), 0, 100) == 0


def test_section_certificate_draws_the_trial_points(monkeypatch):
    # the value rows must sit at the trial's own h points, frame first, so
    # that a certificate speaks for that trial: h + min(C(k+1, 2), value) + 2
    # points, through _trial_points at the trial's index
    sys, cfg = make_system([1, 4], [2, 2], [(2, 6)]), OracleConfig()  # k = 10 - 6 = 4
    calls = []
    real = oracle._trial_points

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "_trial_points", spy)
    for trial, value, count in [(0, 100, 6 + 10 + 2), (2, 7, 6 + 7 + 2)]:
        calls.clear()
        oracle._section_lower(sys, cfg, trial, value)
        assert calls == [(sys.space, count, cfg, trial)]


def test_lines_in_the_base_locus_add_no_rank():
    # Bezout: a degree-d form with multiplicities m_i, m_j at two points
    # vanishes to order m_i + m_j - d along the line joining them, so rows
    # of that order or less add no rank, and one order more adds some
    for n, d, mi, mj in [(2, 5, 4, 3), (3, 6, 4, 4), (3, 7, 5, 3), (4, 4, 3, 3)]:
        sys = make_system([n], [d], [(mi, 1), (mj, 1)])
        builder = _RowBuilder(sys, DEFAULT_PRIME)
        a, b = sample_points(sys.space, 2, CFG)
        points = np.vstack([builder.rows([a], mi), builder.rows([b], mj)])
        base = rank_mod_p(points, DEFAULT_PRIME)
        for alpha in range(1, mi + mj - d + 2):
            rank = rank_mod_p(np.vstack([points, builder.line_rows((a, b), alpha)]), DEFAULT_PRIME)
            assert (rank == base) == (alpha <= mi + mj - d), (n, d, mi, mj, alpha)


def test_subspace_residual_closed_form():
    # forms vanishing on a P^s of P^n through k of h simple points: the k
    # points impose nothing more, the h - k general points off it impose
    # independent conditions
    for n in range(2, 5):
        for s in range(1, n):
            for d in range(1, 5):
                for h in range(9):
                    sys = make_system([n], [d], [(1, h)] if h else [])
                    for k in range(h + 1):
                        res = h0_oracle(sys, CFG, subspace=SubspaceScheme(s, k))
                        want = max(binom(d + n, n) - binom(d + s, s) - (h - k), 0)
                        assert res.h0 == want, (n, s, d, h, k)


def test_h1_oracle_values():
    assert h0_oracle(make_system([3], [2], [(2, 3)]), CFG).h1 == 3
    assert h0_oracle(make_system([3], [4], [(2, 9)]), CFG).h1 == 2
    assert h0_oracle(make_system([3], [3], [(2, 4)]), CFG).h1 == 0


def test_h1_oracle_rejects_line_schemes():
    res = h0_oracle(make_system([3], [2], [(2, 2)]), CFG, extra_schemes=((0, 1, 1),))
    assert res.h1 is None


def test_chi_bookkeeping():
    for n, d, pts in [(2, 4, [(2, 5)]), (3, 5, [(3, 2), (2, 4)]), (4, 3, [(2, 7)])]:
        sys = make_system([n], [d], pts)
        res = h0_oracle(sys, CFG)
        assert res.h1 is not None
        assert res.h0 - res.h1 == virtual_dim(sys) + 1


def test_is_special_examples():
    assert h0_oracle(make_system([2], [4], [(2, 5)]), CFG).special
    r = h0_oracle(make_system([2], [5], [(2, 6)]), CFG)
    assert not r.special and r.h0 == 3
    r = h0_oracle(make_system([3], [4], [(3, 4)]), CFG)
    assert r.special and r.h0 == 1  # the tetrahedron of four planes


def test_result_json_shape():
    res = h0_oracle(make_system([2], [2], [(2, 1)]), CFG)
    assert set(res.to_json()) == {
        "h0", "h1", "rank", "rows", "cols", "special", "prime", "seed", "trials", "lower", "certified"
    }
    assert (res.to_json()["rows"], res.to_json()["cols"]) == (3, 6)


def test_prime_field_validation():
    for p in (DEFAULT_PRIME, SECOND_PRIME, 2147483587, 2, 97):
        assert PrimeField(p).p == p
    # 2^31 and up breaks the exactness of the float64 products; the rest are
    # composite (561 is a Carmichael number, 3215031751 a strong pseudoprime
    # to the bases 2, 3, 5 and 7) or below 2
    for p in (2**31, 4294967311, 1000000, 2147483649, 3215031751, 561, 1, 0, -7):
        with pytest.raises(ValueError):
            PrimeField(p)
    with pytest.raises(ValueError):
        rank_mod_p(np.eye(2, dtype=np.int64), 4294967311)
    # falling factorials of degree 4 vanish mod 3
    with pytest.raises(ValueError, match="largest degree"):
        h0_oracle(make_system([3], [4], [(2, 9)]), OracleConfig(PrimeField(3)))


def test_trial_below_lower_bound_raises(monkeypatch):
    # h0 5 is above the floor 4, so the bound is computed; a rule that
    # claimed one more than h0 must fail loudly, not certify a wrong answer.
    # Five of the nine points are sampled: a cut of frame points alone is
    # exact and reads no bound
    sys = make_system([3], [9], [(6, 1), (4, 8)])
    res = h0_oracle(sys, CFG)
    assert (res.h0, res.lower, res.certified, res.trials_used) == (5, 5, True, 1)
    monkeypatch.setattr(oracle, "lower_h0", lambda cut, lines=(): res.h0 + 1)
    with pytest.raises(OracleSamplingError, match="lower bound 6"):
        h0_oracle(sys, CFG)
    with pytest.raises(OracleSamplingError):
        h0_prefix_oracle(sys, CFG)
    # a line call starts at 0, so its first trial computes the bound too
    with pytest.raises(OracleSamplingError, match="lower bound 6"):
        h0_oracle(sys, CFG, extra_schemes=THREE_LINES[:2])


def test_semicontinuity_floor_on_grid():
    for n in (2, 3):
        for d in (2, 3, 4):
            for h in (1, 3, 6):
                sys = make_system([n], [d], [(2, h)])
                res = h0_oracle(sys, CFG)
                assert res.h0 >= max(virtual_dim(sys) + 1, 0)


def test_adding_point_never_increases_h0():
    for pts_before, pts_after in [
        ([(2, 4)], [(2, 5)]),
        ([(3, 2)], [(3, 2), (1, 1)]),
    ]:
        a = h0_oracle(make_system([3], [4], pts_before), CFG).h0
        b = h0_oracle(make_system([3], [4], pts_after), CFG).h0
        assert b <= a


def frame_then_sampled(space, h, cfg, trial):
    """A trial's points, built apart from the oracle: e_i in every factor
    for i up to the smallest factor dimension, then sample_points."""
    k = min(h, min(space.factors) + 1)
    return coordinate_points(space.factors, k) + sample_points(space, h - k, cfg, trial=trial)


def reference_oracle(sys, cfg, lines=()):
    """h0_oracle the plain way: every trial builds every row at its points,
    the frame's included, with every line, and takes the rank of the whole
    matrix, until the best value meets the lower bound. A system of frame
    points alone is exact at its first trial. Otherwise the oracle's lower
    bound is lower_h0 whether or not it rose above the floor (a trial value
    at the floor squeezes lower_h0 down to it), raised by the section
    certificate for a pure system above it."""
    p = cfg.prime.p
    builder = _RowBuilder(sys, p)
    cols, dims, lower = builder.cols, dim_report(sys), oracle.lower_h0(sys, lines)
    exact = sys.total_points <= min(sys.space.factors) + 1
    best = cols
    for used in range(1, cfg.trials + 1):
        points = frame_then_sampled(sys.space, sys.total_points, cfg, used - 1)
        blocks, start = [np.zeros((0, cols), dtype=np.int64)], 0
        for g in sys.points:
            blocks.append(builder.rows(points[start : start + g.count], g.multiplicity))
            start += g.count
        blocks += [builder.line_rows((points[i], points[j]), alpha) for i, j, alpha in lines]
        A = np.vstack(blocks)
        value = cols - rank_mod_p(A, p)
        if exact:
            lower = value
        elif not lines and value > lower:
            lower = max(lower, oracle._section_lower(sys, cfg, used - 1, value))
        best = min(best, value)
        if best == lower:
            break
    pure = not lines
    return OracleResult(
        h0=best,
        h1=dims.conditions - (cols - best) if pure else None,
        rank=cols - best,
        rows=len(A),
        cols=cols,
        special=best - 1 > dims.expected_dim if pure else None,
        trials_used=used,
        prime=p,
        seed=cfg.seed,
        lower=lower,
        certified=best == lower,
    )


def assert_matches_reference(sys, cfg, cuts=None, lines=()):
    """h0_oracle of sys, and without lines its prefix series at each cut h
    (every h by default), equal reference_oracle field by field."""
    whole = reference_oracle(sys, cfg, lines)
    assert h0_oracle(sys, cfg, extra_schemes=lines) == whole, (sys, lines)
    if lines:
        return
    series = h0_prefix_oracle(sys, cfg)
    for h in range(sys.total_points + 1) if cuts is None else cuts:
        want = whole if h == sys.total_points else reference_oracle(sys.first_points(h), cfg)
        assert series[h] == want, (sys, h)


def random_systems(rng):
    """Small pure systems on P^2-P^4 (multiplicity <= 4) and on P1xP1,
    P1xP2, P2xP2 and (P1)^3 (multiplicity <= 2), and line systems on
    P^2-P^4: each with up to three points more than its frame."""
    for factors, top, mmax in [
        ((2,), 6, 4), ((3,), 5, 4), ((4,), 4, 3),
        ((1, 1), 3, 2), ((1, 2), 2, 2), ((2, 2), 2, 2), ((1, 1, 1), 2, 2),
    ]:
        for _ in range(10):
            degree = [rng.randint(1, top) for _ in factors]
            h = rng.randint(1, min(factors) + 4)
            yield make_system(factors, degree, [(rng.randint(1, mmax), 1) for _ in range(h)]), ()
        if len(factors) == 1:
            for _ in range(10):
                n, d = factors[0], rng.randint(1, top)
                h = rng.randint(2, n + 3)
                pairs = rng.sample([(i, j) for i in range(h) for j in range(i + 1, h)], min(2, h - 1))
                lines = tuple((i, j, rng.randint(1, 3)) for i, j in pairs)
                yield make_system(factors, [d], [(rng.randint(1, d), 1) for _ in range(h)]), lines


def test_oracle_matches_whole_matrix_reference():
    # frame columns counted as deleted and sampled rows eliminated on the
    # columns left give what building and eliminating every row gives
    rng = random.Random(13)
    for seed in (271828, 5):
        cfg = OracleConfig(trials=2, seed=seed)
        for sys, lines in random_systems(rng):
            assert_matches_reference(sys, cfg, lines=lines)


def count_eliminations(monkeypatch):
    shapes = []
    real = oracle._pivot_columns

    def counting(A, p):
        shapes.append(A.shape)
        return real(A, p)

    monkeypatch.setattr(oracle, "_pivot_columns", counting)
    return shapes


def test_shortest_prefix_matches_whole_matrices():
    # a trial builds only the rows of its shortest prefix with lower bound 0;
    # the longer cuts are squeezed between their bound and its value
    for spec in [
        ([3], [9], [(6, 1), (4, 8)]),
        ([4], [3], [(2, 9)]),
        ([2], [4], [(2, 20)]),
        ([3], [4], [(2, 20)]),
    ]:
        assert_matches_reference(make_system(*spec), CFG)


def test_shortest_prefix_matches_whole_matrices_large():
    # 13 quintuple points fill the 455 columns: cuts below, at and past it
    assert_matches_reference(make_system([3], [12], [(5, 20)]), CFG, cuts=(0, 12, 13, 14, 20))
    # 12 septuple points (1008 of the 1344 rows) reach rank 969
    assert_matches_reference(make_system([3], [16], [(7, 16)]), CFG, cuts=(12, 16))


def test_shortest_prefix_row_counts(monkeypatch):
    shapes = count_eliminations(monkeypatch)
    # 12 septuple points (1008 rows) already have rank 969, of the 1344 rows;
    # the 4 frame points delete 4 x 84 = 336 columns, so the other 8 points
    # eliminate 672 x 633 (1008 x 969 while the frame rows were built)
    res = h0_oracle(make_system([3], [16], [(7, 16)]), CFG)
    assert (res.h0, res.rows, res.trials_used, res.certified) == (0, 1344, 1, True)
    assert shapes == [(672, 633)]
    shapes.clear()
    # 13 quintuple points fill the 455 columns, the frame 140 of them
    # (455 x 455 before)
    res = h0_oracle(make_system([3], [12], [(5, 20)]), CFG)
    assert (res.h0, res.rows, res.certified) == (0, 700, True)
    assert shapes == [(315, 315)]
    # 7 double points of P^4 leave the cubic the bound reaches; 8 leave none.
    # The frame's 5 delete 25 of the 35 columns (40 x 35 before)
    shapes.clear()
    assert h0_oracle(make_system([4], [3], [(2, 9)]), CFG).h0 == 0
    assert shapes == [(15, 10)]


def test_shortest_prefix_retry(monkeypatch):
    # with the floor as the only rule, the 7-point prefix of P^4 cubics has
    # value 1 above the bound 0 of the 8- and 9-point cuts: the trial runs
    # again on the 9-point matrix, with the same points
    monkeypatch.setattr(oracle, "lower_h0", lambda cut, lines=(): max(virtual_dim(cut) + 1, 0))
    sys = make_system([4], [3], [(2, 9)])
    shapes = count_eliminations(monkeypatch)
    res = h0_oracle(sys, CFG)
    assert (res.h0, res.lower, res.certified, res.trials_used) == (0, 0, True, 1)
    # the 5 frame points delete 25 of the 35 columns and build no rows:
    # (35, 35) and (45, 35) while they did
    assert shapes == [(10, 10), (20, 10)]
    shapes.clear()
    series = h0_prefix_oracle(sys, CFG)
    assert [r.certified for r in series] == [True] * 7 + [False, True, True]
    # the 8- and 9-point cuts read the 9-point profile after the 7-point
    # one, and the open 7-point cut's second trial builds its own 10 rows
    # ((35, 35), (35, 45) and (35, 35) before)
    assert shapes == [(10, 10), (10, 20), (10, 10)]
    assert_matches_reference(sys, CFG)


def test_prefix_series_matches_each_cut():
    for spec in [
        ([3], [4], [(3, 2), (2, 6), (1, 3)]),
        ([1, 1], [4, 2], [(2, 8)]),
        ([1, 1, 1], [2, 2, 2], [(1, 2), (2, 6)]),
        ([2], [5], [(2, 9)]),
    ]:
        sys = make_system(*spec)
        series = h0_prefix_oracle(sys, CFG)
        assert len(series) == sys.total_points + 1
        for h, res in enumerate(series):
            assert res == h0_oracle(sys.first_points(h), CFG), (spec, h)
    # the (2, 2) double-point series on P1xP1: special only at h = 3
    series = h0_prefix_oracle(make_system([1, 1], [2, 2], [(2, 5)]), CFG)
    assert [r.h0 for r in series] == [9, 6, 3, 1, 0, 0]
    assert [r.special for r in series] == [False, False, False, True, False, False]
    # the double (1,1)-divisor through 3 points certifies h0 = 1 at h = 3,
    # above the floor 0, so every cut stops after its first trial
    assert [r.trials_used for r in series] == [1, 1, 1, 1, 1, 1]
    assert [r.lower for r in series] == [9, 6, 3, 1, 0, 0]
    assert all(r.certified for r in series)


def test_cross_checked_h0_keeps_the_smaller_value(monkeypatch):
    # septics quadruple at 6 points of P^3, special along the twisted cubic
    # through them: h0 = 4, above the bound 0 that every rule leaves, so
    # the second prime runs
    sys = make_system([3], [7], [(4, 6)])
    real = oracle.h0_oracle

    def skewed(skew_prime):
        def oracle_call(sys_, cfg, **kwargs):
            r = real(sys_, cfg, **kwargs)
            return replace(r, h0=r.h0 + 1) if cfg.prime.p == skew_prime else r

        return oracle_call

    # both values bound h0 from above: the smaller is kept, whichever prime
    # read it
    monkeypatch.setattr(oracle, "h0_oracle", skewed(SECOND_PRIME))
    assert cross_checked_h0(sys, CFG) == CrossCheckedH0(4, False, (4, 5), (CFG.prime.p, SECOND_PRIME))
    monkeypatch.setattr(oracle, "h0_oracle", skewed(CFG.prime.p))
    assert cross_checked_h0(sys, CFG) == CrossCheckedH0(4, False, (5, 4), (CFG.prime.p, SECOND_PRIME))


def test_restrict_to_subspace():
    sys = make_system([5], [2], [(2, 4)])
    r = restrict_to_subspace(sys, 3)
    assert r == make_system([3], [2], [(2, 4)])
    r = restrict_to_subspace(make_system([3], [6], [(4, 3)]), 2)
    assert r == make_system([2], [6], [(4, 3)])
    assert restrict_to_subspace(sys, 5) == sys
    r = restrict_to_subspace(make_system([3], [2], [(2, 5), (1, 2)]), 2, points_on=6)
    assert r == make_system([2], [2], [(2, 5), (1, 1)])


def test_two_primes_two_seeds_agree():
    # cuts the lower-bound rules leave open: the twisted cubic through six
    # points, h0 4, 14 and 32 against bounds 0, 10 and 28
    for spec in [([3], [7], [(4, 6)]), ([3], [9], [(5, 6)]), ([3], [11], [(6, 6)])]:
        cc = cross_checked_h0(make_system(*spec), CFG)
        assert not cc.certified
        assert cc.agreed and cc.primes[0] != cc.primes[1]
    # certified cuts use one prime, the double rational normal curve case too
    for spec in [
        ([3], [4], [(2, 9)]), ([1, 1], [4, 2], [(2, 5)]), ([3], [6], [(4, 3)]), ([4], [3], [(2, 7)])
    ]:
        cc = cross_checked_h0(make_system(*spec), CFG)
        assert cc.certified and cc.agreed
        assert cc.primes == (CFG.prime.p,) and cc.values == (cc.h0,)


def test_explicit_second_prime_config():
    res = h0_oracle(make_system([2], [4], [(2, 5)]), OracleConfig(PrimeField(SECOND_PRIME), 2, 777))
    assert res.h0 == 1 and res.prime == SECOND_PRIME


def test_product_oracle_values():
    # (2,2) on P1xP1 with 3 double points carries the double (1,1)-divisor
    res = h0_oracle(make_system([1, 1], [2, 2], [(2, 3)]), CFG)
    assert res.h0 == 1 and res.special
    res = h0_oracle(make_system([1, 1], [2, 2], [(2, 4)]), CFG)
    assert res.h0 == 0 and not res.special
    res = h0_oracle(make_system([1, 1, 1], [2, 2, 2], [(2, 7)]), CFG)
    assert res.h0 == 1 and res.special


def test_expected_dim_guard_on_special_flag():
    sys = make_system([3], [9], [(6, 1), (4, 8)])
    res = h0_oracle(sys, CFG)
    assert res.special == (res.h0 - 1 > expected_dim(sys))


def test_singular_quadrics_closed_form():
    # quadrics singular at h general points are the quadratic forms on the
    # quotient of the ambient vector space by the span of the points
    for n in range(2, 7):
        for h in range(1, n + 3):
            got = h0_oracle(make_system([n], [2], [(2, h)]), CFG).h0
            want = (n - h + 2) * (n - h + 1) // 2 if h <= n + 1 else 0
            assert got == want, (n, h, got, want)


def test_no_points_and_degree_zero():
    res = h0_oracle(make_system([2], [3], []), CFG)
    assert res.h0 == 10 and not res.special and res.rows == 0
    res = h0_oracle(make_system([1], [0], [(1, 1)]), CFG)
    assert res.h0 == 0 and res.h1 == 0
