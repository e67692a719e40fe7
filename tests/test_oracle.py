import random
from bisect import bisect_left
from dataclasses import replace
from itertools import product as iproduct
from math import prod
from types import SimpleNamespace

import numpy as np
import pytest

from fatpoints import oracle
from fatpoints.oracle import (
    DEFAULT_PRIME,
    PANEL,
    REDRAWS,
    OracleConfig,
    OracleSamplingError,
    PrimeField,
    SECOND_PRIME,
    CrossCheckedH0,
    OracleResult,
    _RowBuilder,
    _basis,
    _condition_matrix,
    _halves,
    _join_inverses,
    _normalize,
    _pivot_columns,
    _sub_mulmod,
    _unit_lower_inverse,
    cross_checked_h0,
    h0_oracle,
    h0_prefix_oracle,
    rank_mod_p,
    sample_points,
)
from fatpoints.combinatorics import binom
from fatpoints.systems import LinearSubspace, Space, dim_report, lower_h0, make_system, virtual_dim

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
    return _mul_mod(a, b, p)


def _mul_mod(a, b, p):
    """a @ b mod p for residues below 2^31."""
    out = np.zeros((len(a), b.shape[1]), dtype=np.int64)
    for k in range(len(b)):  # one rank-one term at a time: each product is below 2^62
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

    # tall matrices, whose panels are factored as halves down to 16 or fewer
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
        assert {min(n, PANEL) // 2**j for j in range(3)} <= set(widths), (m, n, sorted(set(widths)))
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


def slow_kernel_basis(rows, p):
    """A basis of the kernel mod p of a matrix, one vector per free column
    of its reduced row echelon form, by plain Python row operations."""
    rows = [[int(x) % p for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0])):
        k = len(pivots)
        piv = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        inv = pow(rows[k][c], -1, p)
        rows[k] = [x * inv % p for x in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[c]:
                rows[i] = [(x - row[c] * y) % p for x, y in zip(row, rows[k])]
        pivots.append(c)
    basis = []
    for free in sorted(set(range(len(rows[0]))) - set(pivots)):
        x = [0] * len(rows[0])
        x[free] = 1
        for i, c in enumerate(pivots):
            x[c] = -rows[i][free] % p
        basis.append(x)
    return basis


def test_eliminate_stops_with_the_schur_complement_below(monkeypatch):
    # _eliminate(B, h, p) on B = [R^T | S^T] factors the h columns of R^T
    # and leaves below its pivot rows [(R x)^T | (S x)^T] = [0 | (S x)^T]
    # for x over a basis of the kernel of R: R has more than PANEL rows in
    # the first case, and in the second a panel of more than 16 columns over
    # more than PANEL rows, factored as two halves
    widths = []
    real_factor = oracle._factor

    def recording(A, r, c0, c1, p, inverse):
        widths.append(c1 - c0)
        return real_factor(A, r, c0, c1, p, inverse)

    monkeypatch.setattr(oracle, "_factor", recording)
    rng = random.Random(17)
    p = DEFAULT_PRIME
    for h, q, N in [(70, 10, 100), (20, 5, 80)]:
        R = _product_mod(rng, h, N, N, p)
        # S mixes random rows with combinations of R, which vanish on its kernel
        S = np.vstack(
            [_product_mod(rng, q - 2, N, N, p), _mul_mod(_product_mod(rng, 2, h, h, p), R, p)]
        )
        # pivots for R of full row rank, then for a deficient one
        for A in (R, _mul_mod(_product_mod(rng, h, h - 3, h, p), R, p)):
            B = np.ascontiguousarray(np.hstack([A.T, S.T]))
            widths.clear()
            pivots = oracle._eliminate(B, h, p)
            assert pivots == _pivot_columns(A.T, p) == slow_pivot_columns(A.T.tolist(), p)
            assert h > PANEL or widths[:3] == [h, h // 2, h // 2]
        B = np.ascontiguousarray(np.hstack([R.T, S.T]))
        assert len(oracle._eliminate(B, h, p)) == h
        below = B[h:, h:]
        assert rank_mod_p(below, p) == rank_mod_p(np.vstack([R, S]), p) - h
        K = slow_kernel_basis(R.tolist(), p)
        assert len(K) == N - h
        assert all(sum(int(a) * b for a, b in zip(row, x)) % p == 0 for x in K for row in R)
        SK = [[sum(int(a) * b for a, b in zip(row, x)) % p for row in S] for x in K]
        ours = below.tolist()
        assert slow_rank_mod_p(ours, p) == slow_rank_mod_p(SK, p) == slow_rank_mod_p(ours + SK, p)


ENGINE_PRIMES = (2, 65521, 65537, SECOND_PRIME, DEFAULT_PRIME)


def test_exact_product_at_the_bound():
    # every X entry p - 1 over PANEL inner terms gives the largest sums
    # _sub_mulmod forms, from the smallest and the largest B; U sits at the
    # edges of the balanced halves: 0x7FFF and 0x8000 give the largest
    # positive and negative low half, 0xFFFF a low half of -1, and p - 1 the
    # largest high half
    for p in ENGINE_PRIMES:
        x = np.full((3, PANEL), p - 1, dtype=np.int64)
        for v in sorted({u for u in (0x7FFF, 0x8000, 0xFFFF, p - 1) if u < p}):
            Uh, Ul = _halves(np.full((PANEL, 2), v, dtype=np.int64))
            assert (Uh * 2**16 + Ul == v).all() and 0 <= Uh.min() <= Uh.max() <= 2**15
            assert -(2**15) <= Ul.min() <= Ul.max() < 2**15
            for b in (0, p - 1):
                B = np.full((3, 2), b, dtype=np.int64)
                _sub_mulmod(B, x, Uh, Ul, p)
                want = (b - PANEL * (p - 1) * v) % p
                assert B.tolist() == [[want, want]] * 3, (p, v, b)


def test_engine_edge_shapes_at_every_prime(monkeypatch):
    # _pivot_columns, and _eliminate stopped halfway, against the plain-list
    # elimination: one row; one column, whose transposed panel is already
    # contiguous, so only a real copy keeps its row swaps from being undone;
    # a last panel of one column; and square panels over between w and 4w
    # unreduced rows, which are factored in halves. The top rows are zero,
    # so the pivot searches swap rows; the primes put residues on both
    # sides of 2^16
    calls = []
    real_factor = oracle._factor

    def recording(A, r, c0, c1, p, inverse):
        calls.append((c1 - c0, A.shape[0] - r))
        return real_factor(A, r, c0, c1, p, inverse)

    monkeypatch.setattr(oracle, "_factor", recording)
    rng = random.Random(29)
    for p in ENGINE_PRIMES:
        for m, n, r in [(1, 9, 1), (1, 70, 1), (9, 1, 1), (70, 1, 1), (80, 65, 60), (100, 64, 64), (90, 90, 80)]:
            mat = _product_mod(rng, m, r, n, p)
            mat[: m // 4] = 0
            want = slow_pivot_columns(mat.tolist(), p)
            calls.clear()
            assert _pivot_columns(mat, p) == want, (p, m, n)
            if m > PANEL and n >= PANEL:
                halved = [w for (w, rows), nxt in zip(calls, calls[1:]) if w < rows < 4 * w and nxt[0] == w // 2]
                assert PANEL in halved, (p, m, n, calls)
            for stop in sorted({1, n // 2, n - 1} - {0}):
                B = mat.copy()
                assert oracle._eliminate(B, stop, p) == [c for c in want if c < stop], (p, m, n, stop)


def rows_at(builder, points, m):
    """builder.rows at integer points given at any scale: reduced mod p and
    normalized first."""
    X = np.remainder(points, builder.p, dtype=np.int64)
    return builder.rows(X, _normalize(X, builder.space.factors, builder.p), m)


def _rows(sys, points, m, p=DEFAULT_PRIME):
    return rows_at(_RowBuilder(sys, p), points, m)


def test_monomial_exponents_counts():
    assert _basis((3,), (9,)).shape == (220, 4)
    assert _basis((1, 1), (2, 2)).shape == (9, 4)
    exps = _basis((2,), (2,))
    assert (exps.sum(axis=1) == 2).all() and len(np.unique(exps, axis=0)) == 6
    # lexicographic: first factor slowest, each factor's exponents decreasing
    for factors, degree in [((2,), (3,)), ((1, 2), (2, 1)), ((1, 1, 1), (1, 2, 1))]:
        per_factor = [
            sorted((e for e in iproduct(range(d + 1), repeat=n + 1) if sum(e) == d), reverse=True)
            for n, d in zip(factors, degree)
        ]
        want = [[x for block in combo for x in block] for combo in iproduct(*per_factor)]
        assert _basis(factors, degree).tolist() == want, factors
    assert not _basis((2,), (2,)).flags.writeable


def test_sample_points_deterministic():
    pts1 = sample_points(Space((3,)), 5, CFG)
    pts2 = sample_points(Space((3,)), 5, CFG)
    assert np.array_equal(pts1, pts2)
    assert sample_points(Space((3,)), 0, CFG).shape == (0, 4)
    # distinct points, nonzero coordinates, last coordinate normalized
    assert pts1.shape == (5, 4) and pts1.dtype == np.int64
    assert len(np.unique(pts1, axis=0)) == 5
    assert (pts1[:, -1] == 1).all() and pts1.all()
    # a different trial gives different points
    assert not np.array_equal(pts1, sample_points(Space((3,)), 5, CFG, trial=1))


def points_on_subspace(n, s, h, cfg, trial=0, through=None):
    """The h points of P^n that a subspace call through the first
    ``through`` points (all by default) draws: samples of P^n, the first
    ones moved onto x_{s+1} = ... = x_n = 0 by zeroing those coordinates."""
    pts = sample_points(Space((n,)), h, cfg, trial)
    pts[:through, s + 1 :] = 0
    return pts


def test_sample_points_prefix_consistent():
    for draw in [
        lambda h: sample_points(Space((3,)), h, CFG),
        lambda h: sample_points(Space((1, 1)), h, CFG),
        lambda h: points_on_subspace(4, 2, h, CFG),
        lambda h: sample_points(Space((2,)), h, CFG, trial=2),
    ]:
        many = draw(12)
        for h in range(13):
            assert np.array_equal(many[:h], draw(h))


def test_sample_points_subspace_constraint():
    pts = points_on_subspace(4, 2, 6, CFG)
    assert (pts[:, 3:] == 0).all() and pts[:, :3].all()
    assert np.array_equal(pts[:, :3], sample_points(Space((4,)), 6, CFG)[:, :3])
    # a subspace call builds its rows at these points, then at the points of
    # the same draw that it leaves off the P^s
    sys = make_system([4], [3], [(2, 6), (1, 2)])
    builder = _RowBuilder(sys, DEFAULT_PRIME)
    pts = points_on_subspace(4, 2, 8, CFG, trial=1, through=6)
    assert pts[6:].all()
    got = _condition_matrix(builder, sys, CFG, 1, [], LinearSubspace(2, 6))
    assert np.array_equal(got, np.vstack([rows_at(builder, pts[:6], 2), rows_at(builder, pts[6:], 1)]))


def normalize_factor(coords, p):
    """Scale so the largest-index nonzero coordinate becomes 1."""
    chart = max(i for i, x in enumerate(coords) if x % p != 0)
    inv = pow(coords[chart] % p, -1, p)
    return tuple((x * inv) % p for x in coords)


def sequential_points(space, h, cfg, trial=0):
    """The points of sample_points drawn the plain way: one randrange(1, p)
    per coordinate, each factor normalized on its own, a repeated point
    drawn again up to REDRAWS times. Returns the points as flat tuples and
    whether the draw gave up after the last of them."""
    p = cfg.prime.p
    rng = random.Random(f"{cfg.seed}:{trial}:{p}:")
    points = []
    for _ in range(h):
        for _ in range(REDRAWS):
            pt = ()
            for n in space.factors:
                pt += normalize_factor(tuple(rng.randrange(1, p) for _ in range(n + 1)), p)
            if pt not in points:
                break
        else:
            return points, True
        points.append(pt)
    return points, False


def test_sample_points_match_the_sequential_stream():
    # tiny primes repeat points and give up (p = 2 has a single point per
    # factor, p = 3 two on P^1); at p = 3 the 32 points of (P^1)^5 pin the
    # redraw bound from both sides: at seed 198 the last one comes after 63
    # repeats, and at seed 122 none comes in 64, so a bound of 63 or 65 fails
    spaces = [
        Space((1,)), Space((2,)), Space((3,)), Space((4,)), Space((1, 1)), Space((1, 1, 1)), Space((2, 3)),
    ]
    raised = 0
    for p in (2, 3, 5, 7, 101, 65537, 2147483629, 2**31 - 1):
        for space, seed, trial in iproduct(spaces, (271828, 5, 7), range(3)):
            cfg = OracleConfig(PrimeField(p), seed=seed)
            want, gave_up = sequential_points(space, 20, cfg, trial)
            drew = len(want)
            for h in sorted({0, 1, 20, drew, drew + 1} - {21}):
                case = (p, space, seed, trial, h)
                if gave_up and h > drew:
                    with pytest.raises(OracleSamplingError):
                        sample_points(space, h, cfg, trial)
                    raised += 1
                else:
                    pts = sample_points(space, h, cfg, trial)
                    assert pts.dtype == np.int64 and pts.tolist() == [list(x) for x in want[:h]], case
    space = Space((1,) * 5)
    for seed, gives_up in ((198, False), (122, True)):
        cfg = OracleConfig(PrimeField(3), seed=seed)
        want, gave_up = sequential_points(space, 32, cfg)
        assert gave_up == gives_up and len(want) == 32 - gives_up, seed
        if gives_up:
            with pytest.raises(OracleSamplingError):
                sample_points(space, 32, cfg)
        else:
            assert sample_points(space, 32, cfg).tolist() == [list(x) for x in want], seed
    assert raised > 50


def test_point_stream_takes_match_one_draw():
    # sample_points called in growing, shrinking and repeated steps on a
    # cleared cache gives the points of one draw at every h; a call for no
    # more points than the kept draw holds draws nothing, and a draw that
    # raises at a tiny prime leaves the kept draw as it was, so a shorter
    # call after it reads the same points
    spaces = [Space((1,)), Space((3,)), Space((1, 1)), Space((1, 1, 1))]
    raised = 0
    for p in (2, 3, 5, 7, 101, 2**31 - 1):
        for space, trial in iproduct(spaces, range(2)):
            cfg = OracleConfig(PrimeField(p), seed=5)
            want, gave_up = sequential_points(space, 20, cfg, trial)
            key = (space.factors, cfg.seed, trial, p)
            oracle._kept_draw.cache_clear()
            for h in (1, 0, 4, 2, 9, 9, 20, len(want), len(want) + 1, 2):
                case = (p, space, trial, h)
                kept = oracle._kept_draw(*key)[0]
                if gave_up and h > len(want):
                    with pytest.raises(OracleSamplingError):
                        sample_points(space, h, cfg, trial)
                    raised += 1
                elif h <= 20:
                    pts = sample_points(space, h, cfg, trial)
                    assert pts.tolist() == [list(x) for x in want[:h]], case
                    assert np.array_equal(pts, oracle._draw(*key, h)), case
                if h <= len(kept) or gave_up and h > len(want):
                    assert oracle._kept_draw(*key)[0] is kept, case
    assert raised > 10


def test_point_stream_arrays_are_read_only():
    space, cfg, key = Space((1, 2)), OracleConfig(seed=5), ((1, 2), 5, 0, DEFAULT_PRIME)
    oracle._kept_draw.cache_clear()
    assert not oracle._kept_draw(*key)[0].flags.writeable
    for h in (0, 3, 7, 2):
        sample_points(space, h, cfg)
        assert not oracle._kept_draw(*key)[0].flags.writeable
        assert not oracle._draw(*key, h).flags.writeable
    # sample_points hands out a copy: writing to it leaves the kept draw as it was
    pts = sample_points(space, 7, cfg)
    kept = oracle._kept_draw(*key)[0]
    assert pts.flags.writeable and np.array_equal(pts, kept)
    pts[:] = 0
    assert np.array_equal(kept, oracle._draw(*key, 7)) and kept.all()
    with pytest.raises(ValueError, match=">= 0"):
        sample_points(space, -1, cfg)


def test_point_streams_are_keyed_by_space_seed_trial_and_prime():
    # P^3 and P1xP1 have points of the same width, 4 coordinates
    def points(factors, seed, trial, p):
        return sample_points(Space(factors), 5, OracleConfig(PrimeField(p), seed=seed), trial)

    oracle._kept_draw.cache_clear()
    key = ((3,), 5, 0, DEFAULT_PRIME)
    base = oracle._kept_draw(*key)
    assert oracle._kept_draw(*key) is base
    for other in [((1, 1), 5, 0, DEFAULT_PRIME), ((3,), 6, 0, DEFAULT_PRIME),
                  ((3,), 5, 1, DEFAULT_PRIME), ((3,), 5, 0, SECOND_PRIME)]:
        kept = oracle._kept_draw(*other)
        assert kept is not base and kept is oracle._kept_draw(*other), other
        assert not np.array_equal(points(*other), points(*key)), other
        assert np.array_equal(kept[0], points(*other)) and np.array_equal(base[0], points(*key)), other
    info = oracle._kept_draw.cache_info()
    assert (info.currsize, info.maxsize) == (5, oracle.STREAMS)


def test_trial_charts_match_normalize():
    # _trial_points hands out its points normalized with their charts, frame
    # points first: _normalize keeps them and finds the same charts, and the
    # rows built from them are those of the points given at another scale
    p = DEFAULT_PRIME
    for factors, degree in [((2,), (4,)), ((3,), (3,)), ((1, 1), (2, 3)), ((1, 2), (2, 2)), ((1, 1, 1), (1, 2, 1))]:
        space, frame = Space(factors), min(factors) + 1
        builder = _RowBuilder(make_system(list(factors), list(degree), []), p)
        for h in sorted({1, frame - 1, frame, frame + 5} - {0}):
            points, charts = oracle._trial_points(space, h, CFG, 1)
            assert np.array_equal(points[: min(h, frame)], coordinate_points(factors, min(h, frame)))
            X = points.copy()
            assert np.array_equal(_normalize(X, factors, p), charts) and np.array_equal(X, points)
            for m in (1, 2, 3):
                got = builder.rows(points, charts, m)
                assert np.array_equal(got, rows_at(builder, 3 * points, m)), (factors, h, m)


def test_subspace_call_leaves_the_stream_unchanged():
    # a subspace call zeroes coordinates of a copy of the trial's points, so
    # the pure call after it reads the kept draw as a fresh draw gives it
    sys, plane = make_system([3], [6], [(4, 3), (1, 4)]), LinearSubspace(2, 3)
    oracle._kept_draw.cache_clear()
    pure = h0_prefix_oracle(sys, CFG)
    before = [sample_points(Space((3,)), 7, CFG, t) for t in range(2)]
    builder = _RowBuilder(sys, DEFAULT_PRIME, _basis((3,), (6,))[:, 3:].any(axis=1))
    for t in range(2):
        _condition_matrix(builder, sys, CFG, t, [], plane)
        kept = oracle._kept_draw((3,), CFG.seed, t, DEFAULT_PRIME)[0]
        assert np.array_equal(kept, before[t]) and np.array_equal(kept, oracle._draw((3,), CFG.seed, t, DEFAULT_PRIME, 7)), t
    assert h0_oracle(sys, CFG, subspace=plane).h0 == 26 - 4
    assert h0_prefix_oracle(sys, CFG) == pure


def test_fat_point_row_counts():
    sys3 = make_system([3], [4], [(2, 1)])
    pt = sample_points(Space((3,)), 1, CFG)
    assert _rows(sys3, pt, 1).shape == (1, 35)
    assert _rows(sys3, pt, 2).shape == (4, 35)
    assert _rows(sys3, pt, 6).shape == (56, 35)
    assert _rows(sys3, np.vstack([pt, pt, pt]), 2).shape == (12, 35)
    assert _rows(sys3, np.zeros((0, 4), dtype=np.int64), 2).shape == (0, 35)
    sysp = make_system([1, 1, 1], [2, 2, 2], [(2, 1)])
    ptp = sample_points(Space((1, 1, 1)), 1, CFG)
    assert _rows(sysp, ptp, 2).shape == (4, 27)
    assert _rows(sysp, ptp, 3).shape == (10, 27)
    with pytest.raises(ValueError, match="nonzero coordinate"):
        _rows(sys3, np.zeros((1, 4), dtype=np.int64), 1)


def test_product_blowup_identity():
    # P1xP1 blown up at a point p is P^2 blown up at two points, the fibres
    # through p contracted: A = H - E1, B = H - E2 and E = H - E1 - E2 give
    # L_{P1xP1}(a, b; m1, rest) = L_{P^2}(a + b - m1; a - m1, b - m1, rest),
    # so a product point of any multiplicity takes the conditions of P^2
    cfg = OracleConfig(seed=5)
    pairs = 0
    for b in range(1, 8):
        for a in range(1, b + 1):
            for m1 in range(1, a + 1):
                for r in range(1, 5):
                    k = (a + b + m1 + r) % 8
                    rest = [(r, k)] if k else []
                    prod = make_system([1, 1], [a, b], [(m1, 1), *rest])
                    plane = make_system([2], [a + b - m1], [(x, 1) for x in (a - m1, b - m1) if x] + rest)
                    case = (a, b, m1, r, k)
                    assert virtual_dim(prod) == virtual_dim(plane), case
                    assert h0_oracle(prod, cfg).h0 == h0_oracle(plane, cfg).h0, case
                    pairs += 1
    assert pairs == 336


def test_fat_point_rows_kill_expected_monomials():
    # at a coordinate point the m-fold conditions kill exactly the monomials
    # of low degree in the other variables
    sys3 = make_system([2], [3], [(2, 1)])
    pt = np.array([[1, 0, 0]])
    rows = _rows(sys3, pt, 2)
    rank = rank_mod_p(rows, DEFAULT_PRIME)
    assert rank == 3
    h0 = 10 - rank
    assert h0 == 7  # cubics with a double point at a coordinate point


def coordinate_points(factors, k):
    """The points e_0..e_{k-1}, e_i in every factor, one row each."""
    rows = [[int(c == i) for n in factors for c in range(n + 1)] for i in range(k)]
    return np.array(rows, dtype=np.int64).reshape(k, sum(n + 1 for n in factors))


def frame_orders(sys, idx):
    """Order of vanishing of each monomial along the span of the coordinate
    points e_i, i in idx, of every factor: its degree in the other
    variables, in plain Python."""
    out = []
    for exps in _basis(sys.space.factors, sys.multidegree).tolist():
        order, start = 0, 0
        for n, d in zip(sys.space.factors, sys.multidegree):
            order += d - sum(exps[start + i] for i in idx)
            start += n + 1
        out.append(order)
    return np.array(out)


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
        empty = make_system(factors, degree, [])
        builder = _RowBuilder(empty, p)
        frame = coordinate_points(factors, len(mults))
        blocks = [rows_at(builder, frame[i : i + 1], m) for i, m in enumerate(mults)]
        blocks += [builder.line_rows(frame[[i, j]], alpha) for i, j, alpha in lines]
        A = np.vstack(blocks)
        drop = np.zeros(builder.cols, dtype=bool)
        for i, m in enumerate(mults):
            drop |= frame_orders(empty, (i,)) < m
        for i, j, alpha in lines:
            # Bezout: the line adds columns exactly past the order that its
            # two points force along it
            line = frame_orders(empty, (i, j)) < alpha
            assert (line & ~drop).any() == (alpha > mults[i] + mults[j] - degree[0]), (i, j)
        for i, j, alpha in lines:
            drop |= frame_orders(empty, (i, j)) < alpha
        case = (factors, degree, mults, lines)
        assert rank_mod_p(A, p) == drop.sum() == slow_rank_mod_p(A.tolist(), p), case
        assert not A[:, ~drop].any(), case
        sys = make_system(factors, degree, [(m, 1) for m in mults])
        res = h0_oracle(sys, CFG, extra_schemes=lines)
        assert (res.h0, res.lower, res.trials_used) == (builder.cols - drop.sum(), res.h0, 1), case
        if max(mults) > sum(degree):
            assert drop.all(), case


def _value_row(sys, point, p=DEFAULT_PRIME):
    """Every monomial evaluated at the point, one row of factor blocks, each
    factor scaled so its last nonzero coordinate is 1, in plain Python."""
    flat, start = [], 0
    for n in sys.space.factors:
        coords = point.tolist()[start : start + n + 1]
        last = max(i for i, x in enumerate(coords) if x % p)
        inv = pow(coords[last], -1, p)
        flat.extend(x * inv % p for x in coords)
        start += n + 1
    row = []
    for exps in _basis(sys.space.factors, sys.multidegree).tolist():
        val = 1
        for x, a in zip(flat, exps):
            val = val * pow(x, a, p) % p
        row.append(val)
    return row


def test_frame_only_calls_sample_build_and_eliminate_nothing(monkeypatch):
    # every point and line of these line calls lies on the frame, so the
    # count of columns left is the answer: nothing is sampled, no row is
    # built and nothing is eliminated
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(name) or real(*a, **kw))

    for owner, name in [(oracle, "sample_points"), (oracle, "_eliminate"), (_RowBuilder, "rows")]:
        spy(owner, name)
    for spec, h0 in [(([3], [14], [(8, 4)]), 206), (([4], [8], [(5, 5)]), 155)]:
        res = h0_oracle(make_system(*spec), OracleConfig(), extra_schemes=THREE_LINES)
        assert (res.h0, res.certified, res.trials_used) == (h0, True, 1), spec
    assert calls == []
    # the spies do see a call past the frame
    h0_oracle(make_system([3], [4], [(2, 6)]), OracleConfig())
    assert set(calls) == {"sample_points", "_eliminate", "rows"}
    # the builder uses the cached basis array as it is, read-only
    sys = make_system([3], [14], [(8, 4)])
    assert _RowBuilder(sys, DEFAULT_PRIME).E is _RowBuilder(sys, DEFAULT_PRIME).E
    assert _RowBuilder(sys, DEFAULT_PRIME).E is _basis((3,), (14,))
    assert not _basis((3,), (14,)).flags.writeable


def test_batched_rows_match_single_points():
    # a batch is the per-point rows stacked in point order, also when its
    # points lie in different charts and are built in separate runs
    rng = random.Random(11)
    for factors, degree, mults in [([3], [6], (1, 2, 3, 4)), ([1, 1], [2, 3], (1, 2))]:
        sys = make_system(factors, degree, [])
        builder = _RowBuilder(sys, DEFAULT_PRIME)
        for m in mults:
            pts = sample_points(sys.space, rng.randrange(2, 7), CFG, trial=m)
            # a point given at another scale is the same point
            pts = np.vstack([pts, 3 * pts[:1]])
            single = [rows_at(builder, pt[None], m) for pt in pts]
            assert np.array_equal(rows_at(builder, pts, m), np.vstack(single)), (factors, m)
            assert single[0].shape[0] == binom(sum(factors) + m - 1, m - 1)
            assert all(block[0].tolist() == _value_row(sys, pt) for block, pt in zip(single, pts))
            assert np.array_equal(single[0], single[-1])
    # a mixed group in P^3: points on a plane (chart x_2) and on a line
    # (chart x_1) interleaved with free points (chart x_3)
    sys = make_system([3], [4], [])
    builder = _RowBuilder(sys, DEFAULT_PRIME)
    plane = points_on_subspace(3, 2, 3, CFG)
    line = points_on_subspace(3, 1, 2, CFG)
    free = sample_points(Space((3,)), 3, CFG, trial=1)
    pts = np.vstack([plane[0], free[0], line[0], free[1], plane[1], plane[2], line[1], free[2]])
    for m in (1, 2, 3):
        single = [rows_at(builder, pt[None], m) for pt in pts]
        assert np.array_equal(rows_at(builder, pts, m), np.vstack(single)), m
        assert all(block[0].tolist() == _value_row(sys, pt) for block, pt in zip(single, pts))
    # on P1xP1 a point may take a different chart in either factor
    sys = make_system([1, 1], [2, 3], [])
    builder = _RowBuilder(sys, DEFAULT_PRIME)
    pts = np.array([[1, 0, 5, 1], [3, 7, 2, 9], [4, 1, 1, 0], [1, 0, 0, 1], [6, 1, 8, 1]])
    for m in (1, 2):
        single = [rows_at(builder, pt[None], m) for pt in pts]
        assert np.array_equal(rows_at(builder, pts, m), np.vstack(single)), m
        assert all(block[0].tolist() == _value_row(sys, pt) for block, pt in zip(single, pts))


def slow_taylor_rows(sys, point, m, p=DEFAULT_PRIME):
    """The rows of multiplicity m at one point in plain Python ints: each
    factor scaled so its last nonzero coordinate, its chart, is 1; then one
    row per multi-index beta over the non-chart positions of order below m
    (by order, then lexicographically), entry a the Taylor coefficient
    prod_v FALL(a_v, beta_v) x_v^(a_v - beta_v) mod p, zero where some
    beta_v > a_v."""
    x, chart, start = [], set(), 0
    for n in sys.space.factors:
        coords = normalize_factor([int(c) for c in point[start : start + n + 1]], p)
        chart.add(start + max(i for i, c in enumerate(coords) if c))
        x += coords
        start += n + 1
    free = [v for v in range(len(x)) if v not in chart]
    betas = [b for b in iproduct(range(m), repeat=len(free)) if sum(b) < m]
    betas.sort(key=lambda b: (sum(b), b))
    monomials = _basis(sys.space.factors, sys.multidegree).tolist()
    rows = []
    for beta in betas:
        row = []
        for a in monomials:
            val = 1
            for v, b in zip(free, beta):
                if b > a[v]:
                    val = 0
                    break
                val = val * prod(range(a[v] - b + 1, a[v] + 1)) * pow(x[v], a[v] - b, p) % p
            row.append(val)
        rows.append(row)
    return rows


def test_rows_match_plain_taylor_coefficients():
    # rows, on the whole basis and on kept columns, entry for entry against
    # plain integers: at sampled points, at points moved onto a subspace by
    # zeroing coordinates, in other charts with zero non-chart coordinates
    # (0^0 = 1), and at points a + t b of a line, in interleaved charts
    p = DEFAULT_PRIME
    rng = random.Random(22)
    cases = [([n], [4], (1, 2, 3, 4)) for n in (2, 3, 4, 5)]
    cases += [([1, 1], [2, 3], (1, 2)), ([1, 2], [2, 2], (1, 2)), ([1, 1, 1], [1, 2, 1], (1, 2))]
    for factors, degree, mults in cases:
        sys = make_system(factors, degree, [])
        sampled = sample_points(sys.space, 4, CFG, trial=2)
        a, b = sampled[2:]
        other = sampled[:2].copy()
        other[0, factors[0]] = 0  # the first factor's chart moves down one
        other[1, [0, sum(n + 1 for n in factors) - 1]] = 0  # so does the last's, and x_0 = 0
        pts = [sampled[0], other[0], (a + b) % p, sampled[1], other[1], (a + 2 * b) % p]
        if len(factors) == 1:
            pts.insert(2, points_on_subspace(factors[0], 1, 1, CFG)[0])
        pts = np.array(pts)
        keep = np.array([rng.random() < 0.6 for _ in _basis(sys.space.factors, sys.multidegree)])
        for m in mults:
            want = np.array([row for pt in pts for row in slow_taylor_rows(sys, pt, m)])
            assert np.array_equal(rows_at(_RowBuilder(sys, p), pts, m), want), (factors, m)
            kept = _RowBuilder(sys, p, keep)
            assert kept.cols == keep.sum()
            assert np.array_equal(rows_at(kept, pts, m), want[:, keep]), (factors, m)


def test_condition_matrix_stacks_group_and_line_rows(monkeypatch):
    # one preallocated matrix per trial: the same rows as building every
    # group past the frame and every line on its own, stacked the way
    # reference_oracle stacks them, for a pure, a line and a subspace call
    p = DEFAULT_PRIME
    sys = make_system([3], [6], [(3, 2), (2, 4), (1, 3)])
    cols = len(_basis((3,), (6,)))
    keep = np.arange(cols) % 5 != 0
    tables = []  # for each builder, the tables of its _taylor calls
    real = oracle._taylor
    monkeypatch.setattr(oracle, "_taylor", lambda *args: tables[-1].append(real(*args)) or tables[-1][-1])
    for builder in (_RowBuilder(sys, p), _RowBuilder(sys, p, keep)):
        tables.append([])
        for lines in ([], [(0, 5, 2), (4, 7, 1)]):
            points = frame_then_sampled(sys.space, sys.total_points, CFG, 1)
            blocks = [np.zeros((0, builder.cols), dtype=np.int64)]
            blocks.append(rows_at(builder, points[4:6], 2))  # the frame is points 0..3
            blocks.append(rows_at(builder, points[6:], 1))
            blocks += [builder.line_rows(points[[i, j]], alpha) for i, j, alpha in lines]
            got = _condition_matrix(builder, sys, CFG, 1, lines, None)
            assert np.array_equal(got, np.vstack(blocks)), lines
        pts = points_on_subspace(3, 2, 9, CFG, trial=1, through=3)
        groups = [(pts[:2], 3), (pts[2:6], 2), (pts[6:], 1)]
        want = np.vstack([rows_at(builder, pts, m) for pts, m in groups])
        got = _condition_matrix(builder, sys, CFG, 1, [], LinearSubspace(2, 3))
        assert np.array_equal(got, want)
    # both builders read the very same cached read-only tables
    coef, idx = real((3,), (6,), (3,), 2, p)
    assert all(any(c is coef and i is idx for c, i in got) for got in tables)
    assert not coef.flags.writeable and not idx.flags.writeable
    assert coef.shape == idx.shape == (binom(3 + 1, 3), cols)


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
    line = pts = sample_points(Space((3,)), 2, CFG)
    sys1 = make_system([3], [1], [])
    rows = _line_rows(sys1, line, 1)
    assert rank_mod_p(rows, DEFAULT_PRIME) == 2  # planes containing the line
    sys2 = make_system([3], [2], [])
    rows = _line_rows(sys2, line, 2)
    assert rank_mod_p(rows, DEFAULT_PRIME) == 7  # quadrics doubly on it: h0 = 3
    with pytest.raises(ValueError):
        _line_rows(sys2, pts[[0, 0]], 2)
    # the same point given at two scales is still a degenerate line
    with pytest.raises(ValueError):
        _line_rows(sys2, np.vstack([pts[0], 2 * pts[0]]), 2)
    for n in (2, 3, 4):
        space = Space((n,))
        ab = sample_points(space, 2, CFG, trial=1)
        e0_e1n = np.array([[int(i == 0) for i in range(n + 1)], [int(i in (1, n)) for i in range(n + 1)]])
        for d in range(1, 9):
            sys = make_system([n], [d], [])
            for alpha in range(1, min(4, d + 1) + 1):
                want = _line_conditions(n, d, alpha)
                assert rank_mod_p(_line_rows(sys, ab, alpha), DEFAULT_PRIME) == want
                # e0 + t (e1 + en) has its last nonzero coordinate at 0 for
                # t = 0 and at n otherwise, so this line spans two charts
                for line in (e0_e1n, e0_e1n[::-1]):
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
    res = h0_oracle(make_system([3], [2], [(1, 7)]), cfg, subspace=LinearSubspace(2, 3))
    assert (res.h0, res.lower, res.certified, res.trials_used) == (0, 0, True, 1)


def test_subspace_calls_certify_at_one_trial(monkeypatch):
    # on forms vanishing on the P^s, a point of multiplicity m on it imposes
    # at most C(m-1+n, n) - C(m-1+s, s) conditions: the plane through the
    # sextic's three quadruple points leaves 56 - 3 x (20 - 10) = 26
    sextic, plane = make_system([3], [6], [(4, 3)]), LinearSubspace(2, 3)
    res = h0_oracle(sextic, OracleConfig(), subspace=plane)
    assert (res.h0, res.lower, res.certified, res.trials_used) == (26, 26, True, 1)
    # points meant for the plane but left off it impose all 60 conditions:
    # the trial value 0 is below the bound, which must fail loudly
    real = oracle._condition_matrix
    off = SimpleNamespace(s=plane.s, through_first=0)
    monkeypatch.setattr(oracle, "_condition_matrix", lambda *args: real(*args[:5], off))
    with pytest.raises(OracleSamplingError, match="lower bound 26"):
        h0_oracle(sextic, OracleConfig(), subspace=plane)


def test_subspace_call_keeps_its_lines():
    # a form vanishing on the plane H is x_3 G, with G of degree d - 1, one
    # order less at each point on H and along each line in H: so h0(L - H)
    # with an alpha-fold line through two points on H is the pure line call
    # of degree d - 1, multiplicity m - 1 and an (alpha - 1)-fold line
    for d, m, alpha, h0 in [(6, 4, 3, 24), (6, 4, 2, 26), (5, 3, 2, 22), (7, 4, 3, 49), (6, 3, 3, 36)]:
        on_plane = h0_oracle(
            make_system([3], [d], [(m, 3)]), CFG,
            extra_schemes=((0, 1, alpha),), subspace=LinearSubspace(2, 3),
        )
        divided = h0_oracle(make_system([3], [d - 1], [(m - 1, 3)]), CFG, extra_schemes=((0, 1, alpha - 1),))
        assert on_plane.h0 == divided.h0 == h0, (d, m, alpha)


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
        return np.vstack([points[:1], points[:-1]])

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
        ab = sample_points(sys.space, 2, CFG)
        points = np.vstack([rows_at(builder, ab[:1], mi), rows_at(builder, ab[1:], mj)])
        base = rank_mod_p(points, DEFAULT_PRIME)
        for alpha in range(1, mi + mj - d + 2):
            rank = rank_mod_p(np.vstack([points, builder.line_rows(ab, alpha)]), DEFAULT_PRIME)
            assert (rank == base) == (alpha <= mi + mj - d), (n, d, mi, mj, alpha)


def test_subspace_residual_closed_form():
    # forms vanishing on a P^s of P^n through k >= 1 of h simple points: the
    # k points impose nothing more, the h - k general points off it impose
    # independent conditions
    for n in range(2, 5):
        for s in range(1, n):
            for d in range(1, 5):
                for h in range(1, 9):
                    sys = make_system([n], [d], [(1, h)])
                    for k in range(1, h + 1):
                        res = h0_oracle(sys, CFG, subspace=LinearSubspace(s, k))
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
    return np.vstack([coordinate_points(space.factors, k), sample_points(space, h - k, cfg, trial=trial)])


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
            blocks.append(rows_at(builder, points[start : start + g.count], g.multiplicity))
            start += g.count
        blocks += [builder.line_rows(points[[i, j]], alpha) for i, j, alpha in lines]
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
    # sextics quadruple at 8 points of P^5: h0 = 43, above the bound 14
    # that every rule leaves, so the second prime runs
    sys = make_system([5], [6], [(4, 8)])
    real = oracle.h0_oracle

    def skewed(skew_prime):
        def oracle_call(sys_, cfg, **kwargs):
            r = real(sys_, cfg, **kwargs)
            return replace(r, h0=r.h0 + 1) if cfg.prime.p == skew_prime else r

        return oracle_call

    # both values bound h0 from above: the smaller is kept, whichever prime
    # read it
    monkeypatch.setattr(oracle, "h0_oracle", skewed(SECOND_PRIME))
    assert cross_checked_h0(sys, CFG) == CrossCheckedH0(43, False, (43, 44), (CFG.prime.p, SECOND_PRIME))
    monkeypatch.setattr(oracle, "h0_oracle", skewed(CFG.prime.p))
    assert cross_checked_h0(sys, CFG) == CrossCheckedH0(43, False, (44, 43), (CFG.prime.p, SECOND_PRIME))


def test_two_primes_two_seeds_agree():
    # cuts the lower-bound rules leave open: sextics quadruple at 8 and 9
    # points of P^5, h0 43 and 3 against bounds 14 and 0
    for spec in [([5], [6], [(4, 8)]), ([5], [6], [(4, 9)])]:
        cc = cross_checked_h0(make_system(*spec), CFG)
        assert not cc.certified
        assert cc.agreed and cc.primes[0] != cc.primes[1]
    # certified cuts use one prime, the Cremona reductions of the cubics
    # double at 7 points of P^4 and of the twisted cubic through 6 points too
    for spec in [
        ([3], [4], [(2, 9)]), ([1, 1], [4, 2], [(2, 5)]), ([3], [6], [(4, 3)]), ([4], [3], [(2, 7)]),
        ([3], [7], [(4, 6)]), ([3], [9], [(5, 6)]), ([3], [11], [(6, 6)]),
    ]:
        cc = cross_checked_h0(make_system(*spec), CFG)
        assert cc.certified and cc.agreed
        assert cc.primes == (CFG.prime.p,) and cc.values == (cc.h0,)


def test_cremona_closes_the_census_gaps():
    # the Cremona rule of lower_h0 certifies these cuts at their first
    # trial: the twisted cubic through six points of P^3, (12, 7, 6) and
    # (13, 7, 6), and the rational normal quartic through seven of P^4
    closed = [
        ([3], [7], [(4, 6)], 4), ([3], [9], [(5, 6)], 14), ([3], [11], [(6, 6)], 32),
        ([3], [12], [(7, 6)], 1), ([3], [13], [(7, 6)], 60), ([4], [6], [(4, 7)], 1),
        ([4], [8], [(5, 7)], 31),
    ]
    # where k = 4 d - 6 m = 0 the rule does not apply, and these stay open
    still_open = [([5], [6], [(4, 8)]), ([5], [6], [(4, 9)])]
    for seed in (271828, 5, 7):
        cfg = OracleConfig(seed=seed)
        for *spec, h0 in closed:
            res = h0_oracle(make_system(*spec), cfg)
            assert (res.h0, res.certified, res.trials_used) == (h0, True, 1), (seed, spec)
        for spec in still_open:
            assert not h0_oracle(make_system(*spec), cfg).certified, (seed, spec)


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
    assert res.special == (res.h0 - 1 > dim_report(sys).expected_dim)


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
