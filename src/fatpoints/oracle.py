"""Exact actual-dimension oracle over a large prime field.

The generic dimension of a fat-point system is computed by interpolation:
put the first points at the coordinate points, where each condition deletes
a column, sample the others, build the matrix of their vanishing conditions
(Taylor rows up to the imposed multiplicity, plus optional
vanishing-along-a-line rows), and row reduce modulo a word-sized prime. The
forms vanishing on a linear subspace P^s keep only the columns of monomials
outside x_0..x_s, and the points on it are sampled points of P^n with
x_{s+1}..x_n set to 0. For a fat-point system, with or without lines, each
trial value is a proven upper bound on the generic h^0 over Q, and
systems.lower_h0 a proven lower bound: once they meet, the answer is
certified, and `verify` asserts only certified values. Otherwise the minimum
over independent trials is the generic value with overwhelming probability;
cross_checked_h0 recomputes such a value at a second prime and seed.

A process keeps, between calls:
- the kept draws: a trial's sampled points depend only on the space, the
  seed, the trial and the prime, and each trial reads the first points of
  the longest draw kept for such a key (_kept_draw), up to STREAMS of them,
  so a series, trial or call on one key draws only when it needs more
  points than any before it;
- the monomial basis of each space and multidegree (_basis);
- the Taylor tables of each chart and multiplicity (_taylor);
- the column plans of each system shape: the columns that the frame points
  and the lines joining them leave, or those off a P^s (_frame_plan,
  _subspace_plan).
Their arrays are read-only and depend on no answer: no rank, matrix or
trial value is kept between calls.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb

import numpy as np

from .combinatorics import binom
from .systems import (
    LinearSubspace,
    LinearSystem,
    Space,
    check_lines,
    check_subspace,
    lower_h0,
    monomial_count,
    point_conditions,
)

DEFAULT_PRIME = 2147483647  # 2^31 - 1, the largest prime below MAX_PRIME
SECOND_PRIME = 2147483629
DEFAULT_SEED = 271828
MAX_PRIME = 2**31  # exclusive bound that keeps rank_mod_p's float64 products exact
PANEL = 64  # columns per elimination panel, and inner dimension of every product
CHUNK = 256  # rows per trailing update, which bounds its temporaries
REDRAWS = 64  # draws allowed for each sampled point before sampling gives up
STREAMS = 256  # draws kept per process, one per key, the least recently used dropped first

LineScheme = tuple[int, int, int]  # (point index, point index, alpha)


class OracleSamplingError(RuntimeError):
    """Raised when no admissible random point configuration could be drawn."""


# Miller-Rabin with these bases decides primality of every n < 3.3 * 10^24
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The oracle's field F_p: p must be a prime below MAX_PRIME = 2^31."""

    p: int = DEFAULT_PRIME

    def __post_init__(self) -> None:
        if not 2 <= self.p < MAX_PRIME:
            raise ValueError(f"prime must be below 2^31 = {MAX_PRIME}, got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


@dataclass(frozen=True)
class OracleConfig:
    prime: PrimeField = PrimeField()
    trials: int = 3
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class OracleResult:
    h0: int
    h1: int | None
    rank: int
    rows: int  # the cut's condition count, not the rows a trial eliminated
    cols: int
    special: bool | None
    trials_used: int
    prime: int
    seed: int
    lower: int  # proven lower bound on h0
    certified: bool  # h0 == lower: exact over Q

    def to_json(self) -> dict:
        return {
            "h0": self.h0,
            "h1": self.h1,
            "rank": self.rank,
            "rows": self.rows,
            "cols": self.cols,
            "special": self.special,
            "prime": self.prime,
            "seed": self.seed,
            "trials": self.trials_used,
            "lower": self.lower,
            "certified": self.certified,
        }


@dataclass(frozen=True)
class CrossCheckedH0:
    """Agreement record for the two-prime / two-seed consistency check; a
    certified record holds the first prime's value only."""

    h0: int
    agreed: bool
    values: tuple[int, ...]
    primes: tuple[int, ...]
    certified: bool = False


@lru_cache(maxsize=None)
def _factor_exponents(nvars: int, degree: int) -> np.ndarray:
    """Exponent vectors of one degree in nvars variables, one read-only row
    each, lexicographically decreasing."""
    if nvars == 1:
        out = np.array([[degree]], dtype=np.int64)
    else:
        rests = [_factor_exponents(nvars - 1, degree - a) for a in range(degree, -1, -1)]
        lead = np.repeat(np.arange(degree, -1, -1), [len(rest) for rest in rests])
        out = np.column_stack([lead, np.vstack(rests)])
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _basis(factors: tuple[int, ...], multidegree: tuple[int, ...]) -> np.ndarray:
    """Monomial exponent vectors, one read-only int64 row each, factor
    blocks concatenated, lexicographic."""
    blocks = [_factor_exponents(n + 1, d) for n, d in zip(factors, multidegree)]
    picks = np.indices([len(b) for b in blocks]).reshape(len(blocks), -1)
    out = np.hstack([b[i] for b, i in zip(blocks, picks)])
    out.flags.writeable = False
    return out


def _halves(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residues U < 2^31 as U = 2^16 Uh + Ul in float64 halves, with
    0 <= Uh <= 2^15 and the balanced -2^15 <= Ul < 2^15."""
    Uh = (U + 0x8000) >> 16
    return Uh.astype(np.float64), (U - (Uh << 16)).astype(np.float64)


def _sub_mulmod(B: np.ndarray, X: np.ndarray, Uh: np.ndarray, Ul: np.ndarray, p: int) -> None:
    """B <- (B - X @ U) mod p in place, exactly, for residues 0 <= B, X < p
    below 2^31, U = 2^16 Uh + Ul split by _halves, and at most PANEL inner
    terms. Every term of (2^16 X mod p) @ Uh and of X @ Ul has magnitude at
    most (p - 1) 2^15 < 2^46, so each float64 product of at most 64 terms is
    below 2^52 and exact in any summation order, and so is their sum T,
    |T| < 2^53. B - T is then below 2^53 in magnitude as well, so it is
    exact in float64 and converts exactly into B's int64, and B - (B // p) p
    reduces it mod p."""
    T = ((X << 16) % p).astype(np.float64) @ Uh
    T += X.astype(np.float64) @ Ul
    np.subtract(B, T, out=B, casting="unsafe")
    B -= B // p * p


def _unit_lower_inverse(L: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of a unit lower triangular L, by forward substitution."""
    k = len(L)
    Linv = np.eye(k, dtype=np.int64)
    for j in range(k - 1):
        Linv[j + 1 :] -= L[j + 1 :, j, None] * Linv[j]
        Linv[j + 1 :] %= p
    return Linv


def _join_inverses(Ainv: np.ndarray, C: np.ndarray, Binv: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of the unit lower triangular [[A, 0], [C, B]] from the
    inverses of A and B: [[A^-1, 0], [-B^-1 C A^-1, B^-1]]."""
    CAinv = np.zeros(C.shape, dtype=np.int64)
    _sub_mulmod(CAinv, C, *_halves(Ainv), p)  # -C A^-1
    low = np.zeros(C.shape, dtype=np.int64)
    _sub_mulmod(low, (-Binv) % p, *_halves(CAinv), p)
    return np.block([[Ainv, np.zeros(C.T.shape, dtype=np.int64)], [low, Binv]])


def _eliminate_right(
    A: np.ndarray, r: int, pivots: list[int], Linv: np.ndarray, c1: int, c2: int, p: int
) -> None:
    """Carry the elimination of the factored pivot columns of rows r: over to
    columns c1:c2. The pivot rows become U12 = L11^-1 A12 and the rows below
    A22 - L21 @ U12, CHUNK rows at a time, where L holds the multipliers kept
    in the pivot columns and Linv is L11^-1."""
    k = len(pivots)
    if not k or c1 == c2 or r + k == A.shape[0]:
        return
    L = A[r:, pivots]
    top = A[r : r + k, c1:c2]
    # top - (I - L11^-1) @ top = U12
    _sub_mulmod(top, (np.eye(k, dtype=np.int64) - Linv) % p, *_halves(top), p)
    Uh, Ul = _halves(top)
    below = A[r + k :, c1:c2]
    for s in range(0, len(below), CHUNK):
        _sub_mulmod(below[s : s + CHUNK], L[k + s : k + s + CHUNK], Uh, Ul, p)


def _factor(
    A: np.ndarray, r: int, c0: int, c1: int, p: int, inverse: bool
) -> tuple[list[int], np.ndarray | None]:
    """Factor columns c0:c1 of rows r: in place and return their pivot columns,
    each keeping its multipliers below the pivot, and, if inverse is set, the
    inverse of the unit lower triangular L11 those multipliers form in the
    pivot rows. A panel wider than 16 columns over more than PANEL rows is
    factored as two halves, the right one after _eliminate_right by the left
    one, and L11^-1 is joined from theirs; any other column by column, on a
    contiguous transposed copy written back at the end. Row swaps move whole
    rows of A and the matching columns of the copy, so the multipliers to
    the left stay with their rows.
    """
    m, w = A.shape[0], c1 - c0
    if w > 16 and m - r > PANEL:
        mid = c0 + w // 2
        left, Ainv = _factor(A, r, c0, mid, p, True)
        _eliminate_right(A, r, left, Ainv, mid, c1, p)
        k = len(left)
        right, Binv = _factor(A, r + k, mid, c1, p, inverse)
        if not inverse:
            return left + right, None
        C = A[r + k : r + k + len(right)][:, left]
        return left + right, _join_inverses(Ainv, C, Binv, p)
    # a copy even where the transpose is already contiguous (one column),
    # since the row swaps below would move a view's entries a second time
    Q = A[r:, c0:c1].T.copy()
    pivots: list[int] = []
    for c in range(w):
        k = len(pivots)
        if k == m - r:
            break
        col = Q[c]
        pivot = int(col[k])
        if not pivot:  # search below only when the diagonal entry is 0
            nz = col[k + 1 :].nonzero()[0]
            if nz.size == 0:
                continue
            i = k + 1 + int(nz[0])
            A[r + k], A[r + i] = A[r + i].copy(), A[r + k].copy()
            Q[:, k], Q[:, i] = Q[:, i].copy(), Q[:, k].copy()
            pivot = int(col[k])
        f = col[k + 1 :]
        f *= pow(pivot, -1, p)  # residues below 2^31, so products below 2^62
        f %= p
        rest = Q[c + 1 :, k + 1 :]
        rest -= Q[c + 1 :, k, None] * f
        rest %= p
        pivots.append(c0 + c)
    A[r:, c0:c1] = Q.T
    if not inverse:
        return pivots, None
    return pivots, _unit_lower_inverse(A[r : r + len(pivots)][:, pivots], p)


def _eliminate(A: np.ndarray, stop: int, p: int) -> list[int]:
    """Factor the first stop columns of a C-contiguous int64 matrix A reduced
    mod p, in place, and return their pivot columns. Right-looking blocked
    LU: each PANEL-column panel of the unreduced rows is factored (_factor),
    then its elimination is carried over to the last column
    (_eliminate_right). The pivot rows end on top, and the rows below them
    hold the Schur complement right of column stop."""
    m, n = A.shape
    r = 0
    out: list[int] = []
    for c0 in range(0, stop, PANEL):
        if r == m:
            break
        c1 = min(c0 + PANEL, stop)
        pivots, Linv = _factor(A, r, c0, c1, p, c1 < n)
        _eliminate_right(A, r, pivots, Linv, c1, n, p)
        out += pivots
        r += len(pivots)
    return out


def _pivot_columns(A: np.ndarray, p: int) -> list[int]:
    """Pivot columns of an integer matrix over F_p, for a prime p < 2^31:
    column c is listed exactly when it is independent of the columns before
    it (the column rank profile)."""
    if not 1 < p < MAX_PRIME:
        raise ValueError(f"rank_mod_p needs a prime below 2^31, got {p}")
    if A.size == 0:
        return []
    A = np.remainder(np.asarray(A, dtype=np.int64), p, order="C")
    return _eliminate(A, A.shape[1], p)


def rank_mod_p(A: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p, for a prime p < 2^31."""
    return len(_pivot_columns(A, p))


def _normalize(X: np.ndarray, factors: tuple[int, ...], p: int) -> np.ndarray:
    """Scale each factor of each row of X, residues mod p, in place so that
    its last nonzero coordinate is 1; return those coordinates' columns, one
    row per point and one column per factor. Line points and a subspace
    call's zeroed copy come here; sampled points are drawn scaled (_draw)."""
    charts = np.empty((len(X), len(factors)), dtype=np.int64)
    end = 0
    for f, n in enumerate(factors):
        end += n + 1
        charts[:, f] = end - 1 - np.argmax(X[:, end - n - 1 : end][:, ::-1] != 0, axis=1)
    lead = X[np.arange(len(X))[:, None], charts].ravel().tolist()
    if 0 in lead:  # argmax found no nonzero coordinate
        raise ValueError("every factor of a point needs a nonzero coordinate")
    inv = np.array([pow(x, -1, p) for x in lead], dtype=np.int64).reshape(charts.shape)
    X *= np.repeat(inv, [n + 1 for n in factors], axis=1)
    X %= p
    return charts


def _draw(factors: tuple[int, ...], seed: int, trial: int, p: int, h: int) -> np.ndarray:
    """The first h sampled points of a trial, read-only. Each coordinate is
    one randrange(1, p) of one random.Random, so every chart works, and each
    factor is scaled so its last coordinate is 1; a candidate equal to an
    earlier point is drawn again, at most REDRAWS times in a row."""
    rng = random.Random(f"{seed}:{trial}:{p}:")
    points: dict[tuple[int, ...], None] = {}  # in order
    for _ in range(h):
        for _ in range(REDRAWS):
            point: tuple[int, ...] = ()
            for n in factors:
                x = [rng.randrange(1, p) for _ in range(n + 1)]
                inv = pow(x[-1], -1, p)
                point += tuple(c * inv % p for c in x)
            if point not in points:
                break
        else:
            raise OracleSamplingError("could not sample distinct points in general position")
        points[point] = None
    out = np.array(list(points), dtype=np.int64).reshape(h, sum(n + 1 for n in factors))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=STREAMS)
def _kept_draw(factors: tuple[int, ...], seed: int, trial: int, p: int) -> list[np.ndarray]:
    """The longest draw of a trial so far, the one item of a list that
    sample_points replaces by a longer draw; it starts empty. It holds
    points only, never an answer."""
    empty = np.empty((0, sum(n + 1 for n in factors)), dtype=np.int64)
    empty.flags.writeable = False
    return [empty]


def sample_points(
    space: Space,
    h: int,
    cfg: OracleConfig,
    trial: int = 0,
) -> np.ndarray:
    """h deterministic pseudo-random points in general position, one int64
    row each, factor blocks concatenated: a copy of the first h points of
    the trial's longest draw (_draw), which the process keeps, so a call for
    no more points than an earlier one draws nothing. Every coordinate is
    nonzero and the last one of each factor is 1. The redraw bound counts
    per point, so a longer draw begins with the points of a shorter one, or
    raises and leaves the kept draw as it was."""
    if h < 0:
        raise ValueError("point count must be >= 0")
    kept = _kept_draw(space.factors, cfg.seed, trial, cfg.prime.p)
    if len(kept[0]) < h:
        kept[0] = _draw(space.factors, cfg.seed, trial, cfg.prime.p, h)
    return kept[0][:h].copy()


def _frame_size(space: Space) -> int:
    """How many coordinate points lead every trial: n+1 on P^n, and on a
    product min_f n_f + 1, each point e_i taken in every factor."""
    return min(space.factors) + 1


@lru_cache(maxsize=None)
def _frame(space: Space) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frame of a space, read-only: its coordinate points, their charts,
    and the chart of every sampled point. e_i is normalized with chart i in
    every factor; a sampled point has no zero coordinate, so its chart in
    each factor is the factor's last coordinate."""
    k, factors = _frame_size(space), space.factors
    first = np.array([0, *accumulate(n + 1 for n in factors[:-1])])
    out = (
        np.hstack([np.eye(k, n + 1, dtype=np.int64) for n in factors]),
        first + np.arange(k)[:, None],
        first + np.array(factors),
    )
    for a in out:
        a.flags.writeable = False
    return out


def _trial_points(space: Space, h: int, cfg: OracleConfig, trial: int) -> tuple[np.ndarray, np.ndarray]:
    """The h points of a trial and their charts, as _normalize gives them:
    the first min(h, _frame_size) at the coordinate points (_frame), the
    rest the first points of the trial's kept draw (sample_points), so they
    are prefix-consistent too."""
    frame, frame_charts, chart = _frame(space)
    k = min(h, len(frame))
    points = np.concatenate([frame[:k], sample_points(space, h - k, cfg, trial=trial)])
    charts = np.empty((h, len(chart)), dtype=np.int64)
    charts[:k], charts[k:] = frame_charts[:k], chart
    return points, charts


@lru_cache(maxsize=None)
def _taylor(
    factors: tuple[int, ...], multidegree: tuple[int, ...], chart: tuple[int, ...], m: int, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only tables of the Taylor rows of order < m in one chart, one row
    per derivative multi-index beta (by total order, then lexicographically)
    and one column per basis monomial a: a point x's row beta is
    coef[beta] * value(x)[idx[beta]], value(x) its row of basis monomials.

    Entry a is prod_v FALL(a_v, beta_v) x_v^(a_v - beta_v) over the
    non-chart v. The chart coordinate is 1, so x^(a - beta) is the value at
    x of the basis monomial whose non-chart exponents are a - beta and whose
    chart exponents make up the degree. Where beta_v > a_v, coef is 0 and
    idx names the monomial of non-chart exponents max(a - beta, 0).
    """
    E = _basis(factors, multidegree)
    free = [v for v in range(E.shape[1]) if v not in chart]
    # a slack exponent in front turns "order <= m-1" into "exactly m-1"
    exps = _factor_exponents(len(free) + 1, m - 1)
    betas = np.zeros((len(exps), E.shape[1]), dtype=np.int64)
    betas[:, free] = exps[:, 1:]
    betas = betas[np.lexsort([*betas.T[::-1], betas.sum(axis=1)])]
    a = np.arange(max(multidegree, default=0) + 1)
    fall = np.ones((len(a), m), dtype=np.int64)  # FALL(a, b) = a (a-1) ... (a-b+1) mod p
    for b in range(1, m):
        fall[:, b] = fall[:, b - 1] * np.maximum(a - b + 1, 0) % p
    coef = np.ones((len(betas), len(E)), dtype=np.int64)
    for v in free:
        coef = coef * fall[E[:, v], betas[:, v, None]] % p
    # idx in closed form: in a factor of n + 1 variables and degree d, the
    # basis lists before t the exponent vectors larger than t at the first
    # entry i where they differ, C(s + q - 1, q) of them for each i, s the
    # sum of t past i and q = n - i; the first factor varies slowest
    idx = np.zeros(coef.shape, dtype=np.intp)
    start = 0
    for n, d, c in zip(factors, multidegree, chart):
        t = [np.maximum(E[:, v] - betas[:, v, None], 0) for v in range(start, start + n + 1)]
        t[c - start] += d - sum(t)
        idx *= comb(n + d, n)
        past = d
        for i in range(n):
            past = past - t[i]
            idx += np.array([comb(s + n - i - 1, n - i) for s in range(d + 1)])[past]
        start += n + 1
    coef.flags.writeable = idx.flags.writeable = False
    return coef, idx


@lru_cache(maxsize=None)
def _frame_plan(
    factors: tuple[int, ...],
    multidegree: tuple[int, ...],
    mults: tuple[int, ...],
    lines: tuple[LineScheme, ...],
) -> tuple[np.ndarray, tuple[int, ...]]:
    """The basis columns left by frame points of multiplicities mults at
    e_0, e_1, ... and by lines joining two of them, as a read-only mask, and
    how many the first k frame points leave, k = 0..len(mults), the last
    count after the lines too: a line call has one cut, of all its points.

    order[i] is each monomial's order at e_i, its degree in the other
    variables. A point of multiplicity m at e_i imposes exactly the
    vanishing of the monomials of order below m there: its Taylor rows are
    their unit rows, each times a product of factorials of exponents
    <= d < p. Along the line e_i e_j the order is that at e_i plus that at
    e_j minus the degree, and the rows of a line of multiplicity alpha span
    the unit rows of those of order below alpha."""
    E = _basis(factors, multidegree)
    total = sum(multidegree)
    starts = accumulate((n + 1 for n in factors[:-1]), initial=0)
    order = total - sum(E[:, s : s + len(mults)].T for s in starts)
    keep = np.ones(len(E), dtype=bool)
    left = [len(E)]
    for i, m in enumerate(mults):
        keep &= order[i] >= m
        left.append(int(np.count_nonzero(keep)))
    for i, j, alpha in lines:
        keep &= order[i] + order[j] - total >= alpha
    left[-1] = int(np.count_nonzero(keep))
    keep.flags.writeable = False
    return keep, tuple(left)


@lru_cache(maxsize=None)
def _subspace_plan(
    factors: tuple[int, ...], multidegree: tuple[int, ...], s: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """The basis columns of the monomials outside x_0..x_s, the forms that
    vanish on P^s, as a read-only mask, and their count."""
    keep = _basis(factors, multidegree)[:, s + 1 :].any(axis=1)
    keep.flags.writeable = False
    return keep, (int(np.count_nonzero(keep)),)


class _RowBuilder:
    """Condition rows of one system mod p, built a batch of points at a time
    on the basis columns that keep marks (all of them by default)."""

    def __init__(self, sys: LinearSystem, p: int, keep: np.ndarray | None = None):
        self.sys = sys
        self.p = p
        self.space = sys.space
        self.E = _basis(sys.space.factors, sys.multidegree)
        self.keep = keep
        self.cols = len(self.E) if keep is None else int(np.count_nonzero(keep))
        self.width = self.E.shape[1]
        self.maxdeg = max(sys.multidegree) if sys.multidegree else 0

    def rows(
        self, X: np.ndarray, charts: np.ndarray, m: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Rows of multiplicity m at every point, a row of X each, stacked in
        point order into out (allocated if None): the value and all chart
        derivatives of order < m, one row per derivative multi-index. X holds
        residues mod p, each factor scaled so that its last nonzero
        coordinate is 1, and charts those coordinates' columns, one row per
        point: as _normalize leaves them, or _trial_points gives them. Each
        point's value row is computed once; each run of points in one chart
        then takes one gather through the _taylor index table, one product
        with its coefficients and one reduction, in place."""
        p = self.p
        # powers x_v^k of every coordinate, k = 0..maxdeg, with 0^0 = 1
        powers = np.ones((len(X), self.width, self.maxdeg + 1), dtype=np.int64)
        for k in range(1, self.maxdeg + 1):
            powers[:, :, k] = powers[:, :, k - 1] * X % p
        values = np.ones((len(X), len(self.E)), dtype=np.int64)
        for v in range(self.width):
            values *= powers[:, v, self.E[:, v]]
            values %= p

        nbeta = point_conditions(m, self.space)
        if out is None:
            out = np.empty((len(X) * nbeta, self.cols), dtype=np.int64)
        block = out.reshape(len(X), nbeta, self.cols)
        charts = charts.tolist()
        starts = [i for i, chart in enumerate(charts) if i == 0 or chart != charts[i - 1]]
        for lo, hi in zip(starts, [*starts[1:], len(charts)]):
            coef, idx = _taylor(self.space.factors, self.sys.multidegree, tuple(charts[lo]), m, p)
            if self.keep is not None:
                coef, idx = coef[:, self.keep], idx[:, self.keep]
            np.take(values[lo:hi], idx, axis=1, out=block[lo:hi])
            block[lo:hi] *= coef  # residues are below 2^31, so each product is below 2^62
            block[lo:hi] %= p
        return out

    def line_rows(self, line: np.ndarray, alpha: int) -> np.ndarray:
        """Rows forcing vanishing to order alpha along the line ab, its two
        points a row each (single factor only): multiplicity alpha at the d+1
        points a + t b, t = 0..d. A derivative of order k < alpha restricts
        to the line as a binary form of degree d-k, so it vanishes along the
        line exactly when it vanishes at d+1 distinct points of it; a != b and
        p > d make the points a + t b distinct. The points are normalized
        here, so they may be given at any scale."""
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        p = self.p
        a, b = ab = np.remainder(line, p, dtype=np.int64).reshape(2, self.width)
        _normalize(ab, self.space.factors, p)
        if (a == b).all():
            raise ValueError("line needs two distinct defining points")
        t = np.arange(self.sys.multidegree[0] + 1)[:, None]
        X = (a + t * b) % p
        return self.rows(X, _normalize(X, self.space.factors, p), alpha)


def _condition_matrix(
    builder: _RowBuilder,
    sys: LinearSystem,
    cfg: OracleConfig,
    trial: int,
    lines: list[LineScheme],
    subspace: LinearSubspace | None,
) -> np.ndarray:
    """The condition rows of one trial past its frame points: the fat points
    in group order, each group written into one preallocated matrix, then
    the given line schemes. The points are the trial's (_trial_points). A
    subspace call has no frame: its points are a copy of the trial's
    sampled ones in P^n (sample_points), the first moved onto the P^s
    x_{s+1} = ... = x_n = 0 by zeroing those coordinates and normalized
    again, so the kept draw is left as it was."""
    frame = 0
    if subspace is None:
        points, charts = _trial_points(sys.space, sys.total_points, cfg, trial)
        frame = _frame_size(sys.space)
    else:
        points = sample_points(sys.space, sys.total_points, cfg, trial=trial)
        points[: subspace.through_first, subspace.s + 1 :] = 0
        charts = _normalize(points, sys.space.factors, builder.p)
    spans, start = [], 0  # (first point, end point, multiplicity) past the frame
    for g in sys.points:
        if start + g.count > frame:
            spans.append((max(start, frame), start + g.count, g.multiplicity))
        start += g.count
    sizes = [(hi - lo) * point_conditions(m, sys.space) for lo, hi, m in spans]
    A = np.empty((sum(sizes), builder.cols), dtype=np.int64)
    for (lo, hi, m), part in zip(spans, np.split(A, list(accumulate(sizes)))):
        builder.rows(points[lo:hi], charts[lo:hi], m, out=part)
    if lines:
        A = np.vstack([A, *(builder.line_rows(points[[i, j]], alpha) for i, j, alpha in lines)])
    return A


def _section_lower(sys: LinearSystem, cfg: OracleConfig, trial: int, value: int) -> int:
    """A lower bound on h0 of a system of degree 2e with multiplicities at
    most 2 (else 0): the rank of Sym^2 V in L, V the forms of degree e
    through the points, of dimension k = monomial_count(e) - h >= 3. If the
    value rows at the trial's h points (its frame, then sampled ones) have
    rank h mod p, they have it over Q, the mod-p kernel reduces the
    saturated integer one, and the points lie where V is a bundle and that
    rank is lower semicontinuous: the products' rank mod p at further points
    is at most h0. It is also at most value, a trial's upper bound, so
    min(C(k+1, 2), value) + 2 points suffice."""
    e = tuple(d // 2 for d in sys.multidegree)
    h = sys.total_points
    k = monomial_count(sys.space, e) - h
    if k < 3 or any(d % 2 for d in sys.multidegree) or max(sys.point_multiplicities(), default=0) > 2:
        return 0
    p = cfg.prime.p
    half = _RowBuilder(LinearSystem(sys.space, e, ()), p)
    points, charts = _trial_points(sys.space, h + min(binom(k + 1, 2), value) + 2, cfg, trial)
    # one column per point, the trial's h first: row operations give rows of
    # values at the points of forms of degree e, and the Schur complement
    # below the h pivot rows holds those of a basis of V at the further ones
    B = np.remainder(half.rows(points, charts, 1).T, p, order="C")
    if len(_eliminate(B, h, p)) < h:
        return 0
    values = B[h:, h:]
    i, j = np.triu_indices(k)
    return rank_mod_p(values[i] * values[j] % p, p)


def _shortest_prefix(sys: LinearSystem, h: int, bound: int) -> int:
    """The fewest points k <= h whose cut of sys has a proven lower bound at
    most bound, or h if none does: a shorter cut's trial value is above it."""
    need = monomial_count(sys.space, sys.multidegree) - bound  # floor <= bound
    conditions = 0
    for k, m in enumerate(sys.point_multiplicities()[:h]):
        if conditions >= need and lower_h0(sys.first_points(k)) <= bound:
            return k
        conditions += point_conditions(m, sys.space)
    return h


def _prefix_ranks(A: np.ndarray, row_counts: list[int], p: int) -> list[int]:
    """Rank of the first r rows of A for each r in row_counts: the number of
    pivot columns of A^T below r, or the rank of A when every r is all of A."""
    if not len(A):
        return [0] * len(row_counts)
    if all(r == A.shape[0] for r in row_counts):
        return [rank_mod_p(A, p)] * len(row_counts)
    pivots = _pivot_columns(A.T, p)
    return [bisect_left(pivots, r) for r in row_counts]


def _oracle_series(
    sys: LinearSystem,
    cfg: OracleConfig,
    counts: list[int],
    extra_schemes: tuple[LineScheme, ...] | list[LineScheme] = (),
    subspace: LinearSubspace | None = None,
) -> list[OracleResult]:
    """h0_oracle of sys cut to its first h points, for each h in counts.

    Every trial of a pure or a line call puts its first points at the
    coordinate points, the frame (_trial_points). There each condition is a
    monomial (_frame_plan), so it deletes a column. A cut's rank is
    the number of columns that its frame points and the lines joining them
    delete, plus the rank of its other rows, which are built on the columns
    left only: the one column restriction that a subspace call also uses.
    Subspace calls sample every point and build all their lines as rows.

    PGL(n_f + 1) acts transitively on general (n_f + 1)-tuples of points of
    each factor, so the configurations with the frame fixed meet the open
    set where h0 takes its generic value. A cut of frame points alone, with
    any lines joining them, is projectively equivalent to every general
    one: its count of columns left is the generic h0 over Q, exact without
    a trial matrix. For any other cut h0 is upper semicontinuous, and each
    trial value bounds the generic h0 over Q from above: its rows reduce
    integer rows at integer points (chart coordinate 1), and a nonzero minor
    mod p lifts to Z. With lines this holds too: the rows of a line ab are,
    up to a unit x_c^(d-|beta|) per row, those of the distinct integer
    points a + t b, t = 0..d, collinear over Q.

    _trial_points is prefix-consistent, so trial t of the cut to h uses the
    first h points of trial t of any longer cut, and its condition rows are
    the first rows of that longer matrix. Trial t therefore runs once for
    all pending cuts, and every cut up to the matrix's points reads its rank
    off it: the first r rows of A have rank equal to the number of pivot
    columns of A^T below r. Line schemes and subspaces break the row order,
    so they take a single count, the whole system.

    A cut stops when its best value meets its lower bound: the floor
    max(virtual_dim + 1, 0), or 0 with lines, raised to lower_h0 once a
    trial value is above it, then for a pure system to _section_lower; a
    trial value below it raises. A subspace call's floor counts as free the
    C(m-1+s, s) derivatives along the P^s at each point on it, which vanish
    on every kept column.

    The first trial of a pure system builds only the rows of its shortest
    prefix whose lower_h0 is at most the largest cut's bound. A longer cut
    has the same points and more rows, so its trial value lies between its
    proven lower bound and the prefix's value: where these meet, it is
    exact. A longer cut left open reads its value from the largest cut's
    whole matrix, built from the same points. Later trials run on pending
    cuts only, each of which was above its bound, so they build it whole.
    """
    p = cfg.prime.p
    if p <= max(sys.multidegree, default=0):
        raise ValueError(
            f"prime {p} must exceed the largest degree {max(sys.multidegree)}: "
            "the derivative factors vanish mod p otherwise"
        )
    if extra_schemes and sys.space.nfactors != 1:
        raise NotImplementedError("line schemes are only supported on a single factor")
    check_lines(sys, extra_schemes)
    if subspace is not None:
        check_subspace(sys, subspace)
    pure = not extra_schemes and subspace is None

    factors, mults = sys.space.factors, sys.point_multiplicities()
    if subspace is None:
        frame = min(sys.total_points, _frame_size(sys.space))
        on_frame = tuple((i, j, a) for i, j, a in extra_schemes if max(i, j) < frame)
        # the lines built as rows, through a sampled point
        lines = [(i, j, a) for i, j, a in extra_schemes if max(i, j) >= frame]
        keep, left = _frame_plan(factors, sys.multidegree, tuple(mults[:frame]), on_frame)
        free = 0
    else:
        frame, lines = 0, list(extra_schemes)
        keep, left = _subspace_plan(factors, sys.multidegree, subspace.s)
        free = sum(binom(m - 1 + subspace.s, subspace.s) for m in mults[: subspace.through_first])
    cols = left[0]  # every monomial, or every one off the P^s
    builder = _RowBuilder(sys, p, keep)
    prefix = [0]  # the naive conditions of the first h points, one binom per group
    for g in sys.points:
        c = point_conditions(g.multiplicity, sys.space)
        prefix.extend(range(prefix[-1] + c, prefix[-1] + g.count * c + 1, c))
    skip = prefix[frame]  # the frame's rows
    conditions = [prefix[h] for h in counts]  # each cut's naive point conditions
    monomials = monomial_count(sys.space, sys.multidegree)
    lower = [0 if extra_schemes else max(cols - c + free, 0) for c in conditions]
    # a line's naive rows: multiplicity alpha at d + 1 points of it
    d = sys.multidegree[0]
    on_lines = sum((d + 1) * point_conditions(a, sys.space) for *_, a in extra_schemes)
    rows = [c + on_lines for c in conditions]
    best = [cols] * len(counts)
    used = [0] * len(counts)
    pending = []
    for i, h in enumerate(counts):
        if h <= frame:  # all frame points: exact
            best[i] = lower[i] = left[h]
            used[i] = 1
        else:
            pending.append(i)
    # a pending cut has every frame point, so builder.cols columns left
    for t in range(cfg.trials):
        if not pending:
            break
        top = max(pending, key=lambda i: counts[i])
        h = _shortest_prefix(sys, counts[top], lower[top]) if pure and t == 0 else counts[top]
        A = _condition_matrix(builder, sys.first_points(h), cfg, t, lines, subspace)
        # a cut's rows follow the frame's; a longer cut or a line call reads all of A
        need = [rows[i] - skip if pure and counts[i] <= h else len(A) for i in pending]
        value = {i: builder.cols - rank for i, rank in zip(pending, _prefix_ranks(A, need, p))}
        for i in pending:
            if subspace is None and value[i] > lower[i]:
                lower[i] = lower_h0(sys.first_points(counts[i]), extra_schemes)
        # a longer cut's value is the prefix's only where it meets its bound
        retry = [i for i in pending if counts[i] > h and value[i] != lower[i]]
        if retry:
            A = _condition_matrix(builder, sys.first_points(counts[top]), cfg, t, lines, subspace)
            ranks = _prefix_ranks(A, [rows[i] - skip for i in retry], p)
            value.update((i, builder.cols - rank) for i, rank in zip(retry, ranks))
        still = []
        for i in pending:
            if pure and value[i] > lower[i]:
                lower[i] = max(lower[i], _section_lower(sys.first_points(counts[i]), cfg, t, value[i]))
            if value[i] < lower[i]:
                raise OracleSamplingError(
                    f"h0 trial value {value[i]} below the proven lower bound {lower[i]}"
                )
            best[i] = min(best[i], value[i])
            used[i] += 1
            if best[i] != lower[i]:
                still.append(i)
        pending = still

    if not pure:
        return [
            OracleResult(b, None, cols - b, r, cols, None, u, p, cfg.seed, low, b == low)
            for b, r, u, low in zip(best, rows, used, lower)
        ]
    return [
        OracleResult(b, c - cols + b, cols - b, r, cols, b - 1 > max(monomials - 1 - c, -1), u, p, cfg.seed,
                     low, b == low)
        for b, c, r, u, low in zip(best, conditions, rows, used, lower)
    ]


def h0_oracle(
    sys: LinearSystem,
    cfg: OracleConfig | None = None,
    extra_schemes: tuple[LineScheme, ...] | list[LineScheme] = (),
    subspace: LinearSubspace | None = None,
) -> OracleResult:
    """Generic h^0 of the system (minimum of cols - rank over random trials).

    extra_schemes adds vanishing to order alpha along lines through pairs of
    the sampled base points, given as (i, j, alpha) flattened point indices.
    subspace adds vanishing on a linear P^s through the first points, which
    systems.check_subspace must accept.
    h1 (the naive condition count minus the rank) and special (h0 - 1 above
    the expected dimension) are only meaningful, and only reported, for pure
    fat-point systems; with extra schemes or a subspace they are None.
    """
    cfg = cfg or OracleConfig()
    return _oracle_series(sys, cfg, [sys.total_points], extra_schemes, subspace)[0]


def h0_prefix_oracle(sys: LinearSystem, cfg: OracleConfig | None = None) -> list[OracleResult]:
    """h0_oracle of a pure fat-point system cut to its first h points, for
    h = 0..total_points: entry h equals h0_oracle(sys.first_points(h), cfg)
    field by field, at one elimination per trial for the whole series (two
    when a cut past the first trial's prefix misses its bound)."""
    cfg = cfg or OracleConfig()
    return _oracle_series(sys, cfg, list(range(sys.total_points + 1)))


def cross_checked_h0(
    sys: LinearSystem,
    cfg: OracleConfig | None = None,
    extra_schemes: tuple[LineScheme, ...] | list[LineScheme] = (),
) -> CrossCheckedH0:
    """h^0 of a certified first answer as it is; otherwise computed again at
    a second prime and seed. Both values bound the generic h0 from above, so
    the smaller is kept on a disagreement."""
    cfg = cfg or OracleConfig()
    a = h0_oracle(sys, cfg, extra_schemes=extra_schemes)
    if a.certified:
        return CrossCheckedH0(a.h0, True, (a.h0,), (a.prime,), True)
    p2 = SECOND_PRIME if cfg.prime.p != SECOND_PRIME else DEFAULT_PRIME
    second = OracleConfig(PrimeField(p2), cfg.trials, cfg.seed + 1)
    b = h0_oracle(sys, second, extra_schemes=extra_schemes)
    low = min(a, b, key=lambda r: r.h0)
    return CrossCheckedH0(low.h0, a.h0 == b.h0, (a.h0, b.h0), (a.prime, b.prime), low.certified)
