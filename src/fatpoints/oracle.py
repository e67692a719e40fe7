"""Exact actual-dimension oracle over a large prime field.

The generic dimension of a fat-point system is computed by interpolation:
put the first points at the coordinate points, where each condition deletes
a column, sample the others, build the matrix of their vanishing conditions
(Taylor rows up to the imposed multiplicity, plus optional
vanishing-along-a-line rows), and row reduce modulo a word-sized prime. For
a fat-point system, with or without lines, each trial value is a proven
upper bound on the generic h^0 over Q, and systems.lower_h0 a proven lower
bound: once they meet, the answer is certified, and `verify` asserts only
certified values. Otherwise the minimum over independent trials is the
generic value with overwhelming probability; cross_checked_h0 recomputes
such a value at a second prime and seed.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product as iproduct

import numpy as np

from .combinatorics import binom
from .systems import (
    LinearSystem,
    Space,
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

Point = tuple[tuple[int, ...], ...]  # homogeneous coordinates, one tuple per factor
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
class SubspaceScheme:
    """Vanishing on the P^s x_{s+1} = ... = x_n = 0 through the first
    ``points_on`` system points: the condition matrix keeps only the columns
    of monomials not in x_0..x_s alone, the forms that vanish on it."""

    s: int
    points_on: int


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
def _factor_exponents(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    if nvars == 1:
        return ((degree,),)
    out = []
    for a in range(degree, -1, -1):
        for rest in _factor_exponents(nvars - 1, degree - a):
            out.append((a, *rest))
    return tuple(out)


@lru_cache(maxsize=None)
def _basis(factors: tuple[int, ...], multidegree: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Monomial exponent vectors, factor blocks concatenated, lexicographic."""
    per_factor = [_factor_exponents(n + 1, d) for n, d in zip(factors, multidegree)]
    return tuple(tuple(x for block in combo for x in block) for combo in iproduct(*per_factor))


def _halves(U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residues U = 2^16 Uh + Ul as float64 halves Uh < 2^15 and Ul < 2^16."""
    return (U >> 16).astype(np.float64), (U & 0xFFFF).astype(np.float64)


def _sub_mulmod(B: np.ndarray, X: np.ndarray, Uh: np.ndarray, Ul: np.ndarray, p: int) -> None:
    """B <- (B - X @ U) mod p in place, exactly, with one reduction per entry
    of B, for residues below 2^31, U = 2^16 Uh + Ul split by _halves, and at
    most PANEL inner terms. The float64 product (2^16 X mod p) @ Uh sums terms
    below 2^31 * 2^15, so it stays below 2^52, and X @ Ul sums terms below
    2^31 * 2^16, so it stays below 2^53: both are exact in any summation
    order, and B minus both stays above -2^54 in int64."""
    B -= (((X << 16) % p).astype(np.float64) @ Uh).astype(np.int64)
    B -= (X.astype(np.float64) @ Ul).astype(np.int64)
    B %= p


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
    pivot rows. A panel wider than 8 columns with more than 4 times as many
    rows is factored as two halves, the right one after _eliminate_right by
    the left one, and L11^-1 is joined from theirs; any other column by
    column. Row swaps move whole rows, so the multipliers to the left stay
    with them.
    """
    m, w = A.shape[0], c1 - c0
    if w > 8 and m - r > 4 * w:
        mid = c0 + w // 2
        left, Ainv = _factor(A, r, c0, mid, p, True)
        _eliminate_right(A, r, left, Ainv, mid, c1, p)
        k = len(left)
        right, Binv = _factor(A, r + k, mid, c1, p, inverse)
        if not inverse:
            return left + right, None
        C = A[r + k : r + k + len(right)][:, left]
        return left + right, _join_inverses(Ainv, C, Binv, p)
    P = A[r:, c0:c1]
    pivots: list[int] = []
    for c in range(w):
        k = len(pivots)
        if k == m - r:
            break
        nz = P[k:, c].nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            i = r + k + int(nz[0])
            A[[r + k, i]] = A[[i, r + k]]
        f = P[k + 1 :, c] * pow(int(P[k, c]), -1, p) % p
        P[k + 1 :, c] = f
        rest = P[k + 1 :, c + 1 :]
        rest -= f[:, None] * P[k, c + 1 :]
        rest %= p
        pivots.append(c0 + c)
    if not inverse:
        return pivots, None
    return pivots, _unit_lower_inverse(A[r : r + len(pivots)][:, pivots], p)


def _pivot_columns(A: np.ndarray, p: int) -> list[int]:
    """Pivot columns of an integer matrix over F_p, for a prime p < 2^31:
    column c is listed exactly when it is independent of the columns before
    it (the column rank profile).

    Right-looking blocked LU in int64: each PANEL-column panel of the
    unreduced rows is factored in place (_factor), then its elimination is
    carried over to the columns right of it (_eliminate_right).
    """
    if not 1 < p < MAX_PRIME:
        raise ValueError(f"rank_mod_p needs a prime below 2^31, got {p}")
    if A.size == 0:
        return []
    A = np.remainder(np.asarray(A, dtype=np.int64), p, order="C")
    m, n = A.shape
    r = 0
    out: list[int] = []
    for c0 in range(0, n, PANEL):
        if r == m:
            break
        c1 = min(c0 + PANEL, n)
        pivots, Linv = _factor(A, r, c0, c1, p, c1 < n)
        _eliminate_right(A, r, pivots, Linv, c1, n, p)
        out += pivots
        r += len(pivots)
    return out


def rank_mod_p(A: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p, for a prime p < 2^31."""
    return len(_pivot_columns(A, p))


def _kernel_values(R: np.ndarray, S: np.ndarray, p: int) -> np.ndarray | None:
    """S x mod p for x over a basis of the kernel mod p of R, one row per x, or
    None if the rows of R are dependent: row operations on [R^T | S^T] give
    rows [(R x)^T | (S x)^T], and below the echelon form of R^T, R x = 0."""
    B, h = np.remainder(np.hstack([R.T, S.T]), p), len(R)
    for c in range(h):
        nz = B[c:, c].nonzero()[0]
        if nz.size == 0:
            return None
        B[[c, c + nz[0]]] = B[[c + nz[0], c]]
        f = B[c + 1 :, c] * pow(int(B[c, c]), -1, p) % p
        B[c + 1 :] = (B[c + 1 :] - f[:, None] * B[c] % p) % p
    return B[h:, h:]


def _normalize_factor(coords: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Scale so the largest-index nonzero coordinate becomes 1."""
    chart = max(i for i, x in enumerate(coords) if x % p != 0)
    inv = pow(coords[chart] % p, -1, p)
    return tuple((x * inv) % p for x in coords)


def sample_points(
    space: Space,
    h: int,
    cfg: OracleConfig,
    subspace: int | None = None,
    trial: int = 0,
    salt: str = "",
) -> list[Point]:
    """Draw h deterministic pseudo-random points in general position.

    subspace: None, or s to restrict the points to x_{s+1} = ... = x_n = 0.
    Unconstrained coordinates are sampled nonzero so every chart works; a
    repeated point triggers resampling.
    """
    if h < 0:
        raise ValueError("point count must be >= 0")
    p = cfg.prime.p
    if subspace is not None and (space.nfactors != 1 or not (1 <= subspace <= space.n)):
        raise ValueError("subspace constraint needs a single factor and 1 <= s <= n")

    rng = random.Random(f"{cfg.seed}:{trial}:{p}:{salt}")
    points: list[Point] = []
    seen: set[Point] = set()
    for _ in range(h):
        # the redraw bound is per point, so the first h points of a call for
        # more points are exactly this call's points, or both calls raise
        for _ in range(REDRAWS):
            factors = []
            for n in space.factors:
                width = (subspace + 1) if subspace is not None else (n + 1)
                coords = [rng.randrange(1, p) for _ in range(width)]
                coords += [0] * (n + 1 - width)
                factors.append(_normalize_factor(tuple(coords), p))
            pt: Point = tuple(factors)
            if pt not in seen:
                break
        else:
            raise OracleSamplingError("could not sample distinct points in general position")
        seen.add(pt)
        points.append(pt)
    return points


def _frame_size(space: Space) -> int:
    """How many coordinate points lead every trial: n+1 on P^n, and on a
    product min_f n_f + 1, each point e_i taken in every factor."""
    return min(space.factors) + 1


def _trial_points(space: Space, h: int, cfg: OracleConfig, trial: int) -> list[Point]:
    """The h points of a trial: the first min(h, _frame_size) at the
    coordinate points, the rest from sample_points, so they are
    prefix-consistent too."""
    k = min(h, _frame_size(space))
    frame = [
        tuple(tuple(int(c == i) for c in range(n + 1)) for n in space.factors) for i in range(k)
    ]
    return frame + sample_points(space, h - k, cfg, trial=trial)


@lru_cache(maxsize=None)
def _falling_table(max_a: int, max_b: int, p: int) -> np.ndarray:
    """FALL[a, b] = a (a-1) ... (a-b+1) mod p, zero when b > a."""
    fall = np.zeros((max_a + 1, max_b + 1), dtype=np.int64)
    fall[:, 0] = 1
    for b in range(1, max_b + 1):
        for a in range(max_a + 1):
            fall[a, b] = fall[a, b - 1] * max(a - b + 1, 0) % p
    fall.flags.writeable = False
    return fall


@lru_cache(maxsize=None)
def _derivative_indices(factors: tuple[int, ...], charts: tuple[int, ...], m: int) -> np.ndarray:
    """Multi-indices of total order <= m-1 over the non-chart positions, one
    row each, ordered by total order and then lexicographically."""
    width = sum(n + 1 for n in factors)
    free = [v for v in range(width) if v not in charts]
    betas = []
    # a slack exponent in front turns "total order <= m-1" into "exactly m-1"
    for exps in _factor_exponents(len(free) + 1, m - 1):
        beta = [0] * width
        for v, b in zip(free, exps[1:]):
            beta[v] = b
        betas.append(tuple(beta))
    betas.sort(key=lambda beta: (sum(beta), beta))
    out = np.array(betas, dtype=np.int64).reshape(len(betas), width)
    out.flags.writeable = False
    return out


class _RowBuilder:
    """Condition rows of one system mod p, built a batch of points at a time."""

    def __init__(self, sys: LinearSystem, p: int):
        self.sys = sys
        self.p = p
        self.space = sys.space
        self.E = np.array(_basis(sys.space.factors, sys.multidegree), dtype=np.int64)
        self.cols = self.E.shape[0]
        self.width = self.E.shape[1]
        self.maxdeg = max(sys.multidegree) if sys.multidegree else 0

    def _taylor(self, charts: tuple[int, ...], m: int) -> tuple[np.ndarray, list]:
        """Point-independent parts of the order < m Taylor rows in one chart.

        Row beta, column a is prod_v FALL[a_v, beta_v] x_v^(a_v - beta_v); the
        falling factorials (zero where beta_v > a_v) make the coefficient
        table, and each non-chart v contributes its exponents a_v - beta_v
        (the chart coordinate is 1).
        """
        betas = _derivative_indices(self.space.factors, charts, m)
        fall = _falling_table(self.maxdeg, m - 1, self.p)
        coef = np.ones((len(betas), self.cols), dtype=np.int64)
        exponents = []
        for v in range(self.width):
            if v in charts:
                continue
            a, b = self.E[:, v], betas[:, v, None]
            coef = coef * fall[a, b] % self.p
            exponents.append((v, np.maximum(a - b, 0)))
        return coef, exponents

    def rows(self, points: list[Point], m: int) -> np.ndarray:
        """Rows of multiplicity m at every point, stacked in point order: the
        value and all chart derivatives of order < m, one row per derivative
        multi-index. Each factor is normalized so its last nonzero coordinate
        is 1; points whose charts differ are built in separate sub-batches."""
        if self.space.nfactors > 1 and m > 2:
            raise NotImplementedError("multiplicity >= 3 on products is not supported")
        p = self.p
        X = np.array(
            [[x for coords in pt for x in coords] for pt in points], dtype=np.int64
        ).reshape(len(points), self.width) % p
        charts = np.empty((len(points), self.space.nfactors), dtype=np.int64)
        offset = 0
        for f, n in enumerate(self.space.factors):
            block = X[:, offset : offset + n + 1]
            nonzero = block != 0
            if not nonzero.any(axis=1).all():
                raise ValueError("every factor of a point needs a nonzero coordinate")
            last = n - np.argmax(nonzero[:, ::-1], axis=1)
            charts[:, f] = offset + last
            lead = block[np.arange(len(points)), last].tolist()
            inv = [1 if x == 1 else pow(x, -1, p) for x in lead]
            block *= np.array(inv, dtype=np.int64).reshape(-1, 1)
            block %= p
            offset += n + 1

        # powers x_v^k of every coordinate, k = 0..maxdeg
        powers = np.ones((len(points), self.width, self.maxdeg + 1), dtype=np.int64)
        for k in range(1, self.maxdeg + 1):
            powers[:, :, k] = powers[:, :, k - 1] * X % p

        nbeta = binom(self.width - self.space.nfactors + m - 1, m - 1)
        out = np.empty((len(points), nbeta, self.cols), dtype=np.int64)
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, chart in enumerate(map(tuple, charts.tolist())):
            groups.setdefault(chart, []).append(i)
        for chart, idx in groups.items():
            coef, exponents = self._taylor(chart, m)
            vals = np.empty((len(idx), *coef.shape), dtype=np.int64)
            vals[:] = coef
            for v, e in exponents:
                # residues are below 2^31, so each product is below 2^62
                vals *= powers[idx, v][:, e]
                vals %= p
            out[idx] = vals
        return out.reshape(len(points) * nbeta, self.cols)

    def line_rows(self, line: tuple[Point, Point], alpha: int) -> np.ndarray:
        """Rows forcing vanishing to order alpha along the line ab (single
        factor only): multiplicity alpha at the d+1 points a + t b, t = 0..d.
        A derivative of order k < alpha restricts to the line as a binary
        form of degree d-k, so it vanishes along the line exactly when it
        vanishes at d+1 distinct points of it; a != b and p > d make the
        points a + t b distinct."""
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        p = self.p
        a_pt = _normalize_factor(line[0][0], p)
        b_pt = _normalize_factor(line[1][0], p)
        if a_pt == b_pt:
            raise ValueError("line needs two distinct defining points")
        d = self.sys.multidegree[0]
        on_line = [(tuple((x + t * y) % p for x, y in zip(a_pt, b_pt)),) for t in range(d + 1)]
        return self.rows(on_line, alpha)

    def orders(self, idx: tuple[int, ...]) -> np.ndarray:
        """Order of vanishing of each monomial along the span of the
        coordinate points e_i, i in idx, of every factor: its degree in the
        other variables. A point of multiplicity m at e_i imposes exactly the
        vanishing of the monomials of order below m there: its Taylor rows
        are their unit rows, each times a product of factorials of exponents
        <= d < p. The rows of a line e_i e_j of multiplicity m span the unit
        rows of the monomials of order below m along it."""
        starts = np.cumsum([0, *(n + 1 for n in self.space.factors)])[:-1]
        picked = self.E[:, [s + i for s in starts for i in idx]]
        return sum(self.sys.multidegree) - picked.sum(axis=1)


def _condition_matrix(
    builder: _RowBuilder,
    sys: LinearSystem,
    cfg: OracleConfig,
    trial: int,
    lines: list[LineScheme],
    subspace: SubspaceScheme | None,
) -> np.ndarray:
    """The condition rows of one trial past its frame points: the fat points
    in group order, then the given line schemes."""
    frame = 0
    if subspace is None:
        points = _trial_points(sys.space, sys.total_points, cfg, trial)
        frame = _frame_size(sys.space)
    else:
        on = sample_points(sys.space, subspace.points_on, cfg, subspace=subspace.s, trial=trial)
        off = sample_points(
            sys.space, sys.total_points - subspace.points_on, cfg, trial=trial, salt="off"
        )
        points = on + off
    blocks = []
    start = 0
    for g in sys.points:
        if start + g.count > frame:
            blocks.append(builder.rows(points[max(start, frame) : start + g.count], g.multiplicity))
        start += g.count
    for i, j, alpha in lines:
        blocks.append(builder.line_rows((points[i], points[j]), alpha))
    return np.vstack(blocks) if blocks else np.zeros((0, builder.cols), dtype=np.int64)


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
    points = _trial_points(sys.space, h + min(binom(k + 1, 2), value) + 2, cfg, trial)
    rows = half.rows(points, 1)  # the trial's h points, then further ones
    values = _kernel_values(rows[:h], rows[h:], p)
    if values is None:
        return 0
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
    subspace: SubspaceScheme | None = None,
) -> list[OracleResult]:
    """h0_oracle of sys cut to its first h points, for each h in counts.

    Every trial of a pure or a line call puts its first points at the
    coordinate points, the frame (_trial_points). There each condition is a
    monomial (_RowBuilder.orders), so it deletes a column. A cut's rank is
    the number of columns that its frame points and the lines joining them
    delete, plus the rank of its other rows, which are built on the columns
    left only: the one column restriction that a subspace call also uses.
    Subspace calls sample every point.

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
    npoints = sys.total_points
    if extra_schemes and sys.space.nfactors != 1:
        raise NotImplementedError("line schemes are only supported on a single factor")
    for i, j, alpha in extra_schemes:
        if i == j or not (0 <= i < npoints) or not (0 <= j < npoints):
            raise ValueError(f"line scheme ({i},{j}) must join two distinct base points")
        if alpha < 1:
            raise ValueError("line multiplicity must be >= 1")
    pure = not extra_schemes and subspace is None

    builder = _RowBuilder(sys, p)
    mults = sys.point_multiplicities()
    if subspace is None:
        frame = min(npoints, _frame_size(sys.space))
        drop = np.zeros(builder.cols, dtype=bool)
        gone = [0]  # the columns the first k frame points delete, k = 0..frame
        for i, m in enumerate(mults[:frame]):
            drop |= builder.orders((i,)) < m
            gone.append(int(drop.sum()))
        lines = []  # the lines built as rows, through a sampled point
        for i, j, alpha in extra_schemes:
            if max(i, j) < frame:
                drop |= builder.orders((i, j)) < alpha
            else:
                lines.append((i, j, alpha))
        gone[-1] = int(drop.sum())  # a line call has one cut, of all its points
        cols = builder.cols
    else:
        frame, gone, lines = 0, [0], []
        drop = ~builder.E[:, subspace.s + 1 :].any(axis=1)
        cols = builder.cols - int(drop.sum())
    builder.E = builder.E[~drop]
    builder.cols = len(builder.E)
    prefix = [0, *accumulate(point_conditions(m, sys.space) for m in mults)]
    skip = prefix[frame]  # the frame's rows
    conditions = [prefix[h] for h in counts]  # each cut's naive point conditions
    monomials = monomial_count(sys.space, sys.multidegree)
    on = mults[: subspace.points_on] if subspace else ()
    free = sum(binom(m - 1 + subspace.s, subspace.s) for m in on)
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
            best[i] = lower[i] = cols - gone[h]
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

    return [
        OracleResult(
            h0=best[i],
            h1=conditions[i] - (cols - best[i]) if pure else None,
            rank=cols - best[i],
            rows=rows[i],
            cols=cols,
            special=(best[i] - 1) > max(monomials - 1 - conditions[i], -1) if pure else None,
            trials_used=used[i],
            prime=p,
            seed=cfg.seed,
            lower=lower[i],
            certified=best[i] == lower[i],
        )
        for i in range(len(counts))
    ]


def h0_oracle(
    sys: LinearSystem,
    cfg: OracleConfig | None = None,
    extra_schemes: tuple[LineScheme, ...] | list[LineScheme] = (),
    subspace: SubspaceScheme | None = None,
) -> OracleResult:
    """Generic h^0 of the system (minimum of cols - rank over random trials).

    extra_schemes adds vanishing to order alpha along lines through pairs of
    the sampled base points, given as (i, j, alpha) flattened point indices.
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


def restrict_to_subspace(sys: LinearSystem, s: int, points_on: int | None = None) -> LinearSystem:
    """The system cut to a linear P^s: same degree, first points_on points."""
    if sys.space.nfactors != 1:
        raise ValueError("restriction to a subspace needs a single factor")
    n = sys.space.n
    if not (1 <= s <= n):
        raise ValueError(f"need 1 <= s <= {n}, got {s}")
    if s == n:
        return sys
    keep = sys.total_points if points_on is None else points_on
    if not (0 <= keep <= sys.total_points):
        raise ValueError(f"points_on out of range: {keep}")
    return LinearSystem(Space((s,)), sys.multidegree, sys.first_points(keep).points)


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
