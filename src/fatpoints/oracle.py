"""Exact actual-dimension oracle over a large prime field.

The generic dimension of a fat-point system is computed by interpolation:
sample random points, build the matrix of vanishing conditions (Taylor rows
up to the imposed multiplicity, plus optional vanishing-along-a-line rows),
and row reduce modulo a word-sized prime. Specializing points can only
inflate h^0, so the minimum over independent trials is the generic value
with overwhelming probability; a second prime and seed are used by the
verification suites to cross-check.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct

import numpy as np

from .combinatorics import binom
from .systems import LinearSystem, Space, dim_report

DEFAULT_PRIME = 2147483647  # 2^31 - 1, the largest prime below MAX_PRIME
SECOND_PRIME = 2147483629
THIRD_PRIME = 2147483587
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
    """Constrain the first ``points_on`` system points inside a linear P^s.

    With ``vanish`` set, rows forcing identical vanishing on the subspace are
    added (enough simple points on it to kill every degree-d form).
    """

    s: int
    points_on: int
    vanish: bool = False


@dataclass(frozen=True)
class OracleResult:
    h0: int
    h1: int | None
    rank: int
    rows: int
    cols: int
    special: bool | None
    trials_used: int
    prime: int
    seed: int

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
        }


@dataclass(frozen=True)
class CrossCheckedH0:
    """Agreement record for the two-prime / two-seed consistency check."""

    h0: int
    agreed: bool
    values: tuple[int, ...]
    primes: tuple[int, ...]


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


def _mulmod(X: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """(X @ Y) mod p, exactly, for residues below 2^31 and at most PANEL inner terms.

    Y is split as 2^16 * Yh + Yl. A residue times a half is below 2^31 * 2^16 =
    2^47, and a sum of at most 64 such nonnegative products stays below 2^53,
    so the float64 BLAS products X @ Yh and X @ Yl are exact in any summation
    order. They are formed one after the other to halve the temporaries.
    """
    Xf = X.astype(np.float64)
    out = (Xf @ (Y >> 16).astype(np.float64)).astype(np.int64)
    out %= p
    out <<= 16
    out += (Xf @ (Y & 0xFFFF).astype(np.float64)).astype(np.int64)
    out %= p
    return out


def _pivot_columns(A: np.ndarray, p: int) -> list[int]:
    """Pivot columns of an integer matrix over F_p, for a prime p < 2^31:
    column c is listed exactly when it is independent of the columns before
    it (the column rank profile).

    Right-looking blocked LU. Each PANEL-column panel of the unreduced rows is
    factored in place in int64, keeping the multipliers L where the panel's
    entries are eliminated. The pivot rows' trailing part becomes
    U12 = L11^-1 A12, and the rows below are updated CHUNK rows at a time by
    A22 -= L21 @ U12, both exact products mod p (see _mulmod).
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
        P = A[r:, c0:c1]
        pivots: list[int] = []
        for c in range(c1 - c0):
            k = len(pivots)
            if k == m - r:
                break
            nz = np.flatnonzero(P[k:, c])
            if nz.size == 0:
                continue
            if nz[0]:
                # columns left of c0 hold earlier multipliers, never read again
                i = r + k + int(nz[0])
                A[[r + k, i], c0:] = A[[i, r + k], c0:]
            f = P[k + 1 :, c] * pow(int(P[k, c]), -1, p) % p
            P[k + 1 :, c] = f
            rest = P[k + 1 :, c + 1 :]
            rest -= np.outer(f, P[k, c + 1 :])
            rest %= p
            pivots.append(c)
        k = len(pivots)
        if k and c1 < n and r + k < m:
            L = P[:, pivots]
            # L11 is unit lower triangular: invert by forward substitution
            Linv = np.eye(k, dtype=np.int64)
            for j in range(k - 1):
                Linv[j + 1 :] -= np.outer(L[j + 1 : k, j], Linv[j])
                Linv[j + 1 :] %= p
            U = _mulmod(Linv, A[r : r + k, c1:], p)
            below = A[r + k :, c1:]
            for s in range(0, m - r - k, CHUNK):
                block = below[s : s + CHUNK]
                block -= _mulmod(L[k + s : k + s + CHUNK], U, p)
                block %= p
        out += [c0 + c for c in pivots]
        r += k
    return out


def rank_mod_p(A: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over F_p, for a prime p < 2^31."""
    return len(_pivot_columns(A, p))


def _normalize_factor(coords: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Scale so the largest-index nonzero coordinate becomes 1."""
    chart = max(i for i, x in enumerate(coords) if x % p != 0)
    inv = pow(coords[chart] % p, -1, p)
    return tuple((x * inv) % p for x in coords)


def sample_points(
    space: Space,
    h: int,
    cfg: OracleConfig,
    constraint: str | tuple[str, int] | None = None,
    trial: int = 0,
    salt: str = "",
) -> list[Point]:
    """Draw h deterministic pseudo-random points in general position.

    constraint: None, or ("subspace", s) restricting to x_{s+1} = ... = x_n = 0.
    Unconstrained coordinates are sampled nonzero so every chart works; a
    repeated point triggers resampling.
    """
    if h < 0:
        raise ValueError("point count must be >= 0")
    p = cfg.prime.p
    sub_s: int | None = None
    if isinstance(constraint, tuple):
        kind, sub_s = constraint
        if kind != "subspace":
            raise ValueError(f"unknown sampling constraint {constraint!r}")
        if space.nfactors != 1 or not (1 <= sub_s <= space.n):
            raise ValueError("subspace constraint needs a single factor and 1 <= s <= n")
    elif constraint is not None:
        raise ValueError(f"unknown sampling constraint {constraint!r}")

    rng = random.Random(f"{cfg.seed}:{trial}:{p}:{salt}")
    points: list[Point] = []
    seen: set[Point] = set()
    for _ in range(h):
        # the redraw bound is per point, so the first h points of a call for
        # more points are exactly this call's points, or both calls raise
        for _ in range(REDRAWS):
            factors = []
            for n in space.factors:
                width = (sub_s + 1) if sub_s is not None else (n + 1)
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
        return out.reshape(-1, self.cols)

    def line_rows(self, line: tuple[Point, Point], alpha: int) -> np.ndarray:
        """Rows forcing vanishing to order alpha along the line ab (single
        factor only): multiplicity alpha at the d+1 points a + t b, t = 0..d.
        A derivative of order k < alpha restricts to the line as a binary
        form of degree d-k, so it vanishes along the line exactly when it
        vanishes at d+1 distinct points of it; a != b and p > d make the
        points a + t b distinct."""
        if self.space.nfactors != 1:
            raise NotImplementedError("line schemes are only supported on a single factor")
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


def _condition_matrix(
    builder: _RowBuilder,
    sys: LinearSystem,
    cfg: OracleConfig,
    trial: int,
    extra_schemes: tuple[LineScheme, ...] | list[LineScheme],
    subspace: SubspaceScheme | None,
) -> np.ndarray:
    """The condition rows of one trial: the fat points in group order, then
    the line schemes, then the subspace-vanishing rows."""
    if subspace is None:
        points = sample_points(sys.space, sys.total_points, cfg, trial=trial)
    else:
        on = sample_points(
            sys.space, subspace.points_on, cfg, constraint=("subspace", subspace.s), trial=trial
        )
        off = sample_points(
            sys.space, sys.total_points - subspace.points_on, cfg, trial=trial, salt="off"
        )
        points = on + off
    blocks = []
    start = 0
    for g in sys.points:
        blocks.append(builder.rows(points[start : start + g.count], g.multiplicity))
        start += g.count
    for i, j, alpha in extra_schemes:
        blocks.append(builder.line_rows((points[i], points[j]), alpha))
    if subspace is not None and subspace.vanish:
        span = binom(sys.multidegree[0] + subspace.s, subspace.s)
        extra_pts = sample_points(
            sys.space, span, cfg, constraint=("subspace", subspace.s), trial=trial, salt="vanish"
        )
        blocks.append(builder.rows(extra_pts, 1))
    return np.vstack(blocks) if blocks else np.zeros((0, builder.cols), dtype=np.int64)


def _oracle_series(
    sys: LinearSystem,
    cfg: OracleConfig,
    counts: list[int],
    extra_schemes: tuple[LineScheme, ...] | list[LineScheme] = (),
    subspace: SubspaceScheme | None = None,
) -> list[OracleResult]:
    """h0_oracle of sys cut to its first h points, for each h in counts.

    sample_points is prefix-consistent, so trial t of the cut to h uses the
    first h points of trial t of any longer cut, and its condition rows are
    the first rows of that longer matrix. Trial t therefore runs once, on
    the largest h still above its floor, and every shorter cut reads its
    rank off that matrix A: the first k rows of A have rank equal to the
    number of pivot columns of A^T below k. Line schemes and subspaces break
    the row order, so they take a single count, the whole system.
    """
    p = cfg.prime.p
    if p <= max(sys.multidegree, default=0):
        raise ValueError(
            f"prime {p} must exceed the largest degree {max(sys.multidegree)}: "
            "the derivative factors vanish mod p otherwise"
        )
    npoints = sys.total_points
    for i, j, alpha in extra_schemes:
        if i == j or not (0 <= i < npoints) or not (0 <= j < npoints):
            raise ValueError(f"line scheme ({i},{j}) must join two distinct base points")
        if alpha < 1:
            raise ValueError("line multiplicity must be >= 1")
    pure = not extra_schemes and subspace is None

    builder = _RowBuilder(sys, p)
    cols = builder.cols
    cuts = [sys.first_points(h) for h in counts]
    dims = [dim_report(cut) for cut in cuts]
    best = [cols] * len(cuts)
    rows = [0] * len(cuts)
    used = [0] * len(cuts)
    pending = list(range(len(cuts)))
    for t in range(cfg.trials):
        top = max(pending, key=lambda i: counts[i])
        A = _condition_matrix(builder, cuts[top], cfg, t, extra_schemes, subspace)
        if len(pending) == 1:
            ranks = [rank_mod_p(A, p)]
            rows[top] = A.shape[0]
        else:
            # a cut's rows are its naive conditions, the first rows of A
            assert A.shape[0] == dims[top].conditions
            pivots = _pivot_columns(A.T, p)
            for i in pending:
                rows[i] = dims[i].conditions
            ranks = [bisect_left(pivots, rows[i]) for i in pending]
        still = []
        for i, rank in zip(pending, ranks):
            h0_t = cols - rank
            floor = max(dims[i].virtual_dim + 1, 0) if pure else max(cols - rows[i], 0)
            if pure and h0_t < floor:
                raise OracleSamplingError(
                    f"semicontinuity violated: h0 trial value {h0_t} below {floor}"
                )
            best[i] = min(best[i], h0_t)
            used[i] += 1
            if best[i] != floor:
                still.append(i)
        pending = still
        if not pending:
            break

    return [
        OracleResult(
            h0=best[i],
            h1=dims[i].conditions - (cols - best[i]) if pure else None,
            rank=cols - best[i],
            rows=rows[i],
            cols=cols,
            special=(best[i] - 1) > dims[i].expected_dim if pure else None,
            trials_used=used[i],
            prime=p,
            seed=cfg.seed,
        )
        for i in range(len(cuts))
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
    field by field, at one elimination per trial for the whole series."""
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


def _second_config(cfg: OracleConfig) -> OracleConfig:
    """The cross-check's second prime and seed."""
    p2 = SECOND_PRIME if cfg.prime.p != SECOND_PRIME else DEFAULT_PRIME
    return OracleConfig(PrimeField(p2), cfg.trials, cfg.seed + 1)


def cross_checked_h0(
    sys: LinearSystem,
    cfg: OracleConfig | None = None,
    extra_schemes: tuple[LineScheme, ...] | list[LineScheme] = (),
) -> CrossCheckedH0:
    """h^0 computed with two distinct primes and seeds; on disagreement a
    third prime is tried and the minimum (the generic value) is kept."""
    cfg = cfg or OracleConfig()
    cfg2 = _second_config(cfg)
    p1, p2 = cfg.prime.p, cfg2.prime.p
    r1 = h0_oracle(sys, cfg, extra_schemes=extra_schemes)
    r2 = h0_oracle(sys, cfg2, extra_schemes=extra_schemes)
    if r1.h0 == r2.h0:
        return CrossCheckedH0(r1.h0, True, (r1.h0, r2.h0), (p1, p2))
    p3 = next(p for p in (THIRD_PRIME, SECOND_PRIME, DEFAULT_PRIME) if p not in (p1, p2))
    r3 = h0_oracle(
        sys,
        OracleConfig(PrimeField(p3), cfg.trials, cfg.seed + 2),
        extra_schemes=extra_schemes,
    )
    return CrossCheckedH0(
        min(r1.h0, r2.h0, r3.h0), False, (r1.h0, r2.h0, r3.h0), (p1, p2, p3)
    )


def cross_checked_prefix(sys: LinearSystem, cfg: OracleConfig | None = None) -> list[CrossCheckedH0]:
    """cross_checked_h0 of a pure fat-point system cut to its first h points,
    for h = 0..total_points: one prefix series per prime, and every h where
    the two disagree is handed to cross_checked_h0 on its cut system."""
    cfg = cfg or OracleConfig()
    first = h0_prefix_oracle(sys, cfg)
    second = h0_prefix_oracle(sys, _second_config(cfg))
    return [
        CrossCheckedH0(a.h0, True, (a.h0, b.h0), (a.prime, b.prime))
        if a.h0 == b.h0
        else cross_checked_h0(sys.first_points(h), cfg)
        for h, (a, b) in enumerate(zip(first, second))
    ]
