"""Selection matrices, their connectivity and Laplacian spectra.

A selection matrix holds the pairing weights of the gossip process: row i is
the probability distribution node i uses to pick a partner, so every row sums
to one, the diagonal is zero (nobody gossips with themselves) and there are at
least three nodes. Connectivity is checked on the positivity pattern a_ij > 0
with arc directions ignored: i and j exchange values once either picks the other.

A matrix is held as its stored entries, those whose bits are not +0.0
(`SelectionMatrix`), in O(nonzeros) memory, and `validate_entries` checks
it in that form; `validate` checks a dense array by its stored entries.
Two functions build a dense (n, n) array: `laplacian`, for the closed-form
second moment and the oracle, and `SelectionMatrix.entries`, on each
access; the config hash and the manifest (which record the stored
entries), the engine's partner tables (`SelectionMatrix.partner_tables`)
and the spectral solve (`spectral`) work from the stored form.

The spectral quantities that drive the contraction analysis are the extreme
eigenvalues lambda2 and lambda_n of the symmetrized Laplacian D - (A + A^T),
where D is diagonal with d_i = sum_j (a_ij + a_ji). `spectral` finds them by
Lanczos on the stored entries, with no (n, n) array and no BLAS call.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    BadParameterError,
    DisconnectedAfterRetriesError,
    EigenFailureError,
    MatrixTooSmallError,
    NegativeEntryError,
    NonzeroDiagonalError,
    NotStochasticError,
)

__all__ = [
    "SelectionMatrix",
    "SpectralData",
    "validate",
    "validate_entries",
    "is_weakly_connected",
    "laplacian",
    "spectral",
    "generate",
    "allocate",
    "import_matrix_csv",
    "export_matrix_csv",
    "import_matrix_json",
    "export_matrix_json",
]

ROW_SUM_TOL = 1e-9
GENERATOR_MAX_RETRIES = 100
# The spectral solve stops once each extreme Ritz value is within this share
# of itself of an eigenvalue (Parlett's residual bound; see `spectral`).
SPECTRAL_RTOL = 1e-10
# Bytes of the Lanczos basis allocated at a time: the basis grows by blocks
# of whole rows and is never copied.
LANCZOS_BLOCK = 1 << 19
# The fewest Lanczos steps between two tests of the stopping rule.
LANCZOS_CHECK_STEPS = 8
_EPS = 2.0 ** -52
_SQRT_EPS = 2.0 ** -26


@dataclass(frozen=True, eq=False)
class SelectionMatrix:
    """Validated pairing-weight matrix, held as its stored entries: those
    whose bits are not +0.0, so a -0.0 entry is stored and keeps its sign,
    and every entry not stored is +0.0. Row i's stored entries are
    `values[indptr[i]:indptr[i + 1]]`, in the columns of the same slice of
    `indices`, ascending: O(nonzeros) memory, 80 KB for a 1000-node network
    of 6 neighbours a node against 7.6 MiB dense. `validate` and `generate`
    are the constructors callers should use; the arrays are read-only.

    Attributes
    ----------
    n : int
        Number of nodes, at least 3.
    indptr : numpy.ndarray
        (n + 1,) int64 offsets of the rows' stored entries.
    indices : numpy.ndarray
        (stored,) int32 columns of the stored entries.
    values : numpy.ndarray
        (stored,) float64 stored entries; row-stochastic with a zero diagonal.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.indptr, self.indices, self.values):
            a.setflags(write=False)

    @property
    def entries(self) -> np.ndarray:
        """The dense (n, n) array, read-only, built anew on each access: for
        tests, small matrices and the exports. The commands never build it;
        `laplacian` fills its own array, and `montecarlo.config_to_dict`
        records the stored entries."""
        a = self.rows(0, self.n)
        a.setflags(write=False)
        return a

    def _tails(self, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """The row, counted from `lo`, of each stored entry of rows [lo, hi)."""
        hi = self.n if hi is None else hi
        return np.repeat(np.arange(hi - lo), np.diff(self.indptr[lo:hi + 1]))

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows [lo, hi) as a dense (hi - lo, n) float array."""
        out = np.zeros((hi - lo, self.n))
        s, e = self.indptr[lo], self.indptr[hi]
        out[self._tails(lo, hi), self.indices[s:e]] = self.values[s:e]
        return out

    def positive_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(tails, heads, weights) of the entries a_ij > 0, row by row and
        in column order: the arcs i -> j the process can pick."""
        pos = self.values > 0.0
        return self._tails()[pos], self.indices[pos], self.values[pos]

    def same_entries(self, other: SelectionMatrix, bits: bool = False) -> bool:
        """Whether two matrices hold equal entries: as floats, where -0.0
        equals 0.0 and so draws alike, or with `bits` bit for bit, where
        -0.0 is not 0.0 (its text differs)."""
        if self is other:
            return True
        if self.n != other.n:
            return False
        if bits:
            return (np.array_equal(self.indptr, other.indptr)
                    and np.array_equal(self.indices, other.indices)
                    and np.array_equal(self.values.view(np.uint64), other.values.view(np.uint64)))
        return all(map(np.array_equal, self.positive_entries(), other.positive_entries()))

    def partner_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The engine's pair sampler: `cdf`, (n, w) float64, and `cols`,
        (n, w) int32, with w the most positive entries in a row. Row i holds
        the running sums of its positive entries in column order, and their
        columns; from its last positive entry on the sum reads exactly 1.0,
        and a shorter row is padded with 1.0 and that entry's column.

        For a draw u in [0, 1), with k the number of cdf[i] entries <= u,
        cols[i, k] is the partner of the draw protocol (`dynamics`): the
        first column whose running sum of dense row i exceeds u, that sum
        read as 1.0 from the row's last positive entry on. The sums here are
        those of the dense row at its positive entries, as adding a zero
        changes no sum, and every other column of the dense row repeats the
        sum before it, a zero-width step no draw selects.
        """
        tails, heads, weights = self.positive_entries()
        counts = np.bincount(tails, minlength=self.n)  # at least 1: rows sum to one
        width = int(counts.max())
        ends = np.cumsum(counts)
        at = np.arange(len(tails)) - np.repeat(ends - counts, counts)  # place in its row
        cdf = np.zeros((self.n, width))
        cdf[tails, at] = weights
        np.cumsum(cdf, axis=1, out=cdf)
        cdf[np.arange(width) >= (counts - 1)[:, None]] = 1.0
        cols = np.repeat(heads[ends - 1, None], width, axis=1)
        cols[tails, at] = heads
        return cdf, cols

    @cached_property
    def _spectral(self) -> SpectralData:
        """`spectral` of this matrix, solved on first use and kept."""
        lambda2, lambda_n = _lanczos(self)
        return SpectralData(
            n=self.n,
            lambda2=lambda2,
            lambda_n=lambda_n,
            a_star=float(self.positive_entries()[2].min()),
        )


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Spectral summary of the symmetrized Laplacian.

    Attributes
    ----------
    n : int
        Number of nodes.
    lambda2 : float
        Second-smallest eigenvalue; positive exactly when the matrix is
        weakly connected.
    lambda_n : float
        Largest eigenvalue; bounded above by 2n.
    a_star : float
        Smallest positive selection weight.
    """

    n: int
    lambda2: float
    lambda_n: float
    a_star: float


def validate(entries: np.ndarray | list[list[float]]) -> SelectionMatrix:
    """Check a dense array against the selection-matrix contract: its
    stored entries, those whose bits are not +0.0, go through
    `validate_entries`.

    Parameters
    ----------
    entries : array-like
        Candidate (n, n) weight matrix.

    Returns
    -------
    SelectionMatrix
        Its stored entries only: the checked array is not kept.

    Raises
    ------
    BadParameterError
        Entries that are not numbers (booleans and strings included).
    MatrixTooSmallError
        A non-square array.
    Others
        As `validate_entries`.
    """
    try:
        a = np.array(entries)
    except ValueError as exc:
        raise BadParameterError(f"matrix entries must be an array of numbers: {exc}") from None
    if a.dtype.kind not in "iuf":  # strings, even numeric ones, and objects
        raise BadParameterError(f"matrix entries must be numbers, got {a.dtype} entries")
    a = a.astype(float, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatrixTooSmallError(f"expected a square matrix, got shape {a.shape}")
    if not isinstance(entries, np.ndarray) and any(
            not {bool, np.bool_}.isdisjoint(map(type, row)) for row in entries):
        raise BadParameterError("matrix entries must be numbers, got a boolean entry")
    stored = a.view(np.uint64) != 0  # -0.0 too
    return validate_entries(a.shape[0], *np.nonzero(stored), a[stored])


def validate_entries(n: int, i, j, a) -> SelectionMatrix:
    """Check a matrix given as its stored entries: a[k] at row i[k] and
    column j[k], in strictly ascending row-major (i, j) order, every entry
    not listed being +0.0. Listed +0.0 entries are dropped; -0.0 is kept.

    Every row sums to one, so every row has an entry: an `n` beyond the
    number of entries fails before anything of size n is allocated.

    Raises
    ------
    MatrixTooSmallError
        Fewer than three nodes.
    BadParameterError
        Lists of unequal length, an index outside [0, n), entries out of
        order or repeated, or a value that is not finite.
    NegativeEntryError
        Any weight below zero.
    NonzeroDiagonalError
        Any self-selection weight.
    NotStochasticError
        A row sum, over its stored entries, farther than `ROW_SUM_TOL` from
        one. Rows are never silently renormalized; fixing the input is the
        caller's job.
    """
    n = operator.index(n)
    if n < 3:
        raise MatrixTooSmallError(f"need at least 3 nodes, got {n}")
    i, j, a = _numbers("i", i, "iu"), _numbers("j", j, "iu"), _numbers("a", a, "iuf")
    if not len(i) == len(j) == len(a):
        raise BadParameterError(
            f"matrix entry lists differ in length: i {len(i)}, j {len(j)}, a {len(a)}")
    if n > len(a):
        raise NotStochasticError(f"{n} rows but {len(a)} entries: some row sums to 0, expected 1")
    for name, x in (("i", i), ("j", j)):
        outside = (x < 0) | (x >= n)
        if outside.any():
            k = int(np.argmax(outside))
            raise BadParameterError(f"matrix entry {k}: {name} = {x[k]} is outside [0, {n})")
    i, j, a = i.astype(np.int64, copy=False), j.astype(np.int64, copy=False), \
        a.astype(float, copy=False)
    ordered = (i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))
    if not ordered.all():
        k = int(np.argmin(ordered)) + 1
        raise BadParameterError(f"matrix entry {k} ({i[k]}, {j[k]}) does not follow entry "
                                f"{k - 1} ({i[k - 1]}, {j[k - 1]}) in row-major order")
    if not np.isfinite(a).all():
        raise BadParameterError("matrix entries must be finite")
    if (a < 0.0).any():
        k = int(np.argmax(a < 0.0))
        raise NegativeEntryError(f"entry ({i[k]}, {j[k]}) is negative: {a[k]}")
    on_diagonal = (i == j) & (a != 0.0)
    if on_diagonal.any():
        k = int(np.argmax(on_diagonal))
        raise NonzeroDiagonalError(f"diagonal entry ({i[k]}, {i[k]}) is {a[k]}, must be 0")
    stored = a.view(np.uint64) != 0
    i, j, a = i[stored], j[stored], a[stored]
    sums = np.bincount(i, a, n)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    if bad.any():
        r = int(np.argmax(bad))
        raise NotStochasticError(f"row {r} sums to {sums[r]:.12g}, expected 1")
    indptr = np.r_[0, np.cumsum(np.bincount(i, minlength=n))]
    return SelectionMatrix(n, indptr, j.astype(np.int32), a)


def _numbers(name: str, x, kinds: str) -> np.ndarray:
    """`x`, a list, a tuple or an array, as an array whose dtype is of one
    of `kinds`: integers ("iu") or numbers ("iuf"); anything else, booleans,
    strings and integers beyond 64 bits among it, is refused."""
    sequence = isinstance(x, (list, tuple, np.ndarray))
    booleans = sequence and not isinstance(x, np.ndarray) \
        and not {bool, np.bool_}.isdisjoint(map(type, x))
    try:
        x = np.asarray(x) if sequence else None
    except (OverflowError, ValueError):
        x = None
    if booleans or x is None or x.ndim != 1 or x.dtype.kind not in kinds:
        what = "integers" if kinds == "iu" else "numbers"
        raise BadParameterError(f"matrix entries' {name} must be a list of {what}")
    return x


def is_weakly_connected(n: int, tails: np.ndarray, heads: np.ndarray) -> bool:
    """True when the arcs tails[k] -> heads[k] join all n nodes once their
    directions are dropped: an arc joins its two ends alike. One pass over
    the arcs per hop from node 0."""
    ends = np.concatenate((tails, heads))
    others = np.concatenate((heads, tails))
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    count = 1
    while count < n:
        reached[others[reached[ends]]] = True
        grown = int(np.count_nonzero(reached))
        if grown == count:
            return False
        count = grown
    return True


def laplacian(matrix: SelectionMatrix) -> np.ndarray:
    """The symmetrized Laplacian D - (A + A^T) in one (n, n) array, for the
    closed-form second moment (`theory.expected_second_moment_matrix`) and
    the tests; `spectral` does not build it. Filled from the stored entries,
    with the bits of `np.diag(d) - (A + A^T)` on the dense A: off the
    diagonal 0.0 - x is -x, and 0.0 - -0.0 is 0.0 whichever of a_ij and
    a_ji holds the -0.0; a sum d of positive weight reads the same with
    -0.0 or 0.0 terms; on the diagonal (0.0 - (-0.0 + -0.0)) + d is d.
    Symmetric positive semidefinite."""
    tails, heads, values = matrix._tails(), matrix.indices, matrix.values
    lap = np.zeros((matrix.n, matrix.n))
    lap[tails, heads] = values
    lap[heads, tails] += values  # a_ji + a_ij: each (j, i) once
    d = lap.sum(axis=1)
    np.subtract(0.0, lap, out=lap)
    lap[np.diag_indices_from(lap)] += d
    return lap


def spectral(matrix: SelectionMatrix) -> SpectralData:
    """lambda2 and lambda_n of the symmetrized Laplacian L = D - (A + A^T),
    solved once per matrix and kept on it: configs that share a matrix,
    such as the points of a sweep, share one solve.

    The solve is Lanczos on the stored entries (`_lanczos`): k steps hold
    a k x n basis and no (n, n) array, and no step calls BLAS, so the bits
    do not depend on the number of threads or cores.

    Error bound. The solve stops when Parlett's residual bound
    r = ||L y - theta y|| of the unit Ritz vector y is at most
    `SPECTRAL_RTOL` * theta for both extreme Ritz values theta, or at
    breakdown (the next Lanczos vector's norm beta is at most
    n * eps * 2 max_i d_i), or after n - 1 steps, when the Krylov space is
    all of 1-perp. An eigenvalue of L lies within r of each theta, so
    |lambda2 - theta| <= `SPECTRAL_RTOL` * theta for the smallest, relative
    to lambda2's own size and not to lambda_n, and likewise for lambda_n
    and the largest, as long as the fixed start vector is not orthogonal to
    their eigenspaces (a Krylov method cannot see an eigenvector its start
    vector misses). At breakdown and at n - 1 steps every Ritz value is
    within beta of an eigenvalue. On 1-perp the Ritz values never fall below
    lambda2 nor rise above lambda_n. Rounding adds an error of a few
    eps * lambda_n, as it does to `eigvalsh`; on graphs with a tiny gap
    that is the larger term for lambda2.

    Raises
    ------
    EigenFailureError
        If a Lanczos coefficient or a result is not finite.
    """
    return matrix._spectral


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y by einsum's own loop, which is the same on any thread count
    (`np.dot` on vectors calls BLAS)."""
    return float(np.einsum("i,i->", x, y))


class _LanczosBasis:
    """Orthonormal rows of length n, held in blocks of about
    `LANCZOS_BLOCK` bytes, so that the basis grows without a copy."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.block_rows = max(1, min(n, LANCZOS_BLOCK // (8 * n)))
        self.blocks: list[np.ndarray] = []
        self.size = 0

    def add(self, v: np.ndarray) -> None:
        at = self.size % self.block_rows
        if at == 0:
            self.blocks.append(allocate((self.block_rows, self.n)))
        self.blocks[-1][at] = v
        self.size += 1

    def orthogonalize(self, w: np.ndarray) -> np.ndarray:
        """w less its projection on the basis, in place, by classical
        Gram-Schmidt twice ("twice is enough"), with einsum's loops: no
        BLAS call."""
        used = self.size - (len(self.blocks) - 1) * self.block_rows
        views = self.blocks[:-1] + [self.blocks[-1][:used]]
        for _ in range(2):
            coeffs = [np.einsum("ij,j->i", block, w) for block in views]
            for c, block in zip(coeffs, views):
                w -= np.einsum("i,ij->j", c, block)
        return w


def _sturm_count(a: list[float], b2: list[float], x: float, pivmin: float) -> int:
    """How many eigenvalues of the symmetric tridiagonal T with diagonal `a`
    and squared off-diagonal `b2` (b2[j] couples j - 1 and j, b2[0] is 0)
    lie below x: the negative pivots of T - x I = L D L^T (Sylvester), a
    zero pivot taken as -pivmin. Adding a row to T adds at most one."""
    count = 0
    q = 1.0
    for aj, bj2 in zip(a, b2):
        q = aj - x - bj2 / q
        if q <= 0.0:
            count += 1
            if q == 0.0:
                q = -pivmin
    return count


def _bisect(a: list[float], b2: list[float], lo: float, hi: float, index: int,
            pivmin: float, width: float = 0.0) -> tuple[float, float]:
    """[lo, hi], with at most `index` eigenvalues of T below lo and more
    below hi, shrunk by bisection to `width` or to two adjacent floats:
    eigenvalue `index` (counted from the smallest, from 0) lies in it."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi or hi - lo <= width:
            return lo, hi
        if _sturm_count(a, b2, mid, pivmin) > index:
            hi = mid
        else:
            lo = mid


def _residual(a: list[float], b2: list[float], beta: float, theta: float,
              pivmin: float) -> float:
    """||L y - theta y|| for the unit vector y = V s / ||s|| of the Lanczos
    basis V, s from the twisted factorization of T - theta I (T as in
    `_sturm_count`): s_r = 1 and (T - theta I) s = gamma e_r, at the twist
    r of least |gamma|, where the vector is most accurate. As
    L V = V T + beta v e_k^T with v orthogonal to V, the norm is
    sqrt(gamma^2 + (beta s_k)^2) / ||s||: Parlett's bound |beta s_k| at a
    Ritz value theta. An eigenvalue of L lies within it of theta, whatever
    theta and s are, so a poor s only delays the stop."""
    down = []  # pivots of T - theta I from the top
    q = 1.0
    for aj, bj2 in zip(a, b2):
        q = aj - theta - bj2 / q or pivmin
        down.append(q)
    up = []  # and from the bottom, last row first
    q = 1.0
    for aj, bj2 in zip(reversed(a), [0.0, *reversed(b2[1:])]):
        q = aj - theta - bj2 / q or pivmin
        up.append(q)
    up.reverse()
    gammas = [abs(d + u - (aj - theta)) for d, u, aj in zip(down, up, a)]
    r = gammas.index(min(gammas))
    total = s2 = 1.0  # ||s||^2 and s_j^2, from s_r = 1 outwards
    for j in range(r - 1, -1, -1):
        s2 *= b2[j + 1] / (down[j] * down[j])
        total += s2
    s2 = 1.0
    for j in range(r + 1, len(a)):
        s2 *= b2[j] / (up[j] * up[j])
        total += s2
    if total == math.inf:
        return math.inf
    return math.sqrt((gammas[r] ** 2 + beta * beta * s2) / total)


class _RitzEnd:
    """The smallest (`top` False) or the largest Ritz value of the growing
    tridiagonal T: a bracket [lo, hi] of it, its midpoint `theta`, and
    `bound`, the distance from theta within which L has an eigenvalue."""

    def __init__(self, top: bool) -> None:
        self.top = top
        self.lo = self.hi = self.theta = math.nan
        self.bound = math.inf
        self.tries: list[float] = []  # distances out to try the outer end at
        self.steps = 0                # the size of T at the last update
        self.left = math.inf          # steps until `bound` meets the tolerance

    def update(self, a: list[float], b2: list[float], beta: float, span: float,
               pivmin: float) -> None:
        """Bisect the Ritz value of T (as in `_sturm_count`), whose
        eigenvalues lie in [-span, span], to a thousandth of its last bound,
        and bound it with `beta`, the norm of the next Lanczos vector: its
        residual (`_residual`) at theta plus the bracket's width, which
        covers the Ritz value wherever it lies. `left` becomes the steps the
        bound needs to meet the tolerance at the rate it fell since the last
        update (0 once it meets it, inf if it did not fall).

        As T grows the smallest Ritz value only falls and the largest only
        rises, so the inner end of the last bracket stays good. The outer
        end is tried twice the last move of theta out, then twice the last
        bound out, and else at `span`: late checks bisect a short bracket."""
        index, out = (len(a) - 1, 1.0) if self.top else (0, -1.0)
        kept = -out * span if math.isnan(self.theta) else (self.lo if self.top else self.hi)
        for step in self.tries:
            end = kept + out * step
            if abs(end) < span and (_sturm_count(a, b2, end, pivmin) > index) == self.top:
                break
        else:
            end = out * span
        width = 1e-3 * min(self.bound, span)
        self.lo, self.hi = _bisect(a, b2, min(kept, end), max(kept, end), index, pivmin, width)
        theta = 0.5 * (self.lo + self.hi)
        last, self.bound = self.bound, _residual(a, b2, beta, theta, pivmin) + (self.hi - self.lo)
        moved = abs(theta - self.theta) if not math.isnan(self.theta) else math.inf
        self.tries = [2.0 * moved + 4.0 * math.ulp(theta), 2.0 * self.bound]
        self.theta = theta
        target = SPECTRAL_RTOL * theta
        if self.bound <= target:
            self.left = 0.0
        elif 0.0 < target < self.bound < last < math.inf:
            self.left = ((len(a) - self.steps) * math.log(self.bound / target)
                         / math.log(last / self.bound))
        else:
            self.left = math.inf
        self.steps = len(a)

    def refine(self, a: list[float], b2: list[float], pivmin: float) -> float:
        """The Ritz value, bisected on to two adjacent floats; it stays
        within `bound` of an eigenvalue of L."""
        index = len(a) - 1 if self.top else 0
        lo, hi = _bisect(a, b2, self.lo, self.hi, index, pivmin)
        return 0.5 * (lo + hi)


def _start_vector(n: int) -> np.ndarray:
    """Lanczos's start vector: entry i is the SplitMix64 output for i + 1
    (Steele, Lea and Flood, 2014) as a float in [0, 1), in integer steps
    with the same bits on every machine. A pseudo-random vector typically
    holds a share of every eigenvector of order 1 / sqrt(n). A regular
    sequence can all but miss one: frac((i + 1) * 0.618...), whose steps
    repeat, holds 1e-8 of lambda2's eigenvector on a 4-cycle with one arc
    split into weights 1 - 1e-8 and 1e-8, and Lanczos then breaks down at
    lambda3."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def _lanczos(matrix: SelectionMatrix) -> tuple[float, float]:
    """(lambda2, lambda_n) of the symmetrized Laplacian by Lanczos with full
    reorthogonalization, as `spectral` states.

    L x = d * x - (A + A^T) x, the second term one `bincount` over the arcs
    taken both ways. The start vector (`_start_vector`) is fixed and has no
    pattern a graph could share; it and every Lanczos vector are
    orthogonalized twice against 1 / sqrt(n) and the basis, so the steps
    stay on 1-perp, where lambda2 is the smallest eigenvalue. At each check
    the extreme eigenvalues of the tridiagonal T are bisected by Sturm
    counts in Python floats, from brackets kept between checks, and their
    residual bounds tested (`_RitzEnd`). Checks are `LANCZOS_CHECK_STEPS`
    apart or more: while the bounds are far from the tolerance, half the
    steps they need at their last rate of fall, up to a quarter of the
    steps so far."""
    n = matrix.n
    tails, heads, weights = matrix.positive_entries()
    ends = np.concatenate((tails, heads))
    others = np.concatenate((heads, tails))
    arcs = np.concatenate((weights, weights))
    degree = np.bincount(ends, arcs, n)
    scale = 2.0 * float(degree.max())  # >= lambda_n
    breakdown = n * _EPS * scale
    pivmin = _EPS * breakdown
    basis = _LanczosBasis(n)
    basis.add(np.full(n, 1.0 / math.sqrt(n)))
    v = basis.orthogonalize(_start_vector(n))
    v /= math.sqrt(_dot(v, v))
    a: list[float] = []
    b: list[float] = []
    b2 = [0.0]
    prev, beta = None, 0.0
    extremes = (_RitzEnd(top=False), _RitzEnd(top=True))
    check = LANCZOS_CHECK_STEPS  # the step of the next test of the stopping rule
    while True:
        basis.add(v)
        w = degree * v - np.bincount(ends, arcs * v[others], n)
        alpha = _dot(v, w)
        w -= alpha * v
        if prev is not None:
            w -= beta * prev
        basis.orthogonalize(w)
        beta = math.sqrt(_dot(w, w))
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise EigenFailureError(f"Lanczos step {len(a) + 1} is not finite")
        a.append(alpha)
        k = len(a)
        last = k == n - 1 or beta <= breakdown
        # a small beta nears an invariant subspace: test at once, and again
        # soon, as the steps after it go on in what the Krylov space left out
        small = beta <= _SQRT_EPS * scale
        if last or k == check or small:
            span = max(abs(aj) + bl + br for aj, bl, br in zip(a, [0.0, *b], [*b, 0.0]))
            for x in extremes:
                x.update(a, b2, beta, span, pivmin)
            if last or all(x.left == 0.0 for x in extremes):
                thetas = tuple(x.refine(a, b2, pivmin) for x in extremes)
                if not all(map(math.isfinite, thetas)):
                    raise EigenFailureError("the Lanczos eigenvalues are not finite")
                return thetas
            # half of what the slower bound needs, as Lanczos speeds up
            wait = 0 if small else min(max(x.left for x in extremes) / 2.0, k // 4)
            check = k + max(LANCZOS_CHECK_STEPS, int(wait))
        b.append(beta)
        b2.append(beta * beta)
        prev, v = v, w / beta


# ---------------------------------------------------------------------------
# topology generation
# ---------------------------------------------------------------------------

def allocate(shape, dtype=float) -> np.ndarray:
    """`np.empty(shape, dtype)`, raising MemoryError also for a shape beyond
    the address space, which numpy reports as ValueError."""
    try:
        return np.empty(shape, dtype)
    except (ValueError, OverflowError):
        raise MemoryError(f"an array of shape {shape} exceeds the address space") from None


def _complete(adj: np.ndarray) -> None:
    adj.fill(True)
    np.fill_diagonal(adj, False)


def _ring_lattice(adj: np.ndarray, half_k: int) -> None:
    """Join each node to its `half_k` nearest neighbors on either side."""
    nodes = np.arange(adj.shape[0])
    for j in range(1, half_k + 1):
        targets = np.roll(nodes, -j)
        adj[nodes, targets] = adj[targets, nodes] = True


def _gnp(adj: np.ndarray, rnd: random.Random, p: float) -> None:
    """networkx's `gnp_random_graph(n, p, seed=rnd)`: one draw per pair."""
    if p >= 1.0:
        _complete(adj)
        return
    if p <= 0.0:
        return
    draw = rnd.random
    for u, v in itertools.combinations(range(adj.shape[0]), 2):
        if draw() < p:
            adj[u, v] = adj[v, u] = True


def _watts_strogatz(adj: np.ndarray, rnd: random.Random, k_nn: int, p_rewire: float) -> None:
    """networkx's `watts_strogatz_graph(n, k_nn, p_rewire, seed=rnd)`: the
    ring lattice, then each lattice edge (u, u + j), j outer and u inner,
    is moved to a uniform new endpoint with probability `p_rewire`."""
    n = adj.shape[0]
    _ring_lattice(adj, k_nn // 2)
    degree = [k_nn] * n
    draw, choice, nodes = rnd.random, rnd.choice, range(n)
    for j in range(1, k_nn // 2 + 1):
        for u in nodes:
            if draw() < p_rewire:
                w = choice(nodes)
                while w == u or adj[u, w]:
                    w = choice(nodes)
                    if degree[u] >= n - 1:
                        break  # u is joined to every node: keep the edge
                else:
                    v = (u + j) % n
                    adj[u, v] = adj[v, u] = False
                    adj[u, w] = adj[w, u] = True
                    degree[v] -= 1
                    degree[w] += 1


def _barabasi_albert(adj: np.ndarray, rnd: random.Random, m: int) -> None:
    """networkx's `barabasi_albert_graph(n, m, seed=rnd)`: a star on nodes
    0..m, then each new node joins m distinct nodes drawn in proportion to
    their degree. The targets are gathered in a set, and the set's
    iteration order decides the order of `repeated` and so later draws."""
    adj[0, 1:m + 1] = adj[1:m + 1, 0] = True
    repeated = [0] * m + list(range(1, m + 1))  # each node once per edge end
    choice = rnd.choice
    for source in range(m + 1, adj.shape[0]):
        targets = set()
        while len(targets) < m:
            targets.add(choice(repeated))
        ordered = list(targets)
        adj[source, ordered] = adj[ordered, source] = True
        repeated.extend(ordered)
        repeated.extend([source] * m)


def _normalize_rows(n: int, tails: np.ndarray, heads: np.ndarray) -> SelectionMatrix:
    """The matrix whose row i picks i's neighbours uniformly, weight
    1 / degree each, from the arcs tails[k] -> heads[k] in row-major order,
    as `np.nonzero` of an adjacency gives them; a node with no arc keeps a
    row of zeros."""
    deg = np.bincount(tails, minlength=n)
    return SelectionMatrix(n, np.r_[0, np.cumsum(deg)], heads.astype(np.int32),
                           1.0 / deg[tails])


# The attempt seeds are numpy's `default_rng(seed).integers(0, 2**31 - 1)`,
# drawn in turn: numpy's SeedSequence, PCG64 and Generator's bounded draw,
# kept here so that generating a network does not load numpy.random, and so
# that the graph of a seed does not depend on the numpy version.
_ATTEMPT_SEED_BOUND = 2**31 - 1
_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list[int]:
    """`SeedSequence(seed).generate_state(4, np.uint64)`: the seed's 32-bit
    words, low first, hashed into a pool of 4 words, then 8 words drawn from
    the pool and paired into 4 64-bit words, low word first."""
    seed = operator.index(seed)  # numpy integers too, as SeedSequence takes them
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, state = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


def _pcg64_words(seed: int) -> Iterator[int]:
    """`PCG64(seed)`'s 32-bit outputs: each 128-bit LCG step gives a 64-bit
    XSL-RR output, whose low half comes first, then its high half."""
    s = _seed_state(seed)
    init_state, init_seq = s[0] << 64 | s[1], s[2] << 64 | s[3]
    inc = (init_seq << 1 | 1) & _M128
    state = ((inc + init_state) * _PCG64_MULT + inc) & _M128
    while True:
        state = (state * _PCG64_MULT + inc) & _M128
        rot = state >> 122
        xored = (state >> 64 ^ state) & _M64
        out = (xored >> rot | xored << (-rot & 63)) & _M64
        yield out & _M32
        yield out >> 32


def _bounded(words: Iterator[int], bound: int) -> Iterator[int]:
    """Lemire's bounded draws in [0, bound) from 32-bit words, as numpy's
    `buffered_bounded_lemire_uint32`: a word whose low product half falls
    below (2**32 - bound) % bound is rejected and the next word drawn."""
    threshold = ((1 << 32) - bound) % bound
    for word in words:
        product = word * bound
        if product & _M32 >= threshold:
            yield product >> 32


def _attempt_seeds(seed: int | None) -> Iterator[int]:
    """The seeds of successive generator attempts, in [0, 2**31 - 1):
    `np.random.default_rng(seed).integers(0, 2**31 - 1)` called over and
    over, bit for bit; with `seed` None, OS entropy."""
    if seed is None:
        draw = random.SystemRandom().randrange
        while True:
            yield draw(_ATTEMPT_SEED_BOUND)
    yield from _bounded(_pcg64_words(seed), _ATTEMPT_SEED_BOUND)


def _random_draw(kind: str, n: int, params: dict):
    """The checked draw of a random kind: a function of (adj, rnd) that fills
    a cleared adjacency from `rnd`."""
    if kind == "erdos_renyi":
        p = params.get("p")
        if p is None or not 0.0 <= p <= 1.0:
            raise BadParameterError(f"erdos_renyi needs p in [0, 1], got {p}")
        return lambda adj, rnd: _gnp(adj, rnd, p)
    if kind == "watts_strogatz":
        k_nn = params.get("k_nn")
        p_rewire = params.get("p_rewire")
        if k_nn is None or not 2 <= k_nn < n or k_nn % 2 != 0:
            raise BadParameterError(
                f"watts_strogatz needs even k_nn with 2 <= k_nn < n, got {k_nn}"
            )
        if p_rewire is None or not 0.0 <= p_rewire <= 1.0:
            raise BadParameterError(
                f"watts_strogatz needs p_rewire in [0, 1], got {p_rewire}"
            )
        return lambda adj, rnd: _watts_strogatz(adj, rnd, k_nn, p_rewire)
    if kind == "barabasi_albert":
        m = params.get("m")
        if m is None or not 1 <= m < n:
            raise BadParameterError(f"barabasi_albert needs 1 <= m < n, got {m}")
        return lambda adj, rnd: _barabasi_albert(adj, rnd, m)
    raise BadParameterError(f"unknown topology kind {kind!r}")


def generate(kind: str, n: int, seed: int | None = None, **params) -> SelectionMatrix:
    """Build a selection matrix from a named undirected topology.

    The undirected graph is converted to selection weights by uniform row
    normalization over each node's neighbors. Random topologies are redrawn
    until connected (at most 100 attempts). The graph is drawn on an (n, n)
    boolean adjacency, n^2 bytes, and the matrix is built from its arcs
    without a dense float array.

    The random kinds reproduce networkx 3.6.1's `gnp_random_graph`,
    `watts_strogatz_graph` and `barabasi_albert_graph` draw for draw without
    importing it: attempt a draws from `random.Random(attempt_seed)`, the
    stream networkx builds from an integer seed, where the attempt seeds are
    `default_rng(seed).integers(0, 2**31 - 1)` in turn. That algorithm
    (SeedSequence, PCG64, Lemire's bounded draw) is kept in this module
    (`_attempt_seeds`), so numpy.random is not loaded and the graph of a
    seed does not depend on the numpy version. Same seed, same graph, as
    with networkx. With `seed` None the attempt seeds come from OS entropy.

    Parameters
    ----------
    kind : str
        One of "complete", "ring", "erdos_renyi", "watts_strogatz",
        "barabasi_albert".
    n : int
        Node count, at least 3.
    seed : int, optional
        Nonnegative seed for the random kinds; attempts consume successive
        child seeds so retries stay reproducible.
    **params
        erdos_renyi: p (edge probability). watts_strogatz: k_nn (even ring
        degree), p_rewire. barabasi_albert: m (edges per new node).

    Raises
    ------
    BadParameterError
        Unknown kind or out-of-range parameter.
    DisconnectedAfterRetriesError
        No connected draw within the retry budget.
    MemoryError
        The n x n adjacency does not fit in memory; raised before any draw.
    """
    if n < 3:
        raise MatrixTooSmallError(f"need at least 3 nodes, got {n}")
    if kind in ("complete", "ring"):
        adj = allocate((n, n), bool)
        adj.fill(False)
        if kind == "complete":
            _complete(adj)
        else:
            _ring_lattice(adj, 1)
        return _normalize_rows(n, *np.nonzero(adj))

    draw = _random_draw(kind, n, params)
    if seed is not None and seed < 0:
        raise BadParameterError(f"matrix seed must be a nonnegative integer, got {seed}")
    adj = allocate((n, n), bool)
    for attempt_seed in itertools.islice(_attempt_seeds(seed), GENERATOR_MAX_RETRIES):
        adj.fill(False)
        draw(adj, random.Random(attempt_seed))
        tails, heads = np.nonzero(adj)
        if is_weakly_connected(n, tails, heads):
            return _normalize_rows(n, tails, heads)
    raise DisconnectedAfterRetriesError(
        f"no connected {kind} graph in {GENERATOR_MAX_RETRIES} attempts (n={n}, {params})"
    )


# ---------------------------------------------------------------------------
# import / export
# ---------------------------------------------------------------------------

def export_matrix_csv(matrix: SelectionMatrix, path: str | Path) -> None:
    """Write row-major CSV with a leading `# n=<int>` comment."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# n={matrix.n}\n")
        writer = csv.writer(fh)
        for r in range(matrix.n):
            writer.writerow([f"{v:.17g}" for v in matrix.rows(r, r + 1)[0]])


def import_matrix_csv(path: str | Path) -> SelectionMatrix:
    """Read a matrix written by `export_matrix_csv` (comment line optional)."""
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        for record in csv.reader(fh):
            if not record or record[0].lstrip().startswith("#"):
                continue
            try:
                rows.append([float(v) for v in record])
            except ValueError as exc:
                raise BadParameterError(f"matrix file {path}: {exc}") from None
    return validate(rows)


def export_matrix_json(matrix: SelectionMatrix, path: str | Path) -> None:
    """Write `{"n", "rows"}` with the dense rows, indented by 2."""
    text = json.dumps({"n": matrix.n, "rows": matrix.entries.tolist()}, indent=2)
    Path(path).write_bytes(f"{text}\n".encode())


def import_matrix_json(path: str | Path) -> SelectionMatrix:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise BadParameterError(f"matrix file {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "rows" not in payload:
        raise BadParameterError("matrix JSON must be an object with a 'rows' key")
    m = validate(payload["rows"])
    declared = payload.get("n")
    if declared is not None and declared != m.n:
        raise BadParameterError(f"declared n={declared} but rows give n={m.n}")
    return m
