"""Selection matrices, their connectivity and Laplacian spectra.

A selection matrix holds the pairing weights of the gossip process: row i is
the probability distribution node i uses to pick a partner, so every row sums
to one, the diagonal is zero (nobody gossips with themselves) and there are at
least three nodes. Connectivity is checked on the positivity pattern a_ij > 0
with arc directions ignored: i and j exchange values once either picks the other.

A matrix is held as its stored entries, those whose bits are not +0.0
(`SelectionMatrix`), in O(nonzeros) memory, and `validate_entries` checks
it in that form; `validate` checks a dense array by its stored entries.
`generate` draws a topology as one set of undirected edges. The config hash
and the manifest (which record the stored entries), the engine's partner
tables (`SelectionMatrix.partner_tables`) and the spectral solve
(`spectral`) work from the stored form; only the exports build dense rows
(`SelectionMatrix.rows`), one row at a time.

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

from . import _jsontext
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
# erdos_renyi draws once per node pair, 12-13 M pairs/s on a 2-core host;
# more pairs than this (n >= 44,722: over a minute an attempt) are refused
ERDOS_RENYI_MAX_PAIRS = 10 ** 9
# The spectral solve stops once each extreme Ritz value is within this share
# of itself of an eigenvalue (Parlett's residual bound; see `spectral`).
SPECTRAL_RTOL = 1e-10
# The most Lanczos vectors the basis holds besides 1 / sqrt(n), m; once it
# is full the solve restarts (`_restart`). 64 take 0.5 MiB at n = 1000.
LANCZOS_VECTORS = 64
# The Ritz vectors a restart keeps: of the smallest and of the largest values.
LANCZOS_KEEP = (8, 8)
# The solve gives up after this many steps a node (a ring of 4000 nodes
# takes about 1.5).
LANCZOS_STEPS_PER_NODE = 100
# The most Rayleigh quotient steps a restart takes for one Ritz value.
LANCZOS_RQI_STEPS = 8
# Columns of the basis a restart rotates at a time.
LANCZOS_COLUMNS = 512
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
    directions are dropped: an arc joins its two ends alike.

    Hooking and pointer jumping (after Shiloach and Vishkin, 1982) on int32
    labels. Every node points to a node of its tree, whose root points to
    itself, and each round starts with every tree a star. Of the arcs
    between two trees, the larger root is hooked to the smaller (any one
    of them: whichever assignment lands); a root that neither hooked nor took
    a hook, all of whose neighbours are larger, is hooked to the root one
    of them took, which hooks nowhere this round, so no cycle forms. Every
    tree with an arc out thus joins another, the trees at least halve, and
    at most log2(n) + 1 rounds pass over the arcs, each followed by
    pointer jumping (root = root[root]) until every tree is a star again.
    Arcs inside one tree are dropped as the rounds go."""
    root = np.arange(n, dtype=np.int32)
    lo, hi = tails, heads
    while True:
        lo, hi = root[lo], root[hi]
        apart = lo != hi
        if not apart.any():
            return bool((root == root[0]).all())
        lo, hi = lo[apart], hi[apart]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        root[hi] = lo
        took = np.zeros(n, dtype=bool)
        took[root[hi]] = True
        stuck = (root[lo] == lo) & ~took[lo]
        root[lo[stuck]] = root[hi[stuck]]
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up


def spectral(matrix: SelectionMatrix) -> SpectralData:
    """lambda2 and lambda_n of the symmetrized Laplacian L = D - (A + A^T),
    solved once per matrix and kept on it: configs that share a matrix,
    such as the points of a sweep, share one solve.

    The solve is thick-restart Lanczos on the stored entries (`_lanczos`):
    a basis of at most `LANCZOS_VECTORS` + 1 vectors of length n and no
    (n, n) array, and no step calls BLAS, so the bits do not depend on the
    number of threads or cores. A graph solved before the basis first
    fills takes plain Lanczos's steps exactly.

    Error bound. The extreme Ritz values theta, and a unit vector
    y = V s / ||s|| of the basis V for each, come from Rayleigh quotient
    steps on T = V^T L V (`_ritz_pairs`). The last step's twisted
    factorization at rho gives Parlett's residual
    ||L y - rho y|| = sqrt(gamma^2 + (beta s_k)^2) / ||s||, and
    r = that + |theta - rho| bounds ||L y - theta y||. The solve stops
    when r is at most `SPECTRAL_RTOL` * theta for both extremes, or at
    breakdown (the next Lanczos vector's norm beta is at most
    n * eps * 2 max_i d_i), or, while no restart has happened, after n - 1
    steps, when the Krylov space is all of 1-perp. Once the solve has
    restarted, a bound of eps * 2 max_i d_i, the rounding level, also
    stops it. An eigenvalue of L lies within r of each theta, so
    |lambda2 - theta| <= `SPECTRAL_RTOL` * theta for the smallest, relative
    to lambda2's own size and not to lambda_n, and likewise for lambda_n
    and the largest, as long as the fixed start vector is not orthogonal to
    their eigenspaces (a Krylov method cannot see an eigenvector its start
    vector misses). A restart keeps r a bound: the kept Ritz vectors and
    the new Lanczos vectors stay orthonormal, so L V = V T + beta v e_k^T
    still holds with the arrowhead T of `_restart`. At breakdown and at
    n - 1 steps every Ritz value is within beta of an eigenvalue. On 1-perp
    the Ritz values never fall below lambda2 nor rise above lambda_n.
    Rounding adds an error of a few eps * lambda_n, as it does to
    `eigvalsh`; on graphs with a tiny gap that is the larger term for
    lambda2.

    Raises
    ------
    EigenFailureError
        If a Lanczos coefficient or a result is not finite, or the bounds
        do not meet the tolerance in `LANCZOS_STEPS_PER_NODE` * n steps.
    """
    return matrix._spectral


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y by einsum's own loop, which is the same on any thread count
    (`np.dot` on vectors calls BLAS)."""
    return float(np.einsum("i,i->", x, y))


def _orthogonalize(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w less its projection on the orthonormal rows of `basis`, in place,
    by classical Gram-Schmidt twice ("twice is enough"), with einsum's
    loops: no BLAS call."""
    for _ in range(2):
        w -= np.einsum("i,ij->j", np.einsum("ij,j->i", basis, w), basis)
    return w


class _Projection:
    """T = V^T L V on the Lanczos basis V (1 / sqrt(n) aside), one row a
    step. Before any restart it is tridiagonal: diagonal `a`, off-diagonal
    `b` (b[j] couples rows j and j + 1) and its squares `b2` (b2[j] couples
    j - 1 and j, b2[0] is 0). A restart (`_restart`) starts it anew from
    the Ritz values it keeps, `theta`, on the diagonal ahead of the
    tridiagonal, each coupled to the tridiagonal's first row alone by
    `sigma`: an arrowhead."""

    def __init__(self, theta: list[float] | None = None, sigma: list[float] | None = None):
        self.theta = theta or []
        self.sigma = sigma or []
        self.sigma2 = [s * s for s in self.sigma]
        self.a: list[float] = []
        self.b: list[float] = []
        self.b2 = [0.0]

    @property
    def size(self) -> int:
        return len(self.theta) + len(self.a)

    def span(self) -> float:
        """A bound on the eigenvalues' magnitude: Gershgorin's discs."""
        b = self.b
        rows = [abs(aj) + bl + br for aj, bl, br in zip(self.a, [0.0, *b], [*b, 0.0])]
        if self.theta:
            rows[0] += sum(map(abs, self.sigma))
            rows += [abs(tj) + abs(sj) for tj, sj in zip(self.theta, self.sigma)]
        return max(rows)


def _sturm_count(t: _Projection, x: float, pivmin: float) -> int:
    """How many eigenvalues of T lie below x: the negative pivots of
    T - x I = L D L^T (Sylvester), the arrow's rows first, so that the
    tridiagonal's first pivot is their Schur complement, a zero pivot
    taken as -pivmin. Adding a row to T adds at most one."""
    count = 0
    arrow = 0.0
    for tj, sj2 in zip(t.theta, t.sigma2):
        q = tj - x
        if q <= 0.0:
            count += 1
            if q == 0.0:
                q = -pivmin
        arrow += sj2 / q
    q = t.a[0] - x - arrow
    if q <= 0.0:
        count += 1
        if q == 0.0:
            q = -pivmin
    for aj, bj2 in zip(itertools.islice(t.a, 1, None), itertools.islice(t.b2, 1, None)):
        q = aj - x - bj2 / q
        if q <= 0.0:
            count += 1
            if q == 0.0:
                q = -pivmin
    return count


def _bisect(t: _Projection, lo: float, hi: float, index: int,
            pivmin: float) -> tuple[float, float]:
    """[lo, hi], with at most `index` eigenvalues of T below lo and more
    below hi, shrunk by bisection to two adjacent floats: eigenvalue
    `index` (counted from the smallest, from 0) lies in it."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo, hi
        if _sturm_count(t, mid, pivmin) > index:
            hi = mid
        else:
            lo = mid


def _twist(t: _Projection, theta: float, pivmin: float) -> tuple[float, list[float]]:
    """The twisted factorization of T - theta I, zero pivots taken as
    pivmin: the tridiagonal's pivots from the top, `down`, the arrow's rows
    eliminated first (`_sturm_count`), and from the bottom, `up`; the
    arrow's pivots d_i = theta_i - theta; and the twist r, a row of T (the
    arrow's first), of least |gamma_r|, where gamma_r^-1 is entry (r, r)
    of (T - theta I)^-1 and the eigenvector is most accurate. On the
    tridiagonal gamma_r = down_r + up_r - (a_r - theta). On the arrow's row
    i it is d_i - sigma_i^2 / g, with g the tridiagonal's first pivot once
    every other row is eliminated: up_0 less the other rows' sigma_j^2 / d_j.
    Returns (gamma_r, s), s with its signs, s_r = 1 and (T - theta I) s =
    gamma_r e_r: from the twist outwards by the pivots along the
    tridiagonal, and s_i = -sigma_i s_0 / d_i on the arrow but at the twist.
    At an eigenvalue of T, s is its eigenvector."""
    b, b2 = t.b, t.b2
    a = [aj - theta for aj in t.a]
    d = [tj - theta or pivmin for tj in t.theta]
    k = len(d)
    arrow = [sj2 / dj for sj2, dj in zip(t.sigma2, d)]
    q = a[0] - sum(arrow, 0.0) or pivmin
    down = [q]
    for aj, bj2 in zip(itertools.islice(a, 1, None), itertools.islice(b2, 1, None)):
        q = aj - bj2 / q or pivmin
        down.append(q)
    up = []  # from the bottom, last row first
    q = 1.0
    for aj, bj2 in zip(reversed(a), [0.0, *reversed(b2[1:])]):
        q = aj - bj2 / q or pivmin
        up.append(q)
    up.reverse()
    gammas = [dn + u - aj for dn, u, aj in zip(down, up, a)]
    sizes = list(map(abs, gammas))
    r = sizes.index(min(sizes))
    best, r, g = gammas[r], k + r, 0.0
    after = list(itertools.accumulate(reversed(arrow), initial=0.0))[::-1]
    before = 0.0
    for i, (di, ci, si2) in enumerate(zip(d, arrow, t.sigma2)):
        gi = up[0] - (before + after[i + 1]) or pivmin
        gamma = di - si2 / gi
        if abs(gamma) < abs(best):
            best, r, g = gamma, i, gi
        before += ci
    p, first = (r - k, 1.0) if r >= k else (0, -t.sigma[r] / g)  # s_p on the tridiagonal
    above = itertools.accumulate([-bj / dj for bj, dj in zip(reversed(b[:p]), reversed(down[:p]))],
                                 operator.mul, initial=first)
    below = itertools.accumulate([-bj / uj for bj, uj in zip(b[p:], up[p + 1:])],
                                 operator.mul, initial=first)
    s = [*above][::-1] + [*below][1:]
    head = [-si * s[0] / di for si, di in zip(t.sigma, d)]
    if r < k:
        head[r] = 1.0
    return best, head + s


def _ritz_pairs(t: _Projection, indices: list[int], span: float,
                pivmin: float) -> list[tuple[float, list[float], float, float]]:
    """Eigenvalues `indices` (ascending, counted from the smallest, from 0)
    of T, whose eigenvalues lie in [-span, span], each with a unit vector
    and the bounds of `_ritz_pair`. One bisection serves them all until
    each lies alone in its bracket, which Rayleigh quotient iteration then
    shrinks (`_ritz_pair`)."""
    found = {}
    brackets = [(-span, span, 0, t.size)]  # (lo, hi, count below lo, below hi)
    while brackets:
        lo, hi, below_lo, below_hi = brackets.pop()
        wanted = [i for i in indices if below_lo <= i < below_hi]
        mid = 0.5 * (lo + hi)
        if not wanted:
            continue
        if below_hi - below_lo == 1 or not lo < mid < hi:
            found.update((i, _ritz_pair(t, lo, hi, i, span, pivmin)) for i in wanted)
            continue
        below = _sturm_count(t, mid, pivmin)
        brackets += [(lo, mid, below_lo, below), (mid, hi, below, below_hi)]
    return [found[i] for i in indices]


def _ritz_pair(t: _Projection, lo: float, hi: float, index: int, span: float,
               pivmin: float) -> tuple[float, list[float], float, float]:
    """Eigenvalue `index` of T, alone in [lo, hi], as (theta, y, r, step):
    Rayleigh quotient iteration, rho <- rho + gamma / ||s||^2 on the
    twisted factorization at rho (`_twist`), which converges cubically,
    from the middle of the bracket until a step is within the rounding of
    T, eps * span; bisection to two adjacent floats (`_bisect`), and a step
    of 0, where an iterate leaves the bracket or `LANCZOS_RQI_STEPS` do not
    settle. y = s / ||s|| is the unit vector of the last factorization,
    T's eigenvector at an eigenvalue of T, r = |gamma| / ||s|| is
    ||T y - rho y||, and theta = rho + step, so ||T y - theta y|| is at most
    r + |step|."""

    def pair(rho: float, step: float, gamma: float, s: list[float], norm: float):
        if not 0.0 < norm < math.inf:
            raise EigenFailureError("a Ritz vector is not finite")
        return rho + step, [x / norm for x in s], abs(gamma) / norm, abs(step)

    rho = 0.5 * (lo + hi)
    for _ in range(LANCZOS_RQI_STEPS):
        gamma, s = _twist(t, rho, pivmin)
        norm = math.hypot(*s)
        step = gamma / (norm * norm)
        if not lo <= rho + step <= hi:
            break
        if abs(step) <= _EPS * span:
            return pair(rho, step, gamma, s, norm)
        rho += step
    lo, hi = _bisect(t, lo, hi, index, pivmin)
    rho = 0.5 * (lo + hi)
    gamma, s = _twist(t, rho, pivmin)
    return pair(rho, 0.0, gamma, s, math.hypot(*s))


class _RitzEnd:
    """How fast the residual bound of the smallest or the largest Ritz
    value falls: `bound` at the last check, the steps taken then, `steps`,
    and `left`, the steps until `bound` meets the tolerance."""

    def __init__(self) -> None:
        self.bound = math.inf
        self.steps = 0
        self.left = math.inf

    def update(self, theta: float, bound: float, steps: int, floor: float) -> None:
        """Take `bound`, the distance from the Ritz value theta within which
        L has an eigenvalue, at `steps`. The tolerance is `SPECTRAL_RTOL` *
        theta, or `floor` where that is larger. `left` becomes the steps the
        bound needs to meet it at the rate it fell since the last update
        (0 once it meets it, inf if it did not fall)."""
        last, self.bound = self.bound, bound
        target = SPECTRAL_RTOL * theta
        if floor:
            target = max(target, floor)
        if self.bound <= target:
            self.left = 0.0
        elif 0.0 < target < self.bound < last < math.inf:
            self.left = ((steps - self.steps) * math.log(self.bound / target)
                         / math.log(last / self.bound))
        else:
            self.left = math.inf
        self.steps = steps


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


def _laplacian_product(matrix: SelectionMatrix):
    """(x -> L x, 2 max_i d_i), the bound on lambda_n that scales the
    solve's thresholds: L x = d * x - (A + A^T) x, the second term one
    `bincount` over the arcs taken both ways."""
    n = matrix.n
    tails, heads, weights = matrix.positive_entries()
    ends = np.concatenate((tails, heads))
    others = np.concatenate((heads, tails))
    arcs = np.concatenate((weights, weights))
    degree = np.bincount(ends, arcs, n)
    return (lambda x: degree * x - np.bincount(ends, arcs * x[others], n)), \
        2.0 * float(degree.max())


def _restart(t: _Projection, basis: np.ndarray, beta: float,
             pairs: list[tuple[float, list[float], float, float]]) -> _Projection:
    """Thick restart (Wu and Simon, 2000) of the full basis: keep the Ritz
    vectors y = V s of `pairs`, T's `LANCZOS_KEEP` smallest and largest
    Ritz values from `_ritz_pairs`, into the basis's first rows, and return
    T anew as their Ritz values with the arrow sigma_i = beta s_i,last, the
    coupling of y_i to the next Lanczos vector (L y_i = theta_i y_i +
    sigma_i v). Gram-Schmidt twice keeps the s of close values
    orthonormal, so the basis stays so, and drops an s that copies one
    kept before it. Y = V S runs in einsum's loops, no
    BLAS, a block of `LANCZOS_COLUMNS` columns at a time, in place."""
    s = np.array([vector for _, vector, *_ in pairs])
    kept: list[int] = []
    for i in range(len(s)):
        _orthogonalize(s[kept], s[i])
        norm = math.sqrt(_dot(s[i], s[i]))
        if norm >= 0.5:  # else a copy of a kept vector, from values a rounding apart
            s[i] /= norm
            kept.append(i)
    s = s[kept]
    thetas = [pairs[i][0] for i in kept]
    v = basis[1:1 + t.size]
    for c in range(0, v.shape[1], LANCZOS_COLUMNS):
        block = v[:, c:c + LANCZOS_COLUMNS]
        block[:len(s)] = np.einsum("ki,ij->kj", s, block)
    return _Projection(thetas, (beta * s[:, -1]).tolist())


def _lanczos(matrix: SelectionMatrix) -> tuple[float, float]:
    """(lambda2, lambda_n) of the symmetrized Laplacian by thick-restart
    Lanczos with full reorthogonalization, as `spectral` states.

    The products L x come from `_laplacian_product`. The start vector
    (`_start_vector`) is fixed and has no pattern a graph could share; it
    and every Lanczos vector are
    orthogonalized twice against 1 / sqrt(n) and the basis, so the steps
    stay on 1-perp, where lambda2 is the smallest eigenvalue. The basis
    holds at most `LANCZOS_VECTORS` vectors besides 1 / sqrt(n); once it is
    full, `_restart` keeps the Ritz vectors of both ends and the steps go on
    from the last Lanczos vector. At each check one `_ritz_pairs` call
    solves T for the extreme Ritz values, and at a full basis also for the
    pairs `_restart` keeps; the residual bound of each extreme is
    Parlett's, from the last Rayleigh quotient step's factorization, and
    `_RitzEnd` follows how fast it falls. Checks are `LANCZOS_CHECK_STEPS`
    apart or more: while the bounds are far from the tolerance, half the
    steps they need at their last rate of fall, up to a quarter of the
    steps so far."""
    n = matrix.n
    product, scale = _laplacian_product(matrix)
    breakdown = n * _EPS * scale
    pivmin = _EPS * breakdown
    basis = allocate((min(LANCZOS_VECTORS, n - 1) + 1, n))
    basis[0] = 1.0 / math.sqrt(n)
    v = _orthogonalize(basis[:1], _start_vector(n))
    v /= math.sqrt(_dot(v, v))
    t = _Projection()
    used = 1
    steps = 0
    floor = 0.0  # the rounding level, the tolerance's least once restarted
    prev, beta = None, 0.0
    extremes = (_RitzEnd(), _RitzEnd())
    check = LANCZOS_CHECK_STEPS  # the step of the next test of the stopping rule
    while True:
        basis[used] = v
        used += 1
        w = product(v)
        steps += 1
        alpha = _dot(v, w)
        w -= alpha * v
        if prev is not None:
            w -= beta * prev
        elif t.theta:  # the first step after a restart: the arrow
            w -= np.einsum("i,ij->j", np.array(t.sigma), basis[1:1 + len(t.theta)])
        _orthogonalize(basis[:used], w)
        beta = math.sqrt(_dot(w, w))
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise EigenFailureError(f"Lanczos step {steps} is not finite")
        if steps == LANCZOS_STEPS_PER_NODE * n:
            raise EigenFailureError(f"the Lanczos bounds did not converge in {steps} steps")
        t.a.append(alpha)
        # n - 1 steps span all of 1-perp only if none was thrown away
        last = (not floor and t.size == n - 1) or beta <= breakdown
        # a small beta nears an invariant subspace: test at once, and again
        # soon, as the steps after it go on in what the Krylov space left out
        small = beta <= _SQRT_EPS * scale
        full = used == len(basis)
        if last or steps == check or small or full:
            size = t.size
            low, high = LANCZOS_KEEP if full and not last else (1, 1)
            pairs = _ritz_pairs(t, [*range(low), *range(size - high, size)], t.span(), pivmin)
            for x, (theta, y, r, step) in zip(extremes, (pairs[0], pairs[-1])):
                # L V y = V T y + beta v y_k, with V and v orthonormal: Parlett's
                # bound at the last step's rho, widened by the step to theta
                x.update(theta, math.hypot(r, beta * y[-1]) + step, steps, floor)
            if last or all(x.left == 0.0 for x in extremes):
                thetas = (pairs[0][0], pairs[-1][0])
                if not all(map(math.isfinite, thetas)):
                    raise EigenFailureError("the Lanczos eigenvalues are not finite")
                return thetas
            # half of what the slower bound needs, as Lanczos speeds up
            wait = 0 if small else min(max(x.left for x in extremes) / 2.0, steps // 4)
            check = steps + max(LANCZOS_CHECK_STEPS, int(wait))
            if full:
                t = _restart(t, basis, beta, pairs)
                used = 1 + len(t.theta)
                floor = _EPS * scale
                prev, v = None, w / beta
                continue
        t.b.append(beta)
        t.b2.append(beta * beta)
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


def _complete(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The complete graph's arcs, row-major. Read row-major, the off-diagonal
    cells of an n x n array fall into n - 1 runs of n: run r starts at
    (r, r + 1) and holds the columns r + 1, r + 2, ... mod n."""
    heads = allocate((n - 1, n), np.int32)
    heads[:] = np.arange(n, dtype=np.int32)
    heads += np.arange(1, n, dtype=np.int32)[:, None]
    heads %= n
    return np.repeat(np.arange(n), n - 1), heads.reshape(-1)


def _ring(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The cycle's arcs, row-major: node i's neighbours i - 1 and i + 1."""
    heads = allocate((n, 2), np.int32)
    heads[:] = (np.arange(n)[:, None] + [-1, 1]) % n
    heads.sort(axis=1)
    return np.repeat(np.arange(n), 2), heads.reshape(-1)


def _gnp(n: int, rnd: random.Random, p: float) -> np.ndarray:
    """networkx's `gnp_random_graph(n, p, seed=rnd)`: one draw per pair, in
    pair order, so the edge keys come ascending."""
    if p >= 1.0:
        lo, hi = np.triu_indices(n, 1)
        return lo * n + hi
    if p <= 0.0:
        return np.empty(0, np.int64)
    draw = rnd.random
    return np.fromiter((u * n + v for u, v in itertools.combinations(range(n), 2) if draw() < p),
                       np.int64)


def _watts_strogatz(n: int, rnd: random.Random, k_nn: int, p_rewire: float) -> np.ndarray:
    """networkx's `watts_strogatz_graph(n, k_nn, p_rewire, seed=rnd)`: the
    ring lattice, then each lattice edge (u, u + j), j outer and u inner,
    is moved to a uniform new endpoint with probability `p_rewire`. The
    edges are held as a set of keys, for networkx's `has_edge`, and the
    degrees as a list, for its full-degree break: both O(1)."""
    half = k_nn // 2
    ring = np.arange(n)
    edges = set()
    for j in range(1, half + 1):
        ahead = (ring + j) % n
        edges.update((np.minimum(ring, ahead) * n + np.maximum(ring, ahead)).tolist())
    degree = [k_nn] * n
    draw, choice, nodes = rnd.random, rnd.choice, range(n)
    for j in range(1, half + 1):
        for u in nodes:
            if draw() < p_rewire:
                un = u * n
                w = choice(nodes)
                while w == u or (un + w if u < w else w * n + u) in edges:
                    w = choice(nodes)
                    if degree[u] >= n - 1:
                        break  # u is joined to every node: keep the edge
                else:
                    v = (u + j) % n
                    edges.remove(un + v if u < v else v * n + u)
                    edges.add(un + w if u < w else w * n + u)
                    degree[v] -= 1
                    degree[w] += 1
    return np.fromiter(edges, np.int64, len(edges))


def _barabasi_albert(n: int, rnd: random.Random, m: int) -> np.ndarray:
    """networkx's `barabasi_albert_graph(n, m, seed=rnd)`: a star on nodes
    0..m, then each new node joins m distinct nodes drawn in proportion to
    their degree. The targets are gathered in a set, and the set's
    iteration order decides the order of `repeated` and so later draws."""
    keys = list(range(1, m + 1))  # the star's edges (0, t)
    repeated = [0] * m + list(range(1, m + 1))  # each node once per edge end
    choice = rnd.choice
    for source in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(choice(repeated))
        ordered = list(targets)
        keys.extend([target * n + source for target in ordered])
        repeated.extend(ordered)
        repeated.extend([source] * m)
    return np.array(keys, np.int64)


def _arcs(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tails, heads), int32, of the arcs both ways along the edges whose
    keys are lo * n + hi, lo < hi, row-major. Sorted, the keys give the arcs
    lo -> hi row-major; the arcs hi -> lo are put ahead of them and one
    stable sort on the tails groups the rows, where each row's arcs to
    smaller nodes then come before those to larger ones, both ascending.

    Both sorts are stable argsorts: numpy's default sort, or a stable
    `np.sort`, brings in code of its own, and a 1000-node `check` peaked
    0.25-0.57 MiB higher with either (`ru_maxrss`)."""
    lo, hi = np.divmod(keys[np.argsort(keys, kind="stable")], n)
    lo, hi = lo.astype(np.int32), hi.astype(np.int32)
    tails = np.concatenate((hi, lo))
    order = np.argsort(tails, kind="stable")
    return tails[order], np.concatenate((lo, hi))[order]


def _normalize_rows(n: int, tails: np.ndarray, heads: np.ndarray) -> SelectionMatrix:
    """The matrix whose row i picks i's neighbours uniformly, weight
    1 / degree each, from the arcs tails[k] -> heads[k] in row-major order;
    a node with no arc keeps a row of zeros."""
    deg = np.bincount(tails, minlength=n)
    return SelectionMatrix(n, np.r_[0, np.cumsum(deg)], heads.astype(np.int32, copy=False),
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
    """The checked draw of a random kind: (draw, arcs), `draw` a function
    of `rnd` that returns the edges it draws from `rnd` as an int64 array
    of keys lo * n + hi, lo < hi, each edge once, in O(edges) memory and
    time besides the draws themselves (erdos_renyi draws once per pair),
    and `arcs` the number of arcs it stores, twice its edges (the expected
    number for erdos_renyi)."""
    if kind == "erdos_renyi":
        p = params.get("p")
        if p is None or not 0.0 <= p <= 1.0:
            raise BadParameterError(f"erdos_renyi needs p in [0, 1], got {p}")
        return (lambda rnd: _gnp(n, rnd, p)), round(p * n * (n - 1))
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
        return (lambda rnd: _watts_strogatz(n, rnd, k_nn, p_rewire)), n * k_nn
    if kind == "barabasi_albert":
        m = params.get("m")
        if m is None or not 1 <= m < n:
            raise BadParameterError(f"barabasi_albert needs 1 <= m < n, got {m}")
        return (lambda rnd: _barabasi_albert(n, rnd, m)), 2 * m * (n - m)
    raise BadParameterError(f"unknown topology kind {kind!r}")


def generate(kind: str, n: int, seed: int | None = None, **params) -> SelectionMatrix:
    """Build a selection matrix from a named undirected topology.

    The undirected graph is converted to selection weights by uniform row
    normalization over each node's neighbors. Random topologies are redrawn
    until connected (at most 100 attempts). A random graph is drawn as
    its edges (`_random_draw`), the Watts-Strogatz rewiring on a set of
    edge keys and a degree list; sorted, the edges give the row-major arcs
    by one more stable int32 sort (`_arcs`). An attempt's connectivity is
    decided on those arcs in O(log n) passes (`is_weakly_connected`).
    Memory and time thus grow with the arcs, not with n^2: about 60 bytes
    a stored entry at the peak of a 10^5-node Watts-Strogatz draw. The
    complete graph and the ring are built as arcs directly.

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
        Unknown kind, or an out-of-range parameter or erdos_renyi pair count.
    DisconnectedAfterRetriesError
        No connected draw within the retry budget.
    MemoryError
        The matrix's stored entries, a column and a weight for each arc
        (for erdos_renyi its expected arcs, p n (n - 1)), do not fit in
        memory; raised before any draw, whose loop would otherwise run for
        hours at such a size.
    """
    if n < 3:
        raise MatrixTooSmallError(f"need at least 3 nodes, got {n}")
    if kind in ("complete", "ring"):
        return _normalize_rows(n, *(_complete(n) if kind == "complete" else _ring(n)))

    draw, arcs = _random_draw(kind, n, params)
    if seed is not None and seed < 0:
        raise BadParameterError(f"matrix seed must be a nonnegative integer, got {seed}")
    # the stored entries, an int32 column and a float64 weight an arc, must
    # fit: fail here, not after a draw loop that would run for hours
    allocate((arcs, 12), np.uint8)
    if kind == "erdos_renyi" and (pairs := n * (n - 1) // 2) > ERDOS_RENYI_MAX_PAIRS:
        raise BadParameterError(f"erdos_renyi draws once per node pair, and n={n} has "
                                f"{pairs} pairs, more than {ERDOS_RENYI_MAX_PAIRS}")
    for attempt_seed in itertools.islice(_attempt_seeds(seed), GENERATOR_MAX_RETRIES):
        tails, heads = _arcs(n, draw(random.Random(attempt_seed)))
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
    """Write `{"n", "rows"}` with the dense rows, indented by 2: json's
    text, written a row at a time (`_jsontext.pieces`), so the dense
    matrix is never held whole."""
    rows = (matrix.rows(r, r + 1)[0] for r in range(matrix.n))
    with open(path, "wb") as fh:
        for piece in _jsontext.pieces({"n": matrix.n, "rows": rows}, indent=2):
            fh.write(piece.encode("ascii"))
        fh.write(b"\n")


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
