"""Selection matrices, their connectivity and Laplacian spectra.

A selection matrix holds the pairing weights of the gossip process: row i is
the probability distribution node i uses to pick a partner, so every row sums
to one, the diagonal is zero (nobody gossips with themselves) and there are at
least three nodes. Connectivity is checked on the positivity pattern a_ij > 0
with arc directions ignored: i and j exchange values once either picks the other.

The spectral quantities that drive the contraction analysis come from the
symmetrized Laplacian D - (A + A^T), where D is diagonal with
d_i = sum_j (a_ij + a_ji) (`laplacian`).
"""

from __future__ import annotations

import csv
import itertools
import json
import operator
import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import _native
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
    "is_weakly_connected",
    "laplacian",
    "spectral",
    "generate",
    "allocate",
    "import_matrix_csv",
    "export_matrix_csv",
    "import_matrix_json",
    "export_matrix_json",
    "MATRIX_ROWS",
    "json_with_rows",
]

ROW_SUM_TOL = 1e-9
GENERATOR_MAX_RETRIES = 100
# Bytes of a matrix's entries, or of their text, handled at a time: the rows
# are tokenized, written and hashed in blocks of whole rows of at most about
# this size.
WEIGHT_BLOCK = 1 << 20
# Stands for a matrix's rows in a document given to `json_with_rows`. A NUL
# character is in no path and no command-line argument, the only strings
# such a document holds besides fixed names.
MATRIX_ROWS = "\0rows\0"


@dataclass(frozen=True, eq=False)
class SelectionMatrix:
    """Validated pairing-weight matrix.

    Attributes
    ----------
    n : int
        Number of nodes, at least 3.
    entries : numpy.ndarray
        (n, n) float array; row-stochastic with a zero diagonal. Treat as
        read-only; `validate` is the only constructor callers should use.
    """

    n: int
    entries: np.ndarray

    def row_cdfs(self) -> np.ndarray:
        """Per-row cumulative distributions used by the pair sampler.

        The tail of each row (at and past its last positive entry) is forced
        to exactly 1.0 so a uniform draw in [0, 1) always lands on an entry
        with positive weight; zero-weight entries occupy zero-width intervals
        and can never be selected.
        """
        cdfs = np.cumsum(self.entries, axis=1)
        # every row sums to one, so it has a positive entry
        last = self.n - 1 - np.argmax(self.entries[:, ::-1] > 0.0, axis=1)
        cdfs[np.arange(self.n) >= last[:, None]] = 1.0
        return cdfs

    @cached_property
    def row_tokens(self) -> RowTokens:
        """The vocabulary of the entries' JSON text: their distinct values
        and the text json writes for each. Made on first use and kept, so a
        config hash and a manifest share it.

        `json` writes a finite float with `float.__repr__`, so one rendering
        per distinct bit pattern (-0.0 is not 0.0) gives every entry's text.
        The values are gathered block by block (`_block_rows`), so no sorted
        copy of all the entries is made.
        """
        bits = self.entries.view(np.uint64)
        step = _block_rows(bits.nbytes // self.n)
        values = _distinct(np.concatenate(
            [_distinct(bits[r:r + step]) for r in range(0, self.n, step)]))
        if len(values) > np.iinfo(np.int32).max:  # n above 46340: 17 GB of entries
            raise MemoryError("a matrix with more distinct entries than int32 ids can index")
        texts = json.dumps(values.view(np.float64).tolist(), separators=(",", ":"))
        return RowTokens(values, texts[1:-1].encode().split(b","))

    @cached_property
    def _spectral(self) -> SpectralData:
        """`spectral` of this matrix, solved on first use and kept."""
        try:
            spectrum = np.linalg.eigvalsh(laplacian(self))
        except np.linalg.LinAlgError as exc:
            raise EigenFailureError(f"eigensolver failed: {exc}") from exc
        spectrum.setflags(write=False)
        return SpectralData(
            spectrum=spectrum,
            lambda2=float(spectrum[1]),
            lambda_n=float(spectrum[-1]),
            a_star=float(self.entries[self.entries > 0.0].min()),
        )


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of `a` in ascending order, as `np.unique` gives
    them, by a sort: numpy 2's hash-table `unique` took 8x as long on the
    bits of a 1000-node network."""
    a = np.sort(a, axis=None)
    return a[np.r_[True, a[1:] != a[:-1]]]


@dataclass(frozen=True, eq=False)
class RowTokens:
    """The vocabulary of a matrix's entries: `values`, their distinct bit
    patterns as sorted uint64, and `texts`, the JSON text of each."""

    values: np.ndarray
    texts: list[bytes]

    def ids(self, rows: np.ndarray) -> np.ndarray:
        """The int32 ids into `texts` of the float entries `rows`."""
        return np.searchsorted(self.values, rows.view(np.uint64)).astype(np.int32)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Spectral summary of the symmetrized Laplacian.

    Attributes
    ----------
    spectrum : numpy.ndarray
        Eigenvalues sorted ascending; the first is (numerically) zero.
    lambda2 : float
        Second-smallest eigenvalue; positive exactly when the matrix is
        weakly connected.
    lambda_n : float
        Largest eigenvalue; bounded above by 2n.
    a_star : float
        Smallest positive selection weight.
    """

    spectrum: np.ndarray
    lambda2: float
    lambda_n: float
    a_star: float


def validate(entries: np.ndarray | list[list[float]]) -> SelectionMatrix:
    """Check an array against the selection-matrix contract.

    Parameters
    ----------
    entries : array-like
        Candidate (n, n) weight matrix.

    Returns
    -------
    SelectionMatrix

    Raises
    ------
    MatrixTooSmallError
        Fewer than three nodes or a non-square array.
    NegativeEntryError
        Any weight below zero.
    NonzeroDiagonalError
        Any self-selection weight.
    NotStochasticError
        A row sum farther than 1e-9 from one. Rows are never silently
        renormalized; fixing the input is the caller's job.
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
    return _validated(a)


def _validated(a: np.ndarray) -> SelectionMatrix:
    """`validate` of a square float array that the caller hands over: it is
    checked and frozen as it is, without a copy."""
    n = a.shape[0]
    if n < 3:
        raise MatrixTooSmallError(f"need at least 3 nodes, got {n}")
    if not np.isfinite(a).all():
        raise BadParameterError("matrix entries must be finite")
    if (a < 0.0).any():
        i, j = np.argwhere(a < 0.0)[0]
        raise NegativeEntryError(f"entry ({i}, {j}) is negative: {a[i, j]}")
    diag = np.diagonal(a)
    if (diag != 0.0).any():
        i = int(np.nonzero(diag)[0][0])
        raise NonzeroDiagonalError(f"diagonal entry ({i}, {i}) is {diag[i]}, must be 0")
    sums = a.sum(axis=1)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    if bad.any():
        i = int(np.nonzero(bad)[0][0])
        raise NotStochasticError(f"row {i} sums to {sums[i]:.12g}, expected 1")
    a.setflags(write=False)
    return SelectionMatrix(n=n, entries=a)


def is_weakly_connected(adj: np.ndarray) -> bool:
    """True when the boolean (n, n) adjacency `adj` is connected after
    dropping arc directions: `adj[i, j]` and `adj[j, i]` join i and j alike."""
    und = adj | adj.T
    reached = np.zeros(len(adj), dtype=bool)
    reached[0] = True
    frontier = reached.copy()
    while frontier.any():
        nxt = und[frontier].any(axis=0) & ~reached
        reached |= nxt
        frontier = nxt
    return bool(reached.all())


def laplacian(matrix: SelectionMatrix) -> np.ndarray:
    """The symmetrized Laplacian D - (A + A^T) in one (n, n) array, with the
    bits of `np.diag(d) - (A + A^T)`: off the diagonal 0.0 - x is -x, and on
    it (0.0 - (-0.0 + -0.0)) + d is d. Symmetric positive semidefinite."""
    a = matrix.entries
    lap = a + a.T
    d = lap.sum(axis=1)
    np.subtract(0.0, lap, out=lap)
    lap[np.diag_indices_from(lap)] += d
    return lap


def spectral(matrix: SelectionMatrix) -> SpectralData:
    """The eigenvalues of the symmetrized Laplacian (`laplacian`), solved
    once per matrix and kept on it: configs that share a matrix, such as
    the points of a sweep, share one solve. The spectrum is read-only.

    Raises
    ------
    EigenFailureError
        If the symmetric eigensolver fails to converge (essentially never
        for the sizes this package targets, but surfaced rather than hidden).
    """
    return matrix._spectral


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


def _normalize_rows(adj: np.ndarray) -> np.ndarray:
    deg = adj.sum(axis=1)
    inv = np.divide(1.0, deg, out=np.zeros(len(deg)), where=deg > 0)
    return np.where(adj, inv[:, None], 0.0)


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
    until connected (at most 100 attempts).

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
        return _validated(_normalize_rows(adj))

    draw = _random_draw(kind, n, params)
    if seed is not None and seed < 0:
        raise BadParameterError(f"matrix seed must be a nonnegative integer, got {seed}")
    adj = allocate((n, n), bool)
    for attempt_seed in itertools.islice(_attempt_seeds(seed), GENERATOR_MAX_RETRIES):
        adj.fill(False)
        draw(adj, random.Random(attempt_seed))
        if is_weakly_connected(adj):
            return _validated(_normalize_rows(adj))
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
        for row in matrix.entries:
            writer.writerow([f"{v:.17g}" for v in row])


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


def _block_rows(row_bytes: int) -> int:
    """The rows in a block when a row takes at most `row_bytes`: as many as
    fit in `WEIGHT_BLOCK` bytes, and at least one."""
    return max(1, WEIGHT_BLOCK // row_bytes)


def json_with_rows(doc, matrix: SelectionMatrix, indent: int | None = None,
                   sort_keys: bool = False) -> Iterator[bytes | bytearray | memoryview]:
    """`json.dumps` of `doc` with `matrix.entries.tolist()` in place of its one
    `MATRIX_ROWS` value, in UTF-8, yielded in order as the head, then the
    rows in blocks of whole rows (`_block_rows`), then the tail, to be
    hashed or written as they come: compact (separators "," and ":") when
    `indent` is None, else indented by `indent`. The text is json's own;
    the rows are written from the vocabulary `matrix.row_tokens` instead of
    json's encoder, whose indented form runs in pure Python: by the compiled
    library where it loads (`_native.library`), else by `_join_rows`. The
    compiled blocks are views of one buffer that the next block overwrites,
    so a caller that keeps a block copies it.
    """
    separators = (",", ":") if indent is None else None
    text = json.dumps(doc, indent=indent, separators=separators, sort_keys=sort_keys)
    head, mark, tail = text.partition(json.dumps(MATRIX_ROWS))
    if not mark:
        raise ValueError("document holds no MATRIX_ROWS value")
    if indent is None:
        pad = row_pad = item_pad = ""
    else:
        line = head[head.rfind("\n") + 1:]  # the line holding the rows' key
        pad = "\n" + line[:len(line) - len(line.lstrip(" "))]
        row_pad = pad + " " * indent
        item_pad = row_pad + " " * indent
    # open, sep, close and between of `_join_rows`
    marks = [m.encode() for m in (f"[{item_pad}", f",{item_pad}", f"{row_pad}]", f",{row_pad}")]
    open_, sep, close, between = marks
    yield f"{head}[{row_pad}".encode()
    tokens = matrix.row_tokens
    n = matrix.n
    # the most bytes a row's text takes, with the `between` before it
    row_bytes = (len(between) + len(open_) + n * max(map(len, tokens.texts))
                 + (n - 1) * len(sep) + len(close))
    step = _block_rows(row_bytes)
    lib = _native.library()
    if lib is None:
        texts = np.array(tokens.texts, dtype=object)
    else:
        joined = b"".join(tokens.texts)
        offsets = np.zeros(len(tokens.texts) + 1, dtype=np.int64)
        np.cumsum([len(t) for t in tokens.texts], out=offsets[1:])
        out = np.empty(min(step, n) * row_bytes, dtype=np.uint8)
    for r in range(0, n, step):
        ids = tokens.ids(matrix.entries[r:r + step])
        lead = between if r else b""  # joins the block to the one before
        if lib is None:
            yield _join_rows(texts, ids, *marks, lead=lead)
        else:
            out.data[:len(lead)] = lead
            size = len(lead) + _write_rows(lib, joined, offsets, ids, marks, out[len(lead):])
            yield out[:size].data
    yield f"{pad}]{tail}".encode()


def _join_rows(texts: np.ndarray, ids: np.ndarray, open_: bytes, sep: bytes, close: bytes,
               between: bytes, lead: bytes = b"") -> bytearray:
    """`lead`, then the rows of text ids `ids` as text, with `texts` the
    object array of each id's text: each row is `open_`, its tokens joined
    by `sep`, then `close`, and `between` joins the rows. The twin of the
    compiled `write_rows`; it holds one row's tokens at a time."""
    out = bytearray(lead)
    for r, row in enumerate(ids):
        out += (between if r else b"") + open_ + sep.join(texts[row].tolist()) + close
    return out


def _write_rows(lib, texts: bytes, offsets: np.ndarray, ids: np.ndarray, marks: list[bytes],
                out: np.ndarray) -> int:
    """`_join_rows` by the compiled `write_rows` into the uint8 array `out`,
    with the id v's text bytes offsets[v] to offsets[v + 1] of `texts`;
    returns the bytes written."""
    rows, cols = ids.shape
    written = lib.write_rows(ids.ctypes.data, rows, cols, texts, offsets.ctypes.data,
                             *(x for m in marks for x in (m, len(m))), out.ctypes.data, out.size)
    if written < 0:
        raise RuntimeError(f"write_rows needs more than {out.size} bytes")
    return written


def export_matrix_json(matrix: SelectionMatrix, path: str | Path) -> None:
    payload = {"n": matrix.n, "rows": MATRIX_ROWS}
    with open(path, "wb") as fh:
        fh.writelines(json_with_rows(payload, matrix, indent=2))
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
