import dataclasses
import itertools
import json
import math
import random
import time
import tracemalloc
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gossipsim import graph
from gossipsim.errors import (
    BadParameterError,
    DisconnectedAfterRetriesError,
    EigenFailureError,
    MatrixTooSmallError,
    NegativeEntryError,
    NonzeroDiagonalError,
    NotStochasticError,
)
from gossipsim.graph import (
    SelectionMatrix,
    export_matrix_csv,
    export_matrix_json,
    generate,
    import_matrix_csv,
    import_matrix_json,
    is_weakly_connected,
    spectral,
    validate,
    validate_entries,
)
from gossipsim.montecarlo import config_to_dict
from gossipsim.theory import theory_report

from conftest import A_STAR, LAMBDA2, LAMBDA_N, REF_ROWS, SPECTRUM, assert_same_text, \
    exponent_rows, make_config, numpy_engine, on_paths
import reference
from reference import laplacian, row_cdfs


def two_triangles():
    """Six nodes, two disjoint directed triangles: valid but disconnected."""
    m = np.zeros((6, 6))
    for base in (0, 3):
        for i in range(3):
            m[base + i, base + (i + 1) % 3] = 1.0
    return m


def test_validate_accepts_reference_matrix(ref_matrix):
    assert ref_matrix.n == 4
    assert np.array_equal(ref_matrix.rows(0, 4), np.array(REF_ROWS))


def test_validate_rejects_bad_matrices():
    with pytest.raises(MatrixTooSmallError):
        validate([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(MatrixTooSmallError):
        validate(np.ones((3, 4)))
    bad = np.array(REF_ROWS)
    bad[0, 1] = -0.5
    bad[0, 3] = 1.5
    with pytest.raises(NegativeEntryError):
        validate(bad)
    diag = np.array(REF_ROWS)
    diag[2, 2] = diag[2, 3]
    diag[2, 3] = 0.0
    with pytest.raises(NonzeroDiagonalError):
        validate(diag)
    short = np.array(REF_ROWS)
    short[1, 2] = 0.1
    with pytest.raises(NotStochasticError):
        validate(short)
    booleans = [[0.0, True, 0.0], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]]
    with pytest.raises(BadParameterError, match="boolean"):
        validate(booleans)


def test_validate_row_sum_tolerance():
    rows = np.array(REF_ROWS)
    rows[0, 1] += 1e-10
    m = validate(rows)
    assert isinstance(m, SelectionMatrix)


# the reference network's stored entries
REF_I = [0, 0, 1, 1, 1, 2, 2, 3, 3]
REF_J = [1, 3, 0, 2, 3, 0, 3, 1, 2]
REF_A = [0.5, 0.5, 0.5, 0.25, 0.25, 1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0]


def test_validate_entries_is_validate_on_the_stored_entries(ref_matrix):
    """The reference network as its stored entries is the matrix `validate`
    makes of its dense rows, bit for bit; listed +0.0 entries are dropped,
    -0.0 ones kept, and numpy arrays are taken as lists are."""
    m = validate_entries(4, REF_I, REF_J, REF_A)
    assert m.same_entries(ref_matrix, bits=True)
    assert validate_entries(np.int64(4), np.array(REF_I, np.int32), np.array(REF_J),
                            np.array(REF_A)).same_entries(m, bits=True)
    listed = sorted([*zip(REF_I, REF_J, REF_A), (0, 0, 0.0), (1, 1, -0.0), (2, 1, 0.0)])
    with_zeros = validate_entries(4, *map(list, zip(*listed)))
    rows = np.array(REF_ROWS)
    rows[1, 1] = -0.0
    assert with_zeros.same_entries(validate(rows), bits=True)
    assert len(with_zeros.values) == 10


def ref_with(k: int, **replaced) -> dict:
    """The reference entries with entry k's i, j or a replaced."""
    lists = {"i": list(REF_I), "j": list(REF_J), "a": list(REF_A)}
    for name, value in replaced.items():
        lists[name][k] = value
    return {"n": 4, **lists}


@pytest.mark.parametrize("case,error", [
    ({"n": 2, "i": [0, 1], "j": [1, 0], "a": [1.0, 1.0]}, MatrixTooSmallError),
    ({**ref_with(0), "a": REF_A[:-1]}, BadParameterError),
    ({**ref_with(0), "i": REF_I + [3]}, BadParameterError),
    (ref_with(8, j=4), BadParameterError),
    (ref_with(0, i=-1), BadParameterError),
    (ref_with(8, j=2 ** 64), BadParameterError),
    (ref_with(8, j=10 ** 30), BadParameterError),
    (ref_with(2, i=True), BadParameterError),
    (ref_with(3, j=2.0), BadParameterError),
    (ref_with(1, a="0.5"), BadParameterError),
    (ref_with(1, a=True), BadParameterError),
    (ref_with(1, j=1), BadParameterError),   # (0, 1) twice
    (ref_with(1, j=0), BadParameterError),   # (0, 0) after (0, 1)
    (ref_with(2, i=0), BadParameterError),   # (0, 0) after (0, 3)
    (ref_with(1, a=math.inf), BadParameterError),
    (ref_with(1, a=math.nan), BadParameterError),
    (ref_with(1, a=-0.5), NegativeEntryError),
    (ref_with(2, j=1, a=0.5), NonzeroDiagonalError),
    (ref_with(1, a=0.5 + 2e-9), NotStochasticError),
    ({"n": 5, "i": REF_I, "j": REF_J, "a": REF_A}, NotStochasticError),
    ({"n": 10 ** 20, "i": [0, 1, 2], "j": [1, 2, 0], "a": [1.0, 1.0, 1.0]},
     NotStochasticError),
], ids=["two nodes", "short a", "long i", "j beyond n", "negative i", "j beyond int64",
        "j beyond 64 bits", "boolean i", "float j", "string a", "boolean a", "repeated",
        "unsorted in a row", "unsorted rows", "infinite a", "nan a", "negative a",
        "diagonal a", "row sum off", "empty row", "n far beyond the entries"])
def test_validate_entries_rejects_malformed_entries(case, error):
    """Each malformed list fails with its error; an n far beyond the
    entries fails before anything of size n is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(error):
            validate_entries(case["n"], case["i"], case["j"], case["a"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def row_cdfs_by_row(matrix):
    """The row CDFs one row at a time: the tail from each row's last
    positive entry on set to 1.0."""
    dense = matrix.rows(0, matrix.n)
    cdfs = np.cumsum(dense, axis=1)
    for i in range(matrix.n):
        cdfs[i, np.nonzero(dense[i] > 0.0)[0][-1]:] = 1.0
    return cdfs


def test_row_cdfs_are_the_row_by_row_cdfs():
    """The same bits as a loop over the rows, also for rows whose last
    positive entry is in the first or the last column, or is tiny."""
    rows = np.array(exponent_rows(12, 4, distinct=True))
    rows[0] = 0.0
    rows[0, [1, 11]] = [1.0 - 2.0 ** -40, 2.0 ** -40]  # a tiny last entry, in column n - 1
    rows[5] = 0.0
    rows[5, 0] = 1.0  # the only positive entry, in column 0
    rows[11] = 0.0
    rows[11, :3] = [0.1, 0.2, 0.7]  # zeros after column 2 of the last row
    for m in (validate(rows), validate(REF_ROWS),
              generate("watts_strogatz", 300, seed=2, k_nn=4, p_rewire=0.3)):
        assert_same_text(row_cdfs(m).tobytes(), row_cdfs_by_row(m).tobytes(), "row CDFs")


def test_normalize_rows_is_the_row_by_row_division():
    """The same bits as dividing one by each row's degree row by row; a row
    with no neighbor stays zero."""
    adj = np.random.default_rng(3).random((40, 40)) < 0.3
    adj[7] = False
    want = np.zeros(adj.shape)
    for i in range(40):
        if adj[i].any():
            want[i, adj[i]] = 1.0 / adj[i].sum()
    m = graph._normalize_rows(*arcs(adj))
    assert_same_text(m.rows(0, m.n).tobytes(), want.tobytes(), "normalized rows")


def test_row_cdfs_skip_zero_entries(ref_matrix):
    cdfs = row_cdfs(ref_matrix)
    assert np.all(cdfs[:, -1] == 1.0)
    # Row 0 is [0, 1/2, 0, 1/2]: zero-weight entries get zero-width intervals.
    np.testing.assert_array_equal(cdfs[0], [0.0, 0.5, 0.5, 1.0])
    # searchsorted-right can therefore never return a zero-weight partner
    for u in np.linspace(0.0, 1.0 - 1e-12, 97):
        j = int(np.searchsorted(cdfs[0], u, side="right"))
        assert ref_matrix.rows(0, 1)[0, j] > 0.0


def test_induced_graph_arc_direction(ref_matrix):
    """a_20 > 0 but a_02 == 0: node 2 picks node 0, never the reverse. The
    symmetrized Laplacian joins 0 and 2 both ways by a_20."""
    a = ref_matrix.rows(0, 4)
    assert a[2, 0] > 0.0 and a[0, 2] == 0.0
    lap = laplacian(ref_matrix)
    assert lap[0, 2] == lap[2, 0] == -a[2, 0]


def connected(m):
    """`is_weakly_connected` on the arcs of `m`'s positive entries."""
    return is_weakly_connected(m.n, *m.positive_entries()[:2])


def arcs(adj):
    """`is_weakly_connected`'s arguments for a boolean adjacency."""
    return (len(adj), *np.nonzero(adj))


def test_weak_connectivity():
    assert connected(validate(REF_ROWS))
    assert not connected(validate(two_triangles()))
    # one-directional chain is still weakly connected
    chain = np.zeros((4, 4))
    for i in range(3):
        chain[i, i + 1] = 1.0
    chain[3, 0] = 1.0
    assert connected(validate(chain))


def test_weak_connectivity_on_a_plain_adjacency():
    """A boolean adjacency with no matrix behind it: a one-way chain, which
    no row-stochastic matrix has (its last node picks nobody), is
    connected; two disjoint triangles are not."""
    chain = np.eye(5, k=1, dtype=bool)
    assert is_weakly_connected(*arcs(chain))
    assert is_weakly_connected(*arcs(chain.T))
    assert not is_weakly_connected(*arcs(two_triangles() > 0.0))
    assert not is_weakly_connected(*arcs(np.zeros((3, 3), dtype=bool)))


@st.composite
def directed_graphs(draw):
    """(n, tails, heads) of up to 40 nodes in up to four groups, each a
    one-way chain through its nodes in a drawn order with random arcs
    inside it; a group of one node is an isolated node. A few arcs are then
    dropped, which may split a group."""
    n = draw(st.integers(1, 40))
    group = draw(st.lists(st.integers(0, draw(st.integers(0, 3))), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    arcs = []
    for g in set(group):
        nodes = [u for u in order if group[u] == g]
        arcs += zip(nodes, nodes[1:])
        inside = st.sampled_from(nodes)
        arcs += draw(st.lists(st.tuples(inside, inside), max_size=len(nodes)))
    dropped = draw(st.sets(st.integers(0, max(len(arcs) - 1, 0)), max_size=3))
    arcs = [arc for k, arc in enumerate(arcs) if k not in dropped]
    tails, heads = np.array(arcs, dtype=np.int64).reshape(-1, 2).T
    return n, tails, heads


@given(graph_=directed_graphs())
@example(graph_=(6, np.arange(5), np.full(5, 5)))  # a star whose hub is labelled last
@example(graph_=(5, np.array([4, 3, 2, 1]), np.array([3, 2, 1, 0])))  # a falling chain
@example(graph_=(4, np.array([1, 2]), np.array([2, 3])))  # node 0 alone
def test_weak_connectivity_matches_breadth_first_search(graph_):
    assert is_weakly_connected(*graph_) == reference.is_weakly_connected(*graph_)


@pytest.mark.parametrize("shape", ["ring", "path", "star"])
def test_weak_connectivity_of_200000_nodes_in_seconds(shape):
    """A 2 x 10^5-node ring, a one-way path and a star whose hub is
    labelled last, each whole and with two arcs removed, are decided in
    under 5 s. A search from node 0 takes a pass over the arcs a hop
    (minutes on the ring and the path), and hooking larger roots to
    smaller ones alone a pass a leaf of the star."""
    n = 200_000
    nodes = np.arange(n)
    tails, heads = {"ring": (nodes, (nodes + 1) % n), "path": (nodes[:-1], nodes[1:]),
                    "star": (nodes[:-1], np.full(n - 1, n - 1))}[shape]
    keep = np.ones(len(tails), dtype=bool)
    keep[[0, n // 2]] = False
    start = time.perf_counter()
    assert is_weakly_connected(n, tails, heads)
    assert not is_weakly_connected(n, tails[keep], heads[keep])
    assert time.perf_counter() - start < 5.0


def test_spectral_pinned_reference_values(ref_matrix):
    sp = spectral(ref_matrix)
    assert sp.lambda2 == pytest.approx(LAMBDA2, abs=1e-10)
    assert sp.lambda_n == pytest.approx(LAMBDA_N, abs=1e-10)
    assert sp.a_star == A_STAR
    assert sp.n == 4
    spectrum = np.linalg.eigvalsh(laplacian(ref_matrix))
    assert spectrum == pytest.approx(SPECTRUM, abs=1e-10)
    assert abs(spectrum[0]) < 1e-9


def test_spectral_structure(ref_matrix):
    sp = spectral(ref_matrix)
    a = ref_matrix.rows(0, 4)
    lap = laplacian(ref_matrix)
    np.testing.assert_allclose(np.diagonal(lap), (a + a.T).sum(axis=1), atol=1e-15)
    np.testing.assert_allclose(lap, lap.T, atol=0)
    # PSD with the all-ones kernel
    np.testing.assert_allclose(lap @ np.ones(4), 0.0, atol=1e-12)
    assert sp.lambda_n <= 2 * ref_matrix.n


def laplacian_by_diag(matrix):
    """D - (A + A^T) as `np.diag(d) - (A + A^T)`, in three (n, n) arrays."""
    a = matrix.rows(0, matrix.n)
    sym = a + a.T
    return np.diag(sym.sum(axis=1)) - sym


def ring_rows(n):
    """A cycle on which each node picks either neighbour with weight 1/2:
    L has eigenvalues 4 sin^2(pi j / n), each but 0 and 4 twice, so lambda2
    is about 40 / n^2 against lambda_n <= 4."""
    a = np.zeros((n, n))
    i = np.arange(n)
    a[i, (i + 1) % n] = a[i, (i - 1) % n] = 0.5
    return a


def ring_matrix(n):
    """`ring_rows(n)` built from its stored entries, with no (n, n) array."""
    i = np.arange(n)
    heads = np.sort(np.stack([(i - 1) % n, (i + 1) % n], axis=1), axis=1)
    return validate_entries(n, np.repeat(i, 2), heads.ravel(), np.full(2 * n, 0.5))


LAPLACIAN_CASES = {
    "reference": REF_ROWS,
    "generated-300": generate("watts_strogatz", 300, seed=2, k_nn=4, p_rewire=0.3).rows(0, 300),
    "negative-zero-diagonal": exponent_rows(30, 1, distinct=True),
    "negative-zero-repeated": exponent_rows(12, 6, distinct=False),
    "ring-300": ring_rows(300),
    # a 4-cycle with one arc split: lambda2 and lambda3 are 2 -+ 1e-8, and a
    # start vector holding 1e-8 of lambda2's eigenvector finds lambda3
    "split-4-cycle": [[0.0, 1.0 - 1e-8, 0.0, 1e-8], [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]],
}


def assert_lambdas_within_bound(m, spectrum=None):
    """`spectral`'s lambda2 and lambda_n against `eigvalsh` on the dense
    Laplacian, within the bound `spectral` states: `SPECTRAL_RTOL` of the
    eigenvalue itself, plus the rounding of both solves, a few eps * lambda_n."""
    if spectrum is None:
        spectrum = np.linalg.eigvalsh(laplacian(m))
    sp = spectral(m)
    rounding = 8 * np.finfo(float).eps * spectrum[-1]
    for got, want in ((sp.lambda2, spectrum[1]), (sp.lambda_n, spectrum[-1])):
        assert abs(got - want) <= graph.SPECTRAL_RTOL * abs(want) + rounding, (got, want)
    return sp


@pytest.mark.parametrize("rows", LAPLACIAN_CASES.values(), ids=LAPLACIAN_CASES)
def test_laplacian_is_the_diag_construction(rows):
    """`laplacian` in one array has the bits of `np.diag(d) - (A + A^T)`,
    also where the diagonal holds -0.0, and `spectral` solves its extreme
    eigenvalues within its stated bound, also for entries down to 2.5e-300,
    a ring's tiny gap and a near-double lambda2."""
    m = validate(rows)
    want = laplacian_by_diag(m)
    assert_same_text(laplacian(m).tobytes(), want.tobytes(), "Laplacian")
    assert_lambdas_within_bound(m, np.linalg.eigvalsh(want))
    if rows is LAPLACIAN_CASES["negative-zero-diagonal"]:
        assert np.signbit(np.diagonal(m.rows(0, m.n))).any()


def arrays_in(obj):
    """Every numpy array reachable from `obj` through dataclass fields,
    dict values, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from arrays_in(getattr(obj, f.name))
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from arrays_in(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from arrays_in(v)


def test_theory_report_keeps_no_n_by_n_array():
    """A report, which a sweep keeps one of per point, holds no (n, n)
    array."""
    m = generate("watts_strogatz", 300, seed=2, k_nn=4, p_rewire=0.3)
    report = theory_report(make_config(m))
    sizes = [a.size for a in arrays_in(report)]
    assert max(sizes, default=0) < 300 * 300


def spectral_peak(m):
    """The traced peak of `spectral` on `m`, in bytes."""
    tracemalloc.start()
    try:
        spectral(m)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def basis_limit(n):
    """The most `spectral` may hold at n nodes: (m + 8) n-vectors, m the
    basis's `LANCZOS_VECTORS` (the basis, 1 / sqrt(n) and the step's
    vectors), and 1 MiB for the rest."""
    return (graph.LANCZOS_VECTORS + 8) * n * 8 + (1 << 20)


def test_spectral_memory_at_n_1000():
    """`spectral` builds no (n, n) array, only its basis of at most m + 1
    vectors: at n=1000 its peak stays below (m + 8) n-vectors and 1 MiB,
    1.55 MiB (an (n, n) float array is 7.6 MiB)."""
    m = generate("watts_strogatz", 1000, seed=1, k_nn=6, p_rewire=0.1)
    peak = spectral_peak(m)
    assert peak < basis_limit(1000), peak


def test_spectral_memory_on_a_ring_of_2000():
    """A ring's tiny gap takes thousands of Lanczos steps; the restarted
    basis keeps the peak below (m + 8) n-vectors and 1 MiB, 2.1 MiB at
    n=2000, where a basis that grows a vector a step reaches 2,000 vectors
    (31 MiB)."""
    peak = spectral_peak(ring_matrix(2000))
    assert peak < basis_limit(2000), f"{peak / 2 ** 20:.2f} MiB"


def test_a_matrix_holds_its_stored_entries():
    """A 1000-node Watts-Strogatz matrix holds its 6,000 stored entries in
    fewer than n^2 bytes (80 KB; 7.6 MiB dense), read-only, and builds dense
    rows anew on each call."""
    m = generate("watts_strogatz", 1000, seed=1, k_nn=6, p_rewire=0.1)
    assert len(m.values) == 6000
    assert sum(a.nbytes for a in arrays_in(m)) < m.n ** 2
    assert not any(a.flags.writeable for a in arrays_in(m))
    dense = m.rows(0, m.n)
    assert m.rows(0, m.n) is not dense
    assert (dense > 0.0).sum() == 6000


def test_spectral_is_solved_once_per_matrix(monkeypatch):
    """A matrix keeps its spectral data, read-only, so configs sharing it
    share one solve; a matrix of the same entries solves its own."""
    solves = []
    lanczos = graph._lanczos
    monkeypatch.setattr(graph, "_lanczos", lambda m: solves.append(1) or lanczos(m))
    m = validate(REF_ROWS)
    sp = spectral(m)
    assert spectral(m) is sp and theory_report(make_config(m)).spectral is sp
    with pytest.raises(dataclasses.FrozenInstanceError):
        sp.lambda2 = 0.0
    assert spectral(validate(REF_ROWS)) is not sp
    assert len(solves) == 2


# The most a draw may hold at its peak, in bytes a stored entry: its edges
# as a set of keys (the Watts-Strogatz rewiring's) or appended, and the
# arcs. Per-node neighbour sets took about 169, an n x n adjacency 3,399.
GENERATE_BYTES_AN_ENTRY = 100


def generate_peak(kind, n, **params):
    """(`tracemalloc` peak of `generate`, its matrix's stored entries)."""
    tracemalloc.start()
    try:
        m = generate(kind, n, seed=7, **params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, len(m.values)


def test_generate_memory_at_n_1000():
    """A 1000-node Watts-Strogatz draw of 6,000 stored entries peaks under
    `GENERATE_BYTES_AN_ENTRY` bytes an entry."""
    peak, entries = generate_peak("watts_strogatz", 1000, k_nn=6, p_rewire=0.1)
    assert peak < GENERATE_BYTES_AN_ENTRY * entries, f"{peak / entries:.0f} bytes an entry"


def test_generate_memory_grows_with_the_entries():
    """Each random kind, at about 40,000 to 120,000 stored entries, peaks
    under `GENERATE_BYTES_AN_ENTRY` bytes an entry: drawn as edges, not on
    per-node neighbour sets nor on an n x n boolean adjacency."""
    for kind, n, params in (("watts_strogatz", 20000, {"k_nn": 6, "p_rewire": 0.1}),
                            ("erdos_renyi", 2000, {"p": 0.01}),
                            ("barabasi_albert", 20000, {"m": 3})):
        peak, entries = generate_peak(kind, n, **params)
        assert peak < GENERATE_BYTES_AN_ENTRY * entries, \
            f"{kind}: {peak / entries:.0f} bytes an entry"


def test_validate_copies_the_callers_array():
    a = np.array(REF_ROWS)
    m = validate(a)
    assert a.flags.writeable
    assert not any(np.shares_memory(a, x) or x.flags.writeable
                   for x in (m.indptr, m.indices, m.values))


def test_spectral_disconnected_has_zero_lambda2():
    sp = assert_lambdas_within_bound(validate(two_triangles()))
    assert abs(sp.lambda2) < 1e-9


GENERATORS = [
    ("complete", {}),
    ("ring", {}),
    ("erdos_renyi", {"p": 0.4}),
    ("watts_strogatz", {"k_nn": 4, "p_rewire": 0.2}),
    ("barabasi_albert", {"m": 2}),
]


@pytest.mark.parametrize("n", [5, 17, 60, 150])
@pytest.mark.parametrize("kind,params", GENERATORS)
def test_spectral_within_its_bound_on_every_generator(kind, params, n):
    assert_lambdas_within_bound(generate(kind, n, seed=3, **params))


@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 30),
       st.sampled_from(["sparse", "lattice", "perturbed-lattice"]))
def test_spectral_within_its_bound_on_random_matrices(seed, n, kind):
    """Random rows: sparse ones with entries over 12 decades, connected or
    not, and ring lattices (double eigenvalues) with tiny extra arcs."""
    rng = np.random.default_rng(seed)
    if kind == "sparse":
        a = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 1.0))
        a *= 10.0 ** -rng.integers(0, 12, (n, n))
    else:
        a = sum(np.roll(np.eye(n), s, axis=1) + np.roll(np.eye(n), -s, axis=1)
                for s in range(1, int(rng.integers(1, max(2, n // 3))) + 1))
        if kind == "perturbed-lattice":
            a += (rng.random((n, n)) < 2.0 / n) * 10.0 ** -rng.integers(2, 12, (n, n))
    np.fill_diagonal(a, 0.0)
    empty = a.sum(axis=1) == 0.0
    a[empty, (np.flatnonzero(empty) + 1) % n] = 1.0
    assert_lambdas_within_bound(validate(a / a.sum(axis=1)[:, None]))


def test_spectral_meets_the_closed_form_on_a_ring(monkeypatch):
    """A tiny gap, the slowest case for Lanczos: on an n-node ring lambda2
    is 4 sin^2(pi / n), 4.4e-4 at n=300 and 9.9e-6 at n=2000, against
    lambda_n 4. The solve restarts, 5 and 56 times, and at each restart
    its basis is orthonormal to working precision, which keeps the residual
    bound a bound: without reorthogonalization against the basis the
    rings' extremes still converge, but the basis does not stay so."""
    restart = graph._restart
    for n in (300, 2000):
        losses = []

        def checked(t, basis, *args):
            v = basis[:1 + t.size]
            losses.append(np.abs(v @ v.T - np.eye(len(v))).max())
            return restart(t, basis, *args)

        monkeypatch.setattr(graph, "_restart", checked)
        sp = spectral(ring_matrix(n))
        rounding = 8 * np.finfo(float).eps * 4.0
        exact = 4.0 * np.sin(np.pi / n) ** 2
        assert abs(sp.lambda2 - exact) <= graph.SPECTRAL_RTOL * exact + rounding, n
        assert abs(sp.lambda_n - 4.0) <= graph.SPECTRAL_RTOL * 4.0 + rounding, n
        assert len(losses) >= 5 and max(losses) < 1e-12, (n, len(losses), max(losses))


def lanczos_steps(monkeypatch, m):
    """The Lanczos steps `spectral` takes on `m`: its products L x."""
    products = []
    make = graph._laplacian_product

    def counted(matrix):
        product, scale = make(matrix)
        return (lambda x: products.append(1) or product(x)), scale

    monkeypatch.setattr(graph, "_laplacian_product", counted)
    spectral(m)
    return len(products)


def test_spectral_on_a_complete_graph_breaks_down_after_one_step(monkeypatch):
    """On 1-perp the complete graph's Laplacian is 2n / (n - 1) times the
    identity: the first step spans an invariant subspace."""
    m = generate("complete", 40)
    assert lanczos_steps(monkeypatch, m) == 1
    sp = assert_lambdas_within_bound(m)
    assert sp.lambda2 == pytest.approx(80 / 39, rel=1e-14)
    assert sp.lambda_n == pytest.approx(80 / 39, rel=1e-14)


def test_spectral_runs_n_minus_1_steps_on_a_small_network(monkeypatch):
    """At n = 4 the Krylov space fills 1-perp in 3 steps, and the Ritz
    values are the eigenvalues: there is no other path for small n."""
    assert lanczos_steps(monkeypatch, validate(REF_ROWS)) == 3
    assert lanczos_steps(monkeypatch, generate("watts_strogatz", 300, seed=2, k_nn=4,
                                               p_rewire=0.3)) < 299


def test_spectral_raises_on_a_non_finite_entry():
    """An infinite weight, which `validate` refuses, makes the Lanczos
    coefficients non-finite: an error, not a lambda of nan."""
    m = validate(REF_ROWS)
    bad = SelectionMatrix(m.n, m.indptr, m.indices, np.where(m.values == 0.25, np.inf, m.values))
    with np.errstate(all="ignore"), pytest.raises(EigenFailureError):
        spectral(bad)


def dense_projection(t):
    """The projected matrix T of a `graph._Projection` as an array: the
    arrow's rows first, each coupled to the tridiagonal's first row alone,
    then the tridiagonal."""
    k, size = len(t.theta), t.size
    dense = np.zeros((size, size))
    dense[range(k), range(k)] = t.theta
    dense[k, :k] = dense[:k, k] = t.sigma
    j = np.arange(k, size)
    dense[j, j] = t.a
    dense[j[:-1], j[1:]] = dense[j[1:], j[:-1]] = t.b
    return dense


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 16), st.integers(1, 64))
def test_ritz_pairs_are_eighs_on_random_projections(seed, arrow, rows):
    """`_ritz_pairs` on a random T: an arrow of `arrow` kept values (none
    before a restart) with couplings over 12 decades, and a tridiagonal of
    `rows` rows whose off-diagonal spans 8 decades (near-double values).
    Each requested eigenvalue is `eigvalsh`'s on the dense T within a few
    eps * span, its unit vector y has ||T y - theta y|| of that order, and
    r + |step|, the bound the stopping rule widens, covers that residual."""
    rng = np.random.default_rng(seed)
    t = graph._Projection(rng.uniform(0.0, 4.0, arrow).tolist(),
                          (rng.uniform(-1.0, 1.0, arrow)
                           * 10.0 ** -rng.integers(0, 12, arrow)).tolist())
    b = rng.uniform(0.0, 1.0, rows - 1) * 10.0 ** -rng.integers(0, 8, rows - 1)
    t.a += rng.uniform(0.0, 4.0, rows).tolist()
    t.b += b.tolist()
    t.b2 += (b * b).tolist()
    dense = dense_projection(t)
    values = np.linalg.eigvalsh(dense)
    span = t.span()
    unit = np.finfo(float).eps * span
    indices = sorted({0, t.size - 1, *rng.integers(0, t.size, 4).tolist()})
    pairs = graph._ritz_pairs(t, indices, span, graph._EPS * unit)
    for i, (theta, y, r, step) in zip(indices, pairs):
        y = np.array(y)
        residual = np.linalg.norm(dense @ y - theta * y)
        assert abs(theta - values[i]) <= 16 * unit, (i, theta, values[i])
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-14
        assert residual <= 4 * unit, (i, residual / unit)
        assert residual <= r + step + unit, (i, residual, r, step)


@pytest.mark.parametrize("case", ["ring-300", "generated-300", "split-4-cycle"])
def test_every_stopping_bound_covers_an_eigenvalue(monkeypatch, case):
    """Every bound the stopping rule tests, at every check of the solve, on
    a ring (restarts and a tiny gap), a Watts-Strogatz network and the
    split 4-cycle (lambda2 and lambda3 1e-8 apart): an eigenvalue of the
    dense Laplacian on 1-perp lies within it of its Ritz value, up to
    `eigvalsh`'s rounding."""
    bounds = []
    update = graph._RitzEnd.update

    def recorded(self, theta, bound, steps, floor):
        bounds.append((theta, bound))
        update(self, theta, bound, steps, floor)

    monkeypatch.setattr(graph._RitzEnd, "update", recorded)
    m = validate(LAPLACIAN_CASES[case])
    spectral(m)
    spectrum = np.linalg.eigvalsh(laplacian(m))[1:]
    rounding = 8 * np.finfo(float).eps * spectrum[-1]
    assert len(bounds) >= 2
    for theta, bound in bounds:
        assert np.abs(spectrum - theta).min() <= bound + rounding, (theta, bound)


@pytest.mark.parametrize("kind,params", GENERATORS)
def test_generate_valid_and_connected(kind, params):
    m = generate(kind, 10, seed=3, **params)
    assert m.n == 10
    assert connected(m)
    assert spectral(m).lambda2 > 1e-9


def test_generate_deterministic_with_seed():
    a = generate("erdos_renyi", 12, seed=11, p=0.3)
    b = generate("erdos_renyi", 12, seed=11, p=0.3)
    assert a.same_entries(b, bits=True)
    for seed in (np.int64(11), np.uint64(11)):  # numpy integers name the same graph
        assert generate("erdos_renyi", 12, seed=seed, p=0.3).same_entries(a, bits=True)
    with pytest.raises(TypeError):
        generate("erdos_renyi", 12, seed=11.0, p=0.3)


def test_generate_structure():
    ring = generate("ring", 6)
    np.testing.assert_allclose(np.sort(ring.rows(0, 6), axis=1)[:, -2:], 0.5)
    comp = generate("complete", 5)
    off = comp.rows(0, 5)[~np.eye(5, dtype=bool)]
    np.testing.assert_allclose(off, 0.25)


def test_generate_parameter_errors():
    with pytest.raises(BadParameterError):
        generate("erdos_renyi", 8, seed=0, p=1.5)
    with pytest.raises(BadParameterError):
        generate("watts_strogatz", 8, seed=0, k_nn=3, p_rewire=0.1)
    with pytest.raises(BadParameterError):
        generate("no_such_kind", 8)
    with pytest.raises(MatrixTooSmallError):
        generate("complete", 2)


def test_generate_refuses_a_negative_seed():
    with pytest.raises(BadParameterError, match="seed"):
        generate("watts_strogatz", 8, seed=-1, k_nn=4, p_rewire=0.1)


def test_generate_allocates_before_drawing():
    """A random kind too large for memory fails at allocation, before its
    draw loop (which would run for hours at this n)."""
    with pytest.raises(MemoryError):
        generate("erdos_renyi", 3_000_000, seed=1, p=0.5)
    with pytest.raises(MemoryError):
        generate("ring", 10 ** 20)


def test_generate_refuses_erdos_renyi_beyond_its_pair_budget(monkeypatch):
    """An erdos_renyi n of more node pairs than ERDOS_RENYI_MAX_PAIRS is
    refused before any draw; an n of as many pairs draws."""
    monkeypatch.setattr(graph, "ERDOS_RENYI_MAX_PAIRS", 66)  # the pairs of 12 nodes
    with mock.patch.object(graph, "_gnp", wraps=graph._gnp) as draws:
        generate("erdos_renyi", 12, seed=7, p=0.35)
        assert draws.call_count > 0
        draws.reset_mock()
        with pytest.raises(BadParameterError, match="n=13 has 78 pairs"):
            generate("erdos_renyi", 13, seed=7, p=0.35)
        assert draws.call_count == 0


@pytest.mark.parametrize("kind,params", [
    ("erdos_renyi", {"p": 0.4}),
    ("watts_strogatz", {"k_nn": 4, "p_rewire": 0.2}),
    ("barabasi_albert", {"m": 2}),
])
def test_generate_without_a_seed(kind, params):
    """With no seed the attempt seeds come from OS entropy: in range, and
    the network is still a valid, connected selection matrix."""
    seeds = list(itertools.islice(graph._attempt_seeds(None), 1000))
    assert all(isinstance(s, int) and 0 <= s < 2**31 - 1 for s in seeds)
    assert len(set(seeds)) > 990
    m = generate(kind, 10, seed=None, **params)
    assert validate(m.rows(0, m.n)).n == 10
    assert connected(m)


def numpy_attempt_seeds(seed, count):
    rng = np.random.default_rng(seed)
    return [int(rng.integers(0, 2**31 - 1)) for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 1])
def test_attempt_seeds_are_numpys(seed):
    """The attempt seeds are numpy's `default_rng(seed).integers(0, 2**31 - 1)`
    bit for bit: seeds of one 32-bit word, of two, the largest uint64, and
    2**128 + 1, whose 5 words are more than SeedSequence's pool of 4."""
    assert list(itertools.islice(graph._attempt_seeds(seed), 200)) == \
        numpy_attempt_seeds(seed, 200)


@given(st.integers(0, 2**130))
def test_attempt_seeds_are_numpys_for_any_seed(seed):
    assert list(itertools.islice(graph._attempt_seeds(seed), 5)) == numpy_attempt_seeds(seed, 5)


def test_bounded_draw_rejects_the_biased_words():
    """Lemire's draw in [0, 2**31 - 1) rejects a word whose product with the
    bound is below (2**32 - bound) % bound = 2 mod 2**32 (one word in 2**31)
    and takes the next word instead, as numpy does."""
    bound = 2**31 - 1
    rejected = [0, pow(bound, -1, 2**32)]
    assert [w * bound % 2**32 for w in rejected] == [0, 1]
    accepted = [rejected[1] + 1, 2**32 - 1, 5]
    words = [rejected[0], accepted[0], rejected[1], rejected[0], accepted[1], accepted[2]]
    assert list(graph._bounded(iter(words), bound)) == [w * bound >> 32 for w in accepted]


# networkx, the oracle of the in-repo generators
@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def nx_draw(nx, kind, n, seed, params):
    if kind == "erdos_renyi":
        g = nx.gnp_random_graph(n, params["p"], seed=seed)
    elif kind == "watts_strogatz":
        g = nx.watts_strogatz_graph(n, params["k_nn"], params["p_rewire"], seed=seed)
    else:
        g = nx.barabasi_albert_graph(n, params["m"], seed=seed)
    return {(min(u, v), max(u, v)) for u, v in g.edges}, nx.is_connected(g)


@st.composite
def random_topologies(draw):
    """(kind, n, params) over each kind's whole parameter range, with the
    end points drawn often: p in {0, 1}, the largest even k_nn below n
    (with p_rewire = 1 this hits the rewiring's full-degree break), m = n - 1."""
    n = draw(st.integers(3, 60))
    kind = draw(st.sampled_from(["erdos_renyi", "watts_strogatz", "barabasi_albert"]))
    unit = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    if kind == "erdos_renyi":
        return kind, n, {"p": draw(unit)}
    if kind == "watts_strogatz":
        top = n - 1 if n % 2 else n - 2
        k_nn = draw(st.just(top) | st.integers(1, top // 2).map(lambda h: 2 * h))
        return kind, n, {"k_nn": k_nn, "p_rewire": draw(unit)}
    return kind, n, {"m": draw(st.just(n - 1) | st.integers(1, n - 1))}


@settings(max_examples=200)
@given(topology=random_topologies(), seed=st.integers(0, 2 ** 64 - 1))
@example(topology=("watts_strogatz", 10, {"k_nn": 8, "p_rewire": 1.0}), seed=0)
@example(topology=("watts_strogatz", 9, {"k_nn": 8, "p_rewire": 1.0}), seed=1)
@example(topology=("erdos_renyi", 12, {"p": 0.2}), seed=10)
@example(topology=("erdos_renyi", 5, {"p": 0.0}), seed=2)
@example(topology=("erdos_renyi", 5, {"p": 1.0}), seed=2)
@example(topology=("barabasi_albert", 7, {"m": 6}), seed=3)
def test_generate_matches_networkx(nx, topology, seed):
    """Every attempt draws the graph networkx draws from the same attempt
    seed, and `generate` keeps the first connected one, as it did with
    networkx: same child seeds, same retry budget."""
    kind, n, params = topology
    rng = np.random.default_rng(seed)
    want = None
    draw, _ = graph._random_draw(kind, n, params)
    for _ in range(graph.GENERATOR_MAX_RETRIES):
        attempt_seed = int(rng.integers(0, 2**31 - 1))
        keys = draw(random.Random(attempt_seed))
        edges = {divmod(key, n) for key in keys.tolist()}
        nx_edges, connected = nx_draw(nx, kind, n, attempt_seed, params)
        assert len(keys) == len(edges) and edges == nx_edges
        if connected:
            want = edges
            break
    if want is None:
        with pytest.raises(DisconnectedAfterRetriesError):
            generate(kind, n, seed=seed, **params)
    else:
        tails, heads, _ = generate(kind, n, seed=seed, **params).positive_entries()
        assert list(zip(tails.tolist(), heads.tolist())) == \
            sorted(want | {(w, u) for u, w in want})


def test_matrix_roundtrip_csv_json(tmp_path, ref_matrix):
    p_csv = tmp_path / "m.csv"
    p_json = tmp_path / "m.json"
    export_matrix_csv(ref_matrix, p_csv)
    export_matrix_json(ref_matrix, p_json)
    assert import_matrix_csv(p_csv).same_entries(ref_matrix, bits=True)
    assert import_matrix_json(p_json).same_entries(ref_matrix, bits=True)


@pytest.mark.parametrize("rows,twin", on_paths([
    (REF_ROWS,),
    (exponent_rows(30, 1, distinct=True),),
    (exponent_rows(30, 2, distinct=False),),
    (generate("watts_strogatz", 200, seed=5, k_nn=4, p_rewire=0.2).rows(0, 200).tolist(),),
    ([[-0.0 if i == j else 0.25 for j in range(5)] for i in range(5)],),
], ["reference", "distinct-exponents", "repeated-exponents", "generated-200",
    "every-entry-stored"]))
def test_matrix_text_is_json_text(tmp_path, rows, twin):
    """The JSON export is json's indented dump of the dense rows, and the
    canonical record of a matrix (`config_to_dict`) lists its stored
    entries, those whose bits are not +0.0, in row-major order, as json
    text that reads back to the same entries bit for bit: -0.0 and
    3.0000000000000004e-07 keep their text. Neither needs the compiled
    library."""
    with numpy_engine() if twin else nullcontext():
        m = validate(rows)
        p = tmp_path / "m.json"
        export_matrix_json(m, p)
        assert_same_text(p.read_text(), json.dumps({"n": m.n, "rows": rows}, indent=2) + "\n",
                         "exported matrix")
        record = config_to_dict(make_config(m))["matrix"]
    a = np.array(rows)
    i, j = np.nonzero(a.view(np.uint64) != 0)
    assert record == {"kind": "entries", "n": len(rows), "i": i.tolist(), "j": j.tolist(),
                      "a": a[i, j].tolist()}
    text = json.dumps(record)
    assert json.dumps(a[i, j].tolist()) in text
    read = json.loads(text)
    assert validate_entries(read["n"], read["i"], read["j"], read["a"]).same_entries(m, bits=True)


def test_matrix_json_declared_n_mismatch(tmp_path, ref_matrix):
    p = tmp_path / "m.json"
    export_matrix_json(ref_matrix, p)
    doc = p.read_text().replace('"n": 4', '"n": 5')
    p.write_text(doc)
    with pytest.raises(BadParameterError):
        import_matrix_json(p)
