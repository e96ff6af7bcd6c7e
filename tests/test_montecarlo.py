"""Experiment engine: config plumbing, trial parity, aggregation, sweeps.

The load-bearing test here is the scalar/vector parity battery: the vectorized
engine must reproduce the scalar reference path bit for bit, trial by trial,
for every update mode, including frozen (overflowed) trials.
"""

import dataclasses
import importlib.util
import json
import math
import re
import sys
import threading
import tracemalloc
import warnings
from contextlib import nullcontext
from copy import deepcopy
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import REF_ROWS, assert_same_text, exponent_rows, fnv1a64_reference, \
    make_config, numpy_engine, on_paths, whole
from gossipsim import _native, graph, montecarlo
from gossipsim.dynamics import OVERFLOW_LIMIT, EventProbabilities, Schedule, S_CLIP, T_CLIP, \
    UpdateMode
from gossipsim.errors import BadAxisError, BadParameterError
from gossipsim.graph import validate
from gossipsim.montecarlo import (
    WEIGHT_BLOCK,
    Classification,
    ExperimentConfig,
    InitialState,
    classify_trials,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_checkpoints,
    run_experiment,
    run_shared_trials,
    run_trials,
    set_by_path,
    sweep,
)
from reference import _partner_from_uniform, column_stats, column_sums, \
    expected_second_moment_matrix, row_cdfs, run_trial

TWO_TRIANGLES = [
    [0.0, 0.5, 0.5, 0.0, 0.0, 0.0],
    [0.5, 0.0, 0.5, 0.0, 0.0, 0.0],
    [0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.5, 0.5],
    [0.0, 0.0, 0.0, 0.5, 0.0, 0.5],
    [0.0, 0.0, 0.0, 0.5, 0.5, 0.0],
]


# ---------------------------------------------------------------------------
# initial states and checkpoints
# ---------------------------------------------------------------------------

def test_ramp_is_node_index():
    rng = np.random.default_rng(0)
    x = InitialState(kind="ramp").sample(6, rng)
    np.testing.assert_array_equal(x, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    # deterministic kinds leave the stream untouched
    assert np.random.default_rng(0).random() == rng.random()


def test_uniform_initial_consumes_n_draws():
    init = InitialState(kind="uniform", low=-1.0, high=2.0)
    rng = np.random.Generator(np.random.Philox(key=[3, 7]))
    x = init.sample(4, rng)
    expect = np.random.Generator(np.random.Philox(key=[3, 7])).random(4)
    np.testing.assert_array_equal(x, -1.0 + 3.0 * expect)


def test_initial_state_validation():
    with pytest.raises(BadParameterError):
        InitialState(kind="gaussian")
    with pytest.raises(BadParameterError):
        InitialState(kind="uniform", low=1.0, high=0.0)
    with pytest.raises(BadParameterError):
        InitialState(kind="uniform", low=float("nan"))
    with pytest.raises(BadParameterError):  # every draw would be inf or nan
        InitialState(kind="uniform", low=-1e308, high=1e308)
    with pytest.raises(BadParameterError):
        InitialState(kind="explicit", values=())
    with pytest.raises(BadParameterError):
        InitialState(kind="explicit", values=(1.0, float("inf")))


def test_spread_bound():
    assert InitialState(kind="ramp").spread_bound(4) == 3.0
    assert InitialState(kind="explicit", values=(2.0, -1.0, 5.0)).spread_bound(3) == 6.0
    assert InitialState(kind="uniform", low=0.0, high=7.0).spread_bound(9) == 7.0


def test_default_checkpoints():
    assert default_checkpoints(0, 200) == (0, 1, 2, 4, 8, 16, 32, 64, 128, 200)
    assert default_checkpoints(5, 8) == (5, 6, 7, 9, 13)
    assert default_checkpoints(3, 0) == (3,)


# ---------------------------------------------------------------------------
# config validation and serialization
# ---------------------------------------------------------------------------

def test_config_rejects_disconnected_matrix():
    from gossipsim.graph import validate
    with pytest.raises(BadParameterError, match="A1"):
        make_config(validate(TWO_TRIANGLES))


def test_config_parameter_validation(ref_matrix):
    with pytest.raises(BadParameterError):
        make_config(ref_matrix, trials=0)
    with pytest.raises(BadParameterError):
        make_config(ref_matrix, steps=-1)
    with pytest.raises(BadParameterError):
        make_config(ref_matrix, seed=-1)
    with pytest.raises(BadParameterError):
        make_config(ref_matrix, seed=2**64)
    with pytest.raises(BadParameterError, match="k0"):
        make_config(ref_matrix, k0=-3)
    with pytest.raises(BadParameterError):
        make_config(ref_matrix, eps_agree=0.0)
    with pytest.raises(BadParameterError):
        make_config(ref_matrix, big_m=-5.0)
    with pytest.raises(BadParameterError, match="outside"):
        make_config(ref_matrix, steps=100, checkpoints=(110,))
    with pytest.raises(BadParameterError, match="2\\^63"):
        make_config(ref_matrix, k0=5, steps=2**63 - 5)
    with pytest.raises(BadParameterError, match="length"):
        make_config(ref_matrix, initial=InitialState(kind="explicit",
                                                     values=(1.0, 2.0)))


def test_config_integers_are_checked_as_in_json(ref_matrix):
    """A config built in Python refuses what its JSON form refuses: a bool
    for an integer, and a checkpoint that is no integer, which would be
    truncated. numpy integers pass and become Python ints."""
    for kwarg, message in (("steps", "steps must be a nonnegative integer, got True"),
                           ("trials", "trials must be a positive integer, got True"),
                           ("k0", "k0 must be a nonnegative integer, got True"),
                           ("seed", "seed must be an integer in [0, 2^64)")):
        with pytest.raises(BadParameterError, match=re.escape(message)):
            make_config(ref_matrix, **{kwarg: True})
    for cps in ((1.5, 7.9), (3, 7.0), (np.True_,)):
        with pytest.raises(BadParameterError, match="checkpoints must be integers"):
            make_config(ref_matrix, checkpoints=cps)
    cfg = make_config(ref_matrix, steps=np.int64(20), trials=np.int32(2), k0=np.uint8(1),
                      seed=np.uint64(3), checkpoints=(np.int16(5),))
    assert (cfg.steps, cfg.trials, cfg.k0, cfg.base_seed, cfg.checkpoints) == \
        (20, 2, 1, 3, (1, 5, 21))
    assert {type(v) for v in (cfg.steps, cfg.trials, cfg.k0, cfg.base_seed,
                              *cfg.checkpoints)} == {int}
    assert config_hash(cfg) == config_hash(make_config(ref_matrix, steps=20, trials=2, k0=1,
                                                       seed=3, checkpoints=(5,)))
    with pytest.raises(BadParameterError, match="2\\^63"):  # no int64 wrap-around
        make_config(ref_matrix, k0=np.int64(5), steps=np.int64(2**63 - 5))


def test_config_checkpoint_resolution(ref_matrix):
    cfg = make_config(ref_matrix, steps=20, checkpoints=(10,))
    assert cfg.checkpoints == (0, 10, 20)
    cfg = make_config(ref_matrix, steps=6, k0=4, checkpoints=None)
    assert cfg.checkpoints == (4, 5, 6, 8, 10)


def test_config_big_m_default(ref_matrix):
    assert make_config(ref_matrix).big_m == 3e6
    explicit = InitialState(kind="explicit", values=(2.0, 2.0, 2.0, 2.0))
    assert make_config(ref_matrix, initial=explicit).big_m == 1e6


def base_dict(**overrides):
    d = {
        "matrix": {"kind": "explicit", "rows": REF_ROWS},
        "probabilities": {"alpha": 1 / 3, "beta": 1 / 3, "gamma": 1 / 3},
        "schedules": {"T": {"kind": "constant", "value": 0.25},
                      "S": {"kind": "constant", "value": 0.05}},
        "steps": 50,
        "trials": 4,
        "seed": 11,
    }
    d.update(overrides)
    return d


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(BadParameterError, match="typo"):
        config_from_dict(base_dict(typo=1))
    with pytest.raises(BadParameterError, match="matrix"):
        config_from_dict({"steps": 5})


def test_config_from_dict_needs_both_schedules():
    d = base_dict()
    del d["schedules"]["S"]
    with pytest.raises(BadParameterError, match="'T' and 'S'"):
        config_from_dict(d)
    d = base_dict()
    d["schedules"] = [0.25, 0.05]
    with pytest.raises(BadParameterError):
        config_from_dict(d)


def test_config_roundtrip_is_stable():
    cfg = config_from_dict(base_dict())
    doc = config_to_dict(cfg)
    again = config_to_dict(config_from_dict(doc))
    assert doc == again
    assert config_hash(cfg) == config_hash(config_from_dict(doc))


def test_config_hash_ignores_key_order_and_tracks_values():
    d = base_dict()
    reordered = dict(reversed(list(d.items())))
    assert config_hash(config_from_dict(d)) == config_hash(config_from_dict(reordered))
    assert len(config_hash(config_from_dict(d))) == 16

    bumped = base_dict()
    bumped["schedules"]["S"]["value"] = 0.06
    assert config_hash(config_from_dict(d)) != config_hash(config_from_dict(bumped))
    assert config_hash(config_from_dict(d)) != config_hash(
        config_from_dict(base_dict(seed=12)))


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# Digests of the canonical text before the matrix was recorded as its
# stored entries, with the matrix as dense rows: a per-byte FNV-1a loop over
# `json.dumps(doc, sort_keys=True, separators=(",", ":"))`, `doc` being
# `config_to_dict(cfg)` with `"matrix": {"kind": "explicit", "rows":
# entries.tolist()}` (`dense_digest`). They pin what the generators draw.
PINNED_HASHES = {
    "paper_5_3_crit.json": "82665c6d2a63c0ce",
    "paper_5_3_high.json": "3eefaa0c2ad83d95",
    "paper_5_3_low.json": "05a8b3b2616caa5b",
}
# `config_hash` of the same configs, recorded with a per-byte FNV-1a loop
# over `json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))`
ENTRIES_HASHES = {
    "paper_5_3_crit.json": "55d50645e0f97119",
    "paper_5_3_high.json": "1303284fa798833e",
    "paper_5_3_low.json": "3731bd76bec8b210",
}
WS1000 = {
    "matrix": {"kind": "watts_strogatz", "n": 1000, "kNn": 6, "pRewire": 0.1, "seed": 7},
    "probabilities": {"alpha": 1 / 3, "beta": 1 / 3, "gamma": 1 / 3},
    "schedules": {"T": {"kind": "constant", "value": 0.25},
                  "S": {"kind": "constant", "value": 0.05}},
    "steps": 100,
    "trials": 4,
    "seed": 3,
}


def dense_digest(cfg: ExperimentConfig) -> str:
    """The digest of `cfg`'s canonical text with the matrix as dense rows,
    as `PINNED_HASHES` records it."""
    doc = {**config_to_dict(cfg),
           "matrix": {"kind": "explicit", "rows": cfg.matrix.rows(0, cfg.matrix.n).tolist()}}
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return f"{fnv1a64_reference(text.encode()):016x}"


def entries_digest(cfg: ExperimentConfig) -> str:
    """The per-byte FNV-1a digest of `cfg`'s canonical text."""
    text = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return f"{fnv1a64_reference(text.encode()):016x}"


@pytest.mark.parametrize("name", sorted(PINNED_HASHES))
def test_config_hash_is_pinned(name):
    path = CONFIGS / name
    cfg = config_from_dict(json.loads(path.read_text()), base_dir=path.parent)
    assert dense_digest(cfg) == PINNED_HASHES[name]
    assert config_hash(cfg) == entries_digest(cfg) == ENTRIES_HASHES[name]


def test_config_hash_is_pinned_on_a_generated_network():
    cfg = config_from_dict(WS1000)
    assert dense_digest(cfg) == "28c56404f7e29e72"
    assert config_hash(cfg) == entries_digest(cfg) == "75a15d359b685a94"


# Digests recorded with networkx 3.6.1 drawing the matrix, as
# `PINNED_HASHES` records them (`dense_digest`); the digest of the
# canonical text (`config_hash`); and the attempt that drew the first
# connected graph
GENERATED_HASHES = {
    "erdos-renyi-12": ({"kind": "erdos_renyi", "n": 12, "p": 0.35, "seed": 7},
                       "e356a4313e504793", "72c21cb3b0b206af", 2),
    "barabasi-albert-12": ({"kind": "barabasi_albert", "n": 12, "m": 3, "seed": 7},
                           "4f40ffe37241b2f8", "2b50dea8af0d3546", 1),
    "erdos-renyi-retried": ({"kind": "erdos_renyi", "n": 12, "p": 0.2, "seed": 10},
                            "8755f3256be5f2ba", "df1c944553f47190", 13),
    "barabasi-albert-200": ({"kind": "barabasi_albert", "n": 200, "m": 3, "seed": 5},
                            "6feb98b6be4fb374", "698ccb895fe5f3b7", 1),
}


@pytest.mark.parametrize("matrix,dense,digest,attempts", GENERATED_HASHES.values(),
                         ids=GENERATED_HASHES)
def test_config_hash_is_pinned_on_generated_networks(matrix, dense, digest, attempts):
    with mock.patch.object(graph, "is_weakly_connected",
                           wraps=graph.is_weakly_connected) as connected:
        cfg = config_from_dict({**WS1000, "matrix": matrix})
    assert dense_digest(cfg) == dense
    assert config_hash(cfg) == entries_digest(cfg) == digest
    assert connected.call_count == attempts


@given(data=st.binary(max_size=300), block=st.sampled_from([1, 8, 9, 61]))
def test_vectorized_fnv_matches_the_byte_loop(data, block):
    assert _native._fnv1a64(data) == fnv1a64_reference(data)
    with mock.patch.object(_native, "FNV_BLOCK", block):
        assert _native._fnv1a64(data) == fnv1a64_reference(data)


@pytest.mark.parametrize("block", sorted({8, 13, _native.FNV_BLOCK, 1 << 14, 1 << 16}))
def test_vectorized_fnv_matches_the_byte_loop_at_block_boundaries(monkeypatch, block):
    monkeypatch.setattr(_native, "FNV_BLOCK", block)
    rng = np.random.default_rng(block)
    lengths = {0, 1, 2, 7, 8, 9} | {k * block + d for k in (1, 2) for d in (-1, 0, 1)}
    for n in sorted(lengths):
        data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        assert _native._fnv1a64(data) == fnv1a64_reference(data), n
    high = bytes(range(0x80, 0x100)) * (block // 128 + 2)
    assert _native._fnv1a64(high) == fnv1a64_reference(high)
    assert _native._fnv1a64(b"") == 0xCBF29CE484222325


@given(data=st.binary(max_size=200), block=st.sampled_from([1, 8, 9, 61]))
def test_chained_fnv_matches_the_byte_loop_at_every_cut(data, block):
    """The hash of a text's tail from the hash of its head is the hash of
    the whole text, wherever the text is cut and whatever the block size."""
    want = fnv1a64_reference(data)
    with mock.patch.object(_native, "FNV_BLOCK", block):
        for cut in range(len(data) + 1):
            assert _native._fnv1a64(data[cut:], _native._fnv1a64(data[:cut])) == want, cut


@given(text=st.text(st.characters(max_codepoint=127), max_size=300),
       cuts=st.lists(st.integers(0, 300), max_size=8), block=st.sampled_from([1, 8, 9, 61]))
def test_hash_of_pieces_is_the_hash_of_their_text(text, cuts, block):
    """`fnv1a64_pieces` gives the digest of the per-byte loop over the text
    its pieces join to, however the pieces fall against the blocks."""
    bounds = [0, *sorted(min(c, len(text)) for c in cuts), len(text)]
    pieces = [text[a:b] for a, b in zip(bounds, bounds[1:])]
    with mock.patch.object(_native, "FNV_BLOCK", block):
        assert _native.fnv1a64_pieces(pieces) == fnv1a64_reference(text.encode())


def test_library_build_removes_stale_builds(tmp_path, monkeypatch):
    """A new build deletes the builds of earlier sources beside it and
    leaves a concurrent build's temporary file; the next load takes the
    new build as it is, without building it again."""
    if _native.library() is None:
        pytest.skip("no C compiler here to build the library")
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    cache = Path(importlib.util.cache_from_source(str(_native._SOURCE)))
    cache.parent.mkdir(parents=True)
    stale = cache.with_suffix(".0123456789abcdef.so")
    stale.write_bytes(b"an earlier build")
    temporary = cache.parent / "tmpk3j_x9a2.so"
    temporary.write_bytes(b"a concurrent build")

    def builds():
        return [p for p in cache.parent.iterdir() if p != temporary]

    assert _native.library.__wrapped__() is not None
    [build] = builds()
    assert build != stale and build.name.startswith(cache.stem + ".")
    inode = build.stat().st_ino
    assert _native.library.__wrapped__() is not None
    assert [p.stat().st_ino for p in builds()] == [inode]
    assert temporary.read_bytes() == b"a concurrent build"


def assert_same_state(a, b):
    """Equal bit generator state dicts, down to the dtype of every array."""
    assert a.keys() == b.keys()
    for key, v in a.items():
        if isinstance(v, dict):
            assert_same_state(v, b[key])
        elif isinstance(v, np.ndarray):
            assert v.dtype == b[key].dtype and np.array_equal(v, b[key]), key
        else:
            assert (type(v), v) == (type(b[key]), b[key]), key


def test_seeds_from_2_63_on_give_their_own_streams():
    seeds = (2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rngs = [montecarlo._trial_rng(s, 3) for s in seeds]
    for s, rng in zip(seeds, rngs):
        assert rng.bit_generator.state["state"]["key"].tolist() == [s, 3]
    assert len({tuple(rng.random(4)) for rng in rngs}) == len(seeds)
    # below 2^63 the key is the one a list [seed, trial] gives
    for s in (0, 5, 2 ** 63 - 1):
        expect = np.random.Generator(np.random.Philox(key=[s, 3])).random(4)
        np.testing.assert_array_equal(montecarlo._trial_rng(s, 3).random(4), expect)
    # built without OS entropy, a trial's generator is Philox(key=[seed,
    # trial]): the same state before and after draws, the same stream
    for s in (0, 123, 2 ** 63 + 5, 2 ** 64 - 1):
        got = montecarlo._trial_rng(s, 3)
        want = np.random.Generator(np.random.Philox(key=np.array([s, 3], dtype=np.uint64)))
        assert_same_state(got.bit_generator.state, want.bit_generator.state)
        np.testing.assert_array_equal(got.random(9), want.random(9))
        assert_same_state(got.bit_generator.state, want.bit_generator.state)


# ---------------------------------------------------------------------------
# scalar / vector parity
# ---------------------------------------------------------------------------

def parity_cases(ref_matrix):
    uniform_init = InitialState(kind="uniform", low=-1.0, high=2.0)
    freeze_s = Schedule.constant(1e120, clip=S_CLIP)
    power_t = Schedule.power(0.5, 0.6, clip=T_CLIP)
    power_s = Schedule.power(0.1, 0.3, clip=S_CLIP)
    return [
        # time-varying schedules; the engine evaluates them per step block,
        # the scalar path over the whole run
        make_config(ref_matrix, trials=6, steps=40, seed=11, schedule_t=power_t,
                    schedule_s=power_s, checkpoints=(0, 7, 40)),
        make_config(ref_matrix, trials=6, steps=40, seed=12,
                    schedule_t=Schedule.explicit([0.9, 0.1, 0.5, 0.3], 0.25, clip=T_CLIP),
                    schedule_s=Schedule.explicit([0.0, 0.3], 0.05, clip=S_CLIP),
                    checkpoints=(0, 3, 40)),
        # r ** k overflows past slot 1750: a growing T sits at its ceiling,
        # a growing S freezes every trial
        make_config(ref_matrix, trials=6, steps=30, seed=13, k0=1740,
                    schedule_t=Schedule.geometric(0.1, 1.5, clip=T_CLIP),
                    schedule_s=Schedule.geometric(0.2, 0.99, clip=S_CLIP)),
        make_config(ref_matrix, trials=6, steps=60, seed=14, k0=1700,
                    alpha=0.2, beta=0.2, gamma=0.6,
                    schedule_s=Schedule.geometric(1.0, 1.5, clip=S_CLIP)),
        # k0 > 0 across a weight-block boundary of the engine, which is also
        # one of the numpy twin's draw blocks
        make_config(ref_matrix, variant="asymmetric", active_rule="uniform",
                    trials=3, steps=WEIGHT_BLOCK + 100, seed=15, k0=1000,
                    schedule_t=power_t, schedule_s=power_s,
                    checkpoints=(1000, 1000 + WEIGHT_BLOCK - 1, 1000 + WEIGHT_BLOCK,
                                 1000 + WEIGHT_BLOCK + 1, 1000 + WEIGHT_BLOCK + 100)),
        make_config(ref_matrix, trials=6, steps=40, seed=5,
                    checkpoints=(0, 7, 40)),
        make_config(ref_matrix, trials=6, steps=40, seed=6, s=0.5,
                    checkpoints=(0, 7, 40)),
        make_config(ref_matrix, variant="asymmetric", active_rule="initiator",
                    trials=6, steps=40, seed=7, checkpoints=(0, 7, 40)),
        make_config(ref_matrix, variant="asymmetric", active_rule="uniform",
                    trials=6, steps=40, seed=8, checkpoints=(0, 7, 40)),
        make_config(ref_matrix, trials=6, steps=40, seed=9,
                    initial=uniform_init, checkpoints=(0, 7, 40)),
        # every slot neglects, so the final spread stays 3.0 = epsAgree: the
        # comparison is strict, and the trials are Undecided
        make_config(ref_matrix, trials=2, steps=5, alpha=0.0, beta=1.0, gamma=0.0,
                    eps_agree=3.0),
        # a start value beyond the overflow limit freezes a trial at the
        # first slot that selects its node, even for a neglect
        make_config(ref_matrix, trials=6, steps=40, seed=16,
                    initial=InitialState(kind="explicit", values=(2e150, 0.0, 1.0, -3.0)),
                    checkpoints=(0, 1, 2, 3, 40)),
        make_config(ref_matrix, trials=6, steps=10, seed=10,
                    alpha=0.0, beta=0.0, gamma=1.0, schedule_s=freeze_s,
                    checkpoints=tuple(range(11))),
    ]


def assert_trial_matches_scalar_path(cfg, mats, classifications, t):
    """Trial t of an engine run with states equals the scalar path bit for
    bit: every checkpoint's state, L, spread, freeze slot and class."""
    ref = run_trial(cfg, t)
    msg = f"trial {t} seed {cfg.base_seed}"
    assert_same_text(whole(mats, "states")[t].tobytes(),
                     np.array([st.x for st in ref.states]).tobytes(), f"states, {msg}")
    assert_same_text(whole(mats, "dispersion")[t].tobytes(),
                     np.array([s.dispersion for s in ref.samples]).tobytes(), f"L, {msg}")
    assert_same_text(whole(mats, "spread")[t].tobytes(),
                     np.array([s.spread for s in ref.samples]).tobytes(), f"spread, {msg}")
    assert mats.diverged_at[t] == (-1 if ref.diverged_at is None else ref.diverged_at), msg
    assert classifications[t] is ref.classification, msg


def trial_arrays(mats) -> list[np.ndarray]:
    """A run's per-trial arrays, read whole; the states where kept."""
    return [a for a in (whole(mats, "dispersion"), whole(mats, "spread"), mats.diverged_at,
                        whole(mats, "states")) if a is not None]


def assert_same_matrices(got, want, msg=""):
    assert got.checkpoints == want.checkpoints
    for a, b in zip(trial_arrays(got), trial_arrays(want), strict=True):
        assert_same_text(a.tobytes(), b.tobytes(), msg)


def on_both_paths(run):
    """`run()` on the engine as it is, with the compiled slot kernel where
    one can be built, then on the numpy fallback; both must give the same
    bytes. Returns the first result: matrices or a list of them."""
    got = run()
    with numpy_engine():
        fallback = run()
    if isinstance(got, montecarlo.TrialMatrices):
        assert_same_matrices(got, fallback, "kernel and fallback differ")
    else:
        for p, (a, b) in enumerate(zip(got, fallback, strict=True)):
            assert_same_matrices(a, b, f"kernel and fallback differ at point {p}")
    return got


def test_vector_engine_matches_scalar_reference(ref_matrix):
    for cfg in parity_cases(ref_matrix):
        mats = run_trials(cfg, states=True)
        classifications = classify_trials(cfg, mats)
        for t in range(cfg.trials):
            assert_trial_matches_scalar_path(cfg, mats, classifications, t)


def test_numpy_fallback_matches_scalar_reference(ref_matrix, fallback_engine):
    test_vector_engine_matches_scalar_reference(ref_matrix)


@st.composite
def schedules(draw, clip, values):
    """Any of the four kinds; the value ranges reach past both clips."""
    kind = draw(st.sampled_from(["constant", "explicit", "power", "geometric"]))
    if kind == "constant":
        return Schedule.constant(draw(values), clip=clip)
    if kind == "explicit":
        return Schedule.explicit(draw(st.lists(values, max_size=12)), draw(values), clip=clip)
    c = draw(st.floats(0.01, 2.0))
    if kind == "power":
        return Schedule.power(c, draw(st.floats(-1.0, 2.0)), clip=clip)
    return Schedule.geometric(c, draw(st.floats(0.0, 1.6)), clip=clip)


@st.composite
def fuzz_configs(draw):
    """Configs over every mode, schedule kind and initial kind, on matrices
    of 17 to 40 nodes whose rows have zero-weight entries (CDF plateaus).
    A repulsion gain of 1e120, or a geometric one past slot ~1500, freezes
    trials; T and S values outside [1e-12, 1] and [1e-12, inf) clip."""
    n = draw(st.integers(17, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.random((n, n))
    w[rng.random((n, n)) < draw(st.floats(0.0, 0.95))] = 0.0
    np.fill_diagonal(w, 0.0)
    w[np.arange(n), (np.arange(n) + 1) % n] += 0.05  # a ring keeps every row positive
    variant, rule = draw(st.sampled_from([("symmetric", "uniform"), ("asymmetric", "uniform"),
                                          ("asymmetric", "initiator"),
                                          ("asymmetric", "responder")]))
    alpha = draw(st.floats(0.0, 1.0))
    beta = draw(st.floats(0.0, 1.0 - alpha))
    initial = draw(st.sampled_from(["ramp", "explicit", "uniform"]))
    if initial == "explicit":
        initial = InitialState(kind="explicit", values=tuple(
            draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))))
    elif initial == "uniform":
        low = draw(st.floats(-5.0, 5.0))
        initial = InitialState(kind="uniform", low=low, high=low + draw(st.floats(0.0, 5.0)))
    else:
        initial = InitialState(kind="ramp")
    k0 = draw(st.integers(0, 1800))
    steps = draw(st.integers(0, 60))
    checkpoints = draw(st.none() | st.lists(st.integers(k0, k0 + steps), max_size=5))
    return ExperimentConfig(
        matrix=validate(w / w.sum(axis=1, keepdims=True)),
        mode=UpdateMode(variant=variant, active_rule=rule),
        probabilities=EventProbabilities(alpha=alpha, beta=beta, gamma=1.0 - alpha - beta),
        schedule_t=draw(schedules(T_CLIP, st.floats(-0.5, 1.5))),
        schedule_s=draw(schedules(S_CLIP, st.floats(-0.5, 3.0) | st.just(1e120))),
        initial=initial, steps=steps, trials=draw(st.integers(1, 7)), k0=k0,
        base_seed=draw(st.integers(0, 2 ** 64 - 1)),
        checkpoints=None if checkpoints is None else tuple(checkpoints))


@settings(max_examples=200)
@given(cfg=fuzz_configs(), chunk=st.integers(1, 4), weights=st.integers(1, 16),
       presample=st.integers(1, 8))
def test_engine_matches_scalar_path_on_generated_configs(cfg, chunk, weights, presample):
    """Small trial chunks, weight blocks (the numpy twin's draw blocks) and
    presampling slices put their boundaries in the middle of runs; every
    trial must still equal the scalar path bit for bit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "CHUNK_TRIALS", chunk)
        mp.setattr(montecarlo, "WEIGHT_BLOCK", weights)
        mp.setattr(montecarlo, "PRESAMPLE_STEPS", presample)
        mats = on_both_paths(lambda: run_trials(cfg, states=True))
    classifications = classify_trials(cfg, mats)
    for t in range(cfg.trials):
        assert_trial_matches_scalar_path(cfg, mats, classifications, t)


@st.composite
def shared_draw_points(draw):
    """A fuzz config and 1 to 4 points that differ from it only in one
    schedule: constants or any other kind, with 1e120 among the repulsion
    gains, and at times a repeated point. The repulsion gain varies in two
    examples of three, so that on one trial some points freeze while others
    run."""
    cfg = draw(fuzz_configs())
    if draw(st.integers(0, 2)):
        role, clip, values = "schedule_s", S_CLIP, st.just(1e120) | st.floats(-0.5, 3.0)
    else:
        role, clip, values = "schedule_t", T_CLIP, st.floats(-0.5, 1.5)
    size = draw(st.integers(1, 3))
    points = draw(st.lists(st.builds(Schedule.constant, values, clip=st.just(clip))
                           | schedules(clip, values), min_size=size, max_size=size))
    points += points[:draw(st.integers(0, 1))]
    return [dataclasses.replace(cfg, **{role: sched}) for sched in points]


@settings(max_examples=120)
@given(points=shared_draw_points(), chunk=st.integers(1, 4), batch=st.integers(1, 4),
       weights=st.integers(1, 16), presample=st.integers(1, 8))
def test_shared_pass_matches_solo_runs_on_generated_configs(points, chunk, batch, weights,
                                                            presample):
    """Every point of a shared pass equals `run_trials` on that point alone,
    byte for byte: measures, freeze slots and states. A small
    BATCH_STATE_BYTES also splits the points into batches of `batch`
    configs (configs x chunk x n floats of state)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "CHUNK_TRIALS", chunk)
        mp.setattr(montecarlo, "BATCH_STATE_BYTES", batch * chunk * points[0].matrix.n * 8)
        mp.setattr(montecarlo, "WEIGHT_BLOCK", weights)
        mp.setattr(montecarlo, "PRESAMPLE_STEPS", presample)
        shared = on_both_paths(lambda: list(run_shared_trials(points, states=True)))
        solo = [run_trials(cfg, states=True) for cfg in points]
    assert len(shared) == len(points)
    for p, (got, want) in enumerate(zip(shared, solo)):
        assert_same_matrices(got, want, f"point {p}")


def test_wide_shared_pass_is_split_into_batches(ref_matrix, monkeypatch):
    """With room for two configs' states per pass (2 configs x 256 trials x
    4 nodes x 8 bytes), five points run as batches of 2, 2 and 1, two chunks
    each, and still equal their solo runs; trials freeze in the second
    point only."""
    monkeypatch.setattr(montecarlo, "BATCH_STATE_BYTES", 2 * montecarlo.CHUNK_TRIALS * 4 * 8)
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)  # 300 trials: 2 chunks on any host
    calls = []
    simulate_chunk = montecarlo._simulate_chunk

    def spy(cfgs, *args):
        calls.append(len(cfgs))
        return simulate_chunk(cfgs, *args)

    monkeypatch.setattr(montecarlo, "_simulate_chunk", spy)
    points = [make_config(ref_matrix, s=s, trials=300, steps=20, seed=4,
                          alpha=0.2, beta=0.2, gamma=0.6)
              for s in (0.05, 1e120, 0.3, 0.05, 2.0)]
    shared = on_both_paths(lambda: list(run_shared_trials(points)))
    assert calls == [2, 2, 2, 2, 1, 1] * 2
    assert (shared[1].diverged_at >= 0).any() and (shared[0].diverged_at < 0).all()
    for cfg, got in zip(points, shared):
        assert_same_matrices(got, on_both_paths(lambda: run_trials(cfg)))


def test_numpy_slots_hold_one_copy_of_each_windows_pairs(ref_matrix):
    """The numpy twin presamples a window's node pairs once for all the
    configs of a chunk. One copy per config of a 64-slot window's int64
    indices would take 25 MiB in this 100-config chunk of 256 trials."""
    points = [make_config(ref_matrix, s=0.01 * (q + 1), trials=256, steps=200,
                          checkpoints=(0, 200)) for q in range(100)]
    with numpy_engine():
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in run_shared_trials(points):
                pass
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert peak < 16 << 20, f"{peak / 2 ** 20:.1f} MiB"


def test_shared_pass_refuses_configs_with_other_draws(ref_matrix):
    a = make_config(ref_matrix, seed=1)
    for other in (make_config(ref_matrix, seed=2), make_config(ref_matrix, steps=50),
                  make_config(ref_matrix, alpha=0.5, beta=1 / 6)):
        with pytest.raises(ValueError, match="share their draws"):
            list(run_shared_trials([a, other]))


# ---------------------------------------------------------------------------
# worker threads
# ---------------------------------------------------------------------------

def freezing_ring_config(trials, steps=4096):
    """Ring-12, asymmetric with a uniform active rule, S = 3 and uniform
    starts: 4 draws a slot, and trials freeze at different slots."""
    return make_config(graph.generate("ring", 12), variant="asymmetric",
                       active_rule="uniform", t=0.25, s=3.0, steps=steps, trials=trials,
                       seed=5, initial=InitialState(kind="uniform"))


WORKER_CASES = {
    "uneven chunks": lambda m: [run_trials(make_config(m, trials=613, steps=40, seed=8))],
    "one trial": lambda m: [run_trials(make_config(m, trials=1, steps=40, seed=8))],
    "states": lambda m: [run_trials(make_config(m, trials=300, steps=40, seed=8), states=True)],
    "shared pass": lambda m: list(run_shared_trials(
        [make_config(m, s=s, trials=2013, steps=40, seed=8, alpha=0.2, beta=0.2, gamma=0.6)
         for s in (0.05, 1e120, 0.3)], states=True)),
    "freezing": lambda m: [run_trials(freezing_ring_config(301), states=True)],
}


@pytest.mark.parametrize("case,twin", on_paths([(c,) for c in WORKER_CASES], list(WORKER_CASES)))
def test_results_do_not_depend_on_the_worker_count(ref_matrix, case, twin):
    """Every array of every result has the same bytes on 1, 2 and 3 workers:
    trials that are no multiple of the chunk size, fewer trials than
    workers, kept states, a shared pass through the temporary file, and
    trials that freeze at different slots."""
    runs = []
    for workers in (1, 2, 3):
        with numpy_engine() if twin else nullcontext(), \
                mock.patch.object(montecarlo, "_workers", lambda: workers):
            runs.append(WORKER_CASES[case](ref_matrix))
    if case == "freezing":
        div = runs[0][0].diverged_at
        assert len(set(div[div >= 0].tolist())) > 1, "trials should freeze at different slots"
    for workers, got in zip((2, 3), runs[1:]):
        for p, (a, b) in enumerate(zip(got, runs[0], strict=True)):
            assert_same_matrices(a, b, f"{workers} workers, matrices {p}")


def chunks_run(cfg, workers):
    """The (lo, hi) of every chunk `run_trials` ran on `workers` workers."""
    spans = []
    simulate_chunk = montecarlo._simulate_chunk

    def spy(cfgs, tables, lo, hi, *args):
        spans.append((lo, hi))
        return simulate_chunk(cfgs, tables, lo, hi, *args)

    with mock.patch.object(montecarlo, "_simulate_chunk", spy), \
            mock.patch.object(montecarlo, "_workers", lambda: workers):
        run_trials(cfg)
    return sorted(spans)


def test_every_worker_gets_a_chunk(ref_matrix):
    """Chunks hold min(CHUNK_TRIALS, ceil(trials / workers)) trials, so
    that every worker has one; the numpy twin runs on one worker, in
    chunks of CHUNK_TRIALS."""
    cfg = make_config(ref_matrix, trials=300, steps=5)
    with numpy_engine():
        assert chunks_run(cfg, 3) == [(0, 256), (256, 300)]
    compiled_kernel()
    assert chunks_run(cfg, 1) == [(0, 256), (256, 300)]
    assert chunks_run(cfg, 2) == [(0, 150), (150, 300)]
    assert chunks_run(cfg, 3) == [(0, 100), (100, 200), (200, 300)]
    assert chunks_run(dataclasses.replace(cfg, trials=1), 2) == [(0, 1)]
    assert chunks_run(dataclasses.replace(cfg, trials=1100), 2) == [
        (lo, min(lo + 256, 1100)) for lo in range(0, 1100, 256)]


def test_concurrent_passes_on_the_slot_kernel(ref_matrix, monkeypatch):
    """Two passes at the same moment, each on 2 workers, whose four chunks
    all open their slots at once: both run and give the bytes of a lone
    pass, since the chunks share nothing in the library."""
    kernel = compiled_kernel()
    cfg = freezing_ring_config(40, steps=256)
    want = run_trials(cfg, states=True)
    barrier = threading.Barrier(4)
    opened = kernel._open

    def meet(self):
        barrier.wait(timeout=30)  # the chunks of both passes open at once
        opened(self)

    monkeypatch.setattr(kernel, "_open", meet)
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    results, errors = [None, None], []

    def run(q):
        try:
            results[q] = run_trials(cfg, states=True)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(q,)) for q in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert not errors, errors
    for got in results:
        assert_same_matrices(got, want)


def test_more_workers_than_cores_under_fast_thread_switches(ref_matrix, monkeypatch):
    """Eight workers, more than most hosts have cores, and a thread switch
    every microsecond: a shared pass still writes each chunk's rows at
    their place in the temporary file and in every config's freeze slots."""
    compiled_kernel()
    points = [make_config(ref_matrix, s=s, trials=1500, steps=20, seed=3, alpha=0.2, beta=0.2,
                          gamma=0.6) for s in (0.05, 1e120, 0.3)]
    monkeypatch.setattr(montecarlo, "_workers", lambda: 1)
    want = list(run_shared_trials(points, states=True))
    monkeypatch.setattr(montecarlo, "_workers", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = list(run_shared_trials(points, states=True))
    finally:
        sys.setswitchinterval(interval)
    for p, (a, b) in enumerate(zip(got, want, strict=True)):
        assert_same_matrices(a, b, f"point {p}")


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_failed_chunk_stops_the_pass(ref_matrix, monkeypatch, error):
    """When a chunk raises, the error reaches the caller, the other
    workers stop at their next chunk, and no thread is left running."""
    compiled_kernel()
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)
    calls = []
    lock = threading.Lock()
    simulate_chunk = montecarlo._simulate_chunk

    def failing(*args):
        with lock:
            calls.append(args[2])
            second = len(calls) == 2
        if second:
            raise error("chunk failed")
        return simulate_chunk(*args)

    monkeypatch.setattr(montecarlo, "_simulate_chunk", failing)
    before = threading.active_count()
    for run in (lambda: run_trials(make_config(ref_matrix, trials=4000, steps=200)),
                lambda: list(run_shared_trials([make_config(ref_matrix, s=s, trials=4000,
                                                            steps=200) for s in (0.1, 0.2)]))):
        calls.clear()
        with pytest.raises(error, match="chunk failed"):
            run()
        assert threading.active_count() == before
        assert len(calls) < 16  # of 16 chunks


def plateau_rows(n):
    """An n-node matrix whose rows have zero-weight entries (CDF plateaus)."""
    rng = np.random.default_rng(n)
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    np.fill_diagonal(w, 0.0)
    w[np.arange(n), (np.arange(n) + 1) % n] += 0.25
    return w / w.sum(axis=1, keepdims=True)


def signed_zero_rows(n):
    """`plateau_rows` with -0.0 in place of a third of the zeros, on the
    diagonal too, and in whole runs at the ends of some rows."""
    a = plateau_rows(n)
    zeros = np.argwhere(a.view(np.uint64) == 0)
    a[tuple(zeros[::3].T)] = -0.0
    a[2, :2] = a[3, -3:] = 0.0  # the rows' weights move to the ring arc
    a[2, 3] += 1.0 - a[2].sum()
    a[3, 4] += 1.0 - a[3].sum()
    a[2, :2] = a[3, -3:] = -0.0
    return a


def absorbed_rows(n):
    """A ring whose rows also hold weights the running sum absorbs (1e-17
    after 0.5, 2^-60 after 0.25), and tiny first entries (5e-324)."""
    a = np.zeros((n, n))
    for i in range(n):
        a[i, [(i + 1) % n, (i + 2) % n, (i + 3) % n]] = [0.5, 1e-17, 0.5]
    a[0, [1, 2, 3]] = [0.25, 2.0 ** -60, 0.75]
    a[1] = 0.0
    a[1, [0, 2, 3]] = [5e-324, 0.5, 0.5]
    return a


def star_rows(n):
    """A star: the hub picks every leaf, each leaf picks the hub."""
    a = np.zeros((n, n))
    a[0, 1:] = 1.0 / (n - 1)
    a[1:, 0] = 1.0
    return a


# plateaus at several sizes, -0.0 entries, absorbed entries, and rows of
# uneven width (a star, Barabasi-Albert) or all of width n - 1 (complete)
PARTNER_MATRICES = {
    **{str(n): lambda n=n: validate(plateau_rows(n)) for n in (3, 4, 17, 32, 33)},
    "negative-zero": lambda: validate(signed_zero_rows(13)),
    "absorbed": lambda: validate(absorbed_rows(9)),
    "star": lambda: validate(star_rows(20)),
    "barabasi-albert": lambda: graph.generate("barabasi_albert", 60, seed=4, m=2),
    "complete": lambda: graph.generate("complete", 12),
}


def partner_probes(matrix):
    """Partner draws (row, draw) on the grid of multiples of 2^-53, which is
    where the streams' uniforms lie: around every entry of the matrix's
    dense row CDFs (`row_cdfs`), the entry itself where it lies on the grid
    and at least one grid point either side of it."""
    cdfs = row_cdfs(matrix)
    rows, draws = [], []
    for r in range(matrix.n):
        for c in {0.0, *cdfs[r].tolist()}:
            below = math.floor(c * 2.0 ** 53)
            for v in {below - 1, below, below + 1, below + 2}:
                if 0 <= v < 2 ** 53:
                    rows.append(r)
                    draws.append(v / 2.0 ** 53)
    return np.array(rows), np.array(draws)


def put_draws(streams, draws):
    """Make the next uniforms of `streams` `draws`, (trials, up to 4 draws),
    each a multiple of 2^-53: numpy's Philox state with the words that give
    them in its buffer, at position 0. The stream goes on from there."""
    streams[:, 6:6 + draws.shape[1]] = (draws * 2.0 ** 53).astype(np.uint64) << np.uint64(11)
    streams[:, -1] = 0
    return streams


def streams_at(draws):
    """Streams whose next uniforms are `draws` (`put_draws`)."""
    return put_draws(montecarlo._streams(3, 0, len(draws)), draws)


def chunk_out(npts, trials, ncp, n=None):
    """The `out` argument of the slot implementations: measures of
    `npts` configs, and their states when n is given."""
    shape = (npts, trials, ncp)
    return montecarlo._Measures(
        np.empty(shape), np.empty(shape),
        np.full(shape[:2], -1, dtype=np.int64), None if n is None else np.empty((*shape, n)))


def dense_tables(cdf):
    """Partner tables of dense (n, n) row CDFs: each column's own index."""
    return cdf, np.tile(np.arange(cdf.shape[1], dtype=np.int32), (len(cdf), 1))


def compiled_kernel():
    if _native.library() is None:
        pytest.skip("no C compiler here to build the slot kernel")
    return montecarlo._KernelSlots


# the two implementations of the engine's slots, which share one interface
SLOTS = {"kernel": compiled_kernel, "numpy": lambda: montecarlo._NumpySlots}


@pytest.mark.parametrize("slots", SLOTS)
@pytest.mark.parametrize("matrix", PARTNER_MATRICES.values(), ids=PARTNER_MATRICES)
def test_partner_is_searchsorted_right(matrix, slots):
    """Both slot implementations, on the matrix's padded partner tables,
    pick the partner the scalar path picks by searchsorted(side="right") on
    the dense row CDFs, also for draws that equal a CDF entry, sit next to
    one or fall on a plateau of zero-weight or absorbed entries. Each probe
    is one trial of one slot, its draws put in its stream, that attracts
    with T = 1 on the ramp 1, ..., n, which swaps x_i and x_j: x_i then
    reads j + 1 and x_j reads i + 1."""
    m = matrix()
    n = m.n
    cdfs = row_cdfs(m)
    rows, draws = partner_probes(m)
    probes = np.arange(len(draws))
    node = np.floor((rows + 0.5) / n * 2.0 ** 53) / 2.0 ** 53
    u = np.stack([node, draws, np.zeros(len(draws))], axis=1)  # a third draw of 0.0 attracts
    out = chunk_out(1, len(draws), 1, n)
    chunk = SLOTS[slots]()(streams_at(u), InitialState(kind="ramp"), m.partner_tables(),
                           (0.5, 0.5), UpdateMode(), out)
    chunk.run(np.array([[[0.0, 1.0, 1.0, 0.0]]]), 0, 0)  # 1 - T, T, 1 + S, S
    x = out.states[0, :, 0]
    j = x[probes, rows].astype(int) - 1
    np.testing.assert_array_equal(
        j, [_partner_from_uniform(cdfs[r], v) for r, v in zip(rows, draws)])
    np.testing.assert_array_equal(x[probes, j], rows + 1)
    assert (out.diverged_at == -1).all()


def test_partner_tables_are_padded_per_row():
    """The tables' width is the most positive entries in a row: n - 1 on
    the complete graph, the hub's on a star, where each leaf's row is its
    one entry padded with 1.0 and the hub's column."""
    assert graph.generate("complete", 12).partner_tables()[0].shape == (12, 11)
    cdf, cols = validate(star_rows(20)).partner_tables()
    assert cdf.shape == cols.shape == (20, 19)
    assert (cdf[1:] == 1.0).all() and (cols[1:] == 0).all()
    assert (cols[0] == np.arange(1, 20)).all() and cdf[0, -1] == 1.0


def test_kernel_refuses_arguments_it_cannot_read():
    """Pointers reach the kernel only for arrays of its dtypes, shapes and
    C layout, weights of the chunk's configs and checkpoints of the
    chunk."""
    n, m, npts, ncp = 4, 3, 2, 2
    kernel = compiled_kernel()

    def args(**bad):
        return {"streams": montecarlo._streams(0, 0, m), "initial": InitialState(kind="ramp"),
                "tables": dense_tables(np.ones((n, n))), "thr": (0.5, 0.5), "mode": UpdateMode(),
                "out": chunk_out(npts, m, ncp, n), **bad}

    slots = kernel(**args())
    slots.run(np.ones((5, npts, 4)), 0, 1)
    for ci in (2, -2):
        with pytest.raises(ValueError, match="slot kernel arguments"):
            slots.run(np.ones((1, npts, 4)), 0, ci)
    for w in (np.ones((5, npts, 3)), np.ones((5, npts + 1, 4)), np.ones((5, npts * 4)),
              np.ones((5, npts, 4), dtype=np.float32), np.ones((4, npts, 5))[:, :, :4]):
        with pytest.raises(ValueError, match="slot kernel arguments"):
            slots.run(w, 0)
    out = chunk_out(npts, m, ncp, n)
    for key, bad in (("streams", np.zeros((m, montecarlo.STREAM_WORDS), dtype=np.int64)),
                     ("streams", montecarlo._streams(0, 0, m + 1)),
                     ("streams", montecarlo._streams(0, 0, m)[:, :-1]),
                     ("streams", np.asfortranarray(montecarlo._streams(0, 0, m))),
                     ("tables", (np.ones((n, n + 1)), dense_tables(np.ones((n, n)))[1])),
                     ("tables", dense_tables(np.ones((n, n), dtype=np.float32))),
                     ("tables", (np.ones((n, 2)), np.zeros((n, 2), dtype=np.int64))),
                     ("tables", (np.ones((n, 2)), np.zeros((n, 3), dtype=np.int32))),
                     ("tables", (np.ones((n, 2)), np.full((n, 2), n, dtype=np.int32))),
                     ("tables", (np.ones((n, 2)), np.full((n, 2), -1, dtype=np.int32))),
                     ("tables", (np.ones((n, 0)), np.zeros((n, 0), dtype=np.int32))),
                     ("out", dataclasses.replace(out, spread=np.empty((npts, m, ncp + 1)))),
                     ("out", dataclasses.replace(out, diverged_at=np.full((npts, m + 1), -1))),
                     ("out", dataclasses.replace(out, diverged_at=np.full((npts, m), -1,
                                                                          dtype=np.int32))),
                     ("out", dataclasses.replace(out, states=np.empty((npts, m, ncp, n + 1)))),
                     ("out", dataclasses.replace(
                         out, dispersion=np.empty((ncp, m, npts)).transpose(2, 1, 0)))):
        with pytest.raises(ValueError, match="slot kernel arguments"):
            kernel(**args(**{key: bad}))


# keys at the corners of the key space, and counters about to carry
STREAM_KEYS = [(0, 0), (7, 3), (2 ** 63 + 5, 11), (2 ** 64 - 1, 2 ** 40)]


def philox(seed, trial):
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


def assert_stream_is(row, gen):
    state = gen.bit_generator.state
    assert row[:2].tolist() == state["state"]["key"].tolist()
    assert row[2:6].tolist() == state["state"]["counter"].tolist()
    assert row[-1] == state["buffer_pos"]
    if row[-1] < 4:  # a spent buffer is never read again
        assert row[6:10].tolist() == state["buffer"].tolist()


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 7, 9, 13])
def test_kernel_stream_is_numpys_philox(count):
    """The kernel's uniforms are numpy's `Philox(key=[seed, trial]).random()`.
    Uniform initial states on [0, 1) (low + 1.0 * u is u) of `count` nodes
    give the first `count`, then, from that offset, which is not always a
    multiple of 4, the next `count`; after them, and after five 3-draw
    slots more, each stream's counter, buffer and position are numpy's."""
    kernel = compiled_kernel()
    streams = np.concatenate([montecarlo._streams(seed, t, t + 1) for seed, t in STREAM_KEYS])
    gens = [philox(seed, t) for seed, t in STREAM_KEYS]
    for _ in range(2):
        out = chunk_out(1, len(gens), 1)
        slots = kernel(streams, InitialState(kind="uniform", low=0.0, high=1.0),
                       dense_tables(np.ones((count, count))), (0.0, 1.0), UpdateMode(), out)
        for row, x, gen in zip(streams, slots.x[0], gens):
            assert_same_text(x.tobytes(), gen.random(count).tobytes(), "uniform start")
            assert_stream_is(row, gen)
    slots.run(np.ones((5, 1, 4)), 0)  # thresholds (0.0, 1.0): every slot neglects
    for row, gen in zip(streams, gens):
        gen.random(15)
        assert_stream_is(row, gen)
    # the counter carries from word 0 into words 1 to 3
    streams = montecarlo._streams(5, 9, 10)
    streams[0, 2:6] = [2 ** 64 - 1, 2 ** 64 - 1, 2 ** 64 - 1, 4]
    gen = philox(5, 9)
    gen.bit_generator.state = {**gen.bit_generator.state,
                               "state": {"counter": streams[0, 2:6].copy(), "key": streams[0, :2]}}
    slots = kernel(streams, InitialState(kind="uniform", low=0.0, high=1.0),
                   dense_tables(np.ones((count, count))), (0.0, 1.0), UpdateMode(),
                   chunk_out(1, 1, 1))
    assert_same_text(slots.x[0, 0].tobytes(), gen.random(count).tobytes(), "uniform start")
    assert_stream_is(streams[0], gen)


def test_kernel_path_builds_no_generator(monkeypatch):
    """Where the kernel builds, the engine makes no numpy `Generator`: not
    for the uniform initial states, not for the slots."""
    compiled_kernel()

    def refuse(*args):
        raise AssertionError("the kernel path built a Generator")

    monkeypatch.setattr(montecarlo, "_trial_rng", refuse)
    cfg = make_config(validate(REF_ROWS), variant="asymmetric", trials=300, steps=50,
                      initial=InitialState(kind="uniform", low=-1.0, high=1.0))
    assert np.isfinite(whole(run_trials(cfg), "dispersion")).all()


@settings(max_examples=150)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9), trials=st.integers(1, 6),
       npts=st.integers(1, 3), blocks=st.lists(st.integers(0, 12), min_size=1, max_size=3),
       presample=st.integers(1, 8), uniform=st.booleans(), states=st.booleans(),
       mode=st.sampled_from([UpdateMode(), UpdateMode("asymmetric", "uniform"),
                             UpdateMode("asymmetric", "initiator"),
                             UpdateMode("asymmetric", "responder")]))
def test_kernel_segments_match_the_numpy_loop(seed, n, trials, npts, blocks, presample, uniform,
                                              states, mode):
    """On inputs the engine never builds, the kernel and the numpy loop
    still give the same bits: unsorted CDF rows with repeated entries, of
    any width, and random partner columns (so i == j happens), weights of 0, 1e200, inf and nan, states at the
    overflow limit, trials frozen in some configs and in all, and blocks
    cut into random segments, some of them recorded, across presampling
    windows. Draws tie with CDF entries and event thresholds: some
    streams start with chosen words in their buffer (a node, a partner on
    a CDF entry, an event draw on a threshold and an active-rule draw of
    exactly 0.5), and event thresholds and CDF entries are also set to the
    draws the streams give at random later slots."""
    kernel = compiled_kernel()
    rng = np.random.default_rng(seed)
    key = int(rng.integers(2 ** 63)) * 2 + 1
    streams = montecarlo._streams(key, 10, 10 + trials)
    half = np.nextafter(0.5, 1.0)
    tied = rng.random(trials) < 0.5
    words = np.stack([rng.choice([0.0, 0.25, 0.5, 0.75], trials),
                      rng.choice([0.0, 0.25, 0.5, half], trials),
                      rng.choice([0.0, 0.5, 0.625], trials), np.full(trials, 0.5)], axis=1)
    streams[tied] = put_draws(streams[tied], words[tied])
    # each trial's draws, slot by slot after those of a uniform start
    start = n if uniform else 0
    count = start + sum(blocks) * mode.draws_per_slot
    draws = np.array([np.concatenate([words[r], philox(key, t).random(count)])[:count]
                      if tied[r] else philox(key, t).random(count)
                      for r, t in enumerate(range(10, 10 + trials))])
    draws = draws[:, start:].reshape(trials, sum(blocks), mode.draws_per_slot)
    width = int(rng.integers(1, n + 2))
    cdf = rng.choice([0.0, 0.25, 0.5, 0.5, 1.0, half], (n, width))
    cols = rng.integers(0, n, (n, width)).astype(np.int32)
    thr = [0.0, 0.5, 0.625, 1.0]
    if sum(blocks):
        picks = rng.integers(0, [trials, sum(blocks)], (4, 2))
        thr += draws[picks[:2, 0], picks[:2, 1], 2].tolist()
        for node, partner in draws[picks[2:, 0], picks[2:, 1], :2]:
            cdf[min(int(node * n), n - 1), rng.random(width) < 0.5] = partner
    cdf[:, -1] = 1.0
    initial = InitialState(kind="uniform", low=-2.0, high=3.0) if uniform \
        else InitialState(kind="ramp")
    thr = tuple(sorted(rng.choice(thr, 2)))
    x = rng.normal(size=(npts, trials, n)) * rng.choice([1.0, 1e75, 1e150], (npts, 1, 1))
    x[rng.random(x.shape) < 0.05] = OVERFLOW_LIMIT
    alive = rng.random((npts, trials)) < 0.8
    w_pool = [0.0, 0.25, 1.0, 3.0, 1e200, np.inf, np.nan]
    ws = [rng.choice(w_pool, (b, npts, 4)) for b in blocks]
    cuts = [sorted({0, b, *rng.integers(0, b + 1, 3).tolist()}) for b in blocks]
    ncp = sum(len(c) for c in cuts)
    records = rng.random(ncp) < 0.7
    outs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "PRESAMPLE_STEPS", presample)
        for impl in (kernel, montecarlo._NumpySlots):
            out = chunk_out(npts, trials, ncp, n if states else None)
            slots = impl(streams.copy(), initial, (cdf, cols), thr, mode, out)
            started = slots.x.copy()
            if not uniform:  # the draws of uniform starts keep them
                slots.x[...] = x
            slots.alive[...] = alive
            out.diverged_at[...] = np.where(alive, -1, 7)
            out.dispersion[...] = out.spread[...] = np.nan
            if states:
                out.states[...] = np.nan
            ci, k = 0, 40
            for w, cut in zip(ws, cuts):
                for s0, s1 in zip([0, *cut], cut):
                    slots.run(w[s0:s1], k + s0, ci if records[ci] else -1)
                    ci += 1
                k += len(w)
            outs.append([started, slots.x, slots.alive, slots.refs,
                         *(a for a in vars(out).values() if a is not None)])
    for got, want in zip(*outs, strict=True):
        assert_same_text(got.tobytes(), want.tobytes(), "chunk arrays")


def assert_same_measures(got, want):
    """Equal bits, except that a nan may be any nan: numpy and the kernel
    may be compiled to add the two operands of a sum in either order,
    which picks between two nans."""
    both_nan = np.isnan(got) & np.isnan(want)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert_same_text(got[~both_nan].tobytes(), want[~both_nan].tobytes(), "measures")


@st.composite
def measure_states(draw):
    n = draw(st.integers(1, 300) | st.sampled_from([1000, 1025]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    npts, trials = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    x = rng.normal(size=(npts, trials, n)) * 10.0 ** rng.integers(-3, 4, (npts, trials, n))
    special = rng.random(x.shape) < draw(st.sampled_from([0.0, 0.02, 0.3, 1.0]))
    x[special] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300], special.sum(),
                            p=draw(st.sampled_from([None, [0.45, 0.45, 0.02, 0.02, 0.02,
                                                           0.02, 0.02]])))
    refs = rng.normal(size=trials) * rng.choice([0.0, 1.0, 1e200], trials)
    refs[rng.random(trials) < 0.1] = rng.choice([np.inf, np.nan])
    return x, refs


@settings(max_examples=300)
@given(case=measure_states())
def test_kernel_measures_are_numpys(case):
    """At a checkpoint the kernel records numpy's `((x - ref) ** 2).sum()`
    and `x.max() - x.min()` of every state row, the numpy twin's measures,
    bit for bit: n from 1 to 300 crosses the 8 and 128 boundaries of
    numpy's pairwise sum and 1000 and 1025 nest its splits, and rows hold
    +0.0 and -0.0 in any mix, nan, +-inf and sums that overflow, which the
    engine's states never do."""
    x, refs = case
    npts, trials, n = x.shape
    out = chunk_out(npts, trials, 1, n)
    slots = compiled_kernel()(montecarlo._streams(0, 0, trials), InitialState(kind="ramp"),
                              dense_tables(np.ones((n, n))), (0.5, 0.5), UpdateMode(), out)
    slots.x[...] = x
    slots.refs[...] = refs
    slots.run(np.empty((0, npts, 4)), 0, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_measures(out.dispersion[:, :, 0], ((x - refs[:, None]) ** 2).sum(axis=2))
        assert_same_measures(out.spread[:, :, 0], x.max(axis=2) - x.min(axis=2))
    assert_same_text(out.states[:, :, 0].tobytes(), x.tobytes(), "states")


def exact_kurtosis(columns):
    """The excess kurtosis with fourth powers by `** 4`, the form whose
    flags `_excess_kurtosis` must give."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        centered = columns - columns.mean(axis=0)
        m2 = (centered ** 2).mean(axis=0)
        m4 = (centered ** 4).mean(axis=0)
        kurt = np.where(m2 > 0.0, m4 / np.where(m2 > 0.0, m2, 1.0) ** 2 - 3.0, 0.0)
    return np.where(np.isfinite(kurt), kurt, np.inf)


def near_threshold(rows, groups, width):
    """`groups` groups of `width` columns that sit within an ulp or so of
    HEAVY_TAIL_KURTOSIS in the `** 4` form, on both sides: in each group a
    normal sample and one outlier v about 10 N^(1/4) sigma out, with v at
    and around the point where the kurtosis of the whole matrix crosses
    the threshold (the order of a column's sum depends on the matrix)."""
    columns = np.empty((rows, groups * width))
    for g in range(groups):
        group = columns[:, g * width:(g + 1) * width]
        group[:] = np.random.default_rng([rows, g]).normal(size=(rows, 1))
        mid = width // 2
        lo, hi = 0.0, 20.0 * rows ** 0.25
        while True:
            v = lo + (hi - lo) / 2
            if v in (lo, hi):
                break
            group[-1, mid] = v
            kurt = exact_kurtosis(columns[:, :(g + 1) * width])[g * width + mid]
            lo, hi = (v, hi) if kurt <= montecarlo.HEAVY_TAIL_KURTOSIS else (lo, v)
        for c in range(width):
            group[-1, c] = lo
            for _ in range(abs(c - mid)):
                group[-1, c] = np.nextafter(group[-1, c], np.inf if c > mid else 0.0)
    return columns


@pytest.mark.parametrize("rows, groups", [(20, 6), (40, 6), (8192, 1)])
def test_fast_kurtosis_flags_are_the_exact_ones(rows, groups):
    """The heavy-tail flags of `_excess_kurtosis`, which squares twice,
    equal those of the `** 4` form: on columns within an ulp of the
    threshold, where the two forms part, on columns scaled so far down
    that their fourth powers are subnormal or so far up that they
    overflow, and on constant columns and columns with inf."""
    rng = np.random.default_rng(rows)
    heavy = rng.standard_t(3.0, size=(rows, 8)) ** 2
    scaled = heavy[:, :1] * np.array([1e-70, 1e-78, 1e-80, 1e-100, 1e-160, 1e60, 1e76, 1e77,
                                      1e80])
    odd = np.stack([np.full(rows, 2.5), np.where(np.arange(rows) == 3, np.inf, 1.0)], axis=1)
    near = near_threshold(rows, groups, 25)
    columns = np.concatenate([near, heavy, scaled, odd], axis=1)
    width = near.shape[1]
    exact = exact_kurtosis(columns)
    threshold = montecarlo.HEAVY_TAIL_KURTOSIS
    assert (exact[:width] > threshold).any() and (exact[:width] <= threshold).any()
    if rows < 100:
        # where an ulp of v moves the kurtosis the most, squaring twice
        # alone puts some columns on the wrong side of the threshold
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            squares = (columns - columns.mean(axis=0)) ** 2
            raw = (squares * squares).mean(axis=0) / squares.mean(axis=0) ** 2 - 3.0
        assert ((raw > threshold) != (exact > threshold))[:width].any()
    fast = montecarlo._column_stats(columns, kurtosis=True)[2]
    np.testing.assert_array_equal(fast > threshold, exact > threshold)
    np.testing.assert_allclose(fast, exact, rtol=1e-10)


# values where sums and powers part: signed zeros, subnormals, overflow
SPECIAL_VALUES = (np.inf, -np.inf, np.nan, -0.0, 5e-324, 1e-310, 1e300, -1e300)


@st.composite
def blocked_matrices(draw):
    """(block bytes, matrix): 1 to 40 columns, 1 to 3 blocks + 1 rows of
    that block, which may be narrower than one row; per column a scale (0,
    whose negative entries are -0.0, subnormal fourth powers, normal or
    overflowing ones), and some entries set to SPECIAL_VALUES."""
    block = draw(st.sampled_from([8, 40, 96, 256, 1024]))
    cols = draw(st.integers(1, 2) | st.integers(1, 40))  # one column sums pairwise
    step = max(1, block // (8 * cols))
    rows = draw(st.integers(1, 3 * step + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scales = draw(st.lists(st.sampled_from([0.0, 1e-160, 1.0, 1e80]), min_size=cols,
                           max_size=cols))
    matrix = rng.standard_t(3.0, size=(rows, cols)) * np.array(scales)
    for at, v in draw(st.lists(st.tuples(st.integers(0, rows * cols - 1),
                                         st.sampled_from(SPECIAL_VALUES)), max_size=4)):
        matrix.flat[at] = v
    return block, matrix


def same_bits(got, want, name):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, name
    assert (got.view(np.uint64) == want.view(np.uint64)).all(), \
        f"{name}: {got.tolist()} != {want.tolist()}"


@settings(max_examples=200)
@given(blocked_matrices())
def test_blocked_aggregation_has_the_whole_matrix_bits(case):
    """Aggregation sums a matrix in blocks of rows, each block's sum
    starting from the sums so far: its column sums, mean, var(ddof=1) and
    excess kurtosis have the bits of numpy's over the whole matrix
    (`reference.column_stats`), with inf, nan, -0.0, subnormals and 1e300
    among the entries, a column summed pairwise, and rows wider than a
    block."""
    block, matrix = case
    with mock.patch.object(montecarlo, "AGGREGATE_BLOCK", block), \
            np.errstate(over="ignore", invalid="ignore"):
        sums = montecarlo._column_sums(matrix, lambda rows: (rows, rows * rows))
        got = montecarlo._column_stats(matrix, kurtosis=True)
        same_bits(sums[0], column_sums(matrix, lambda m: m), "sum")
        same_bits(sums[1], column_sums(matrix, lambda m: m * m), "sum of squares")
        without = montecarlo._column_stats(matrix)
    want = column_stats(matrix)
    for name, g, w in zip(("mean", "var", "kurtosis"), got, want):
        same_bits(g, w, name)
    assert without[2] is None
    for name, g, w in zip(("mean", "var"), without, want):
        same_bits(g, w, f"{name} without the kurtosis")


def test_freeze_case_actually_freezes(ref_matrix):
    cfg = parity_cases(ref_matrix)[-1]
    mats = run_trials(cfg)
    assert whole(mats, "states") is None  # kept only when asked for
    assert (mats.diverged_at >= 0).all()
    assert np.isfinite(whole(mats, "dispersion")).all()
    # every checkpoint after the freeze repeats the frozen value
    for t in range(cfg.trials):
        frozen_from = mats.diverged_at[t]
        vals = whole(mats, "spread")[t][np.array(cfg.checkpoints) >= frozen_from]
        assert len(set(vals.tolist())) == 1


def test_run_experiment_is_deterministic(ref_matrix):
    cfg = make_config(ref_matrix, trials=20, steps=60, seed=123)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    np.testing.assert_array_equal(a.mean_l, b.mean_l)
    np.testing.assert_array_equal(a.var_spread, b.var_spread)
    assert a.classifications == b.classifications
    assert a.config_hash == b.config_hash


def test_results_do_not_depend_on_chunking(ref_matrix):
    """Rows on both sides of a trial-chunk boundary and in the last, partial
    chunk equal the scalar path for that trial alone."""
    cfg = make_config(ref_matrix, trials=600, steps=30, seed=77)
    mats = run_trials(cfg, states=True)
    classifications = classify_trials(cfg, mats)
    for t in (0, 255, 256, 599):
        assert_trial_matches_scalar_path(cfg, mats, classifications, t)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_initial_checkpoint_is_exact(ref_matrix):
    res = run_experiment(make_config(ref_matrix, trials=50, steps=20, seed=3))
    assert res.mean_l[0] == 5.0
    assert res.var_l[0] == 0.0
    assert res.ci_l[0] == 0.0
    assert res.mean_spread[0] == 3.0


def test_single_trial_has_zero_variance(ref_matrix):
    res = run_experiment(make_config(ref_matrix, trials=1, steps=20))
    assert (res.var_l == 0.0).all()
    assert (res.ci_l == 0.0).all()


def test_pure_neglect_changes_nothing(ref_matrix):
    cfg = make_config(ref_matrix, alpha=0.0, beta=1.0, gamma=0.0,
                      trials=10, steps=50)
    res = run_experiment(cfg)
    assert (res.mean_l == 5.0).all()
    assert (res.mean_spread == 3.0).all()
    assert (res.var_l == 0.0).all()


def test_counts_sum_to_trials(ref_matrix):
    res = run_experiment(make_config(ref_matrix, trials=40, steps=100, seed=2))
    assert sum(res.counts.values()) == 40
    assert len(res.classifications) == 40
    assert all(isinstance(c, Classification) for c in res.classifications)


def test_big_m_below_initial_spread_fails(ref_matrix):
    cfg = make_config(ref_matrix, big_m=1.0, trials=2, steps=5)
    with pytest.raises(BadParameterError, match="initial spread"):
        run_experiment(cfg)


def test_one_slot_mean_matches_second_moment_form(ref_matrix):
    """Simulated E[L(1)] agrees with the analytic one-slot expectation."""
    cfg = make_config(ref_matrix, s=0.11143782776614765, trials=20000,
                      steps=1, seed=42, checkpoints=(0, 1))
    res = run_experiment(cfg)
    x0 = np.array([1.0, 2.0, 3.0, 4.0])
    dev = x0 - x0.mean()
    m = expected_second_moment_matrix(ref_matrix, cfg.probabilities,
                                      0.25, 0.11143782776614765)
    form = float(dev @ m @ dev)
    se = math.sqrt(res.var_l[1] / cfg.trials)
    assert abs(res.mean_l[1] - form) <= 4.0 * se


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_set_by_path():
    d = base_dict()
    set_by_path(d, "schedules.S.value", 0.2)
    assert d["schedules"]["S"]["value"] == 0.2
    set_by_path(d, "bigM", 1e7)  # final key may be new
    assert d["bigM"] == 1e7
    with pytest.raises(BadAxisError):
        set_by_path(d, "schedules.X.value", 0.2)
    with pytest.raises(BadAxisError):
        set_by_path(d, "steps.value", 0.2)
    with pytest.raises(BadAxisError):
        set_by_path(d, "", 0.2)
    with pytest.raises(BadAxisError):
        set_by_path(d, "a..b", 0.2)


def test_sweep_value_validation():
    d = base_dict()
    for bad in (True, float("inf"), float("nan"), "0.3"):
        with pytest.raises(BadAxisError):
            sweep(d, "schedules.S.value", [bad])
    with pytest.raises(BadAxisError, match="integer"):
        sweep(d, "steps", [10.5])


def test_sweep_integer_axis_takes_ints():
    points = sweep(base_dict(trials=2), "steps", [10.0, 20])
    assert [p.value for p in points] == [10, 20]
    assert all(type(p.value) is int for p in points)
    assert [p.result.checkpoints[-1] for p in points] == [10, 20]
    # generator parameters that count edges or seed a draw are integers too
    ws = base_dict(trials=2, matrix={"kind": "watts_strogatz", "n": 8, "kNn": 2,
                                     "pRewire": 0.1, "seed": 3})
    assert [p.value for p in sweep(ws, "matrix.kNn", [2.0, 4.0])] == [2, 4]


def test_sweep_points_match_direct_runs():
    d = base_dict(trials=8, steps=30)
    points = sweep(d, "schedules.S.value", [0.02, 0.02, 0.1])
    # identical values give identical aggregates (common random numbers)
    np.testing.assert_array_equal(points[0].result.mean_l, points[1].result.mean_l)
    assert points[0].result.config_hash == points[1].result.config_hash
    assert points[2].result.config_hash != points[0].result.config_hash

    direct = base_dict(trials=8, steps=30)
    set_by_path(direct, "schedules.S.value", 0.1)
    want = run_experiment(config_from_dict(direct))
    np.testing.assert_array_equal(points[2].result.mean_l, want.mean_l)
    # each point carries its analytic report
    assert points[2].report.d0 == pytest.approx(
        0.1 * 1.1 / 3 - 0.25 * 0.75 / 3, abs=1e-15)


@pytest.mark.parametrize("axis, values, matrix, shared", [
    ("schedules.S.value", [0.02, 0.1, 0.2],
     {"kind": "explicit", "rows": exponent_rows(12, 6, distinct=False)}, True),
    # a rewiring chance of 1e-12 rewires nothing: the same lattice
    ("matrix.pRewire", [0.0, 1e-12],
     {"kind": "watts_strogatz", "n": 12, "kNn": 4, "pRewire": 0.0, "seed": 3}, True),
    ("matrix.seed", [3, 4],
     {"kind": "watts_strogatz", "n": 12, "kNn": 4, "pRewire": 0.5, "seed": 3}, False),
], ids=["schedule", "same-lattice", "other-graphs"])
def test_sweep_points_share_a_matrix_of_the_same_bits(monkeypatch, axis, values, matrix,
                                                      shared):
    """Points whose matrix entries have the same bits share one matrix and
    one spectral solve, and each point's hash and lambdas are still those
    of its config built alone; entries such as -0.0 keep their text."""
    solves = []
    lanczos = graph._lanczos
    monkeypatch.setattr(graph, "_lanczos", lambda m: solves.append(1) or lanczos(m))
    d = base_dict(trials=4, steps=10, matrix=matrix)
    points = sweep(d, axis, values)
    assert len(solves) == (1 if shared else len(values))
    assert (points[0].report.spectral is points[-1].report.spectral) == shared
    for point, v in zip(points, values):
        alone = deepcopy(d)
        set_by_path(alone, axis, v)
        cfg = config_from_dict(alone)
        assert point.result.config_hash == config_hash(cfg)
        alone_sp = graph.spectral(cfg.matrix)
        assert [point.report.spectral.lambda2.hex(), point.report.spectral.lambda_n.hex()] \
            == [alone_sp.lambda2.hex(), alone_sp.lambda_n.hex()]


@pytest.mark.parametrize("axis, values, given_matrix, calls", [
    ("schedules.S.value", [0.02, 0.1, 0.2], False, 1),
    ("schedules.S.value", [0.02, 0.1, 0.2], True, 0),
    ("matrix.seed", [3, 4, 5], True, 3),
], ids=["schedule", "schedule-given-matrix", "matrix-seed"])
def test_sweep_generates_a_network_once_per_matrix_section(monkeypatch, axis, values,
                                                          given_matrix, calls):
    """Along an axis outside `matrix` the points hold one matrix: the one
    given, or else the first point's, generated once. Along `matrix.seed`
    each point generates its own, given matrix or not."""
    d = base_dict(trials=4, steps=10, matrix={"kind": "watts_strogatz", "n": 12, "kNn": 4,
                                              "pRewire": 0.5, "seed": 3})
    base = config_from_dict(d).matrix
    made = []
    generate = montecarlo.generate
    monkeypatch.setattr(montecarlo, "generate",
                        lambda *a, **k: made.append(a) or generate(*a, **k))
    points = sweep(d, axis, values, matrix=base if given_matrix else None)
    assert len(made) == calls
    if calls <= 1:
        assert points[0].report.spectral is points[-1].report.spectral
    for point, v in zip(points, values):
        alone = deepcopy(d)
        set_by_path(alone, axis, v)
        assert point.result.config_hash == config_hash(config_from_dict(alone))


@pytest.mark.parametrize("axis, values", [
    ("schedules.S.value", [0.02, 0.2]),
    ("bigM", [1e7, 1e8]),
    ("steps", [10, 20]),
])
def test_sweep_copies_only_its_axis_path(monkeypatch, axis, values):
    """A sweep leaves its document as it was, and each point's document
    holds the value along the axis and shares the rest, the matrix rows
    among it: no point copies `matrix.rows`."""
    d = base_dict(trials=4, steps=10, matrix={"kind": "explicit",
                                              "rows": exponent_rows(9, 4, distinct=True)})
    before = json.dumps(d)
    rows = d["matrix"]["rows"]
    docs = []
    build = montecarlo.config_from_dict
    monkeypatch.setattr(montecarlo, "config_from_dict",
                        lambda doc, *a, **k: docs.append(doc) or build(doc, *a, **k))
    sweep(d, axis, values)
    assert json.dumps(d) == before
    assert [doc["matrix"]["rows"] is rows for doc in docs] == [True] * len(values)
    for doc, v in zip(docs, values):
        want = json.loads(before)
        set_by_path(want, axis, v)
        assert json.dumps(doc) == json.dumps(want)


def assert_same_result(got, want):
    for name in ("mean_l", "var_l", "ci_l", "mean_spread", "var_spread", "ci_spread",
                 "diverged_at"):
        assert_same_text(getattr(got, name).tobytes(), getattr(want, name).tobytes(), name)
    for name in ("config_hash", "checkpoints", "trials", "counts", "classifications",
                 "heavy_tail_checkpoints"):
        assert getattr(got, name) == getattr(want, name), name


@pytest.fixture()
def shared_passes(monkeypatch):
    """The configs of every engine pass `sweep` makes."""
    passes = []
    run = montecarlo.run_shared_trials

    def spy(configs, states=False):
        passes.append(configs)
        return run(configs, states)

    monkeypatch.setattr(montecarlo, "run_shared_trials", spy)
    return passes


def direct_results(d, axis, values):
    out = []
    for v in values:
        point = deepcopy(d)
        set_by_path(point, axis, v)
        out.append(run_experiment(config_from_dict(point)))
    return out


@pytest.mark.parametrize("axis, values, overrides", [
    ("seed", [11, 12, 11], {}),
    ("steps", [20, 35], {}),
    ("k0", [0, 9], {}),
    ("matrix.seed", [3, 4], {"matrix": {"kind": "watts_strogatz", "n": 8, "kNn": 2,
                                        "pRewire": 0.5, "seed": 3}}),
    # thresholds 5e-13 apart: the events would almost never differ, so only
    # the pass count shows the points were kept apart
    ("probabilities.alpha", [1 / 3, 1 / 3 + 5e-13], {}),
    ("initial.high", [2.0, 3.0], {"initial": {"kind": "uniform", "low": 0.0, "high": 2.0}}),
])
def test_sweep_never_shares_a_pass_across_draws(shared_passes, axis, values, overrides):
    """Along an axis that changes the pairs, events or initial states, only
    equal points share a pass, and every point equals its direct run."""
    d = base_dict(trials=6, steps=20, **overrides)
    points = sweep(d, axis, values)
    assert sum(len(p) for p in shared_passes) == len(values)
    assert len(shared_passes) == len(set(values))
    for configs in shared_passes:
        assert len({config_hash(cfg) for cfg in configs}) == 1
    for point, want in zip(points, direct_results(d, axis, values)):
        assert_same_result(point.result, want)


@pytest.mark.parametrize("axis, values", [("epsAgree", [1e-9, 0.05, 2.0]),
                                          ("bigM", [3.5, 6.0, 1e9])])
def test_sweep_shares_one_pass_along_thresholds(shared_passes, axis, values):
    """Points that differ only in epsAgree or bigM run through one pass and
    are still classified each by its own threshold."""
    d = base_dict(trials=60, steps=200, schedules={"T": {"value": 0.25},
                                                   "S": {"value": 0.16143782776614765}})
    points = sweep(d, axis, values)
    assert [len(p) for p in shared_passes] == [3]
    assert len({str(p.result.counts) for p in points}) == 3
    for point, want in zip(points, direct_results(d, axis, values)):
        assert_same_result(point.result, want)


def test_sweep_attraction_weights_all_reach_agreement():
    d = base_dict(trials=30, steps=2000, seed=5)
    d["probabilities"] = {"alpha": 2 / 3, "beta": 1 / 3, "gamma": 0.0}
    points = sweep(d, "schedules.T.value", [0.1, 0.5, 0.9])
    for p in points:
        assert p.result.counts["nAgreed"] >= 27, p.value



def traced_peak(run) -> int:
    """The peak of numpy and Python memory that `run()` allocates above
    what it starts with, under tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def one_points_bytes(cfg) -> int:
    """Dispersion, spread and diverged_at of one config: 2,818,048 bytes at
    8192 trials and 21 checkpoints."""
    return cfg.trials * (2 * len(cfg.checkpoints) + 1) * 8


def wide_config(twin: bool) -> dict:
    """8192 trials and 21 checkpoints; the twin runs 20 slots."""
    steps = 20 if twin else 200
    return base_dict(trials=8192, steps=steps, checkpoints=list(range(0, steps + 1, steps // 20)))


@pytest.mark.parametrize("twin", [False, True], ids=["kernel", "twin"])
def test_a_sweep_holds_one_points_matrices_at_a_time(shared_passes, monkeypatch, twin):
    """Three points along schedules.S.value share one pass of 8192 trials
    and 21 checkpoints. The pass writes every point's matrices to its
    temporary file, and the sweep aggregates each from there in blocks of
    rows, so its traced peak stays within half of one point's matrices
    (2.8 MB) and 1 MiB. Holding one point's matrices in memory, or a
    whole-matrix temporary in aggregation, adds about one point's."""
    if not twin and _native.library() is None:
        pytest.skip("no C compiler here to build the slot kernel")
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)  # chunk buffers on any host
    d = wide_config(twin)
    gains = [0.11143782776614765, 0.16143782776614765, 0.21143782776614765]
    points = []
    with numpy_engine() if twin else nullcontext():
        sweep({**d, "trials": 4}, "schedules.S.value", gains)  # loads what the run loads
        peak = traced_peak(lambda: points.extend(sweep(d, "schedules.S.value", gains)))
    assert [len(p) for p in shared_passes] == [3, 3]
    cfg = config_from_dict(d)
    assert len(cfg.checkpoints) == 21 and len(points) == 3
    one = one_points_bytes(cfg)
    assert peak < 0.5 * one + (1 << 20), f"peak {peak / one:.2f} x one point's {one} bytes"


@pytest.mark.parametrize("twin", [False, True], ids=["kernel", "twin"])
def test_an_experiment_holds_no_trial_matrix(monkeypatch, twin):
    """`run_experiment` at 8192 trials and 21 checkpoints writes its
    matrices to the pass's temporary file and aggregates them from there in
    blocks of rows: its traced peak stays within half of its matrices' 2.8
    MB and 1 MiB, where holding them in memory takes all of it."""
    if not twin and _native.library() is None:
        pytest.skip("no C compiler here to build the slot kernel")
    monkeypatch.setattr(montecarlo, "_workers", lambda: 2)  # chunk buffers on any host
    cfg = config_from_dict(wide_config(twin))
    with numpy_engine() if twin else nullcontext():
        run_experiment(config_from_dict({**wide_config(twin), "trials": 4}))
        peak = traced_peak(lambda: run_experiment(cfg))
    assert len(cfg.checkpoints) == 21
    one = one_points_bytes(cfg)
    assert peak < 0.5 * one + (1 << 20), f"peak {peak / one:.2f} x its matrices' {one} bytes"


@pytest.mark.parametrize("axis, values, overrides, fails", [
    ("schedules.S.value", [0.02, 0.1, 0.2], {}, False),
    ("schedules.S.value", [0.02, 0.1, 0.2], {"bigM": 1.0}, True),
    ("bigM", [1e7, 1.0, 1e8], {}, True),
], ids=["done", "first-point-fails", "second-point-fails"])
def test_sweep_closes_the_spill_file_of_its_pass(monkeypatch, axis, values, overrides, fails):
    """A shared pass spills its points to a temporary file, which the sweep
    closes when the pass's points are done, and also when a point's
    aggregation raises (a bigM below the initial spread, 3), while the
    error and its traceback are still held."""
    files = []
    temporary_file = montecarlo.tempfile.TemporaryFile

    def spy(*args, **kwargs):
        files.append(temporary_file(*args, **kwargs))
        return files[-1]

    monkeypatch.setattr(montecarlo.tempfile, "TemporaryFile", spy)
    d = base_dict(trials=300, steps=20, **overrides)
    # `error` holds the traceback, and through it the sweep's frame
    with pytest.raises(BadParameterError, match="initial spread") if fails \
            else nullcontext() as error:
        sweep(d, axis, values)
    assert len(files) == 1
    assert files[0].closed, error
