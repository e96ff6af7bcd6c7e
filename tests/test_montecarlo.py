"""Experiment engine: config plumbing, trial parity, aggregation, sweeps.

The load-bearing test here is the scalar/vector parity battery: the vectorized
engine must reproduce the scalar reference path bit for bit, trial by trial,
for every update mode, including frozen (overflowed) trials.
"""

import csv
import dataclasses
import json
import math
import warnings
from copy import deepcopy
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import REF_ROWS, fnv1a64_reference, make_config
from gossipsim import montecarlo
from gossipsim.dynamics import EventProbabilities, Schedule, S_CLIP, T_CLIP, UpdateMode
from gossipsim.errors import BadAxisError, BadParameterError
from gossipsim.graph import json_with_rows, validate
from gossipsim.metrics import Classification
from gossipsim.montecarlo import (
    STEP_BLOCK,
    ExperimentConfig,
    InitialState,
    aggregate_json_dict,
    classify_trials,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_checkpoints,
    run_experiment,
    run_shared_trials,
    run_trial,
    run_trials,
    set_by_path,
    sweep,
    write_aggregate_csv,
    write_trajectory_csv,
)
from gossipsim.theory import expected_second_moment_matrix

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
    from gossipsim.graph import json_with_rows, validate
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
# Digests recorded with a per-byte FNV-1a loop over
# `json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))`.
PINNED_HASHES = {
    "paper_5_3_crit.json": "82665c6d2a63c0ce",
    "paper_5_3_high.json": "3eefaa0c2ad83d95",
    "paper_5_3_low.json": "05a8b3b2616caa5b",
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


@pytest.mark.parametrize("name", sorted(PINNED_HASHES))
def test_config_hash_is_pinned(name):
    path = CONFIGS / name
    cfg = config_from_dict(json.loads(path.read_text()), base_dir=path.parent)
    assert config_hash(cfg) == PINNED_HASHES[name]


def test_config_hash_is_pinned_on_a_generated_network():
    cfg = config_from_dict(WS1000)
    assert config_hash(cfg) == "28c56404f7e29e72"
    # the canonical text is json's own, with the matrix rows rendered once
    assert json_with_rows(montecarlo.config_outline(cfg), cfg.matrix, sort_keys=True) \
        == json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))


@given(data=st.binary(max_size=300), block=st.sampled_from([1, 8, 9, 61]))
def test_vectorized_fnv_matches_the_byte_loop(data, block):
    assert montecarlo._fnv1a64(data) == fnv1a64_reference(data)
    with mock.patch.object(montecarlo, "FNV_BLOCK", block):
        assert montecarlo._fnv1a64(data) == fnv1a64_reference(data)


@pytest.mark.parametrize("block", [8, 13, montecarlo.FNV_BLOCK])
def test_vectorized_fnv_matches_the_byte_loop_at_block_boundaries(monkeypatch, block):
    monkeypatch.setattr(montecarlo, "FNV_BLOCK", block)
    rng = np.random.default_rng(block)
    lengths = {0, 1, 2, 7, 8, 9} | {k * block + d for k in (1, 2) for d in (-1, 0, 1)}
    for n in sorted(lengths):
        data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        assert montecarlo._fnv1a64(data) == fnv1a64_reference(data), n
    high = bytes(range(0x80, 0x100)) * (block // 128 + 2)
    assert montecarlo._fnv1a64(high) == fnv1a64_reference(high)
    assert montecarlo._fnv1a64(b"") == 0xCBF29CE484222325


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
        # k0 > 0 across a step-block boundary of the engine
        make_config(ref_matrix, variant="asymmetric", active_rule="uniform",
                    trials=3, steps=STEP_BLOCK + 100, seed=15, k0=1000,
                    schedule_t=power_t, schedule_s=power_s,
                    checkpoints=(1000, 1000 + STEP_BLOCK - 1, 1000 + STEP_BLOCK,
                                 1000 + STEP_BLOCK + 1, 1000 + STEP_BLOCK + 100)),
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
        make_config(ref_matrix, trials=6, steps=10, seed=10,
                    alpha=0.0, beta=0.0, gamma=1.0, schedule_s=freeze_s,
                    checkpoints=tuple(range(11))),
    ]


def assert_trial_matches_scalar_path(cfg, mats, classifications, t):
    """Trial t of an engine run with states equals the scalar path bit for
    bit: every checkpoint's state, L, spread, freeze slot and class."""
    ref = run_trial(cfg, t)
    msg = f"trial {t} seed {cfg.base_seed}"
    assert mats.states[t].tobytes() == np.array([st.x for st in ref.states]).tobytes(), msg
    assert mats.dispersion[t].tobytes() == np.array(
        [s.dispersion for s in ref.samples]).tobytes(), msg
    assert mats.spread[t].tobytes() == np.array([s.spread for s in ref.samples]).tobytes(), msg
    assert mats.diverged_at[t] == (-1 if ref.diverged_at is None else ref.diverged_at), msg
    assert classifications[t] is ref.classification, msg


def test_vector_engine_matches_scalar_reference(ref_matrix):
    for cfg in parity_cases(ref_matrix):
        mats = run_trials(cfg, states=True)
        classifications = classify_trials(cfg, mats)
        for t in range(cfg.trials):
            assert_trial_matches_scalar_path(cfg, mats, classifications, t)


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
@given(cfg=fuzz_configs(), chunk=st.integers(1, 4), block=st.integers(1, 16),
       presample=st.integers(1, 8))
def test_engine_matches_scalar_path_on_generated_configs(cfg, chunk, block, presample):
    """Small trial chunks, step blocks and presampling slices put their
    boundaries in the middle of runs; every trial must still equal the
    scalar path bit for bit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "CHUNK_TRIALS", chunk)
        mp.setattr(montecarlo, "STEP_BLOCK", block)
        mp.setattr(montecarlo, "PRESAMPLE_STEPS", presample)
        mats = run_trials(cfg, states=True)
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
@given(points=shared_draw_points(), chunk=st.integers(1, 4), block=st.integers(1, 16),
       presample=st.integers(1, 8))
def test_shared_pass_matches_solo_runs_on_generated_configs(points, chunk, block, presample):
    """Every point of a shared pass equals `run_trials` on that point alone,
    byte for byte: measures, freeze slots and states. A small STEP_BLOCK
    also splits the points into several batches (configs x n floats of
    state may not exceed STEP_BLOCK x draws)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "CHUNK_TRIALS", chunk)
        mp.setattr(montecarlo, "STEP_BLOCK", block)
        mp.setattr(montecarlo, "PRESAMPLE_STEPS", presample)
        shared = list(run_shared_trials(points, states=True))
        solo = [run_trials(cfg, states=True) for cfg in points]
    assert len(shared) == len(points)
    for p, (got, want) in enumerate(zip(shared, solo)):
        assert got.checkpoints == want.checkpoints
        for a, b in zip(got.arrays(), want.arrays(), strict=True):
            assert a.tobytes() == b.tobytes(), f"point {p}"


def test_wide_shared_pass_is_split_into_batches(ref_matrix, monkeypatch):
    """With room for two configs' states per pass (3 slots x 3 draws // 4
    nodes), five points run as batches of 2, 2 and 1, two chunks each, and
    still equal their solo runs; trials freeze in the second point only."""
    monkeypatch.setattr(montecarlo, "STEP_BLOCK", 3)
    calls = []
    simulate_chunk = montecarlo._simulate_chunk

    def spy(cfgs, *args):
        calls.append(len(cfgs))
        simulate_chunk(cfgs, *args)

    monkeypatch.setattr(montecarlo, "_simulate_chunk", spy)
    points = [make_config(ref_matrix, s=s, trials=300, steps=20, seed=4,
                          alpha=0.2, beta=0.2, gamma=0.6)
              for s in (0.05, 1e120, 0.3, 0.05, 2.0)]
    shared = list(run_shared_trials(points))
    assert calls == [2, 2, 2, 2, 1, 1]
    assert (shared[1].diverged_at >= 0).any() and (shared[0].diverged_at < 0).all()
    for cfg, got in zip(points, shared):
        for a, b in zip(got.arrays(), run_trials(cfg).arrays(), strict=True):
            assert a.tobytes() == b.tobytes()


def test_shared_pass_refuses_configs_with_other_draws(ref_matrix):
    a = make_config(ref_matrix, seed=1)
    for other in (make_config(ref_matrix, seed=2), make_config(ref_matrix, steps=50),
                  make_config(ref_matrix, alpha=0.5, beta=1 / 6)):
        with pytest.raises(ValueError, match="share their draws"):
            list(run_shared_trials([a, other]))


@pytest.mark.parametrize("n", [3, 4, 17, 32, 33])
def test_presampled_partner_is_searchsorted_right(n):
    """The bisection returns what the scalar path's searchsorted(side="right")
    returns, also for draws that equal a CDF entry, sit next to one or fall
    on a plateau of zero-weight entries."""
    rng = np.random.default_rng(n)
    w = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    np.fill_diagonal(w, 0.0)
    w[np.arange(n), (np.arange(n) + 1) % n] += 0.25
    cdfs = validate(w / w.sum(axis=1, keepdims=True)).row_cdfs()
    rows, draws = [], []
    for r in range(n):
        for c in [0.0, *cdfs[r]]:
            for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)):
                if 0.0 <= v < 1.0:
                    rows.append(r)
                    draws.append(v)
    u = np.zeros((1, len(draws), 3))
    u[0, :, 0] = (np.array(rows) + 0.5) / n
    u[0, :, 1] = draws
    fij, _, _ = montecarlo._presample(u, np.zeros(1, dtype=np.int32), n, cdfs.reshape(-1),
                                      (0.5, 0.5), UpdateMode())
    np.testing.assert_array_equal(fij[:, 0, 0], rows)
    np.testing.assert_array_equal(
        fij[:, 1, 0], [np.searchsorted(cdfs[r], v, side="right") for r, v in zip(rows, draws)])


def test_freeze_case_actually_freezes(ref_matrix):
    cfg = parity_cases(ref_matrix)[-1]
    mats = run_trials(cfg)
    assert mats.states is None  # kept only when asked for
    assert (mats.diverged_at >= 0).all()
    assert np.isfinite(mats.dispersion).all()
    # every checkpoint after the freeze repeats the frozen value
    for t in range(cfg.trials):
        frozen_from = mats.diverged_at[t]
        vals = mats.spread[t][np.array(cfg.checkpoints) >= frozen_from]
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


def assert_same_result(got, want):
    for name in ("mean_l", "var_l", "ci_l", "mean_spread", "var_spread", "ci_spread",
                 "diverged_at"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
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


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def test_aggregate_csv_layout(ref_matrix, tmp_path):
    res = run_experiment(make_config(ref_matrix, trials=5, steps=20))
    out = tmp_path / "agg.csv"
    with out.open("w", newline="") as fh:
        write_aggregate_csv(res, fh)
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["k", "meanL", "varL", "ciL", "meanSpread", "varSpread",
                       "ciSpread", "nAgreed", "nDiverged", "nUndecided"]
    assert len(rows) == 1 + len(res.checkpoints)
    assert float(rows[1][1]) == 5.0


def test_aggregate_json_shape(ref_matrix):
    res = run_experiment(make_config(ref_matrix, trials=5, steps=20))
    doc = aggregate_json_dict(res)
    json.dumps(doc)  # must be serializable as-is
    assert set(doc) == {"configHash", "trials", "counts",
                        "heavyTailCheckpoints", "rows"}
    assert doc["rows"][0]["k"] == 0
    assert doc["rows"][0]["meanL"] == 5.0
    assert set(doc["rows"][0]) == {"k", "meanL", "varL", "ciL", "meanSpread",
                                   "varSpread", "ciSpread"}


def test_trajectory_csv_layout(ref_matrix, tmp_path):
    cfg = make_config(ref_matrix, trials=3, steps=10, checkpoints=(0, 5, 10))
    out = tmp_path / "traj.csv"
    with out.open("w", newline="") as fh:
        write_trajectory_csv(run_trials(cfg, states=True), fh)
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["trial", "k", "x_1", "x_2", "x_3", "x_4",
                       "H", "h", "spread", "L"]
    assert len(rows) == 1 + 3 * 3
    assert rows[1][:2] == ["0", "0"]
    assert [float(v) for v in rows[1][2:6]] == [1.0, 2.0, 3.0, 4.0]
