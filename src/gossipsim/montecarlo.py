"""Monte Carlo experiments over many independent trajectories.

Reproducibility contract: trial t of an experiment with seed s draws from
`Philox(key=[s, t])`, consuming uniforms in the fixed per-slot order defined
in `dynamics` (plus one optional vector of initial values before the first
slot). The vectorized engine (`run_trials`) is the simulation path of every
command; the scalar path (`run_trial`) is the independent reference it is
tested against. Both follow the same consumption order and use the same
arithmetic expressions, so their trajectories and measures agree bit for
bit. Per-trial streams also make results independent of how trials are
chunked.

The engine draws each trial's uniforms one step block at a time and
presamples the block right after: pairs (the partner by a bisection over the
flattened row CDFs, O(log n) per slot), events and active endpoints do not
depend on the state, so each slot is left with a gather, the update
expressions, the overflow check and a scatter.

Configs that differ only in their schedules, `eps_agree` and `big_m` draw
the same pairs and events, so `run_shared_trials` runs them through one pass
of that slot loop, as extra state rows with their own weights and freezes:
`sweep` groups its points so. `run_trials`, `experiment` and `simulate` run
the same loop with one config.
"""

from __future__ import annotations

import csv
import math
import numbers
import tempfile
from collections.abc import Iterator
from contextlib import nullcontext
from copy import deepcopy
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TextIO

import numpy as np

from .dynamics import (
    OVERFLOW_LIMIT,
    S_CLIP,
    T_CLIP,
    EventProbabilities,
    Schedule,
    UpdateMode,
    run_trajectory,
)
from .errors import BadAxisError, BadParameterError
from .graph import MATRIX_ROWS, SelectionMatrix, generate, import_matrix_csv, \
    import_matrix_json, induced_graph, is_weakly_connected, json_with_rows, validate
from .metrics import Classification, classify, measure
from .theory import json_safe, theory_report

__all__ = [
    "InitialState",
    "ExperimentConfig",
    "TrialResult",
    "TrialMatrices",
    "ExperimentResult",
    "SweepPoint",
    "default_checkpoints",
    "config_from_dict",
    "config_to_dict",
    "config_outline",
    "config_hash",
    "run_trial",
    "run_trials",
    "run_shared_trials",
    "run_experiment",
    "aggregate_trials",
    "sweep",
    "sweep_values",
    "set_by_path",
    "AGG_COLUMNS",
    "aggregate_csv_rows",
    "write_aggregate_csv",
    "aggregate_json_dict",
    "classify_trials",
    "trajectory_rows",
    "write_trajectory_csv",
]

CHUNK_TRIALS = 256
STEP_BLOCK = 1024
PRESAMPLE_STEPS = 64
HEAVY_TAIL_KURTOSIS = 10.0
DEFAULT_EPS_AGREE = 1e-6
BIG_M_FACTOR = 1e6


@dataclass(frozen=True)
class InitialState:
    """How each trial's starting vector is produced.

    kind "ramp": x_i = i for i = 1..n (deterministic).
    kind "explicit": the given values (deterministic).
    kind "uniform": i.i.d. uniform on [low, high); consumes n draws from the
    trial's stream before the first slot.
    """

    kind: str
    low: float = 0.0
    high: float = 1.0
    values: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind == "uniform":
            for name, v in (("low", self.low), ("high", self.high)):
                if not math.isfinite(v):
                    raise BadParameterError(f"initial {name} must be finite, got {v}")
            if self.high < self.low:
                raise BadParameterError("initial high must be >= low")
            if not math.isfinite(float(self.high) - float(self.low)):
                raise BadParameterError("initial high - low must be finite")
        elif self.kind == "explicit":
            if not self.values:
                raise BadParameterError("explicit initial state needs values")
            if any(not math.isfinite(v) for v in self.values):
                raise BadParameterError("initial values must be finite")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        elif self.kind != "ramp":
            raise BadParameterError(f"unknown initial state kind {self.kind!r}")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "ramp":
            return np.arange(1, n + 1, dtype=float)
        if self.kind == "explicit":
            return np.array(self.values, dtype=float)
        return self.low + (self.high - self.low) * rng.random(n)

    def spread_bound(self, n: int) -> float:
        if self.kind == "explicit":
            return max(self.values) - min(self.values)
        if self.kind == "ramp":
            return float(n - 1)
        return self.high - self.low


def default_checkpoints(k0: int, steps: int) -> tuple[int, ...]:
    """Slot indices {0, 1, 2, 4, ...} up to and including the last slot,
    shifted by k0. Geometric spacing keeps long runs cheap to record."""
    pts = {0, steps}
    v = 1
    while v < steps:
        pts.add(v)
        v *= 2
    return tuple(sorted(k0 + p for p in pts))


@dataclass
class ExperimentConfig:
    """Fully resolved description of one experiment.

    Construction validates everything up front: the matrix must induce a
    weakly connected graph (assumption A1), checkpoints must fall in
    [k0, k0 + steps], the seed must fit the counter-based RNG key. Optional
    fields are resolved to concrete values so the config hash pins down the
    exact run.
    """

    matrix: SelectionMatrix
    mode: UpdateMode
    probabilities: EventProbabilities
    schedule_t: Schedule
    schedule_s: Schedule
    initial: InitialState
    steps: int
    trials: int = 1
    k0: int = 0
    base_seed: int = 0
    checkpoints: tuple[int, ...] | None = None
    eps_agree: float = DEFAULT_EPS_AGREE
    big_m: float | None = None
    # `config_hash`'s digest, kept once computed; configs are not changed
    # after construction
    _hash: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_weakly_connected(induced_graph(self.matrix)):
            raise BadParameterError(
                "selection matrix must induce a weakly connected graph (assumption A1)")
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 0:
            raise BadParameterError(f"steps must be a nonnegative integer, got {self.steps}")
        if not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise BadParameterError(f"trials must be a positive integer, got {self.trials}")
        if not isinstance(self.k0, (int, np.integer)) or self.k0 < 0:
            raise BadParameterError(f"k0 must be a nonnegative integer, got {self.k0}")
        if self.k0 + self.steps >= 2 ** 63:  # slot indices are int64 (`diverged_at`)
            raise BadParameterError("k0 + steps must be below 2^63")
        if not isinstance(self.base_seed, (int, np.integer)) \
                or not 0 <= self.base_seed < 2 ** 64:
            raise BadParameterError("seed must be an integer in [0, 2^64)")
        if self.initial.kind == "explicit" and len(self.initial.values) != self.matrix.n:
            raise BadParameterError(
                f"initial values have length {len(self.initial.values)}, need {self.matrix.n}")
        if not self.eps_agree > 0.0:
            raise BadParameterError(f"epsAgree must be positive, got {self.eps_agree}")

        if self.checkpoints is None:
            self.checkpoints = default_checkpoints(self.k0, self.steps)
        else:
            cps = sorted({int(c) for c in self.checkpoints} | {self.k0, self.k0 + self.steps})
            for c in cps:
                if not self.k0 <= c <= self.k0 + self.steps:
                    raise BadParameterError(
                        f"checkpoint {c} outside [{self.k0}, {self.k0 + self.steps}]")
            self.checkpoints = tuple(cps)

        if self.big_m is None:
            bound = self.initial.spread_bound(self.matrix.n)
            self.big_m = BIG_M_FACTOR * bound if bound > 0.0 else BIG_M_FACTOR
        if not self.big_m > 0.0:
            raise BadParameterError(f"bigM must be positive, got {self.big_m}")

        self.steps = int(self.steps)
        self.trials = int(self.trials)
        self.k0 = int(self.k0)
        self.base_seed = int(self.base_seed)


# ---------------------------------------------------------------------------
# config (de)serialization
# ---------------------------------------------------------------------------

_GENERATOR_KEYS = {"p": "p", "m": "m", "kNn": "k_nn", "pRewire": "p_rewire"}
_SCHEDULE_KEYS = {"constant": (("value",), ()), "explicit": (("tail",), ("values",)),
                  "power": (("c", "p"), ()), "geometric": (("c", "r"), ())}
_INITIAL_KEYS = {"ramp": ((), ()), "explicit": (("values",), ()),
                 "uniform": ((), ("low", "high"))}


def _keys(name: str, d, required=(), optional=()) -> dict:
    """`d` itself once it is an object with every required key and no key
    outside `required` and `optional`."""
    if not isinstance(d, dict):
        raise BadParameterError(f"{name} must be an object, got {d!r}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise BadParameterError(f"{name} is missing {missing}")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise BadParameterError(f"unknown {name} keys: {unknown}")
    return d


def _kind(name: str, d, default: str, kinds: dict) -> str:
    """The kind of an object whose keys, (required, optional), depend on it."""
    kind = d.get("kind", default) if isinstance(d, dict) else default
    if kind not in kinds:
        raise BadParameterError(f"unknown {name} kind {kind!r}")
    required, optional = kinds[kind]
    _keys(name, d, required, ("kind", *optional))
    return kind


def _num(name: str, v, integer: bool = False):
    """`v` itself when it is a number, an integer if asked; strings and
    bools are refused, and so is a real value no float holds (an integer
    beyond the float range, inf or nan)."""
    if isinstance(v, (bool, np.bool_)) \
            or not isinstance(v, numbers.Integral if integer else numbers.Real):
        raise BadParameterError(f"{name} must be {'an integer' if integer else 'a number'}, "
                                f"got {v!r}")
    if not integer:
        try:
            finite = math.isfinite(float(v))
        except OverflowError:
            finite = False
        if not finite:
            raise BadParameterError(f"{name} must be a finite number, got {v!r}")
    return v


def _nums(name: str, v, integer: bool = False) -> list:
    if not isinstance(v, (list, tuple)):
        raise BadParameterError(f"{name} must be a list of numbers, got {v!r}")
    return [_num(name, x, integer) for x in v]


def _matrix_from_dict(d, base_dir: Path | None) -> SelectionMatrix:
    kind = d.get("kind", "explicit") if isinstance(d, dict) else "explicit"
    if kind == "explicit":
        return validate(_keys("matrix", d, ("rows",), ("kind",))["rows"])
    if kind == "file":
        path = _keys("matrix", d, ("path",), ("kind",))["path"]
        if not isinstance(path, str):
            raise BadParameterError(f"matrix.path must be a string, got {path!r}")
        path = Path(path)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        read = import_matrix_json if path.suffix.lower() == ".json" else import_matrix_csv
        try:
            return read(path)
        except OSError as exc:
            raise BadParameterError(f"cannot read matrix file {path}: {exc}") from None
    _keys("matrix", d, ("n",), ("kind", "seed", *_GENERATOR_KEYS))
    params = {kwarg: _num(f"matrix.{key}", d[key], key in ("m", "kNn"))
              for key, kwarg in _GENERATOR_KEYS.items() if key in d}
    seed = d.get("seed")
    return generate(kind, _num("matrix.n", d["n"], True),
                    seed=None if seed is None else _num("matrix.seed", seed, True), **params)


def _schedule_from_dict(name: str, d, clip: tuple[float, float]) -> Schedule:
    """Build a schedule from its JSON keys, which name the Schedule fields
    except for `tail` (`tail_value`)."""
    kind = _kind(name, d, "constant", _SCHEDULE_KEYS)
    fields = {("tail_value" if key == "tail" else key): _num(f"{name}.{key}", v)
              for key, v in d.items() if key not in ("kind", "values")}
    return Schedule(kind=kind, values=tuple(_nums(f"{name}.values", d.get("values", ()))),
                    lo=clip[0], hi=clip[1], **fields)


def _schedule_to_dict(s: Schedule) -> dict:
    if s.kind == "constant":
        return {"kind": "constant", "value": s.value}
    if s.kind == "explicit":
        return {"kind": "explicit", "values": list(s.values), "tail": s.tail_value}
    if s.kind == "power":
        return {"kind": "power", "c": s.c, "p": s.p}
    return {"kind": "geometric", "c": s.c, "r": s.r}


def _initial_from_dict(d) -> InitialState:
    kind = _kind("initial", d, "ramp", _INITIAL_KEYS)
    return InitialState(kind=kind, low=_num("initial.low", d.get("low", 0.0)),
                        high=_num("initial.high", d.get("high", 1.0)),
                        values=tuple(_nums("initial.values", d.get("values", ()))))


_CONFIG_KEYS = {
    "matrix", "mode", "probabilities", "schedules", "initial",
    "steps", "trials", "k0", "seed", "checkpoints", "epsAgree", "bigM",
}


def config_from_dict(d: dict, base_dir: str | Path | None = None) -> ExperimentConfig:
    """Build a config from its JSON form. Every object is checked for
    missing and unknown keys and every number for its type, so typos fail
    loudly instead of silently running the defaults."""
    _keys("config", d, ("matrix", "probabilities", "schedules", "steps"), _CONFIG_KEYS)
    sched_d = d["schedules"]
    if not isinstance(sched_d, dict) or "T" not in sched_d or "S" not in sched_d:
        raise BadParameterError("config 'schedules' needs both 'T' and 'S' entries")
    _keys("schedules", sched_d, ("T", "S"))
    base = Path(base_dir) if base_dir is not None else None
    mode_d = _keys("mode", d.get("mode", {}), (), ("variant", "activeRule"))
    mode = UpdateMode(variant=mode_d.get("variant", "symmetric"),
                      active_rule=mode_d.get("activeRule", "uniform"))
    probs_d = _keys("probabilities", d["probabilities"], (), ("alpha", "beta", "gamma"))
    probs = EventProbabilities(**{key: _num(f"probabilities.{key}", probs_d.get(key, 0.0))
                                  for key in ("alpha", "beta", "gamma")})
    cps = d.get("checkpoints")
    big_m = d.get("bigM")
    return ExperimentConfig(
        matrix=_matrix_from_dict(d["matrix"], base),
        mode=mode,
        probabilities=probs,
        schedule_t=_schedule_from_dict("schedules.T", sched_d["T"], T_CLIP),
        schedule_s=_schedule_from_dict("schedules.S", sched_d["S"], S_CLIP),
        initial=_initial_from_dict(d.get("initial", {"kind": "ramp"})),
        steps=_num("steps", d["steps"], True),
        trials=_num("trials", d.get("trials", 1), True),
        k0=_num("k0", d.get("k0", 0), True),
        base_seed=_num("seed", d.get("seed", 0), True),
        checkpoints=None if cps is None else tuple(_nums("checkpoints", cps, True)),
        eps_agree=_num("epsAgree", d.get("epsAgree", DEFAULT_EPS_AGREE)),
        big_m=None if big_m is None else _num("bigM", big_m),
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical resolved form: inline matrix rows, resolved checkpoints and
    thresholds. Feeding this back to `config_from_dict` reproduces the run."""
    doc = config_outline(cfg)
    doc["matrix"]["rows"] = cfg.matrix.entries.tolist()
    return doc


def config_outline(cfg: ExperimentConfig) -> dict:
    """`config_to_dict` with `graph.MATRIX_ROWS` for the matrix rows, which
    `graph.json_with_rows` writes without a Python float per entry."""
    mode: dict = {"variant": cfg.mode.variant}
    if cfg.mode.variant == "asymmetric":
        mode["activeRule"] = cfg.mode.active_rule
    initial: dict = {"kind": cfg.initial.kind}
    if cfg.initial.kind == "explicit":
        initial["values"] = list(cfg.initial.values)
    elif cfg.initial.kind == "uniform":
        initial["low"] = cfg.initial.low
        initial["high"] = cfg.initial.high
    return {
        "matrix": {"kind": "explicit", "rows": MATRIX_ROWS},
        "mode": mode,
        "probabilities": {"alpha": cfg.probabilities.alpha,
                          "beta": cfg.probabilities.beta,
                          "gamma": cfg.probabilities.gamma},
        "schedules": {"T": _schedule_to_dict(cfg.schedule_t),
                      "S": _schedule_to_dict(cfg.schedule_s)},
        "initial": initial,
        "steps": cfg.steps,
        "trials": cfg.trials,
        "k0": cfg.k0,
        "seed": cfg.base_seed,
        "checkpoints": list(cfg.checkpoints),
        "epsAgree": cfg.eps_agree,
        "bigM": cfg.big_m,
    }


FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
FNV_BLOCK = 1 << 16
_U64 = (1 << 64) - 1
_BYTES_OF_WORD = 0x0101010101010101


def _fnv1a64(data: bytes) -> int:
    """FNV-1a-64 of `data` (h <- (h ^ b) * P mod 2^64 per byte), in numpy.

    With l the low byte of h, h ^ b = h + d for d = (l ^ b) - l, so over a
    block h_N = h_0 P^N + sum_k d_k P^(N-k) mod 2^64: one wrapping dot
    product once the low bytes l_k are known. Those evolve on their own,
    l_(k+1) = (l_k ^ b_k) * P mod 256, and as P is odd, bit j of
    x * P mod 256 is x_j ^ bit j of (x mod 2^j) * P. Given the bits below j
    of every l_k, bit j of l is then a running xor, one layer at a time.
    Blocks of `FNV_BLOCK` bytes bound the memory.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    h = FNV_OFFSET
    # powers[i] = P^(i+1) mod 2^64
    powers = np.multiply.accumulate(np.full(min(FNV_BLOCK, buf.size), FNV_PRIME, np.uint64))
    for start in range(0, buf.size, FNV_BLOCK):
        m = min(FNV_BLOCK, buf.size - start)
        b = np.zeros(-(-m // 8) * 8, dtype=np.uint8)  # whole words for the xor scan
        b[:m] = buf[start:start + m]
        low = np.zeros_like(b)
        low[0] = l0 = h & 0xFF
        for j in range(8):
            flips = (((low ^ b) & ((1 << j) - 1)) * (FNV_PRIME & 0xFF) ^ b) >> j & 1
            # running xor: within each 8-byte word, then across words
            words = flips.view("<u8")
            words ^= words << 8
            words ^= words << 16
            words ^= words << 32
            words[1:] ^= np.bitwise_xor.accumulate(words[:-1] >> 56) * _BYTES_OF_WORD
            low[1:] |= (flips[:-1] ^ (l0 >> j & 1)) << j
        low, b = low[:m], b[:m]
        delta = (low ^ b).astype(np.uint64) - low
        h = (h * int(powers[m - 1]) + int(np.dot(delta, powers[m - 1::-1]))) & _U64
    return h


def config_hash(cfg: ExperimentConfig) -> str:
    """64-bit FNV-1a over the canonical compact JSON form (`config_to_dict`
    with sorted keys and separators "," and ":"), as 16 hex digits. The
    hash runs vectorized (`_fnv1a64`) and the matrix rows are rendered once
    per matrix (`graph.json_with_rows`), for the same digest a per-byte
    loop over `json.dumps` gives.

    The digest is computed on the first call and kept on the config, so a
    command that hashes its config for the manifest and for the results
    walks the canonical form once.
    """
    if cfg._hash is None:
        blob = json_with_rows(config_outline(cfg), cfg.matrix, sort_keys=True)
        cfg._hash = f"{_fnv1a64(blob.encode('utf-8')):016x}"
    return cfg._hash


# ---------------------------------------------------------------------------
# scalar reference path
# ---------------------------------------------------------------------------

def _trial_rng(base_seed: int, trial: int) -> np.random.Generator:
    # a uint64 key: a list would pass seeds of 2^63 and above through float64
    key = np.array([base_seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class TrialResult:
    trial: int
    states: list
    samples: list
    classification: Classification
    diverged_at: int | None


def run_trial(config: ExperimentConfig, trial: int) -> TrialResult:
    """Run one trial on the scalar path, with full state snapshots: the
    reference `run_trials` is tested against."""
    rng = _trial_rng(config.base_seed, trial)
    x0 = config.initial.sample(config.matrix.n, rng)
    traj = run_trajectory(config.matrix, config.mode, config.probabilities,
                          config.schedule_t, config.schedule_s, x0,
                          config.k0, config.steps, rng,
                          checkpoints=config.checkpoints)
    reference = float(x0.mean())
    samples = [measure(st.x, st.k, reference) for st in traj.states]
    cls = classify(samples, config.eps_agree, config.big_m, nonfinite=traj.diverged)
    return TrialResult(trial=trial, states=traj.states, samples=samples,
                       classification=cls, diverged_at=traj.diverged_at)


# ---------------------------------------------------------------------------
# vectorized engine
# ---------------------------------------------------------------------------

@dataclass
class TrialMatrices:
    """Per-trial, per-checkpoint measures for a whole experiment."""

    checkpoints: tuple[int, ...]
    dispersion: np.ndarray  # (trials, checkpoints)
    spread: np.ndarray      # (trials, checkpoints)
    diverged_at: np.ndarray  # (trials,), -1 when the state stayed finite
    states: np.ndarray | None = None  # (trials, checkpoints, n) when asked for

    @classmethod
    def empty(cls, cfg: ExperimentConfig, trials: int, states: bool) -> TrialMatrices:
        ncp = len(cfg.checkpoints)
        return cls(checkpoints=cfg.checkpoints, dispersion=np.empty((trials, ncp)),
                   spread=np.empty((trials, ncp)), diverged_at=np.empty(trials, dtype=np.int64),
                   states=np.empty((trials, ncp, cfg.matrix.n)) if states else None)

    def arrays(self) -> list[np.ndarray]:
        """The per-trial arrays, one row per trial."""
        return [a for a in (self.dispersion, self.spread, self.diverged_at, self.states)
                if a is not None]

    def rows(self, lo: int, hi: int) -> TrialMatrices:
        """Trials [lo, hi), as views."""
        return TrialMatrices(self.checkpoints, *(a[lo:hi] for a in self.arrays()))


def _index_dtype(size: int) -> type:
    """The narrowest signed integer type that holds every index below `size`."""
    return next(dt for dt in (np.int16, np.int32, np.int64) if size <= np.iinfo(dt).max)


def _presample(u: np.ndarray, rows: np.ndarray, n: int, cdf: np.ndarray,
               thr: tuple[float, float], mode: UpdateMode):
    """Turn one step block's draws into pairs and events, all slots at once.

    `u` holds the draws of the trials live at the start of the block,
    (trials, steps, draws per slot); `rows[p]` is the flat offset of trial
    p's state row and `cdf` the flattened row CDFs. Node i comes from the
    first draw as in `dynamics`; partner j is the number of entries of row
    i's CDF that are <= the second draw, the index searchsorted(side="right")
    returns, found by a bisection of fixed length over the flattened rows.

    Returns, per step, the flat state indices of (i, j), shape
    (steps, 2, trials), and the masks of the endpoints that attract and that
    repel, shape (steps, 2, trials), or (steps, 1, trials) for coupled
    updates, where both endpoints share the event. The block is sampled
    PRESAMPLE_STEPS slots at a time, which keeps the temporaries small.
    """
    a, b, _ = u.shape
    width = 1 if mode.variant == "symmetric" else 2
    fij = np.empty((b, 2, a), dtype=rows.dtype)
    att = np.empty((b, width, a), dtype=bool)
    rep = np.empty((b, width, a), dtype=bool)
    for s0 in range(0, b, PRESAMPLE_STEPS):
        us = u[:, s0:s0 + PRESAMPLE_STEPS]
        i = np.minimum((us[:, :, 0] * n).astype(np.int64), n - 1)
        base = i * n
        pos = base.copy()
        # The count lies in [pos - base, pos - base + length - 1]: the row
        # ends in 1.0, above every draw, so it is at most n - 1.
        length = n
        while length > 1:
            half = length // 2
            np.add(pos, half, out=pos, where=cdf[pos + (half - 1)] <= us[:, :, 1])
            length -= half
        out = fij[s0:s0 + PRESAMPLE_STEPS]
        np.add(rows[:, None], i, out=out[:, 0, :].T)
        np.add(rows[:, None], pos - base, out=out[:, 1, :].T)

        e_att = us[:, :, 2] < thr[0]
        e_rep = us[:, :, 2] >= thr[1]
        if width == 1:
            att[s0:s0 + PRESAMPLE_STEPS, 0, :] = e_att.T
            rep[s0:s0 + PRESAMPLE_STEPS, 0, :] = e_rep.T
            continue
        if mode.active_rule == "uniform":
            active_i = us[:, :, 3] < 0.5
        else:
            active_i = np.full(e_att.shape, mode.active_rule == "initiator")
        for event, mask in ((e_att, att), (e_rep, rep)):
            out = mask[s0:s0 + PRESAMPLE_STEPS]
            np.logical_and(event, active_i, out=out[:, 0, :].T)
            np.logical_and(event, ~active_i, out=out[:, 1, :].T)
    return fij, att, rep


def _simulate_chunk(cfgs: list[ExperimentConfig], lo: int, hi: int,
                    outs: list[TrialMatrices]) -> None:
    """Advance trials [lo, hi) of every config in `cfgs` together, one slot
    at a time across the chunk; the configs share their draws
    (`_shares_draws`), and `outs[p]` receives config p's hi - lo rows.

    Mirrors the scalar path exactly: same per-trial streams, same consumption
    order, same update expressions, same freeze-on-overflow semantics. Pairs
    and events do not depend on the state, so each step block draws and
    samples them once for all its slots and configs (`_presample`); a slot
    then gathers both endpoints of every trial of every config, updates them
    with each config's own weights and scatters them back. A trial that
    overflows keeps its state from then on: its update is not written, for
    that config only, and its draws stop once it is frozen in every config.
    """
    cfg = cfgs[0]
    n = cfg.matrix.n
    m = hi - lo
    npts = len(cfgs)
    cps = cfg.checkpoints
    rngs = [_trial_rng(cfg.base_seed, t) for t in range(lo, hi)]
    x = np.empty((npts, m, n), dtype=float)
    for r in range(m):
        x[0, r] = cfg.initial.sample(n, rngs[r])
    x[1:] = x[0]
    refs = x[0].mean(axis=1)
    flat = x.reshape(-1)

    cdf = cfg.matrix.row_cdfs().reshape(-1)
    thr = cfg.probabilities.thresholds()
    d = cfg.mode.draws_per_slot
    index_dtype = _index_dtype(npts * m * n)
    offsets = (np.arange(npts) * (m * n)).astype(index_dtype)[:, None, None]

    alive = np.ones((npts, m), dtype=bool)
    diverged_at = np.full((npts, m), -1, dtype=np.int64)

    ci = 0

    def record() -> None:
        dispersion = ((x - refs[:, None]) ** 2).sum(axis=2)
        spread = x.max(axis=2) - x.min(axis=2)
        for p, out in enumerate(outs):
            out.dispersion[:, ci] = dispersion[p]
            out.spread[:, ci] = spread[p]
            if out.states is not None:
                out.states[:, ci] = x[p]

    if cps[ci] == cfg.k0:
        record()
        ci += 1

    k = cfg.k0
    end = cfg.k0 + cfg.steps
    while k < end:
        b = min(STEP_BLOCK, end - k)
        cols = np.nonzero(alive.any(axis=0))[0]
        # live[p, c]: column c still runs in config p; frozen columns are
        # masked only once there is one
        live = alive[:, cols]
        keep = None if live.all() else live[:, None, :]
        u = np.empty((cols.size, b, d))
        for p, r in enumerate(cols):
            rngs[r].random(out=u[p])
        fij, att, rep = _presample(u, (cols * n).astype(index_dtype), n, cdf, thr,
                                   cfg.mode)
        del u
        fij = fij[:, None] + offsets  # (b, configs, 2, trials)
        # (b, configs, 1, 1): each config's weights
        t_vals = np.stack([c.schedule_t.applied(k, k + b) for c in cfgs], axis=1)[:, :, None, None]
        s_vals = np.stack([c.schedule_s.applied(k, k + b) for c in cfgs], axis=1)[:, :, None, None]
        weights = zip(1.0 - t_vals, t_vals, 1.0 + s_vals, s_vals)
        with np.errstate(over="ignore", invalid="ignore"):
            for step, (t_rest, t, s_plus, s) in enumerate(weights):
                if cols.size:
                    f = fij[step]
                    xij = flat[f]
                    xji = xij[:, ::-1]
                    new = np.where(att[step], t_rest * xij + t * xji,
                                   np.where(rep[step], s_plus * xij - s * xji, xij))
                    if keep is not None:
                        new = np.where(keep, new, xij)
                    if np.abs(new).max() <= OVERFLOW_LIMIT:  # false on nan too
                        flat[f] = new
                    else:
                        ok = (np.abs(new) <= OVERFLOW_LIMIT).all(axis=1)
                        bad_p, bad_c = np.nonzero(~ok)
                        diverged_at[bad_p, cols[bad_c]] = k + step + 1
                        alive[bad_p, cols[bad_c]] = False
                        live &= ok
                        keep = live[:, None, :]
                        flat[f] = np.where(keep, new, xij)
                if ci < len(cps) and k + step + 1 == cps[ci]:
                    record()
                    ci += 1
        k += b

    for div, out in zip(diverged_at, outs):
        out.diverged_at[:] = div


# The fields configs that share a pass may differ in; the engine reads the
# matrix only through its row CDFs, where -0.0 and 0.0 draw alike.
_POINT_FIELDS = frozenset({"schedule_t", "schedule_s", "eps_agree", "big_m"})


def _shares_draws(a: ExperimentConfig, b: ExperimentConfig) -> bool:
    """Whether two configs draw the same pairs, events and initial states:
    equal matrix entries, and every other field but `_POINT_FIELDS` equal
    down to the float bits (by repr, which also tells -0.0 from 0.0)."""
    return np.array_equal(a.matrix.entries, b.matrix.entries) and all(
        repr(getattr(a, f.name)) == repr(getattr(b, f.name)) for f in fields(ExperimentConfig)
        if f.compare and f.name != "matrix" and f.name not in _POINT_FIELDS)


def run_shared_trials(configs: list[ExperimentConfig],
                      states: bool = False) -> Iterator[TrialMatrices]:
    """Run configs that share their draws (they differ only in schedules,
    `eps_agree` and `big_m`) through one pass of the engine, and yield each
    config's matrices in turn, equal to `run_trials` on that config alone.

    Trials are split into fixed chunks. The configs are carried as extra
    state rows, in consecutive batches small enough that the batched state
    (configs x chunk x n floats) stays within a chunk's draw buffer (chunk x
    STEP_BLOCK x draws floats). With `states`, the matrices also hold every
    trial's state at every checkpoint, trials x checkpoints x n floats.
    """
    first = configs[0]
    if not all(_shares_draws(first, cfg) for cfg in configs[1:]):
        raise ValueError("run_shared_trials needs configs that share their draws")
    batch = max(1, STEP_BLOCK * first.mode.draws_per_slot // first.matrix.n)
    for p0 in range(0, len(configs), batch):
        yield from _run_batch(configs[p0:p0 + batch], states)


def _run_batch(configs: list[ExperimentConfig], states: bool) -> Iterator[TrialMatrices]:
    """One pass over every trial for configs that share their draws.

    The first config's rows are written in place. The others' chunk rows go
    to a temporary file, each config's arrays one after another, and are
    read back one config at a time: a pass holds one config's results in
    memory however many configs share it, as a run of one config does.
    """
    trials = configs[0].trials
    head = TrialMatrices.empty(configs[0], trials, states)
    config_bytes = sum(a.nbytes for a in head.arrays())
    with tempfile.TemporaryFile() if len(configs) > 1 else nullcontext() as spill:
        for lo in range(0, trials, CHUNK_TRIALS):
            hi = min(lo + CHUNK_TRIALS, trials)
            tails = [TrialMatrices.empty(cfg, hi - lo, states) for cfg in configs[1:]]
            _simulate_chunk(configs, lo, hi, [head.rows(lo, hi), *tails])
            for q, out in enumerate(tails):
                offset = q * config_bytes
                for a in out.arrays():
                    row = a.nbytes // len(a)
                    spill.seek(offset + lo * row)
                    spill.write(a)
                    offset += trials * row
        yield head
        del head  # the caller keeps it as long as it needs it
        for q, cfg in enumerate(configs[1:]):
            mats = TrialMatrices.empty(cfg, trials, states)
            spill.seek(q * config_bytes)
            for a in mats.arrays():
                spill.readinto(a)
            yield mats


def run_trials(config: ExperimentConfig, states: bool = False) -> TrialMatrices:
    """Run every trial of one config on the vectorized engine
    (`run_shared_trials` with one config)."""
    [mats] = run_shared_trials([config], states)
    return mats


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    config_hash: str
    checkpoints: tuple[int, ...]
    trials: int
    mean_l: np.ndarray
    var_l: np.ndarray
    ci_l: np.ndarray
    mean_spread: np.ndarray
    var_spread: np.ndarray
    ci_spread: np.ndarray
    counts: dict
    classifications: list
    diverged_at: np.ndarray
    heavy_tail_checkpoints: list


def classify_trials(config: ExperimentConfig, mats: TrialMatrices) -> list[Classification]:
    """Vectorized version of `metrics.classify`, same comparisons."""
    if not (config.big_m > mats.spread[:, 0]).all():
        worst = float(mats.spread[:, 0].max())
        raise BadParameterError(
            f"big_m ({config.big_m}) must exceed the initial spread ({worst})")
    diverged = (mats.diverged_at >= 0) | (mats.spread > config.big_m).any(axis=1)
    agreed = ~diverged & (mats.spread[:, -1] < config.eps_agree)
    out = []
    for div, agr in zip(diverged, agreed):
        if div:
            out.append(Classification.DIVERGED)
        elif agr:
            out.append(Classification.AGREED)
        else:
            out.append(Classification.UNDECIDED)
    return out


def _excess_kurtosis(columns: np.ndarray) -> np.ndarray:
    centered = columns - columns.mean(axis=0)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        m2 = (centered ** 2).mean(axis=0)
        m4 = (centered ** 4).mean(axis=0)
        kurt = np.where(m2 > 0.0, m4 / np.where(m2 > 0.0, m2, 1.0) ** 2 - 3.0, 0.0)
    return np.where(np.isfinite(kurt), kurt, np.inf)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    return aggregate_trials(config, run_trials(config))


def aggregate_trials(config: ExperimentConfig, mats: TrialMatrices) -> ExperimentResult:
    """Classify the trials of one config and summarize them per checkpoint."""
    classifications = classify_trials(config, mats)
    counts = {
        "nAgreed": sum(1 for c in classifications if c is Classification.AGREED),
        "nDiverged": sum(1 for c in classifications if c is Classification.DIVERGED),
        "nUndecided": sum(1 for c in classifications if c is Classification.UNDECIDED),
    }
    trials = config.trials

    def stats(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        with np.errstate(over="ignore", invalid="ignore"):
            mean = matrix.mean(axis=0)
            var = matrix.var(axis=0, ddof=1) if trials > 1 else np.zeros(matrix.shape[1])
            ci = 1.96 * np.sqrt(var / trials)
        return mean, var, ci

    mean_l, var_l, ci_l = stats(mats.dispersion)
    mean_s, var_s, ci_s = stats(mats.spread)
    kurt = _excess_kurtosis(mats.dispersion) if trials > 3 else np.zeros(len(config.checkpoints))
    heavy = [int(k) for k, flag in zip(config.checkpoints, kurt > HEAVY_TAIL_KURTOSIS) if flag]
    return ExperimentResult(
        config_hash=config_hash(config),
        checkpoints=config.checkpoints,
        trials=trials,
        mean_l=mean_l, var_l=var_l, ci_l=ci_l,
        mean_spread=mean_s, var_spread=var_s, ci_spread=ci_s,
        counts=counts,
        classifications=classifications,
        diverged_at=mats.diverged_at,
        heavy_tail_checkpoints=heavy,
    )


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

# Config entries that hold integers; a sweep along one of them takes
# integral values and passes them on as ints.
INTEGER_KEYS = frozenset({"steps", "trials", "seed", "k0", "matrix.n", "matrix.seed",
                          "matrix.m", "matrix.kNn"})


@dataclass
class SweepPoint:
    value: float  # an int along an integer key
    result: ExperimentResult
    report: object  # TheoryReport


def set_by_path(d: dict, path: str, value) -> None:
    """Set a dotted path like "schedules.S.value" inside a config dict.

    Every component except the last must already exist and be an object; the
    final key may be new (that is how optional keys get switched on).
    """
    parts = path.split(".")
    if not path or any(p == "" for p in parts):
        raise BadAxisError(f"bad config path {path!r}")
    cur = d
    for p in parts[:-1]:
        if not isinstance(cur, dict) or p not in cur:
            raise BadAxisError(f"config path {path!r} not found")
        cur = cur[p]
    if not isinstance(cur, dict):
        raise BadAxisError(f"config path {path!r} does not point into an object")
    cur[parts[-1]] = value


def sweep_values(axis: str, values) -> list:
    """Check sweep values: finite numbers, integral along INTEGER_KEYS.
    Values along an integer key come back as ints, the others unchanged."""
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or isinstance(v, float) and not math.isfinite(v):
            raise BadAxisError(f"sweep values must be finite numbers, got {v!r}")
        if axis in INTEGER_KEYS:
            if v != int(v):
                raise BadAxisError(f"{axis} takes integer values, got {v!r}")
            v = int(v)
        out.append(v)
    return out


def sweep(config_dict: dict, axis: str, values, horizon: int | None = None,
          base_dir: str | Path | None = None) -> list[SweepPoint]:
    """Re-run an experiment for each value of one numeric config entry.

    The seed is left untouched, so every sweep point uses common random
    numbers and differences across points are not noise re-draws. Points
    that share their draws (an axis in `schedules`, `epsAgree` or `bigM`)
    run through one pass of the engine (`run_shared_trials`); the others
    run alone. Each point also carries the analytic report for its config.
    """
    values = sweep_values(axis, values)
    configs = []
    for v in values:
        d = deepcopy(config_dict)
        set_by_path(d, axis, v)
        configs.append(config_from_dict(d, base_dir=base_dir))
    groups: list[list[int]] = []
    for i, cfg in enumerate(configs):
        group = next((g for g in groups if _shares_draws(configs[g[0]], cfg)), None)
        if group is None:
            groups.append([i])
        else:
            group.append(i)
    results: list = [None] * len(configs)
    for group in groups:
        for i, mats in zip(group, run_shared_trials([configs[i] for i in group])):
            results[i] = aggregate_trials(configs[i], mats)
            del mats  # so the next config's matrices are read into freed memory
    points = []
    for v, cfg, result in zip(values, configs, results):
        report = theory_report(cfg) if horizon is None else theory_report(cfg, horizon)
        value = v if axis in INTEGER_KEYS else float(v)
        points.append(SweepPoint(value=value, result=result, report=report))
    return points


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

AGG_COLUMNS = ["k", "meanL", "varL", "ciL", "meanSpread", "varSpread",
               "ciSpread", "nAgreed", "nDiverged", "nUndecided"]


def aggregate_csv_rows(result: ExperimentResult) -> list[list]:
    """One row per checkpoint, in AGG_COLUMNS order."""
    counts = result.counts
    return [[k, result.mean_l[idx], result.var_l[idx], result.ci_l[idx],
             result.mean_spread[idx], result.var_spread[idx], result.ci_spread[idx],
             counts["nAgreed"], counts["nDiverged"], counts["nUndecided"]]
            for idx, k in enumerate(result.checkpoints)]


def write_aggregate_csv(result: ExperimentResult, fh: TextIO) -> None:
    """Write the per-checkpoint aggregate to an open text handle (a file
    opened with newline="", or stdout)."""
    w = csv.writer(fh)
    w.writerow(AGG_COLUMNS)
    w.writerows(aggregate_csv_rows(result))


def aggregate_json_dict(result: ExperimentResult) -> dict:
    rows = []
    for idx, k in enumerate(result.checkpoints):
        rows.append({
            "k": int(k),
            "meanL": result.mean_l[idx],
            "varL": result.var_l[idx],
            "ciL": result.ci_l[idx],
            "meanSpread": result.mean_spread[idx],
            "varSpread": result.var_spread[idx],
            "ciSpread": result.ci_spread[idx],
        })
    return json_safe({
        "configHash": result.config_hash,
        "trials": result.trials,
        "counts": result.counts,
        "heavyTailCheckpoints": result.heavy_tail_checkpoints,
        "rows": rows,
    })


def trajectory_rows(mats: TrialMatrices):
    """(trial, k, x, H, h, spread, L) per trial and checkpoint, in that
    order, from a run with states; x is a list of floats. H and h are the
    extremes of x, spread and L the engine's measures."""
    high = mats.states.max(axis=2).tolist()
    low = mats.states.min(axis=2).tolist()
    spread = mats.spread.tolist()
    dispersion = mats.dispersion.tolist()
    for t, xs in enumerate(mats.states):
        for c, (k, x) in enumerate(zip(mats.checkpoints, xs.tolist())):
            yield t, k, x, high[t][c], low[t][c], spread[t][c], dispersion[t][c]


def write_trajectory_csv(mats: TrialMatrices, fh: TextIO) -> None:
    """Write every trial's checkpoint states to an open text handle."""
    w = csv.writer(fh)
    n = mats.states.shape[2]
    w.writerow(["trial", "k"] + [f"x_{i + 1}" for i in range(n)] + ["H", "h", "spread", "L"])
    for t, k, x, high, low, spread, dispersion in trajectory_rows(mats):
        w.writerow([t, k, *x, high, low, spread, dispersion])
