"""Monte Carlo experiments over many independent trajectories.

Reproducibility contract: trial t of an experiment with seed s draws from
`Philox(key=[s, t])`, consuming uniforms in the fixed per-slot order defined
in `dynamics` (plus one optional vector of initial values before the first
slot). The vectorized engine (`run_trials`) is the only simulation path;
the tests replay trials one slot at a time apart from it and hold its
trajectories and measures to theirs bit for bit. Per-trial streams also
make results independent of how trials are chunked.

The engine runs each chunk of trials in a compiled kernel (`_slots.c`,
built and loaded once by `_native.library`). It draws each trial's
Philox stream itself, as numpy does, and per trial and slot picks node i,
the partner j by a bisection over row i of the matrix's partner tables
(`SelectionMatrix.partner_tables`; O(log w) for w the most positive
entries in a row), the events and the active endpoint, and applies the
update and the overflow check; at each checkpoint it measures every
config's dispersion and spread. Where it cannot be built, its numpy twin
`_NumpySlots`, which has the same interface, draws from a numpy
`Generator` per trial one block of slots at a time, presamples pairs and
events one window of slots at a time and gathers, updates and scatters
one slot at a time. The twin is also the engine-level reference the
kernel is tested against.

A pass runs its chunks on every core the process may use (`_workers`),
one thread each with the caller among them, as the kernel call releases
the GIL; each chunk writes only its own rows, so results do not depend on
the number of threads either. The numpy twin runs on the calling thread.

Configs that differ only in their schedules, `eps_agree` and `big_m` draw
the same pairs and events, so `run_shared_trials` runs them through one pass
of that slot loop, as extra state rows with their own weights and freezes:
`sweep` groups its points so. `run_trials`, `experiment` and `simulate` run
the same loop with one config.

Every pass writes its configs' trial matrices, a chunk's rows at a time,
to a temporary file (`_Spill`, in the directory TMPDIR names), and holds
in memory only each trial's freeze slot. Aggregation and classification
read the matrices back one block of rows at a time, and so does `simulate`
for the states it writes, so no run holds a trials x checkpoints matrix
(`TrialMatrices.blocks`).
"""

from __future__ import annotations

import ctypes
import functools
import math
import numbers
import os
import tempfile
import threading
import weakref
from collections.abc import Callable, Iterator
from contextlib import closing, contextmanager
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import _jsontext, _native
from .dynamics import (
    OVERFLOW_LIMIT,
    S_CLIP,
    T_CLIP,
    EventProbabilities,
    Schedule,
    UpdateMode,
)
from .errors import BadAxisError, BadParameterError, RuntimeFailure
from .graph import SelectionMatrix, allocate, generate, import_matrix_csv, import_matrix_json, \
    is_weakly_connected, validate, validate_entries
from .theory import theory_report

__all__ = [
    "Classification",
    "InitialState",
    "ExperimentConfig",
    "TrialMatrices",
    "ExperimentResult",
    "SweepPoint",
    "default_checkpoints",
    "config_from_dict",
    "config_to_dict",
    "config_record",
    "config_hash",
    "run_trials",
    "run_shared_trials",
    "run_experiment",
    "aggregate_trials",
    "sweep",
    "sweep_values",
    "set_by_path",
    "classify_trials",
]

CHUNK_TRIALS = 256
# slots whose weights a chunk evaluates at once, (slots, configs, 4)
# floats, and whose draws the numpy twin makes at once
WEIGHT_BLOCK = 1024
# a shared pass's batched state, configs x CHUNK_TRIALS x n floats, stays
# within this many bytes (6 MiB: 768 configs of 4 nodes, 3 of 1000)
BATCH_STATE_BYTES = 6 << 20
# the numpy twin's presampled pairs, in slots at a time
PRESAMPLE_STEPS = 64
# aggregation reads a trial matrix this many bytes of rows at a time
AGGREGATE_BLOCK = 64 << 10
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
            if not math.isfinite(float(max(self.values)) - float(min(self.values))):
                raise BadParameterError("initial max(values) - min(values) must be finite")
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


def _is_int(v) -> bool:
    """True for a Python or numpy integer, False for a bool, as `_num` has it."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


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
        tails, heads, _ = self.matrix.positive_entries()
        if not is_weakly_connected(self.matrix.n, tails, heads):
            raise BadParameterError(
                "selection matrix must induce a weakly connected graph (assumption A1)")
        if not _is_int(self.steps) or self.steps < 0:
            raise BadParameterError(f"steps must be a nonnegative integer, got {self.steps}")
        if not _is_int(self.trials) or self.trials < 1:
            raise BadParameterError(f"trials must be a positive integer, got {self.trials}")
        if not _is_int(self.k0) or self.k0 < 0:
            raise BadParameterError(f"k0 must be a nonnegative integer, got {self.k0}")
        # Python ints from here on: a sum of numpy ints could wrap
        self.steps, self.trials, self.k0 = int(self.steps), int(self.trials), int(self.k0)
        if self.k0 + self.steps >= 2 ** 63:  # slot indices are int64 (`diverged_at`)
            raise BadParameterError("k0 + steps must be below 2^63")
        if not _is_int(self.base_seed) or not 0 <= self.base_seed < 2 ** 64:
            raise BadParameterError("seed must be an integer in [0, 2^64)")
        self.base_seed = int(self.base_seed)
        if self.initial.kind == "explicit" and len(self.initial.values) != self.matrix.n:
            raise BadParameterError(
                f"initial values have length {len(self.initial.values)}, need {self.matrix.n}")
        if not self.eps_agree > 0.0:
            raise BadParameterError(f"epsAgree must be positive, got {self.eps_agree}")

        if self.checkpoints is None:
            self.checkpoints = default_checkpoints(self.k0, self.steps)
        else:
            if not all(map(_is_int, self.checkpoints)):
                raise BadParameterError(f"checkpoints must be integers, got {self.checkpoints}")
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


# ---------------------------------------------------------------------------
# config (de)serialization
# ---------------------------------------------------------------------------

_GENERATOR_KEYS = {"p": "p", "m": "m", "kNn": "k_nn", "pRewire": "p_rewire"}
_MATRIX_KEYS = {"explicit": (("rows",), ()), "entries": (("n", "i", "j", "a"), ()),
                "file": (("path",), ()),
                "complete": (("n",), ()), "ring": (("n",), ()),
                "erdos_renyi": (("n", "p"), ("seed",)),
                "watts_strogatz": (("n", "kNn", "pRewire"), ("seed",)),
                "barabasi_albert": (("n", "m"), ("seed",))}
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
    if not isinstance(kind, str) or kind not in kinds:
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
    kind = _kind("matrix", d, "explicit", _MATRIX_KEYS)
    if kind == "explicit":
        return validate(d["rows"])
    if kind == "entries":
        return validate_entries(_num("matrix.n", d["n"], True), d["i"], d["j"], d["a"])
    if kind == "file":
        path = d["path"]
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
    params = {kwarg: _num(f"matrix.{key}", d[key], key in ("m", "kNn"))
              for key, kwarg in _GENERATOR_KEYS.items() if key in d}
    # seed 0 when none is given: one config, one graph
    return generate(kind, _num("matrix.n", d["n"], True),
                    seed=_num("matrix.seed", d.get("seed", 0), True), **params)


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


def config_from_dict(d: dict, base_dir: str | Path | None = None,
                     matrix: SelectionMatrix | None = None) -> ExperimentConfig:
    """Build a config from its JSON form. Every object is checked for
    missing and unknown keys and every number for its type, so typos fail
    loudly instead of silently running the defaults. A caller that holds
    the matrix `d`'s matrix section builds passes it as `matrix`, and the
    section is then not read."""
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
        matrix=_matrix_from_dict(d["matrix"], base) if matrix is None else matrix,
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


def config_record(cfg: ExperimentConfig) -> dict:
    """`config_to_dict` with the matrix's `i`, `j` and `a` as the stored
    arrays, not lists: the form the writers render in blocks
    (`_jsontext.pieces`), to the same text."""
    m = cfg.matrix
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
        "matrix": {"kind": "entries", "n": m.n, "i": m._tails(), "j": m.indices,
                   "a": m.values},
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


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical resolved form: the matrix as its stored entries (kind
    "entries": parallel lists `i`, `j` and `a` in row-major order, -0.0
    kept), resolved checkpoints and thresholds. Feeding this back to
    `config_from_dict` reproduces the run."""
    doc = config_record(cfg)
    doc["matrix"] = {key: value.tolist() if isinstance(value, np.ndarray) else value
                     for key, value in doc["matrix"].items()}
    return doc


def config_hash(cfg: ExperimentConfig) -> str:
    """64-bit FNV-1a over the canonical compact JSON form,
    `json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))`
    in UTF-8, as 16 hex digits. The text is written in pieces from
    `config_record` (`_jsontext.pieces`) and hashed as they come
    (`_native.fnv1a64_pieces`, in numpy), so it is never held whole.

    The digest is computed on the first call and kept on the config, so a
    command that hashes its config for the manifest and for the results
    walks the canonical form once.
    """
    if cfg._hash is None:
        text = _jsontext.pieces(config_record(cfg), sort_keys=True)
        cfg._hash = f"{_native.fnv1a64_pieces(text):016x}"
    return cfg._hash


# ---------------------------------------------------------------------------
# per-trial streams
# ---------------------------------------------------------------------------

@functools.cache
def _philox_key() -> type:
    """An `ISeedSequence` that hands `Philox` its key as is.
    `Philox(key=...)` builds the same generator, but first seeds an unused
    `SeedSequence` from OS entropy, which costs more than the rest of the
    construction. Made on first use, so that importing the package does not
    load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.key  # Philox asks for its key: 2 words of uint64

    return PhiloxKey


def _trial_rng(base_seed: int, trial: int) -> np.random.Generator:
    # a uint64 key: a list would pass seeds of 2^63 and above through float64
    key = np.array([base_seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_philox_key()(key)))


# ---------------------------------------------------------------------------
# vectorized engine
# ---------------------------------------------------------------------------

@contextmanager
def _spill_errors() -> Iterator[None]:
    """An OSError of the spill file as a RuntimeFailure: a full or missing
    temporary directory is not a fault of the program."""
    try:
        yield
    except OSError as exc:
        where = tempfile.tempdir or "no usable temporary directory"
        raise RuntimeFailure(f"cannot keep the trial matrices in a temporary file in {where} "
                             f"(TMPDIR chooses the directory): {exc}") from None


class _Spill:
    """A pass's temporary file, which holds the rows of every config's
    trial matrices. Chunks on any thread write their rows and readers read
    theirs each with a seek under one lock. Closed by `close`, or once the
    pass and every reader of its rows are dropped."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        with _spill_errors():
            self.file = tempfile.TemporaryFile()
        self.close = weakref.finalize(self, self.file.close)

    def write(self, offset: int, rows: np.ndarray) -> None:
        with self.lock, _spill_errors():
            self.file.seek(offset)
            self.file.write(memoryview(rows).cast("B"))

    def read(self, offset: int, out: np.ndarray) -> np.ndarray:
        with self.lock, _spill_errors():
            self.file.seek(offset)
            if self.file.readinto(memoryview(out).cast("B")) != out.nbytes:
                raise OSError("the file ends before the rows asked for")
        return out


class _Spilled:
    """A C-ordered float64 array of `shape` that a pass writes to its
    spill file at `offset`. A slice of its rows, `stored[lo:hi]`, reads
    them into a fresh array; `shape`, `itemsize` and `len` are an array's."""

    itemsize = 8

    def __init__(self, spill: _Spill, offset: int, shape: tuple[int, ...]) -> None:
        self.spill, self.offset, self.shape = spill, offset, shape
        self.row_bytes = math.prod(shape[1:]) * self.itemsize

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi, _ = rows.indices(len(self))
        return self.spill.read(self.offset + lo * self.row_bytes,
                               np.empty((hi - lo, *self.shape[1:])))


class TrialMatrices:
    """One config's per-trial, per-checkpoint measures from an engine pass.

    `diverged_at`, (trials,), -1 where the state stayed finite, is held in
    memory. The other arrays stay in the pass's spill file, where `stored`
    maps each name to its `_Spilled` rows: dispersion and spread, (trials,
    checkpoints), and when asked for, states, every trial's state at every
    checkpoint, (trials, checkpoints, n). `stored[name][lo:hi]` reads trials
    [lo, hi) of one; `blocks` reads them all a block of trials at a time.
    """

    def __init__(self, checkpoints: tuple[int, ...], diverged_at: np.ndarray,
                 stored: dict[str, _Spilled]) -> None:
        self.checkpoints, self.diverged_at, self.stored = checkpoints, diverged_at, stored

    def blocks(self, *names: str) -> Iterator[tuple[slice, list[np.ndarray]]]:
        """The arrays `names`, a block of trials at a time in trial order:
        each block's slice of trials and its rows of each array, read from
        the pass's file. A block holds AGGREGATE_BLOCK bytes of the widest
        array's rows, or one trial where such a row is wider."""
        arrays = [self.stored[name] for name in names]
        for rows in _row_blocks(max(arrays, key=lambda a: a.row_bytes)):
            yield rows, [a[rows] for a in arrays]


@dataclass
class _Measures:
    """A chunk's measures, with a leading config axis: dispersion and
    spread (configs, trials, checkpoints), diverged_at (configs, trials),
    and states (configs, trials, checkpoints, n) or None."""

    dispersion: np.ndarray
    spread: np.ndarray
    diverged_at: np.ndarray
    states: np.ndarray | None = None


STREAM_WORDS = 11  # key (2 words), counter (4), buffer (4), buffer position


def _streams(base_seed: int, lo: int, hi: int) -> np.ndarray:
    """The streams of trials [lo, hi) before their first draw, one row of
    STREAM_WORDS uint64 each, in the order of numpy's Philox state: key
    [seed, trial], counter 0, a spent buffer (position 4)."""
    streams = np.zeros((hi - lo, STREAM_WORDS), dtype=np.uint64)
    streams[:, 0] = base_seed
    streams[:, 1] = np.arange(lo, hi, dtype=np.uint64)
    streams[:, -1] = 4
    return streams


class _Slots:
    """The engine's slots for one chunk of trials and every config of a
    shared pass, all in one state array `x`, (configs, trials, n). The
    compiled kernel (`_KernelSlots`) and the numpy twin (`_NumpySlots`)
    implement `run` and give the same bits.

    `streams` holds each trial's stream (`_streams`), `tables` the
    matrix's partner tables `cdf` and `cols`, each (n, w)
    (`SelectionMatrix.partner_tables`), `thr` the event thresholds, and
    `out` receives the measures, with a leading config axis: dispersion
    and spread (configs, trials, checkpoints), diverged_at (configs,
    trials), -1 to start with, and states (configs, trials, checkpoints,
    n) or None. Every array is C-contiguous. Construction sets every config's state to the trials'
    initial states, drawing the uniform kind from the streams, and
    `refs` to each trial's dispersion reference, the mean of its start.
    """

    def __init__(self, streams: np.ndarray, initial: InitialState,
                 tables: tuple[np.ndarray, np.ndarray], thr: tuple[float, float],
                 mode: UpdateMode, out: _Measures) -> None:
        npts, m, _ = out.dispersion.shape
        self.cdf, self.cols = tables
        n = len(self.cdf)
        self.streams, self.thr, self.mode, self.out = streams, thr, mode, out
        self.x = np.empty((npts, m, n))
        self.alive = np.ones((npts, m), dtype=bool)
        self.refs = np.empty(m)
        self._open()
        self._start(initial)
        self.x[1:] = self.x[0]
        with np.errstate(over="ignore"):  # start values near the float limit give inf
            np.mean(self.x[0], axis=1, out=self.refs)

    def _open(self) -> None:
        """Ready the trials' streams once the chunk's arrays exist."""
        raise NotImplementedError

    def _start(self, initial: InitialState) -> None:
        """x[0] <- the trials' initial states, drawn from their streams for
        the uniform kind."""
        raise NotImplementedError

    def run(self, w: np.ndarray, k: int, ci: int = -1) -> None:
        """Run one segment of slots, in place on `x`, `alive` and
        `out.diverged_at`: its weights are `w`, 1 - T, T, 1 + S, S per slot
        and config, (slots, configs, 4), and its first slot is slot k of
        the run. Then, if ci >= 0, record checkpoint ci of every trial and
        config in `out`. Segments run in order, each from the slot where
        the last one ended. A trial that overflows keeps its state from
        then on, for that config only, and its draws stop once it is frozen
        in every config."""
        raise NotImplementedError


def _presample(u: np.ndarray, cdf: np.ndarray, cols: np.ndarray, thr: tuple[float, float],
               mode: UpdateMode):
    """Turn the draws of some slots into pairs and events, all at once.

    `u` holds the draws, (trials, slots, draws per slot), and `cdf` and
    `cols` the partner tables, (n, w). Node i comes from the first draw as
    in `dynamics`; partner j is cols[i, k], k the number of entries of
    cdf[i] that are <= the second draw, the index searchsorted(side="right")
    returns, found by a bisection of fixed length over the flattened rows.

    Returns, per slot, the nodes (i, j), shape (slots, 2, trials), int64,
    which every config of the chunk shares, and the masks of the endpoints
    that attract and that repel, shape (slots, 2, trials), or (slots, 1,
    trials) for coupled updates, where both endpoints share the event; all
    C-contiguous.
    """
    us = np.ascontiguousarray(u.transpose(1, 2, 0))  # (slots, draws, trials)
    b, _, a = us.shape
    # the side of each endpoint: the event reaches it where its side is true
    if mode.variant == "symmetric":
        sides = (True,)
    elif mode.active_rule == "uniform":
        active_i = us[:, 3] < 0.5
        sides = (active_i, ~active_i)
    else:
        sides = (mode.active_rule == "initiator", mode.active_rule != "initiator")
    att = np.empty((b, len(sides), a), dtype=bool)
    rep = np.empty((b, len(sides), a), dtype=bool)
    for event, mask in ((us[:, 2] < thr[0], att), (us[:, 2] >= thr[1], rep)):
        for q, side in enumerate(sides):
            np.logical_and(event, side, out=mask[:, q])

    n, width = cdf.shape
    i = np.minimum((us[:, 0] * n).astype(np.int64), n - 1)
    pos = i * width
    # The count lies in [pos - i * width, pos - i * width + length - 1]: the
    # row ends in 1.0, above every draw, so it is at most width - 1.
    length = width
    flat = cdf.reshape(-1)
    while length > 1:
        half = length // 2
        np.add(pos, half, out=pos, where=flat[pos + (half - 1)] <= us[:, 1])
        length -= half
    return np.stack((i, cols.reshape(-1)[pos]), axis=1), att, rep


class _NumpySlots(_Slots):
    """The engine's slots in numpy: the twin of the compiled kernel. It runs
    where the kernel cannot be built, and the tests hold the kernel to it.

    Each trial draws from a numpy `Generator` (`_trial_rng`) set to its row
    of `streams`, and the array is left as it was. The engine passes
    streams at their start; the tests also pass streams with chosen draws
    in their buffers, to make draws that tie with CDF entries and event
    thresholds. A segment's uniforms are drawn when it starts, for the
    trials still live in some config. Per slot, it gathers both endpoints
    of every live trial of every config, updates them with each config's
    weights and scatters them back. Pairs and events do not depend on the
    state: they are presampled one window of PRESAMPLE_STEPS slots of the
    draws at a time.
    """

    def _open(self) -> None:
        streams = self.streams
        self.rngs = [_trial_rng(seed, t) for seed, t in streams[:, :2].tolist()]
        # a stream past its start: a counter above 0 or a buffer not spent
        for r in np.nonzero((streams[:, 2:6] != 0).any(axis=1) | (streams[:, -1] != 4))[0]:
            row = streams[r]
            self.rngs[r].bit_generator.state = {
                "bit_generator": "Philox", "state": {"counter": row[2:6], "key": row[:2]},
                "buffer": row[6:10], "buffer_pos": int(row[10]), "has_uint32": 0, "uinteger": 0}

    def _start(self, initial: InitialState) -> None:
        n = self.x.shape[2]
        for r, rng in enumerate(self.rngs):
            self.x[0, r] = initial.sample(n, rng)

    def run(self, w: np.ndarray, k: int, ci: int = -1) -> None:
        self._slots(w, k)
        if ci >= 0:
            x, out = self.x, self.out
            with np.errstate(over="ignore"):
                out.dispersion[:, :, ci] = ((x - self.refs[:, None]) ** 2).sum(axis=2)
            out.spread[:, :, ci] = x.max(axis=2) - x.min(axis=2)
            if out.states is not None:
                out.states[:, :, ci] = x

    def _slots(self, w: np.ndarray, k: int) -> None:
        """The slots of one segment (`run`)."""
        cols = np.nonzero(self.alive.any(axis=0))[0]
        if not cols.size:
            return
        u = np.empty((cols.size, len(w), self.mode.draws_per_slot))
        for p, r in enumerate(cols):
            self.rngs[r].random(out=u[p])
        npts, m, n = self.x.shape
        flat = self.x.reshape(-1)
        # the flat offset of each config's state row of each column, to
        # which a slot's nodes add
        rows = (np.arange(npts) * (m * n))[:, None, None] + cols * n
        f = np.empty((npts, 2, cols.size), dtype=np.int64)
        t_rest, t, s_plus, s = (w[:, :, q, None, None] for q in range(4))
        size = PRESAMPLE_STEPS
        # live[p, c]: column c still runs in config p; frozen columns are
        # masked only once there is one
        live = self.alive[:, cols]
        keep = None if live.all() else live[:, None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(len(w)):
                r = step % size
                if r == 0:
                    ij = att = rep = None  # the last window goes first
                    ij, att, rep = _presample(u[:, step:step + size], self.cdf, self.cols,
                                              self.thr, self.mode)
                np.add(rows, ij[r], out=f)
                xij = flat[f]
                xji = xij[:, ::-1]
                new = np.where(att[r], t_rest[step] * xij + t[step] * xji,
                               np.where(rep[r], s_plus[step] * xij - s[step] * xji, xij))
                if keep is not None:
                    new = np.where(keep, new, xij)
                if np.abs(new).max() <= OVERFLOW_LIMIT:  # false on nan too
                    flat[f] = new
                else:
                    ok = (np.abs(new) <= OVERFLOW_LIMIT).all(axis=1)
                    bad_p, bad_c = np.nonzero(live & ~ok)
                    self.out.diverged_at[bad_p, cols[bad_c]] = k + step + 1
                    self.alive[bad_p, cols[bad_c]] = False
                    live &= ok
                    keep = live[:, None, :]
                    flat[f] = np.where(keep, new, xij)


_ACTIVE_RULES = ("uniform", "initiator", "responder")


class _Chunk(ctypes.Structure):
    """`chunk` in _slots.c, which `draw_uniform` and `run_slots` take by
    address (`_native._declare`)."""

    i64, ptr, f64 = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    _fields_ = [("streams", ptr), ("m", i64), ("n", i64), ("npts", i64), ("ncp", i64),
                ("x", ptr), ("alive", ptr), ("diverged_at", ptr), ("cdf", ptr),
                ("cols", ptr), ("width", i64), ("thr0", f64), ("thr1", f64), ("mode", i64),
                ("limit", f64), ("refs", ptr),
                ("dispersion", ptr), ("spread", ptr), ("states", ptr)]
    del i64, ptr, f64


class _KernelSlots(_Slots):
    """The engine's slots in the compiled library (`_native.library`): the
    twin of `_NumpySlots`, which the engine runs where the library loads.
    Pointers reach the library only for arrays of its dtypes, shapes and C
    layout, partner columns of the chunk's nodes, weights of the chunk's
    configs and checkpoints of the chunk."""

    def _open(self) -> None:
        streams, cdf, cols, out = self.streams, self.cdf, self.cols, self.out
        npts, m, ncp = out.dispersion.shape
        n, width = len(cdf), cdf.shape[-1]
        shapes = [(streams, np.uint64, (m, STREAM_WORDS)), (cdf, np.float64, (n, width)),
                  (cols, np.int32, (n, width)),
                  (out.dispersion, np.float64, (npts, m, ncp)),
                  (out.spread, np.float64, (npts, m, ncp)),
                  (out.diverged_at, np.int64, (npts, m))]
        if out.states is not None:
            shapes.append((out.states, np.float64, (npts, m, ncp, n)))
        if any(a.dtype != dtype or a.shape != shape or not a.flags.c_contiguous
               for a, dtype, shape in shapes):
            raise ValueError("slot kernel arguments of the wrong shape, type or layout")
        if not cols.size or cols.min() < 0 or cols.max() >= n:
            raise ValueError(f"slot kernel arguments: partner columns outside [0, {n})")
        mode = self.mode
        code = 0 if mode.variant == "symmetric" else 1 + _ACTIVE_RULES.index(mode.active_rule)
        self.chunk = _Chunk(
            streams.ctypes.data, m, n, npts, ncp, self.x.ctypes.data,
            self.alive.ctypes.data, out.diverged_at.ctypes.data, cdf.ctypes.data,
            cols.ctypes.data, width, self.thr[0], self.thr[1], code, OVERFLOW_LIMIT,
            self.refs.ctypes.data,
            out.dispersion.ctypes.data, out.spread.ctypes.data,
            None if out.states is None else out.states.ctypes.data)
        self.at = ctypes.addressof(self.chunk)

    def _start(self, initial: InitialState) -> None:
        if initial.kind == "uniform":
            _native.library().draw_uniform(self.at, initial.low, initial.high)
        else:
            self.x[0] = initial.sample(self.x.shape[2], None)

    def run(self, w: np.ndarray, k: int, ci: int = -1) -> None:
        npts, _, ncp = self.out.dispersion.shape
        if w.dtype != np.float64 or w.shape[1:] != (npts, 4) or not w.flags.c_contiguous \
                or not -1 <= ci < ncp:
            raise ValueError(f"slot kernel arguments: weights {w.dtype} {w.shape}, "
                             f"checkpoint {ci} of {ncp}")
        _native.library().run_slots(self.at, w.ctypes.data, len(w), k, ci)


def _simulate_chunk(cfgs: list[ExperimentConfig], tables: tuple[np.ndarray, np.ndarray],
                    lo: int, hi: int, out: _Measures, slots: type[_Slots]) -> None:
    """Run trials [lo, hi) of every config in `cfgs` together; the configs
    share their draws (`_shares_draws`) and their matrix's partner tables,
    `tables` (`SelectionMatrix.partner_tables`). `out` receives their
    matrices with a leading config axis: dispersion and spread (configs,
    trials, checkpoints), diverged_at (configs, trials), and every trial's
    state at every checkpoint, (configs, trials, checkpoints, n), or None.

    Follows the per-slot draw protocol of `dynamics`: per-trial streams, a
    fixed consumption order, the update expressions and the freeze on
    overflow. The slots run on `slots`: the compiled kernel
    (`_KernelSlots`), which draws each trial's Philox stream itself and
    measures the checkpoints, or, where none could be built, its numpy twin
    (`_NumpySlots`): one interface, the same bits. The weights 1 - T, T,
    1 + S, S of WEIGHT_BLOCK slots at a time are evaluated once for the
    chunk, and the slots between checkpoints run as one segment.
    """
    cfg = cfgs[0]
    cps = cfg.checkpoints
    out.diverged_at[...] = -1
    chunk = slots(_streams(cfg.base_seed, lo, hi), cfg.initial, tables,
                  cfg.probabilities.thresholds(), cfg.mode, out)
    # weight blocks until the last checkpoint, k0 + steps, is recorded; the
    # first, k0, is recorded before any slot runs
    k = cfg.k0
    ci = 0
    while ci < len(cps):
        b = min(WEIGHT_BLOCK, cfg.k0 + cfg.steps - k)
        # (b, configs): each config's T and S
        t = np.stack([c.schedule_t.applied(k, k + b) for c in cfgs], axis=1)
        s = np.stack([c.schedule_s.applied(k, k + b) for c in cfgs], axis=1)
        w = np.stack((1.0 - t, t, 1.0 + s, s), axis=2)
        s0 = 0
        while ci < len(cps) and cps[ci] <= k + b:
            chunk.run(w[s0:cps[ci] - k], k + s0, ci)
            s0 = cps[ci] - k
            ci += 1
        if s0 < b:
            chunk.run(w[s0:], k + s0)
        k += b


# The fields configs that share a pass may differ in; the engine reads the
# matrix only through its partner tables, its positive entries, where -0.0
# and 0.0 draw alike.
_POINT_FIELDS = frozenset({"schedule_t", "schedule_s", "eps_agree", "big_m"})


def _shares_draws(a: ExperimentConfig, b: ExperimentConfig) -> bool:
    """Whether two configs draw the same pairs, events and initial states:
    equal matrix entries, and every other field but `_POINT_FIELDS` equal
    down to the float bits (by repr, which also tells -0.0 from 0.0)."""
    return a.matrix.same_entries(b.matrix) and all(
        repr(getattr(a, f.name)) == repr(getattr(b, f.name)) for f in fields(ExperimentConfig)
        if f.compare and f.name != "matrix" and f.name not in _POINT_FIELDS)


def run_shared_trials(configs: list[ExperimentConfig],
                      states: bool = False) -> Iterator[TrialMatrices]:
    """Run configs that share their draws (they differ only in schedules,
    `eps_agree` and `big_m`) through one pass of the engine, and yield each
    config's matrices in turn, equal to `run_trials` on that config alone.

    Trials are split into fixed chunks. The configs are carried as extra
    state rows, in consecutive batches small enough that a chunk's batched
    state, configs x CHUNK_TRIALS x n floats, stays within
    BATCH_STATE_BYTES. With `states`, the matrices also hold every trial's
    state at every checkpoint, trials x checkpoints x n floats.

    Each batch is one pass (`_run_batch`) with its own temporary file, from
    which the matrices it yields read their rows, also once the pass has
    run to its end; closing the generator before its end closes the file
    of the pass it is in.
    """
    first = configs[0]
    if not all(_shares_draws(first, cfg) for cfg in configs[1:]):
        raise ValueError("run_shared_trials needs configs that share their draws")
    batch = max(1, BATCH_STATE_BYTES // (CHUNK_TRIALS * first.matrix.n * 8))
    tables = first.matrix.partner_tables()
    for p0 in range(0, len(configs), batch):
        yield from _run_batch(configs[p0:p0 + batch], tables, states)


def _workers() -> int:
    """The number of cores this process may run on (`taskset` limits them),
    each of which runs a share of a pass's chunks."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_threads(task: Callable[[int], None], items: range, workers: int) -> None:
    """Call task(item) for every item on up to `workers` threads, the
    calling thread one of them; each thread takes the next item when done
    with its last. If a task raises, or the caller is interrupted, the
    threads stop at their next item, all are joined, and the first error
    is raised here: no thread outlives the call."""
    pending = iter(items)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work() -> None:
        try:
            while not errors:
                with lock:
                    item = next(pending, None)
                if item is None:
                    return
                task(item)
        except BaseException as exc:  # KeyboardInterrupt in the caller too
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(min(workers, len(items)) - 1)]
    try:
        for thread in threads:
            thread.start()
    except BaseException as exc:  # a thread that could not start
        errors.append(exc)
    work()
    for thread in threads:
        while thread.is_alive():  # false for a thread never started
            try:
                thread.join()
            except BaseException as exc:  # an interrupt while waiting
                errors.append(exc)
    if errors:
        raise errors[0]


def _run_batch(configs: list[ExperimentConfig], tables: tuple[np.ndarray, np.ndarray],
               states: bool) -> Iterator[TrialMatrices]:
    """One pass over every trial for configs that share their draws and
    the partner tables `tables`.

    Each config's `diverged_at` is allocated before the first slot, as the
    results keep it, so a run too large to hold them fails before it runs.
    Every other row goes to the pass's temporary file (`_Spill`), each
    config's arrays one after another, and each config's matrices read
    theirs back from there (`TrialMatrices`): no pass holds a trials x
    checkpoints matrix, however many configs share it. Closing the pass
    before its end closes the file; after its end the file stays open
    while any config's matrices are held.

    The chunks run on every usable core (`_workers`), one chunk at a time
    per worker, and are sized so that each worker gets one. A chunk writes
    only its own rows, in `diverged_at` and at their place in the file, so
    the results do not depend on the number of workers. The numpy twin runs
    on one worker: its per-slot numpy holds the GIL.
    """
    first = configs[0]
    trials, ncp, n = first.trials, len(first.checkpoints), first.matrix.n
    diverged = [allocate(trials, np.int64) for _ in configs]
    spill = _Spill()
    shapes = {"dispersion": (trials, ncp), "spread": (trials, ncp)}
    if states:
        shapes["states"] = (trials, ncp, n)
    stored: list[dict[str, _Spilled]] = []  # each config's arrays, in file order
    offset = 0
    for _ in configs:
        own = {}
        for name, shape in shapes.items():
            own[name] = _Spilled(spill, offset, shape)
            offset += trials * own[name].row_bytes
        stored.append(own)
    slots = _NumpySlots if _native.library() is None else _KernelSlots
    workers = 1 if slots is _NumpySlots else _workers()
    size = min(CHUNK_TRIALS, -(-trials // workers))

    def run_chunk(lo: int) -> None:
        hi = min(lo + size, trials)
        rows = (len(configs), hi - lo)
        chunk = _Measures(np.empty((*rows, ncp)), np.empty((*rows, ncp)),
                          np.empty(rows, dtype=np.int64),
                          np.empty((*rows, ncp, n)) if states else None)
        _simulate_chunk(configs, tables, lo, hi, chunk, slots)
        for q, own in enumerate(stored):
            diverged[q][lo:hi] = chunk.diverged_at[q]
            for name, matrix in own.items():
                spill.write(matrix.offset + lo * matrix.row_bytes, getattr(chunk, name)[q])

    try:
        _in_threads(run_chunk, range(0, trials, size), workers)
        for cfg, div, own in zip(configs, diverged, stored):
            yield TrialMatrices(cfg.checkpoints, div, own)
    except BaseException:  # a chunk failed, or the caller closed the pass
        spill.close()
        raise


def run_trials(config: ExperimentConfig, states: bool = False) -> TrialMatrices:
    """Run every trial of one config on the vectorized engine
    (`run_shared_trials` with one config). The matrices read their rows
    from the pass's temporary file, which is closed once they are dropped."""
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


class Classification(Enum):
    AGREED = "Agreed"
    DIVERGED = "Diverged"
    UNDECIDED = "Undecided"


# the classes of the trials, indexed by `_class_codes`
_CLASSES = np.array([Classification.UNDECIDED, Classification.AGREED, Classification.DIVERGED],
                    dtype=object)


def _row_blocks(matrix: np.ndarray | _Spilled) -> Iterator[slice]:
    """`matrix`'s rows in consecutive blocks of AGGREGATE_BLOCK bytes, or of
    one row where a row is wider."""
    step = max(1, AGGREGATE_BLOCK // (matrix.itemsize * math.prod(matrix.shape[1:])))
    return (slice(lo, lo + step) for lo in range(0, len(matrix), step))


def _column_sums(matrix: np.ndarray | _Spilled,
                 terms: Callable[[np.ndarray], tuple[np.ndarray, ...]]) -> list[np.ndarray]:
    """The column sums of each array of per-element terms that `terms` makes
    of some of `matrix`'s rows, with the bits of `np.add.reduce(term,
    axis=0)` over the whole matrix's terms.

    numpy sums a matrix of two or more columns along axis 0 one row after
    another, so the rows go in blocks (`_row_blocks`), and each block's sum
    starts from the sums so far, carried as its first row: no temporary
    outgrows a block. A matrix of one column is summed whole, as numpy sums
    a column pairwise. `matrix` is an array or a pass's rows in its spill
    file (`_Spilled`), where each block is read into a fresh array.
    """
    blocks = iter([slice(None)] if matrix.shape[1] == 1 else _row_blocks(matrix))
    sums = [np.add.reduce(t, axis=0) for t in terms(matrix[next(blocks)])]
    for rows in blocks:
        sums = [np.add.reduce(np.concatenate((s[None], t)), axis=0)
                for s, t in zip(sums, terms(matrix[rows]))]
    return sums


def _class_codes(config: ExperimentConfig, mats: TrialMatrices) -> np.ndarray:
    """Each trial's index into `_CLASSES`. Diverged wins: a trial that froze
    on overflow, or whose spread exceeds big_m at any checkpoint, even if it
    later came back down. Otherwise a trial is Agreed when its final spread
    lies strictly below eps_agree, else Undecided. big_m must exceed every
    trial's initial spread. The spreads are read in blocks of trials
    (`TrialMatrices.blocks`)."""
    diverged = mats.diverged_at >= 0
    agreed = np.empty(len(diverged), dtype=bool)
    worst = -np.inf  # the largest initial spread, nan if any is
    for rows, (block,) in mats.blocks("spread"):
        worst = np.maximum(worst, block[:, 0].max())
        diverged[rows] |= (block > config.big_m).any(axis=1)
        agreed[rows] = block[:, -1] < config.eps_agree
    if not config.big_m > worst:
        raise BadParameterError(
            f"big_m ({config.big_m}) must exceed the initial spread ({float(worst)})")
    return np.where(diverged, 2, agreed.astype(np.intp))


def classify_trials(config: ExperimentConfig, mats: TrialMatrices) -> list[Classification]:
    """Each trial's class (`_class_codes`)."""
    return _CLASSES[_class_codes(config, mats)].tolist()


def _kurtosis(m2: np.ndarray, m4: np.ndarray) -> np.ndarray:
    return np.where(m2 > 0.0, m4 / np.where(m2 > 0.0, m2, 1.0) ** 2 - 3.0, 0.0)


def _excess_kurtosis(columns: np.ndarray | _Spilled, mean: np.ndarray, m2: np.ndarray,
                     m4: np.ndarray) -> np.ndarray:
    """Each column's excess kurtosis from its mean and its second and fourth
    moments m2 and m4, inf where it is not finite. It feeds only the `>
    HEAVY_TAIL_KURTOSIS` flags, which equal those of the form that takes
    fourth powers with `** 4`.

    The fourth powers in m4 are squares of squares: libm's pow, which `** 4`
    calls, costs ten times as much. The two differ by a few ulps a term,
    and their means over N rows by at most about 2 N ulps, while the terms
    stay normal floats. So the `** 4` form is computed where the flags
    could differ: a kurtosis within 4 (N + 8) eps of the threshold,
    relative, or not finite, or a fourth moment outside [2^-900,
    2^1000 / N], where subnormal terms or overflow could part the forms;
    a column of zero variance reads 0 in both.
    """
    kurt = _kurtosis(m2, m4)
    size = len(columns)
    margin = 4 * (size + 8) * np.finfo(float).eps * HEAVY_TAIL_KURTOSIS
    near = (m2 > 0.0) & (~(np.abs(kurt - HEAVY_TAIL_KURTOSIS) > margin) | ~np.isfinite(kurt)
                         | ~((m4 >= 2.0 ** -900) & (m4 <= 2.0 ** 1000 / size)))
    if near.any():
        # over every column, so that each column's mean sums in the same
        # order as in the ** 4 form alone
        [fourths] = _column_sums(columns, lambda rows: ((rows - mean) ** 4,))
        kurt = np.where(near, _kurtosis(m2, fourths / size), kurt)
    return np.where(np.isfinite(kurt), kurt, np.inf)


def _column_stats(matrix: np.ndarray | _Spilled, kurtosis: bool = False) \
        -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The mean of each column of a trial matrix, its variance with ddof=1
    (0 for one row) and, if asked, its excess kurtosis (`_excess_kurtosis`;
    0 for three rows or fewer), with the bits of `matrix.mean(axis=0)`,
    `matrix.var(axis=0, ddof=1)` and the kurtosis taken on the whole
    matrix. np.var's sum of squared deviations is the kurtosis' m2 sum, so
    one pass over the rows (`_column_sums`) after the mean's gives both, and
    m4's."""
    size, ncp = matrix.shape
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        [total] = _column_sums(matrix, lambda rows: (rows,))
        mean = total / size

        def deviations(rows: np.ndarray) -> tuple[np.ndarray, ...]:
            squares = np.square(rows - mean)
            return (squares, np.square(squares)) if kurtosis else (squares,)

        sums = _column_sums(matrix, deviations)
        var = sums[0] / (size - 1) if size > 1 else np.zeros(ncp)
        if not kurtosis:
            return mean, var, None
        kurt = _excess_kurtosis(matrix, mean, sums[0] / size, sums[1] / size) if size > 3 \
            else np.zeros(ncp)
    return mean, var, kurt


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    return aggregate_trials(config, run_trials(config))


def aggregate_trials(config: ExperimentConfig, mats: TrialMatrices) -> ExperimentResult:
    """Classify the trials of one config and summarize them per checkpoint.

    The matrices are read from the pass's temporary file in blocks of rows
    (`_row_blocks`), each into a fresh array, and their column sums carried
    from block to block in numpy's axis-0 order, one row after another
    (`_column_sums`): the results have the bits of numpy's mean and var
    over the whole matrix, and no array outgrows a block but the per-trial
    ones the results keep.
    """
    codes = _class_codes(config, mats)
    undecided, agreed, diverged = np.bincount(codes, minlength=len(_CLASSES)).tolist()
    counts = {"nAgreed": agreed, "nDiverged": diverged, "nUndecided": undecided}
    trials = config.trials

    mean_l, var_l, kurt = _column_stats(mats.stored["dispersion"], kurtosis=True)
    mean_s, var_s, _ = _column_stats(mats.stored["spread"])
    with np.errstate(over="ignore", invalid="ignore"):
        ci_l, ci_s = (1.96 * np.sqrt(var / trials) for var in (var_l, var_s))
    heavy = [int(k) for k, flag in zip(config.checkpoints, kurt > HEAVY_TAIL_KURTOSIS) if flag]
    return ExperimentResult(
        config_hash=config_hash(config),
        checkpoints=config.checkpoints,
        trials=trials,
        mean_l=mean_l, var_l=var_l, ci_l=ci_l,
        mean_spread=mean_s, var_spread=var_s, ci_spread=ci_s,
        counts=counts,
        classifications=_CLASSES[codes].tolist(),
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


def _with_value(d: dict, path: str, value) -> dict:
    """`d` with `value` set at `path` as `set_by_path` sets it, in a copy of
    only the objects along the path: the rest, a matrix's rows among it, is
    shared with `d`, which stays as it was."""
    top = cur = dict(d)
    for p in path.split(".")[:-1]:
        if not isinstance(cur.get(p), dict):
            break  # set_by_path refuses the path
        cur[p] = cur = dict(cur[p])
    set_by_path(top, path, value)
    return top


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


def sweep(config_dict: dict, axis: str, values, base_dir: str | Path | None = None,
          matrix: SelectionMatrix | None = None) -> list[SweepPoint]:
    """Re-run an experiment for each value of one numeric config entry.

    The seed is left untouched, so every sweep point uses common random
    numbers and differences across points are not noise re-draws. Points
    that share their draws (an axis in `schedules`, `epsAgree` or `bigM`)
    run through one pass of the engine (`run_shared_trials`); the others
    run alone. Every pass writes its points' trial matrices to its
    temporary file, and each point is aggregated from there
    (`aggregate_trials`, which reads them in blocks of rows and sums them
    in numpy's axis-0 order), so a sweep holds no trials x checkpoints
    matrix; the pass, and its file, is closed when its points are done or
    one of them fails. Each point also carries the analytic report for its
    config.

    Along an axis outside `matrix` every point holds one matrix, and so one
    spectral solve (`graph.spectral`): `matrix`, the one `config_dict`'s matrix
    section builds if the caller has it, else the first point's. Along an
    axis under `matrix` each point builds its own, and points whose entries
    are equal bit for bit share one. Each point's document copies only the
    objects along the axis path (`_with_value`), so a matrix's inline rows
    are never copied, and `config_dict` is left as it was.
    """
    values = sweep_values(axis, values)
    rebuilt = axis == "matrix" or axis.startswith("matrix.")
    configs = []
    for v in values:
        d = _with_value(config_dict, axis, v)
        cfg = config_from_dict(d, base_dir=base_dir, matrix=None if rebuilt else matrix)
        if rebuilt:
            # points whose entries have the same bits (-0.0 is not 0.0: its
            # text and so the hash differ) hold and solve one matrix
            cfg.matrix = next((c.matrix for c in configs
                               if c.matrix.same_entries(cfg.matrix, bits=True)), cfg.matrix)
        else:
            matrix = cfg.matrix
        configs.append(cfg)
    groups: list[list[int]] = []
    for i, cfg in enumerate(configs):
        group = next((g for g in groups if _shares_draws(configs[g[0]], cfg)), None)
        if group is None:
            groups.append([i])
        else:
            group.append(i)
    results: list = [None] * len(configs)
    for group in groups:
        with closing(run_shared_trials([configs[i] for i in group])) as shared:
            for i, mats in zip(group, shared):
                results[i] = aggregate_trials(configs[i], mats)
    points = []
    for v, cfg, result in zip(values, configs, results):
        report = theory_report(cfg)
        value = v if axis in INTEGER_KEYS else float(v)
        points.append(SweepPoint(value=value, result=result, report=report))
    return points

