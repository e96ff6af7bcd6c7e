"""Sampling and state updates for one gossip trajectory.

Each slot k draws an ordered pair: node i uniformly, then partner j from row i
of the selection matrix, so the ordered pair (i, j) has probability a_ij / n.
Each selected endpoint then experiences one of three events:

* attraction (prob alpha):  x_u <- (1 - T_k) x_u + T_k x_v
* neglect    (prob beta):   x_u unchanged
* repulsion  (prob gamma):  x_u <- (1 + S_k) x_u - S_k x_v

Both endpoints read pre-step values. Coupled ("symmetric") updates give both
endpoints the same event from a single draw; one-sided ("asymmetric") updates
give the event to one active endpoint and neglect to the other.

Random draws follow a fixed per-slot protocol (pair uniform, partner uniform,
event uniform, then the active-endpoint coin when applicable) so that the
vectorized Monte Carlo engine can reproduce scalar trajectories bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import BadHorizonError, BadParameterError, NonFiniteStateError
from .graph import SelectionMatrix

__all__ = [
    "Event",
    "EventProbabilities",
    "Schedule",
    "UpdateMode",
    "NetworkState",
    "StepOutcome",
    "TrajectoryResult",
    "OVERFLOW_LIMIT",
    "sample_pair",
    "sample_events",
    "apply_step",
    "run_trajectory",
]

OVERFLOW_LIMIT = 1e150

T_CLIP = (1e-12, 1.0)
S_CLIP = (1e-12, math.inf)


class Event(IntEnum):
    ATTRACTION = 0
    NEGLECT = 1
    REPULSION = 2


@dataclass(frozen=True)
class EventProbabilities:
    """Per-endpoint event distribution (alpha + beta + gamma = 1)."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        for name, v in (("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma)):
            if not (isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0):
                raise BadParameterError(f"{name} must lie in [0, 1], got {v}")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > 1e-12:
            raise BadParameterError(
                f"alpha+beta+gamma must be 1 within 1e-12, got {self.alpha + self.beta + self.gamma}"
            )

    def thresholds(self) -> tuple[float, float]:
        """Cut points on [0, 1): below the first is attraction, below the
        second neglect, else repulsion. Computed once so every consumer
        compares against identical floats."""
        return self.alpha, self.alpha + self.beta


@dataclass(frozen=True)
class UpdateMode:
    """Event coupling across the selected pair.

    variant "symmetric": one event draw, both endpoints apply it.
    variant "asymmetric": one endpoint is active and applies the drawn event,
    the other neglects. active_rule picks the active endpoint: "initiator"
    (always i), "responder" (always j) or "uniform" (fair coin per slot).
    """

    variant: str = "symmetric"
    active_rule: str = "uniform"

    def __post_init__(self) -> None:
        if self.variant not in ("symmetric", "asymmetric"):
            raise BadParameterError(f"unknown mode variant {self.variant!r}")
        if self.active_rule not in ("uniform", "initiator", "responder"):
            raise BadParameterError(f"unknown active rule {self.active_rule!r}")

    @property
    def draws_per_slot(self) -> int:
        if self.variant == "asymmetric" and self.active_rule == "uniform":
            return 4
        return 3


@dataclass(frozen=True)
class Schedule:
    """Weight sequence T_k or S_k.

    Kinds: constant value; explicit list with a tail value for slots past the
    list; power law c*(k+1)^(-p); geometric c*r^k. `raw` evaluates the
    sequence over a slot range; overflow saturates to inf. Two clips sit on
    top of it: `applied` clips to [lo, hi] because the update law needs
    strictly positive weights and is what the simulators use; `ideal` clips
    only to the mathematically legal range [0, hi] and is what the analytic
    condition evaluators consume.
    """

    kind: str
    value: float | None = None
    values: tuple[float, ...] = field(default=())
    tail_value: float | None = None
    c: float | None = None
    p: float | None = None
    r: float | None = None
    lo: float = 1e-12
    hi: float = math.inf

    def __post_init__(self) -> None:
        if self.kind == "constant":
            if self.value is None or not math.isfinite(self.value):
                raise BadParameterError(f"constant schedule needs a finite value, got {self.value}")
        elif self.kind == "explicit":
            if self.tail_value is None or not math.isfinite(self.tail_value):
                raise BadParameterError("explicit schedule needs a finite tail_value")
            if any(not math.isfinite(v) for v in self.values):
                raise BadParameterError("explicit schedule values must be finite")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        elif self.kind == "power":
            if self.c is None or not (math.isfinite(self.c) and self.c > 0):
                raise BadParameterError(f"power schedule needs c > 0, got {self.c}")
            if self.p is None or not math.isfinite(self.p):
                raise BadParameterError(f"power schedule needs a finite exponent, got {self.p}")
        elif self.kind == "geometric":
            if self.c is None or not (math.isfinite(self.c) and self.c > 0):
                raise BadParameterError(f"geometric schedule needs c > 0, got {self.c}")
            if self.r is None or not (math.isfinite(self.r) and self.r >= 0):
                raise BadParameterError(f"geometric schedule needs ratio r >= 0, got {self.r}")
        else:
            raise BadParameterError(f"unknown schedule kind {self.kind!r}")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(value: float, clip: tuple[float, float] = (1e-12, math.inf)) -> "Schedule":
        return Schedule(kind="constant", value=value, lo=clip[0], hi=clip[1])

    @staticmethod
    def explicit(values, tail_value: float, clip: tuple[float, float] = (1e-12, math.inf)) -> "Schedule":
        return Schedule(kind="explicit", values=tuple(values), tail_value=tail_value,
                        lo=clip[0], hi=clip[1])

    @staticmethod
    def power(c: float, p: float, clip: tuple[float, float] = (1e-12, math.inf)) -> "Schedule":
        return Schedule(kind="power", c=c, p=p, lo=clip[0], hi=clip[1])

    @staticmethod
    def geometric(c: float, r: float, clip: tuple[float, float] = (1e-12, math.inf)) -> "Schedule":
        return Schedule(kind="geometric", c=c, r=r, lo=clip[0], hi=clip[1])

    # -- evaluation ----------------------------------------------------------

    def raw(self, k_lo: int, k_hi: int) -> np.ndarray:
        """The unclipped sequence at slots k_lo .. k_hi - 1 (k_lo >= 0)."""
        k = np.arange(k_lo, k_hi, dtype=float)
        with np.errstate(over="ignore", under="ignore"):
            if self.kind == "power":
                return self.c * (k + 1.0) ** (-self.p)
            if self.kind == "geometric":
                return self.c * np.power(self.r, k)
        if self.kind == "constant":
            return np.full(k.shape, float(self.value))
        v = np.full(k.shape, float(self.tail_value))  # explicit: the list, then its tail
        head = self.values[k_lo:k_hi]
        v[:len(head)] = head
        return v

    def applied(self, k_lo: int, k_hi: int) -> np.ndarray:
        """The weights the simulators use (numeric clip [lo, hi])."""
        return np.clip(self.raw(k_lo, k_hi), self.lo, self.hi)

    def ideal(self, k_lo: int, k_hi: int) -> np.ndarray:
        """The weights with only the legal-range clip [0, hi] applied."""
        return np.clip(self.raw(k_lo, k_hi), 0.0, self.hi)

    # -- structure queries used by the condition evaluators ------------------

    def constant_value(self) -> float | None:
        """The constant the simulators apply (`applied`) when the sequence
        provably never varies, else None."""
        if not (self.kind == "constant"
                or (self.kind == "power" and self.p == 0)
                or (self.kind == "geometric" and self.r == 1.0)
                or (self.kind == "explicit" and len({*self.values, self.tail_value}) == 1)):
            return None
        return float(self.applied(0, 1)[0])

    def _trend(self) -> int:
        """-1 for a decaying closed form, +1 for a growing one, else 0."""
        if self.kind == "power":
            return (self.p < 0) - (self.p > 0)
        if self.kind == "geometric":
            return (self.r > 1.0) - (self.r < 1.0)
        return 0

    def limit(self) -> float:
        """lim_k of the ideal sequence."""
        if self.kind == "explicit":
            return float(self.ideal(len(self.values), len(self.values) + 1)[0])
        trend = self._trend()
        if trend:
            return self.hi if trend > 0 else 0.0
        return float(self.ideal(0, 1)[0])

    def decay_exponent(self) -> float | None:
        """p when the ideal sequence falls to zero like k^(-p). None for every
        other tail: constants and explicit tails hold their limit from some
        slot on, growing sequences reach the ceiling (or grow without bound
        when there is none), and geometric decay beats every power."""
        return self.p if self.kind == "power" and self.p > 0 else None

    def ideal_range(self) -> tuple[float, float]:
        """(inf, sup) of the ideal sequence over all k >= 0."""
        if self.kind == "explicit":
            vals = self.ideal(0, len(self.values) + 1)  # the list, then the tail
            return float(vals.min()), float(vals.max())
        first = float(self.ideal(0, 1)[0])
        lim = self.limit()
        return min(first, lim), max(first, lim)

    def monotone_direction(self) -> str | None:
        """"constant", "nonincreasing", "nondecreasing", or None."""
        if self.constant_value() is not None:
            return "constant"
        if self.kind != "explicit":
            return "nonincreasing" if self._trend() < 0 else "nondecreasing"
        # explicit: inspect the clipped sequence including the tail
        step = np.diff(self.ideal(0, len(self.values) + 1))
        noninc = bool((step <= 0.0).all())
        nondec = bool((step >= 0.0).all())
        if noninc and nondec:
            return "constant"
        if noninc:
            return "nonincreasing"
        if nondec:
            return "nondecreasing"
        return None


@dataclass
class NetworkState:
    x: np.ndarray
    k: int


@dataclass(frozen=True)
class StepOutcome:
    """Everything that happened in one slot: the ordered pair, the event each
    endpoint experienced, and the weights in force."""

    i: int
    j: int
    event_i: Event
    event_j: Event
    t_k: float
    s_k: float


@dataclass
class TrajectoryResult:
    states: list[NetworkState]
    diverged: bool = False
    diverged_at: int | None = None
    clipped_slots: int = 0


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _node_from_uniform(u: float, n: int) -> int:
    return min(int(u * n), n - 1)


def _partner_from_uniform(cdf_row: np.ndarray, u: float) -> int:
    return int(np.searchsorted(cdf_row, u, side="right"))


def _event_from_uniform(u: float, thresholds: tuple[float, float]) -> Event:
    if u < thresholds[0]:
        return Event.ATTRACTION
    if u < thresholds[1]:
        return Event.NEGLECT
    return Event.REPULSION


def sample_pair(matrix: SelectionMatrix, rng: np.random.Generator,
                cdfs: np.ndarray | None = None) -> tuple[int, int]:
    """Draw the ordered pair (i, j): i uniform over nodes, j from row i.

    Consumes exactly two uniforms. The returned pair always satisfies
    a_ij > 0 and i != j.
    """
    if cdfs is None:
        cdfs = matrix.row_cdfs()
    u = rng.random(2)
    i = _node_from_uniform(u[0], matrix.n)
    j = _partner_from_uniform(cdfs[i], u[1])
    return i, j


def sample_events(mode: UpdateMode, probs: EventProbabilities,
                  rng: np.random.Generator) -> tuple[Event, Event]:
    """Draw the per-endpoint events for one slot.

    Symmetric coupling consumes one uniform and both endpoints share the
    event. Asymmetric coupling draws the event, then (for the "uniform" rule
    only) a fair coin choosing the active endpoint; the passive endpoint
    neglects.
    """
    thr = probs.thresholds()
    e = _event_from_uniform(rng.random(), thr)
    if mode.variant == "symmetric":
        return e, e
    if mode.active_rule == "initiator":
        active_is_i = True
    elif mode.active_rule == "responder":
        active_is_i = False
    else:
        active_is_i = rng.random() < 0.5
    return (e, Event.NEGLECT) if active_is_i else (Event.NEGLECT, e)


# ---------------------------------------------------------------------------
# state update
# ---------------------------------------------------------------------------

def _updated_value(xu: float, xv: float, event: Event, t: float, s: float) -> float:
    if event == Event.ATTRACTION:
        return (1.0 - t) * xu + t * xv
    if event == Event.REPULSION:
        return (1.0 + s) * xu - s * xv
    return xu


def apply_step(state: NetworkState, outcome: StepOutcome) -> NetworkState:
    """Apply one slot's outcome. Endpoints read pre-step values.

    Raises NonFiniteStateError when an updated entry leaves the finite range
    (|x| > 1e150 or non-finite); the caller decides how to record that.
    """
    if outcome.i == outcome.j:
        raise BadParameterError("a pair must consist of two distinct nodes")
    x = state.x
    xi, xj = float(x[outcome.i]), float(x[outcome.j])
    new_i = _updated_value(xi, xj, outcome.event_i, outcome.t_k, outcome.s_k)
    new_j = _updated_value(xj, xi, outcome.event_j, outcome.t_k, outcome.s_k)
    for v in (new_i, new_j):
        if not (abs(v) <= OVERFLOW_LIMIT):  # also catches nan
            raise NonFiniteStateError(
                f"state left the finite range at slot {state.k} (value {v!r})"
            )
    out = x.copy()
    out[outcome.i] = new_i
    out[outcome.j] = new_j
    return NetworkState(x=out, k=state.k + 1)


def run_trajectory(matrix: SelectionMatrix, mode: UpdateMode,
                   probs: EventProbabilities, schedule_t: Schedule,
                   schedule_s: Schedule, x0: np.ndarray, k0: int, steps: int,
                   rng: np.random.Generator,
                   checkpoints=None) -> TrajectoryResult:
    """Run one trajectory and snapshot it at the requested slot indices.

    Snapshots always include k0 and the final slot. If an update overflows,
    the trajectory freezes at its last fully-finite state, later checkpoints
    replicate that frozen state, and the result is flagged diverged.
    """
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise BadHorizonError(f"steps must be a nonnegative integer, got {steps}")
    if not isinstance(k0, (int, np.integer)) or k0 < 0:
        raise BadHorizonError(f"k0 must be a nonnegative integer, got {k0}")
    wanted = set(int(c) for c in (checkpoints or []))
    for c in wanted:
        if not k0 <= c <= k0 + steps:
            raise BadHorizonError(f"checkpoint {c} outside [{k0}, {k0 + steps}]")
    wanted |= {k0, k0 + steps}
    cps = sorted(wanted)

    x = np.array(x0, dtype=float)
    if x.ndim != 1 or x.shape[0] != matrix.n:
        raise BadParameterError(f"x0 must have length {matrix.n}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise BadParameterError("x0 must be finite")

    cdfs = matrix.row_cdfs()
    result = TrajectoryResult(states=[])
    state = NetworkState(x=x, k=k0)
    cp_iter = iter(cps)
    next_cp = next(cp_iter)

    def record(at_k: int, vec: np.ndarray) -> None:
        result.states.append(NetworkState(x=vec.copy(), k=at_k))

    if next_cp == k0:
        record(k0, state.x)
        next_cp = next(cp_iter, None)

    t_vals = schedule_t.applied(k0, k0 + steps)
    s_vals = schedule_s.applied(k0, k0 + steps)
    clipped = (t_vals != schedule_t.raw(k0, k0 + steps)) \
        | (s_vals != schedule_s.raw(k0, k0 + steps))
    t_vals, s_vals = t_vals.tolist(), s_vals.tolist()
    for k in range(k0, k0 + steps):
        if not result.diverged:
            i, j = sample_pair(matrix, rng, cdfs)
            ev_i, ev_j = sample_events(mode, probs, rng)
            outcome = StepOutcome(i=i, j=j, event_i=ev_i, event_j=ev_j,
                                  t_k=t_vals[k - k0], s_k=s_vals[k - k0])
            try:
                state = apply_step(state, outcome)
            except NonFiniteStateError:
                result.diverged = True
                result.diverged_at = k + 1
                state = NetworkState(x=state.x, k=k + 1)
        else:
            state = NetworkState(x=state.x, k=state.k + 1)
        if next_cp is not None and state.k == next_cp:
            record(state.k, state.x)
            next_cp = next(cp_iter, None)

    # clipping is counted over the slots that ran, i.e. up to a freeze
    live = steps if result.diverged_at is None else result.diverged_at - k0
    result.clipped_slots = int(clipped[:live].sum())
    return result
