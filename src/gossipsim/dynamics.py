"""The gossip model's parameters and the per-slot draw protocol.

Each slot k draws an ordered pair: node i uniformly, then partner j from row i
of the selection matrix, so the ordered pair (i, j) has probability a_ij / n.
Each selected endpoint then experiences one of three events:

* attraction (prob alpha):  x_u <- (1 - T_k) x_u + T_k x_v
* neglect    (prob beta):   x_u unchanged
* repulsion  (prob gamma):  x_u <- (1 + S_k) x_u - S_k x_v

Both endpoints read pre-step values. Coupled ("symmetric") updates give both
endpoints the same event from a single draw; one-sided ("asymmetric") updates
give the event to one active endpoint and neglect to the other.

Random draws follow a fixed per-slot protocol, the engine's contract, on
uniforms u in [0, 1) from the trial's stream: node i = min(floor(u_1 n),
n - 1); partner j the first column whose running sum of row i exceeds u_2,
with the sum read as exactly 1.0 from the row's last positive entry on;
the event attraction for u_3 < alpha, neglect for u_3 < alpha + beta
(`EventProbabilities.thresholds`), else repulsion; then, for the "uniform"
active rule only, i is the active endpoint when u_4 < 0.5. An update that
would put an entry outside |x| <= OVERFLOW_LIMIT (nan included) is not
applied, and the trial freezes at its last finite state. The tests replay
this protocol one slot at a time, apart from the engine, and hold the
engine to it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameterError

__all__ = [
    "EventProbabilities",
    "Schedule",
    "UpdateMode",
    "OVERFLOW_LIMIT",
]

OVERFLOW_LIMIT = 1e150

T_CLIP = (1e-12, 1.0)
S_CLIP = (1e-12, math.inf)


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
