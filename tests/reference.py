"""The scalar reference: one trial, one slot at a time.

The vectorized engine (`montecarlo.run_trials`) is the simulation path of
every command; this module is the independent reference the tests hold it
to, bit for bit. It runs trial t from the same `Philox(key=[seed, t])`
stream (`montecarlo._trial_rng`) and consumes its uniforms in the per-slot
order `dynamics` defines, with its own pair sampler (`searchsorted` on the
dense row CDFs, `row_cdfs`), its own event cut points and the same update
expressions, so an engine trial and the trial replayed here agree in every
state, measure, freeze slot and class.

The measures of a state x: H = max x and h = min x give the spread H - h
(zero exactly at agreement), and the dispersion L = sum_i (x_i - ref)^2 is
taken relative to a fixed reference, by convention the average of the
initial state. Coupled updates preserve that average, so for them L is the
usual variance-style quantity around the running mean. The sandwich bounds
spread^2 / 2 <= L <= n * spread^2 hold whenever the reference lies inside
[h, H]; one-sided updates can drift the average out of that interval, at
which point the upper bound no longer applies.

The module also keeps aggregation's formulas over a whole trial matrix,
numpy's mean and var and the excess kurtosis on whole-matrix temporaries,
which `montecarlo.aggregate_trials`, summing in blocks of rows, must match
bit for bit; and the dense (n, n) forms of the symmetrized Laplacian and of
the expected second-moment matrix, which the tests hold `graph.spectral` and
`theory.one_slot_expectation` to.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from gossipsim.dynamics import OVERFLOW_LIMIT, EventProbabilities, Schedule, UpdateMode
from gossipsim.errors import BadHorizonError, BadParameterError, RuntimeFailure
from gossipsim.graph import SelectionMatrix
from gossipsim.montecarlo import HEAVY_TAIL_KURTOSIS, Classification, ExperimentConfig, \
    _trial_rng
from gossipsim.theory import _coefficient


class NonFiniteStateError(RuntimeFailure):
    """A state entry left the finite range the engine tolerates."""


class Event(IntEnum):
    ATTRACTION = 0
    NEGLECT = 1
    REPULSION = 2


def row_cdfs(matrix: SelectionMatrix) -> np.ndarray:
    """Per-row cumulative distributions used by the scalar pair sampler,
    dense (n, n).

    The tail of each row (at and past its last positive entry) is forced
    to exactly 1.0 so a uniform draw in [0, 1) always lands on an entry
    with positive weight; zero-weight entries occupy zero-width intervals
    and can never be selected.
    """
    entries = matrix.rows(0, matrix.n)
    cdfs = np.cumsum(entries, axis=1)
    # every row sums to one, so it has a positive entry
    last = matrix.n - 1 - np.argmax(entries[:, ::-1] > 0.0, axis=1)
    cdfs[np.arange(matrix.n) >= last[:, None]] = 1.0
    return cdfs


# ---------------------------------------------------------------------------
# one trajectory
# ---------------------------------------------------------------------------

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
        cdfs = row_cdfs(matrix)
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
    neglects. The cut points (alpha, alpha + beta) are computed here, not
    taken from `EventProbabilities.thresholds`, which the engine uses, so a
    fault there cannot hide in both paths at once.
    """
    e = _event_from_uniform(rng.random(), (probs.alpha, probs.alpha + probs.beta))
    if mode.variant == "symmetric":
        return e, e
    if mode.active_rule == "initiator":
        active_is_i = True
    elif mode.active_rule == "responder":
        active_is_i = False
    else:
        active_is_i = rng.random() < 0.5
    return (e, Event.NEGLECT) if active_is_i else (Event.NEGLECT, e)


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

    cdfs = row_cdfs(matrix)
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


# ---------------------------------------------------------------------------
# measures and classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureSample:
    k: int
    x_max: float
    x_min: float
    spread: float
    dispersion: float


def measure(x: np.ndarray, k: int, reference: float) -> MeasureSample:
    """Measure one snapshot. `reference` is the fixed dispersion anchor."""
    x_max = float(np.max(x))
    x_min = float(np.min(x))
    dispersion = float(((x - reference) ** 2).sum())
    return MeasureSample(k=k, x_max=x_max, x_min=x_min,
                         spread=x_max - x_min, dispersion=dispersion)


def classify(samples: list[MeasureSample], eps_agree: float, big_m: float,
             nonfinite: bool = False) -> Classification:
    """Classify a finished trajectory from its checkpointed samples.

    Diverged wins: any checkpoint with spread above big_m (or an overflow
    during stepping) marks the trial Diverged even if the spread later came
    back down. Otherwise Agreed requires the final spread strictly below
    eps_agree; everything else is Undecided.
    """
    if not samples:
        raise BadParameterError("classify needs at least one sample")
    if not eps_agree > 0.0:
        raise BadParameterError(f"eps_agree must be positive, got {eps_agree}")
    if not big_m > samples[0].spread:
        raise BadParameterError(
            f"big_m ({big_m}) must exceed the initial spread ({samples[0].spread})"
        )
    if nonfinite or any(s.spread > big_m for s in samples):
        return Classification.DIVERGED
    if samples[-1].spread < eps_agree:
        return Classification.AGREED
    return Classification.UNDECIDED


# ---------------------------------------------------------------------------
# one trial of an experiment
# ---------------------------------------------------------------------------

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
# aggregation over the whole matrix
# ---------------------------------------------------------------------------

def column_sums(matrix: np.ndarray, term) -> np.ndarray:
    """The column sums of term(matrix): numpy's sum along axis 0 of the
    whole matrix's terms."""
    return np.add.reduce(term(matrix), axis=0)


def excess_kurtosis(columns: np.ndarray) -> np.ndarray:
    """Each column's excess kurtosis, inf where it is not finite: squares
    of squares, and the `** 4` form over every column where the flags of
    the two forms could differ, all on whole-matrix temporaries."""
    def kurtosis(m2, m4):
        return np.where(m2 > 0.0, m4 / np.where(m2 > 0.0, m2, 1.0) ** 2 - 3.0, 0.0)

    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        centered = columns - columns.mean(axis=0)
        squares = centered ** 2
        m2 = squares.mean(axis=0)
        m4 = np.square(squares, out=squares).mean(axis=0)
        kurt = kurtosis(m2, m4)
        size = len(columns)
        margin = 4 * (size + 8) * np.finfo(float).eps * HEAVY_TAIL_KURTOSIS
        near = (m2 > 0.0) & (~(np.abs(kurt - HEAVY_TAIL_KURTOSIS) > margin) | ~np.isfinite(kurt)
                             | ~((m4 >= 2.0 ** -900) & (m4 <= 2.0 ** 1000 / size)))
        if near.any():
            kurt = np.where(near, kurtosis(m2, (centered ** 4).mean(axis=0)), kurt)
    return np.where(np.isfinite(kurt), kurt, np.inf)


def column_stats(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each column's mean, variance with ddof=1 (0 for one row) and excess
    kurtosis (0 for three rows or fewer), by numpy over the whole matrix."""
    size, ncp = matrix.shape
    with np.errstate(over="ignore", invalid="ignore"):
        mean = matrix.mean(axis=0)
        var = matrix.var(axis=0, ddof=1) if size > 1 else np.zeros(ncp)
    kurt = excess_kurtosis(matrix) if size > 3 else np.zeros(ncp)
    return mean, var, kurt


# ---------------------------------------------------------------------------
# dense second moments
# ---------------------------------------------------------------------------

def laplacian(matrix: SelectionMatrix) -> np.ndarray:
    """The symmetrized Laplacian D - (A + A^T) in one (n, n) array, filled
    from the stored entries with the bits of `np.diag(d) - (A + A^T)` on
    the dense A: off the diagonal 0.0 - x is -x, and 0.0 - -0.0 is 0.0
    whichever of a_ij and a_ji holds the -0.0; a sum d of positive weight
    reads the same with -0.0 or 0.0 terms; on the diagonal
    (0.0 - (-0.0 + -0.0)) + d is d. Symmetric positive semidefinite."""
    tails, heads, values = matrix._tails(), matrix.indices, matrix.values
    lap = np.zeros((matrix.n, matrix.n))
    lap[tails, heads] = values
    lap[heads, tails] += values  # a_ji + a_ij: each (j, i) once
    d = lap.sum(axis=1)
    np.subtract(0.0, lap, out=lap)
    lap[np.diag_indices_from(lap)] += d
    return lap


def expected_second_moment_matrix(matrix: SelectionMatrix, probs: EventProbabilities,
                                  t_k: float, s_k: float) -> np.ndarray:
    """E of the squared one-slot update matrix under coupled events:
    I - 2*(t(1-t)*alpha - s(1+s)*gamma)*(1/n)*(D - (A + A^T)). The
    conditional expectation of the next dispersion is the quadratic form
    of this matrix on the deviation vector."""
    coeff = _coefficient(t_k, s_k, probs.alpha, probs.gamma)
    return np.eye(matrix.n) - 2.0 * coeff / matrix.n * laplacian(matrix)


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

def is_weakly_connected(n: int, tails, heads) -> bool:
    """Breadth-first search from node 0 over the arcs taken both ways."""
    neighbours = [[] for _ in range(n)]
    for u, v in zip(tails, heads):
        neighbours[u].append(v)
        neighbours[v].append(u)
    seen = [False] * n
    seen[0] = True
    frontier = [0]
    while frontier:
        reached = []
        for u in frontier:
            for v in neighbours[u]:
                if not seen[v]:
                    seen[v] = True
                    reached.append(v)
        frontier = reached
    return all(seen)
