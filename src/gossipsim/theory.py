"""Analytic convergence and divergence conditions.

Everything here reasons about the expected behaviour of the dynamics without
simulating. The central objects are:

* the critical measure d0 = S(1+S)*gamma - T(1-T)*alpha for time-invariant
  coupled updates: negative means almost-sure agreement, positive means the
  dispersion diverges in expectation, zero keeps its expectation constant.
  |d0| <= OSCILLATION_TOL (1e-12) counts as zero; time-varying schedules are
  judged by the same band on the coefficient at their tail;
* the expected squared update matrix
  E = I - 2*(T(1-T)*alpha - S(1+S)*gamma)*(1/n)*(D - (A + A^T)),
  whose extreme eigenvalues on the disagreement subspace give per-slot
  contraction/expansion envelopes for the expected dispersion;
* a catalogue of named conditions (necessary, sufficient and threshold)
  evaluated analytically for constant/power/geometric schedules and from the
  constant tail for explicit schedules, with horizon-truncated numerics where
  a sound closed-form decision is not available.

Condition evaluators consume the mathematically legal schedule values (the
simulator's tiny numeric floor is ignored here and flagged as a caveat when
it would bite), because the series and products below are statements about
the configured sequences, not about their floored counterparts.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import EventProbabilities, Schedule
from .errors import BadHorizonError, InternalInconsistencyError, UnsupportedScheduleError
from .graph import SelectionMatrix, SpectralData, spectral

if TYPE_CHECKING:  # pragma: no cover
    from .montecarlo import ExperimentConfig

__all__ = [
    "ConditionId",
    "Verdict",
    "ContractionCoefficients",
    "TheoryReport",
    "GUARANTEED",
    "IMPOSSIBLE",
    "INCONCLUSIVE",
    "EXPECTED_DIVERGENCE",
    "EXPECTED_OSCILLATION",
    "critical_measure",
    "one_slot_expectation",
    "one_slot_expectation_enumerated",
    "contraction",
    "evaluate_condition",
    "theory_report",
    "DEFAULT_HORIZON",
    "TAU_GRID",
    "Z_MAX",
    "OSCILLATION_TOL",
    "TAIL_MEAN_MARGIN",
]

GUARANTEED = "Guaranteed"
IMPOSSIBLE = "Impossible"
INCONCLUSIVE = "Inconclusive"
EXPECTED_DIVERGENCE = "ExpectedDivergence"
EXPECTED_OSCILLATION = "ExpectedOscillation"

DEFAULT_HORIZON = 4096
TAU_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
Z_MAX = 64
OSCILLATION_TOL = 1e-12
TAIL_MEAN_MARGIN = 1e-9


class ConditionId(Enum):
    THM1_NEC = "THM1_NEC"
    THM2_NEC = "THM2_NEC"
    SYM_AGREE = "SYM_AGREE"
    SYM_THRESHOLD = "SYM_THRESHOLD"
    ASYM_AGREE = "ASYM_AGREE"
    ASYM_AGREE_MONO = "ASYM_AGREE_MONO"
    SYM_REP_AGREE = "SYM_REP_AGREE"
    SYM_REP_EXPECT_DIV = "SYM_REP_EXPECT_DIV"
    SYM_REP_AS_DIV = "SYM_REP_AS_DIV"
    BEER_CLASSIFY = "BEER_CLASSIFY"
    ASYM_REP_AGREE = "ASYM_REP_AGREE"
    ASYM_REP_AS_DIV = "ASYM_REP_AS_DIV"
    ASYM_CONST = "ASYM_CONST"


@dataclass
class Verdict:
    status: str
    detail: dict = field(default_factory=dict)
    caveats: str = ""


@dataclass(frozen=True)
class ContractionCoefficients:
    """Per-slot envelope coefficients for the expected dispersion.

    E[L(k+1) | x] lies between (1 - (2/n) i_hat_k) L(k) and
    (1 - (2/n) i_k) L(k). The branch switches at the sign change of the
    coefficient c_k = T_k(1-T_k)alpha - S_k(1+S_k)gamma: for c_k >= 0 the
    slow (upper) envelope uses lambda2 and the fast (lower) one lambda_n;
    for c_k < 0 the roles swap. z_k = 1 - (2/n) i_hat_k.
    """

    i_k: float
    i_hat_k: float
    z_k: float


@dataclass
class TheoryReport:
    d0: float | None
    spectral: SpectralData
    contraction0: ContractionCoefficients
    conditions: list[tuple[ConditionId, Verdict]]


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _coefficient(t, s, alpha: float, gamma: float):
    """c = T(1-T)*alpha - S(1+S)*gamma for float or array weights.

    The repulsion term is left out when gamma is zero, so an unbounded S
    never meets a zero probability (0 * inf).
    """
    c = t * (1.0 - t) * alpha
    if gamma == 0.0:
        return c
    with np.errstate(over="ignore"):
        return c - s * (1.0 + s) * gamma


def _saturating_pow(base: float, width: int) -> float:
    """base ** width for base >= 0, inf where the float power overflows."""
    try:
        return base ** width
    except OverflowError:
        return math.inf


def _repulsion_growth(any_rep: float, s_product):
    """any_rep * (P - 1) for a block's product P of (1 + S_k), float or
    array: what the block's repulsion events can add. Left out when no
    repulsion can happen, so a product that saturated to inf never meets a
    zero weight (0 * inf)."""
    return any_rep * (s_product - 1.0) if any_rep > 0.0 else 0.0


def _sign(c: float) -> int:
    """-1, 0 or +1; a coefficient within OSCILLATION_TOL of zero is critical."""
    return (c > OSCILLATION_TOL) - (c < -OSCILLATION_TOL)


def _envelope(c, sp: SpectralData, hat: bool):
    """The envelope coefficient c * lambda for float or array c.

    The slow envelope (`hat` False) takes lambda2 where c >= 0 and lambda_n
    where c < 0; the fast one (`hat` True) swaps them.
    """
    where_pos, where_neg = (sp.lambda_n, sp.lambda2) if hat else (sp.lambda2, sp.lambda_n)
    with np.errstate(over="ignore"):
        return np.where(c >= 0.0, c * where_pos, c * where_neg)


def critical_measure(schedule_t: Schedule, schedule_s: Schedule,
                     probs: EventProbabilities) -> float:
    """d0 = S(1+S)*gamma - T(1-T)*alpha for time-invariant schedules.

    Raises UnsupportedScheduleError when either schedule varies over time;
    the measure is only defined for constants. Uses the weights the
    simulator applies, so a config is judged as it will actually run.
    """
    t = schedule_t.constant_value()
    s = schedule_s.constant_value()
    if t is None or s is None:
        raise UnsupportedScheduleError("critical measure needs constant schedules")
    # 0.0 - c, not -c: the critical value stays +0.0
    return 0.0 - _coefficient(t, s, probs.alpha, probs.gamma)


def one_slot_expectation(matrix: SelectionMatrix, probs: EventProbabilities,
                         t_k: float, s_k: float, x: np.ndarray, reference: float) -> float:
    """E[L(k+1) | x] under coupled events, in closed form: the quadratic
    form of E = I - 2c/n (D - (A + A^T)), c = t(1-t)*alpha - s(1+s)*gamma,
    on the deviation x_c = x - reference, summed over the arcs:
    |x_c|^2 - (2c/n) sum_ij a_ij (x_i - x_j)^2."""
    tails, heads, weights = matrix.positive_entries()
    x = np.asarray(x, dtype=float)
    xc = x - reference
    diff = x[tails] - x[heads]
    coeff = _coefficient(t_k, s_k, probs.alpha, probs.gamma)
    return float((xc * xc).sum()) - 2.0 * coeff / matrix.n * float((weights * diff * diff).sum())


def one_slot_expectation_enumerated(matrix: SelectionMatrix, probs: EventProbabilities,
                                    t_k: float, s_k: float, x: np.ndarray,
                                    reference: float) -> float:
    """Exact E[L(k+1) | x] by enumerating every pair and event outcome.

    Deliberately avoids the closed form above: ordered pairs (i, j) carry
    probability a_ij / n, each pair branches into the three coupled
    events, and each branch's dispersion is evaluated directly. Used as the
    independent cross-check of `one_slot_expectation`.
    """
    n = matrix.n
    x = np.asarray(x, dtype=float)
    l_neglect = float(((x - reference) ** 2).sum())
    total = 0.0
    for i, j, a_ij in zip(*(e.tolist() for e in matrix.positive_entries())):
        p_pair = a_ij / n
        y = x.copy()
        y[i] = (1.0 - t_k) * x[i] + t_k * x[j]
        y[j] = (1.0 - t_k) * x[j] + t_k * x[i]
        l_att = float(((y - reference) ** 2).sum())
        z = x.copy()
        z[i] = (1.0 + s_k) * x[i] - s_k * x[j]
        z[j] = (1.0 + s_k) * x[j] - s_k * x[i]
        l_rep = float(((z - reference) ** 2).sum())
        total += p_pair * (probs.alpha * l_att + probs.beta * l_neglect
                           + probs.gamma * l_rep)
    return total


def contraction(sp: SpectralData, probs: EventProbabilities,
                schedule_t: Schedule, schedule_s: Schedule,
                k: int) -> ContractionCoefficients:
    """Envelope coefficients at slot k (uses the weights the simulator applies)."""
    t = float(schedule_t.applied(k, k + 1)[0])
    s = float(schedule_s.applied(k, k + 1)[0])
    c = _coefficient(t, s, probs.alpha, probs.gamma)
    i_k = float(_envelope(c, sp, hat=False))
    i_hat = float(_envelope(c, sp, hat=True))
    return ContractionCoefficients(i_k=i_k, i_hat_k=i_hat,
                                   z_k=1.0 - (2.0 / sp.n) * i_hat)


# ---------------------------------------------------------------------------
# series decisions (ideal schedule values: legal clip only, no numeric floor)
# ---------------------------------------------------------------------------

def _weight(v: float) -> float:
    return v


def _complement(v: float) -> float:
    return 1.0 - v


def _weight_complement(v: float) -> float:
    return v * (1.0 - v)


def _series_diverges(s: Schedule, f, power: int = 1) -> bool:
    """sum_k f(v_k)^power = infinity, for f one of v, 1 - v and v(1 - v)?

    Terms whose limit is positive sum to infinity. Terms that vanish at a
    limit of zero fall like k^(-p * power) under a power law with exponent
    p, so they diverge exactly when p * power <= 1, and faster under
    geometric decay. Every other vanishing tail reaches its limit after
    finitely many slots (explicit tails, ceiling hits, constants), so the
    sum is finite.
    """
    if f(s.limit()) > 0.0:
        return True
    p = s.decay_exponent()
    return p is not None and p * power <= 1.0


def _join_caveats(*parts: str) -> str:
    return "; ".join(p for p in parts if p)


@dataclass(frozen=True)
class _Inputs:
    """What the evaluators read, built once per report: the config and its
    spectral data; the share of a pair's events that falls on one given endpoint
    (one half when a fair coin picks the active end of a one-sided update);
    whether both schedules are time invariant; the ideal weights over the
    horizon and their coefficients c_k; the coefficient at the schedules'
    limits, which for constants is the constant coefficient; and the floor
    caveat."""

    cfg: "ExperimentConfig"
    sp: SpectralData
    share: float
    constant: bool
    t: np.ndarray
    s: np.ndarray
    c: np.ndarray
    c_tail: float
    floor: str


def _inputs(cfg, horizon) -> _Inputs:
    """Check the horizon and evaluate the schedules over it; with `horizon`
    None, over max(`DEFAULT_HORIZON`, n) slots."""
    horizon = max(DEFAULT_HORIZON, cfg.matrix.n) if horizon is None else horizon
    if not isinstance(horizon, (int, np.integer)) or horizon < max(cfg.matrix.n, 2):
        raise BadHorizonError(f"horizon must be an integer >= {max(cfg.matrix.n, 2)}")
    st, ss, pr = cfg.schedule_t, cfg.schedule_s, cfg.probabilities
    t, s = st.ideal(0, int(horizon)), ss.ideal(0, int(horizon))
    floor = "; ".join(
        f"simulated {name} weights are floored at {sched.lo:g}; "
        "analysis uses the unfloored sequence"
        for name, sched, vals in (("T", st, t), ("S", ss, s))
        if sched.limit() < sched.lo or (vals[:1024] < sched.lo).any())
    mode = cfg.mode
    share = 0.5 if mode.variant == "asymmetric" and mode.active_rule == "uniform" else 1.0
    constant = st.constant_value() is not None and ss.constant_value() is not None
    return _Inputs(cfg, spectral(cfg.matrix), share, constant, t, s,
                   _coefficient(t, s, pr.alpha, pr.gamma),
                   _coefficient(st.limit(), ss.limit(), pr.alpha, pr.gamma), floor)


# ---------------------------------------------------------------------------
# certificate searches (one per update mode)
# ---------------------------------------------------------------------------

def _tau_search(inp: _Inputs, t: np.ndarray, s: np.ndarray, c: np.ndarray,
                margin: float = TAIL_MEAN_MARGIN):
    """Almost-sure divergence certificate for coupled updates.

    For each tau of the grid the growth exponent of slot k is
    J_k = p_k log(q_k) + 2 alpha log|2 T_k - 1| with q_k = 1 + 4 tau S_k(1+S_k).
    Returns (True, tail mean, tau, p) for the first tau whose mean of J over
    the second half of the slots exceeds `margin`, else (False, best tail
    mean, its tau, its p). A constant sequence is decided exactly (margin 0);
    the margin absorbs rounding in tail means of time-varying ones. Where
    S(1+S) overflows, p is inf/inf and the slot certifies nothing.
    """
    n, pr = inp.cfg.matrix.n, inp.cfg.probabilities
    i_hat = _envelope(c, inp.sp, hat=True)
    best = (-math.inf, None, None)
    with np.errstate(over="ignore", invalid="ignore"):
        s_poly = s * s + s
        for tau in TAU_GRID:
            q = 1.0 + 4.0 * tau * s_poly
            p = -((2.0 / n) * i_hat + pr.gamma * q) / (4.0 * (1.0 - tau) * s_poly)
            j = p * np.log(q) + 2.0 * pr.alpha * np.log(np.abs(2.0 * t - 1.0))
            tail_mean = float(j[len(j) // 2:].mean())
            if tail_mean > margin:
                return True, tail_mean, tau, p
            if tail_mean > best[0]:
                best = (tail_mean, tau, p)
    return (False, *best)


def _block_search(inp: _Inputs, log_gain: np.ndarray, t: np.ndarray,
                  margin: float = TAIL_MEAN_MARGIN):
    """Almost-sure divergence certificate for one-sided updates.

    For blocks of z + 1 slots (z <= Z_MAX, at least two blocks) the growth
    exponent adds the repulsion chain's weight times the block's summed log
    gain, less log(n - 1), to the chance of an attraction event in the
    block times its summed log(1 - T). Returns (True, tail mean, z) for the first z whose mean over
    the second half of the blocks exceeds `margin`, else (False, best tail
    mean, its z); margins as in `_tau_search`.
    """
    n, pr = inp.cfg.matrix.n, inp.cfg.probabilities
    chain = pr.gamma * inp.share * inp.sp.a_star / n
    best = (-math.inf, None)
    # log 0 = -inf and 0 * inf = nan both leave a block length uncertified
    with np.errstate(divide="ignore", invalid="ignore"):
        log1m_t = np.log1p(-t)
        for z in range(Z_MAX + 1):
            w = z + 1
            nb = len(t) // w
            if nb < 2:
                break
            j = chain ** w * (log_gain[: nb * w].reshape(nb, w).sum(axis=1) - math.log(n - 1))
            frac = 1.0 - (1.0 - pr.alpha) ** w
            if frac > 0.0:  # without attraction events nothing shrinks
                j = j + frac * log1m_t[: nb * w].reshape(nb, w).sum(axis=1)
            tail_mean = float(j[nb // 2:].mean())
            if tail_mean > margin:
                return True, tail_mean, z
            if tail_mean > best[0]:
                best = (tail_mean, z)
    return (False, *best)


# ---------------------------------------------------------------------------
# condition evaluators
# ---------------------------------------------------------------------------

def _eval_thm1_nec(inp: _Inputs, detail: dict) -> Verdict:
    st = inp.cfg.schedule_t
    if inp.cfg.probabilities.alpha == 0.0:
        detail["reason"] = "attraction probability is zero; spread can never shrink"
        return Verdict(IMPOSSIBLE, detail)
    t_div = _series_diverges(st, _weight)
    one_minus_div = _series_diverges(st, _complement)
    detail["sum_T_diverges"] = t_div
    detail["sum_one_minus_T_diverges"] = one_minus_div
    detail["partial_sum_T"] = float(inp.t.sum())
    detail["partial_sum_one_minus_T"] = float((1.0 - inp.t).sum())
    if not t_div or not one_minus_div:
        which = "sum of T_k" if not t_div else "sum of (1 - T_k)"
        detail["reason"] = f"{which} is finite, so agreement has probability zero"
        return Verdict(IMPOSSIBLE, detail)
    return Verdict(INCONCLUSIVE, detail,
                   caveats="necessary condition met; says nothing by itself")


def _eval_thm2_nec(inp: _Inputs, detail: dict) -> Verdict:
    if inp.cfg.probabilities.gamma == 0.0:
        detail["reason"] = "repulsion probability is zero; spread is non-increasing"
        return Verdict(IMPOSSIBLE, detail)
    s_div = _series_diverges(inp.cfg.schedule_s, _weight)
    detail["product_one_plus_2S_diverges"] = s_div
    with np.errstate(over="ignore"):
        detail["partial_log_product"] = float(np.log1p(2.0 * inp.s).sum())
    if not s_div:
        detail["reason"] = "product of (1 + 2 S_k) is finite, so spread stays bounded"
        return Verdict(IMPOSSIBLE, detail)
    return Verdict(INCONCLUSIVE, detail,
                   caveats="necessary condition met; says nothing by itself")


def _eval_sym_agree(inp: _Inputs, detail: dict) -> Verdict:
    diverges = _series_diverges(inp.cfg.schedule_t, _weight_complement)
    detail["series_diverges"] = diverges
    detail["partial_sum"] = float((inp.t * (1.0 - inp.t)).sum())
    if diverges:
        return Verdict(GUARANTEED, detail, caveats=inp.floor)
    return Verdict(INCONCLUSIVE, detail, caveats=_join_caveats(
        "sum of T_k(1-T_k) is finite; sufficiency lost", inp.floor))


def _eval_sym_threshold(inp: _Inputs, detail: dict) -> Verdict:
    st = inp.cfg.schedule_t
    direction = st.monotone_direction()
    detail["monotone"] = direction
    if direction is None:
        return Verdict(INCONCLUSIVE, detail,
                       caveats="threshold form needs a monotone attraction schedule")
    diverges = _series_diverges(st, _weight_complement)
    detail["series_diverges"] = diverges
    if diverges:
        return Verdict(GUARANTEED, detail, caveats=inp.floor)
    detail["reason"] = "sum of T_k(1-T_k) is finite; under monotone weights agreement has probability zero"
    return Verdict(IMPOSSIBLE, detail, caveats=inp.floor)


def _eval_asym_agree(inp: _Inputs, detail: dict) -> Verdict:
    width = inp.cfg.matrix.n - 1
    # Sum over blocks of n-1 consecutive slots of the product of T(1-T):
    # for every supported closed form this diverges exactly when
    # sum (T_k(1-T_k))^(n-1) does, and explicit schedules are decided by
    # their constant tail.
    diverges = _series_diverges(inp.cfg.schedule_t, _weight_complement, width)
    detail["block_width"] = width
    detail["series_diverges"] = diverges
    nb = len(inp.t) // width
    vals = inp.t[: nb * width]
    detail["partial_sum"] = float(np.prod((vals * (1.0 - vals)).reshape(nb, width), axis=1).sum())
    if diverges:
        return Verdict(GUARANTEED, detail, caveats=inp.floor)
    return Verdict(INCONCLUSIVE, detail, caveats=_join_caveats(
        "block series is finite; sufficiency lost", inp.floor))


def _eval_asym_agree_mono(inp: _Inputs, detail: dict) -> Verdict:
    st = inp.cfg.schedule_t
    direction = st.monotone_direction()
    detail["monotone"] = direction
    if direction is None:
        return Verdict(INCONCLUSIVE, detail,
                       caveats="needs a monotone attraction schedule")
    width = inp.cfg.matrix.n - 1
    diverges = _series_diverges(st, _weight_complement, width)
    detail["series_diverges"] = diverges
    detail["partial_sum"] = float(((inp.t * (1.0 - inp.t)) ** width).sum())
    caveat = _join_caveats(
        "evaluated for one-sided updates with a monotone attraction schedule", inp.floor)
    if diverges:
        return Verdict(GUARANTEED, detail, caveats=caveat)
    return Verdict(INCONCLUSIVE, detail,
                   caveats=_join_caveats("series is finite; sufficiency lost", caveat))


def _eval_sym_rep_agree(inp: _Inputs, detail: dict) -> Verdict:
    pr, n = inp.cfg.probabilities, inp.cfg.matrix.n
    terms = 1.0 - (2.0 / n) * _envelope(inp.c, inp.sp, hat=False)
    with np.errstate(divide="ignore", over="ignore"):
        detail["partial_product"] = float(np.exp(np.log(np.maximum(terms, 0.0)).sum())) \
            if (terms > 0.0).all() else 0.0
    sign = _sign(inp.c_tail)

    if inp.constant:
        detail["coefficient"] = inp.c_tail
        if sign > 0 or (terms == 0.0).any():
            detail["slow_factor"] = float(1.0 - (2.0 / n) * inp.c_tail * inp.sp.lambda2)
            return Verdict(GUARANTEED, detail, caveats=inp.floor)
        return Verdict(INCONCLUSIVE, detail, caveats=_join_caveats(
            "per-slot coefficient is zero within tolerance" if sign == 0
            else "per-slot coefficient is not positive", inp.floor))

    if (terms == 0.0).any():
        detail["reason"] = "a slot contracts the expected dispersion to zero exactly"
        return Verdict(GUARANTEED, detail, caveats=inp.floor)
    detail["coefficient_limit"] = inp.c_tail
    if sign > 0:
        return Verdict(GUARANTEED, detail, caveats=inp.floor)
    if sign < 0:
        return Verdict(INCONCLUSIVE, detail,
                       caveats=_join_caveats("tail coefficient is negative", inp.floor))
    if pr.gamma == 0.0 and pr.alpha > 0.0:
        diverges = _series_diverges(inp.cfg.schedule_t, _weight_complement)
        detail["series_diverges"] = diverges
        if diverges:
            return Verdict(GUARANTEED, detail, caveats=inp.floor)
        return Verdict(INCONCLUSIVE, detail,
                       caveats=_join_caveats("sum of T_k(1-T_k) is finite", inp.floor))
    return Verdict(INCONCLUSIVE, detail,
                   caveats=_join_caveats("tail coefficient limit is zero; not decided analytically", inp.floor))


def _eval_sym_rep_expect_div(inp: _Inputs, detail: dict) -> Verdict:
    pr, n = inp.cfg.probabilities, inp.cfg.matrix.n
    terms = 1.0 - (2.0 / n) * _envelope(inp.c, inp.sp, hat=True)
    with np.errstate(divide="ignore", over="ignore"):
        logs = np.log(np.maximum(terms, 1e-300))
        detail["partial_log_product"] = float(logs.sum())
    sign = _sign(inp.c_tail)

    if inp.constant:
        detail["coefficient"] = inp.c_tail
        if sign < 0:
            detail["growth_factor"] = float(1.0 - (2.0 / n) * inp.c_tail * inp.sp.lambda2)
            return Verdict(EXPECTED_DIVERGENCE, detail, caveats=inp.floor)
        return Verdict(INCONCLUSIVE, detail, caveats=_join_caveats(
            "per-slot coefficient is zero within tolerance" if sign == 0
            else "per-slot coefficient is not negative", inp.floor))

    if (terms <= 0.0).any():
        return Verdict(INCONCLUSIVE, detail,
                       caveats=_join_caveats("an early slot zeroes the lower envelope", inp.floor))
    detail["coefficient_limit"] = inp.c_tail
    if sign < 0:
        return Verdict(EXPECTED_DIVERGENCE, detail, caveats=inp.floor)
    if sign > 0:
        return Verdict(INCONCLUSIVE, detail,
                       caveats=_join_caveats("tail coefficient is positive", inp.floor))
    if pr.alpha == 0.0 and pr.gamma > 0.0:
        diverges = _series_diverges(inp.cfg.schedule_s, _weight)
        detail["series_diverges"] = diverges
        if diverges:
            return Verdict(EXPECTED_DIVERGENCE, detail, caveats=inp.floor)
        return Verdict(INCONCLUSIVE, detail,
                       caveats=_join_caveats("sum of S_k is finite", inp.floor))
    return Verdict(INCONCLUSIVE, detail,
                   caveats=_join_caveats("tail coefficient limit is zero; not decided analytically", inp.floor))


def _eval_sym_rep_as_div(inp: _Inputs, detail: dict) -> Verdict:
    st, ss = inp.cfg.schedule_t, inp.cfg.schedule_s
    if inp.cfg.probabilities.gamma == 0.0:
        return Verdict(INCONCLUSIVE, detail,
                       caveats="no repulsion events; the growth exponent cannot be positive")
    if not math.isfinite(ss.ideal_range()[1]):
        return Verdict(INCONCLUSIVE, detail, caveats="repulsion gains are unbounded")
    t_inf, t_sup = st.ideal_range()
    detail["t_range"] = [t_inf, t_sup]
    if not (t_sup < 0.5 or t_inf > 0.5):
        return Verdict(INCONCLUSIVE, detail,
                       caveats="attraction weights are not bounded away from 1/2")
    if (inp.s <= 0.0).any():
        return Verdict(INCONCLUSIVE, detail,
                       caveats="a repulsion gain of zero appears within the horizon")
    certified, tail_mean, tau, _ = _tau_search(inp, inp.t, inp.s, inp.c)
    if certified:
        detail["tau"] = tau
        detail["tail_mean"] = tail_mean
        return Verdict(GUARANTEED, detail, caveats=inp.floor)
    detail["best_tail_mean"] = tail_mean
    detail["best_tau"] = tau
    return Verdict(INCONCLUSIVE, detail, caveats=_join_caveats(
        "no grid point certifies a positive growth exponent", inp.floor))


def _eval_beer_classify(inp: _Inputs, detail: dict) -> Verdict:
    cfg = inp.cfg
    try:
        d0 = critical_measure(cfg.schedule_t, cfg.schedule_s, cfg.probabilities)
    except UnsupportedScheduleError:
        return Verdict(INCONCLUSIVE, detail,
                       caveats="classification needs time-invariant schedules")
    detail["d0"] = d0
    detail["topology_independent"] = True
    sign = _sign(d0)
    if sign == 0:
        detail["claim"] = "oscillation"
        detail["reason"] = "expected dispersion stays exactly at its initial value"
        return Verdict(EXPECTED_OSCILLATION, detail)
    if sign < 0:
        detail["claim"] = "agreement"
        return Verdict(GUARANTEED, detail)
    detail["claim"] = "divergence"
    cert: dict = {"certified": False, "tau": None, "p_star": None}
    # the first slot is the whole constant sequence
    if inp.t[0] != 0.5 and inp.s[0] > 0.0:
        certified, _, tau, p = _tau_search(inp, inp.t[:1], inp.s[:1], inp.c[:1], 0.0)
        if certified:
            cert = {"certified": True, "tau": tau, "p_star": float(p[0])}
    detail["as_divergence"] = cert
    caveat = "" if cert["certified"] else "divergence holds in expectation; no almost-sure certificate found"
    return Verdict(EXPECTED_DIVERGENCE, detail, caveats=caveat)


def _eval_asym_rep_agree(inp: _Inputs, detail: dict) -> Verdict:
    cfg, pr = inp.cfg, inp.cfg.probabilities
    if not math.isfinite(cfg.schedule_s.ideal_range()[1]):
        return Verdict(INCONCLUSIVE, detail, caveats="repulsion gains are unbounded")
    n = cfg.matrix.n
    width = n - 1
    chain = (pr.alpha * inp.share * inp.sp.a_star / n) ** width
    any_rep = 1.0 - (1.0 - pr.gamma) ** width
    detail["attraction_chain_weight"] = chain
    detail["any_repulsion_weight"] = any_rep

    nb = len(inp.t) // width
    t, s = inp.t[: nb * width], inp.s[: nb * width]
    t_hat = np.prod((t * (1.0 - t)).reshape(nb, width), axis=1)
    with np.errstate(over="ignore"):
        s_hat = np.prod((1.0 + s).reshape(nb, width), axis=1)
        terms = 1.0 - chain * t_hat + _repulsion_growth(any_rep, s_hat)
        detail["partial_product"] = float(np.exp(np.log(np.maximum(terms, 1e-300)).sum())) \
            if (terms > 0.0).all() else 0.0
    # the block factor at the schedules' limits, for constants the constant one
    st = cfg.schedule_t
    tl, sl = st.limit(), cfg.schedule_s.limit()
    e = 1.0 - chain * (tl * (1.0 - tl)) ** width \
        + _repulsion_growth(any_rep, _saturating_pow(1.0 + sl, width))
    detail["block_factor" if inp.constant else "block_factor_limit"] = e
    if e < 1.0:
        return Verdict(GUARANTEED, detail, caveats=inp.floor)
    if e == 1.0 and pr.gamma == 0.0 and pr.alpha > 0.0:
        diverges = _series_diverges(st, _weight_complement, width)
        detail["series_diverges"] = diverges
        if diverges:
            return Verdict(GUARANTEED, detail, caveats=inp.floor)
    return Verdict(INCONCLUSIVE, detail, caveats=_join_caveats(
        "block factor is not below one" if inp.constant else "tail block factor is not below one",
        inp.floor))


def _eval_asym_rep_as_div(inp: _Inputs, detail: dict) -> Verdict:
    if inp.cfg.probabilities.gamma == 0.0:
        return Verdict(INCONCLUSIVE, detail,
                       caveats="no repulsion events; the growth term vanishes")
    if not math.isfinite(inp.cfg.schedule_s.ideal_range()[1]):
        return Verdict(INCONCLUSIVE, detail, caveats="repulsion gains are unbounded")
    if inp.cfg.schedule_t.ideal_range()[1] >= 1.0:
        return Verdict(INCONCLUSIVE, detail,
                       caveats="attraction weights reach one; the shrink term is unbounded")
    certified, tail_mean, z = _block_search(inp, np.log1p(inp.s), inp.t)
    if certified:
        detail["z"] = z
        detail["tail_mean"] = tail_mean
        return Verdict(GUARANTEED, detail, caveats=inp.floor)
    detail["best_tail_mean"] = tail_mean
    detail["best_z"] = z
    return Verdict(INCONCLUSIVE, detail, caveats=_join_caveats(
        "no block length certifies a positive growth exponent", inp.floor))


def _eval_asym_const(inp: _Inputs, detail: dict) -> Verdict:
    if not inp.constant:
        return Verdict(INCONCLUSIVE, detail,
                       caveats="applies to time-invariant schedules only")
    cfg, pr, t, s = inp.cfg, inp.cfg.probabilities, float(inp.t[0]), float(inp.s[0])
    n = cfg.matrix.n
    width = n - 1
    lhs = _repulsion_growth(1.0 - (1.0 - pr.gamma) ** width, _saturating_pow(s + 1.0, width))
    rhs = (pr.alpha * inp.share * inp.sp.a_star / n) ** width \
        * max(t, 1.0 - t) ** width
    detail["agreement_lhs"] = lhs
    detail["agreement_rhs"] = rhs
    agree = lhs < rhs

    # Both divergence readings run the block search on the constant
    # sequence, long enough for two blocks of every length up to Z_MAX + 1;
    # the literal reading gains log S per slot, the one-plus-gain one log(1 + S).
    seq = np.ones(2 * (Z_MAX + 1))
    with np.errstate(divide="ignore"):
        paper_ok, _, paper_z = _block_search(inp, np.log(s * seq), t * seq, 0.0)
    prop8_ok, _, prop8_z = _block_search(inp, np.log1p(s * seq), t * seq, 0.0)
    detail["thm6_paper_form"] = {"satisfied": paper_ok, "z": paper_z if paper_ok else None}
    detail["thm6_prop8_form"] = {"satisfied": prop8_ok, "z": prop8_z if prop8_ok else None}

    if agree and 0.0 < t < 1.0:
        detail["claim"] = "agreement"
        return Verdict(GUARANTEED, detail)
    if paper_ok:
        detail["claim"] = "divergence"
        return Verdict(GUARANTEED, detail,
                       caveats="" if prop8_ok else "the two divergence readings disagree")
    return Verdict(INCONCLUSIVE, detail, caveats=_join_caveats(
        "agreement threshold is met, but it assumes 0 < T < 1" if agree else "",
        "literal divergence reading not met; the one-plus-gain reading is "
        "(see thm6_prop8_form)" if prop8_ok else "",
    ) or "neither threshold is met")


@dataclass(frozen=True)
class _Condition:
    """A condition's scope and its evaluator. `variant` None covers both
    update modes; `claim` None means the claim depends on the verdict."""

    variant: str | None
    claim: str | None
    evaluate: Callable[[_Inputs, dict], Verdict]
    repulsion_free: bool = False
    needs_attraction: bool = False


_CONDITIONS = {
    ConditionId.THM1_NEC: _Condition(None, "agreement", _eval_thm1_nec),
    ConditionId.THM2_NEC: _Condition(None, "divergence", _eval_thm2_nec),
    ConditionId.SYM_AGREE: _Condition("symmetric", "agreement", _eval_sym_agree, True, True),
    ConditionId.SYM_THRESHOLD: _Condition("symmetric", "agreement", _eval_sym_threshold,
                                          True, True),
    ConditionId.ASYM_AGREE: _Condition("asymmetric", "agreement", _eval_asym_agree, True, True),
    ConditionId.ASYM_AGREE_MONO: _Condition("asymmetric", "agreement", _eval_asym_agree_mono,
                                            True, True),
    ConditionId.SYM_REP_AGREE: _Condition("symmetric", "agreement", _eval_sym_rep_agree),
    ConditionId.SYM_REP_EXPECT_DIV: _Condition("symmetric", "divergence",
                                               _eval_sym_rep_expect_div),
    ConditionId.SYM_REP_AS_DIV: _Condition("symmetric", "divergence", _eval_sym_rep_as_div),
    ConditionId.BEER_CLASSIFY: _Condition("symmetric", None, _eval_beer_classify),
    ConditionId.ASYM_REP_AGREE: _Condition("asymmetric", "agreement", _eval_asym_rep_agree),
    ConditionId.ASYM_REP_AS_DIV: _Condition("asymmetric", "divergence", _eval_asym_rep_as_div),
    ConditionId.ASYM_CONST: _Condition("asymmetric", None, _eval_asym_const),
}

_VARIANT_CAVEATS = {"symmetric": "applies to coupled updates only",
                    "asymmetric": "applies to one-sided updates only"}


def _evaluate(cid: ConditionId, inp: _Inputs) -> Verdict:
    """Check the condition's declared scope (update mode, then repulsion,
    then attraction), and run its evaluator when the config is in scope."""
    cond = _CONDITIONS[cid]
    cfg = inp.cfg
    detail: dict = {} if cond.claim is None else {"claim": cond.claim}
    if cond.variant is not None and cfg.mode.variant != cond.variant:
        caveat = _VARIANT_CAVEATS[cond.variant]
    elif cond.repulsion_free and cfg.probabilities.gamma > 0.0:
        caveat = "applies to repulsion-free dynamics only"
    elif cond.needs_attraction and cfg.probabilities.alpha == 0.0:
        caveat = "attraction probability is zero"
    else:
        return cond.evaluate(inp, detail)
    return Verdict(INCONCLUSIVE, detail, caveats=caveat)


def evaluate_condition(config: "ExperimentConfig", condition: ConditionId | str,
                       horizon: int | None = None) -> Verdict:
    """Evaluate one named condition for a config.

    `horizon` bounds the numeric partial sums/products reported in the
    verdict detail and the grid searches; analytic decisions for closed-form
    schedules do not depend on it. It must be at least n; None takes
    max(`DEFAULT_HORIZON`, n). `TAU_GRID` and `Z_MAX` bound the searches
    for an almost-sure divergence certificate.
    """
    if isinstance(condition, str):
        condition = ConditionId(condition)
    return _evaluate(condition, _inputs(config, horizon))


def theory_report(config: "ExperimentConfig",
                  horizon: int | None = None) -> TheoryReport:
    """Evaluate every condition applicable to the config's update mode,
    over `horizon` slots as `evaluate_condition` reads it.

    Raises InternalInconsistencyError when two verdicts contradict each
    other (an agreement guarantee next to any divergence verdict, or a
    guarantee next to the matching impossibility).
    """
    inp = _inputs(config, horizon)
    conditions = [(cid, _evaluate(cid, inp)) for cid in ConditionId
                  if _CONDITIONS[cid].variant in (None, config.mode.variant)]

    # d0 is the classifier's: absent for one-sided updates and time-varying schedules
    beer = dict(conditions).get(ConditionId.BEER_CLASSIFY)
    d0 = None if beer is None else beer.detail.get("d0")
    c0 = contraction(inp.sp, config.probabilities, config.schedule_t,
                     config.schedule_s, k=0)

    def claimed(status: str, claim: str) -> list[str]:
        return [cid.value for cid, v in conditions
                if v.status == status and v.detail.get("claim") == claim]

    agree_guaranteed = claimed(GUARANTEED, "agreement")
    agree_impossible = claimed(IMPOSSIBLE, "agreement")
    div_guaranteed = claimed(GUARANTEED, "divergence")
    div_impossible = claimed(IMPOSSIBLE, "divergence")
    div_expected = [cid.value for cid, v in conditions if v.status == EXPECTED_DIVERGENCE]

    if agree_guaranteed and (div_guaranteed or div_expected):
        raise InternalInconsistencyError(
            f"agreement guaranteed by {agree_guaranteed} but divergence claimed by "
            f"{div_guaranteed + div_expected}")
    if agree_guaranteed and agree_impossible:
        raise InternalInconsistencyError(
            f"agreement guaranteed by {agree_guaranteed} but impossible by {agree_impossible}")
    if (div_guaranteed or div_expected) and div_impossible:
        raise InternalInconsistencyError(
            f"divergence claimed by {div_guaranteed + div_expected} but impossible by "
            f"{div_impossible}")

    return TheoryReport(d0=d0, spectral=inp.sp, contraction0=c0, conditions=conditions)
