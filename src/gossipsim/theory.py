"""Analytic convergence and divergence conditions.

Everything here reasons about the expected behaviour of the dynamics without
simulating. The central objects are:

* the critical measure d0 = S(1+S)*gamma - T(1-T)*alpha for time-invariant
  coupled updates: negative means almost-sure agreement, positive means the
  dispersion diverges in expectation, zero keeps its expectation constant;
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
from collections.abc import Callable, Sequence
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
    "expected_second_moment_matrix",
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

    def to_json_dict(self) -> dict:
        return {
            "D0": _json_safe(self.d0),
            "lambda2": _json_safe(self.spectral.lambda2),
            "lambdaN": _json_safe(self.spectral.lambda_n),
            "aStar": _json_safe(self.spectral.a_star),
            "contraction": {
                "iK": _json_safe(self.contraction0.i_k),
                "iHatK": _json_safe(self.contraction0.i_hat_k),
                "zK": _json_safe(self.contraction0.z_k),
            },
            "conditions": [
                {
                    "id": cid.value,
                    "status": v.status,
                    "detail": _json_safe(v.detail),
                    "caveats": v.caveats,
                }
                for cid, v in self.conditions
            ],
        }


def _json_safe(value):
    """Recursively convert to plain JSON types; non-finite floats to strings."""
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return f if math.isfinite(f) else repr(f)
    return value


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

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
    return s * (1.0 + s) * probs.gamma - t * (1.0 - t) * probs.alpha


def expected_second_moment_matrix(matrix: SelectionMatrix, probs: EventProbabilities,
                                  t_k: float, s_k: float) -> np.ndarray:
    """E of the squared one-slot update matrix under coupled events.

    Returns I - 2*(t(1-t)*alpha - s(1+s)*gamma)*(1/n)*(D - (A + A^T)).
    The conditional expectation of the next dispersion is the quadratic form
    of this matrix on the deviation vector.
    """
    a = matrix.entries
    sym = a + a.T
    lap = np.diag(sym.sum(axis=1)) - sym
    coeff = t_k * (1.0 - t_k) * probs.alpha - s_k * (1.0 + s_k) * probs.gamma
    return np.eye(matrix.n) - 2.0 * coeff / matrix.n * lap


def one_slot_expectation_enumerated(matrix: SelectionMatrix, probs: EventProbabilities,
                                    t_k: float, s_k: float, x: np.ndarray,
                                    reference: float) -> float:
    """Exact E[L(k+1) | x] by enumerating every pair and event outcome.

    Deliberately avoids the closed-form matrix above: ordered pairs (i, j)
    carry probability a_ij / n, each pair branches into the three coupled
    events, and each branch's dispersion is evaluated directly. Used as the
    independent cross-check of `expected_second_moment_matrix`.
    """
    a = matrix.entries
    n = matrix.n
    x = np.asarray(x, dtype=float)
    l_neglect = float(((x - reference) ** 2).sum())
    total = 0.0
    for i in range(n):
        for j in range(n):
            if a[i, j] <= 0.0:
                continue
            p_pair = a[i, j] / n
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
    n = len(sp.degrees)
    c = t * (1.0 - t) * probs.alpha - s * (1.0 + s) * probs.gamma
    if c >= 0.0:
        i_k = c * sp.lambda2
        i_hat = c * sp.lambda_n
    else:
        i_k = c * sp.lambda_n
        i_hat = c * sp.lambda2
    return ContractionCoefficients(i_k=i_k, i_hat_k=i_hat, z_k=1.0 - (2.0 / n) * i_hat)


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


def _coefficient_array(st: Schedule, ss: Schedule, probs: EventProbabilities,
                       horizon: int) -> np.ndarray:
    """c_k = T_k(1-T_k)*alpha - S_k(1+S_k)*gamma over the horizon."""
    t = st.ideal(0, horizon)
    a_term = probs.alpha * t * (1.0 - t) if probs.alpha > 0.0 else np.zeros(horizon)
    if probs.gamma > 0.0:
        s = ss.ideal(0, horizon)
        with np.errstate(over="ignore", invalid="ignore"):
            g_term = probs.gamma * s * (1.0 + s)
    else:
        g_term = np.zeros(horizon)
    return a_term - g_term


def _coefficient_limit(st: Schedule, ss: Schedule, probs: EventProbabilities) -> float:
    tl = st.limit()
    a_term = probs.alpha * tl * (1.0 - tl) if probs.alpha > 0.0 else 0.0
    if probs.gamma > 0.0:
        sl = ss.limit()
        g_term = math.inf if math.isinf(sl) else probs.gamma * sl * (1.0 + sl)
    else:
        g_term = 0.0
    return a_term - g_term


def _floor_caveat(st: Schedule, ss: Schedule, horizon: int) -> str:
    bits = []
    for name, s in (("T", st), ("S", ss)):
        if s.limit() < s.lo or (s.ideal(0, min(horizon, 1024)) < s.lo).any():
            bits.append(
                f"simulated {name} weights are floored at {s.lo:g}; "
                "analysis uses the unfloored sequence"
            )
    return "; ".join(bits)


def _join_caveats(*parts: str) -> str:
    return "; ".join(p for p in parts if p)


# ---------------------------------------------------------------------------
# condition evaluators
# ---------------------------------------------------------------------------

def _eval_thm1_nec(cfg, sp, detail, horizon, tau_grid, z_max) -> Verdict:
    st = cfg.schedule_t
    if cfg.probabilities.alpha == 0.0:
        detail["reason"] = "attraction probability is zero; spread can never shrink"
        return Verdict(IMPOSSIBLE, detail)
    t_div = _series_diverges(st, _weight)
    one_minus_div = _series_diverges(st, _complement)
    detail["sum_T_diverges"] = t_div
    detail["sum_one_minus_T_diverges"] = one_minus_div
    vals = st.ideal(0, horizon)
    detail["partial_sum_T"] = float(vals.sum())
    detail["partial_sum_one_minus_T"] = float((1.0 - vals).sum())
    if not t_div or not one_minus_div:
        which = "sum of T_k" if not t_div else "sum of (1 - T_k)"
        detail["reason"] = f"{which} is finite, so agreement has probability zero"
        return Verdict(IMPOSSIBLE, detail)
    return Verdict(INCONCLUSIVE, detail,
                   caveats="necessary condition met; says nothing by itself")


def _eval_thm2_nec(cfg, sp, detail, horizon, tau_grid, z_max) -> Verdict:
    if cfg.probabilities.gamma == 0.0:
        detail["reason"] = "repulsion probability is zero; spread is non-increasing"
        return Verdict(IMPOSSIBLE, detail)
    ss = cfg.schedule_s
    s_div = _series_diverges(ss, _weight)
    detail["product_one_plus_2S_diverges"] = s_div
    vals = ss.ideal(0, horizon)
    with np.errstate(over="ignore"):
        detail["partial_log_product"] = float(np.log1p(2.0 * vals).sum())
    if not s_div:
        detail["reason"] = "product of (1 + 2 S_k) is finite, so spread stays bounded"
        return Verdict(IMPOSSIBLE, detail)
    return Verdict(INCONCLUSIVE, detail,
                   caveats="necessary condition met; says nothing by itself")


def _eval_sym_agree(cfg, sp, detail, horizon, tau_grid, z_max) -> Verdict:
    st = cfg.schedule_t
    diverges = _series_diverges(st, _weight_complement)
    vals = st.ideal(0, horizon)
    detail["series_diverges"] = diverges
    detail["partial_sum"] = float((vals * (1.0 - vals)).sum())
    caveat = _floor_caveat(st, cfg.schedule_s, horizon)
    if diverges:
        return Verdict(GUARANTEED, detail, caveats=caveat)
    return Verdict(INCONCLUSIVE, detail,
                   caveats=_join_caveats("sum of T_k(1-T_k) is finite; sufficiency lost", caveat))


def _eval_sym_threshold(cfg, sp, detail, horizon, tau_grid, z_max) -> Verdict:
    st = cfg.schedule_t
    direction = st.monotone_direction()
    detail["monotone"] = direction
    if direction is None:
        return Verdict(INCONCLUSIVE, detail,
                       caveats="threshold form needs a monotone attraction schedule")
    diverges = _series_diverges(st, _weight_complement)
    detail["series_diverges"] = diverges
    caveat = _floor_caveat(st, cfg.schedule_s, horizon)
    if diverges:
        return Verdict(GUARANTEED, detail, caveats=caveat)
    detail["reason"] = "sum of T_k(1-T_k) is finite; under monotone weights agreement has probability zero"
    return Verdict(IMPOSSIBLE, detail, caveats=caveat)


def _eval_asym_agree(cfg, sp, detail, horizon, tau_grid, z_max) -> Verdict:
    st = cfg.schedule_t
    n = cfg.matrix.n
    width = n - 1
    # Sum over blocks of n-1 consecutive slots of the product of T(1-T):
    # for every supported closed form this diverges exactly when
    # sum (T_k(1-T_k))^(n-1) does, and explicit schedules are decided by
    # their constant tail.
    diverges = _series_diverges(st, _weight_complement, width)
    detail["block_width"] = width
    detail["series_diverges"] = diverges
    vals = st.ideal(0, horizon)
    nb = horizon // width
    prod_terms = (vals[: nb * width] * (1.0 - vals[: nb * width])).reshape(nb, width)
    detail["partial_sum"] = float(np.prod(prod_terms, axis=1).sum())
    caveat = _floor_caveat(st, cfg.schedule_s, horizon)
    if diverges:
        return Verdict(GUARANTEED, detail, caveats=caveat)
    return Verdict(INCONCLUSIVE, detail,
                   caveats=_join_caveats("block series is finite; sufficiency lost", caveat))


def _eval_asym_agree_mono(cfg, sp, detail, horizon, tau_grid, z_max) -> Verdict:
    st = cfg.schedule_t
    direction = st.monotone_direction()
    detail["monotone"] = direction
    scope_note = "evaluated for one-sided updates with a monotone attraction schedule"
    if direction is None:
        return Verdict(INCONCLUSIVE, detail,
                       caveats="needs a monotone attraction schedule")
    n = cfg.matrix.n
    diverges = _series_diverges(st, _weight_complement, n - 1)
    detail["series_diverges"] = diverges
    vals = st.ideal(0, horizon)
    detail["partial_sum"] = float(((vals * (1.0 - vals)) ** (n - 1)).sum())
    caveat = _join_caveats(scope_note, _floor_caveat(st, cfg.schedule_s, horizon))
    if diverges:
        return Verdict(GUARANTEED, detail, caveats=caveat)
    return Verdict(INCONCLUSIVE, detail,
                   caveats=_join_caveats("series is finite; sufficiency lost", caveat))


def _sym_rep_terms(cfg, sp, horizon, hat: bool) -> np.ndarray:
    """1 - (2/n) * (envelope coefficient at each slot), over the horizon."""
    n = cfg.matrix.n
    c = _coefficient_array(cfg.schedule_t, cfg.schedule_s, cfg.probabilities, horizon)
    if hat:
        coef = np.where(c >= 0.0, c * sp.lambda_n, c * sp.lambda2)
    else:
        coef = np.where(c >= 0.0, c * sp.lambda2, c * sp.lambda_n)
    return 1.0 - (2.0 / n) * coef


def _eval_sym_rep_agree(cfg, sp, detail, horizon, tau_grid, z_max) -> Verdict:
    st, ss, pr = cfg.schedule_t, cfg.schedule_s, cfg.probabilities
    terms = _sym_rep_terms(cfg, sp, horizon, hat=False)
    with np.errstate(divide="ignore", over="ignore"):
        detail["partial_product"] = float(np.exp(np.log(np.maximum(terms, 0.0)).sum())) \
            if (terms > 0.0).all() else 0.0
    caveat = _floor_caveat(st, ss, horizon)

    ct, cs = st.constant_value(ideal=True), ss.constant_value(ideal=True)
    if ct is not None and cs is not None:
        # Same expression and association as critical_measure, so the two
        # evaluators agree bit for bit on knife-edge inputs.
        c = ct * (1.0 - ct) * pr.alpha - cs * (1.0 + cs) * pr.gamma
        detail["coefficient"] = c
        if c > OSCILLATION_TOL or (terms == 0.0).any():
            detail["slow_factor"] = float(1.0 - (2.0 / cfg.matrix.n) * c * sp.lambda2)
            return Verdict(GUARANTEED, detail, caveats=caveat)
        if abs(c) <= OSCILLATION_TOL:
            return Verdict(INCONCLUSIVE, detail,
                           caveats=_join_caveats(
                               "per-slot coefficient is zero within tolerance", caveat))
        return Verdict(INCONCLUSIVE, detail,
                       caveats=_join_caveats("per-slot coefficient is not positive", caveat))

    if (terms == 0.0).any():
        detail["reason"] = "a slot contracts the expected dispersion to zero exactly"
        return Verdict(GUARANTEED, detail, caveats=caveat)
    c_inf = _coefficient_limit(st, ss, pr)
    detail["coefficient_limit"] = c_inf
    if c_inf > 0.0:
        return Verdict(GUARANTEED, detail, caveats=caveat)
    if c_inf < 0.0:
        return Verdict(INCONCLUSIVE, detail,
                       caveats=_join_caveats("tail coefficient is negative", caveat))
    if pr.gamma == 0.0 and pr.alpha > 0.0:
        diverges = _series_diverges(st, _weight_complement)
        detail["series_diverges"] = diverges
        if diverges:
            return Verdict(GUARANTEED, detail, caveats=caveat)
        return Verdict(INCONCLUSIVE, detail,
                       caveats=_join_caveats("sum of T_k(1-T_k) is finite", caveat))
    return Verdict(INCONCLUSIVE, detail,
                   caveats=_join_caveats("tail coefficient limit is zero; not decided analytically", caveat))


def _eval_sym_rep_expect_div(cfg, sp, detail, horizon, tau_grid, z_max) -> Verdict:
    st, ss, pr = cfg.schedule_t, cfg.schedule_s, cfg.probabilities
    n = cfg.matrix.n
    terms = _sym_rep_terms(cfg, sp, horizon, hat=True)
    with np.errstate(divide="ignore", over="ignore"):
        logs = np.log(np.maximum(terms, 1e-300))
        detail["partial_log_product"] = float(logs.sum())
    caveat = _floor_caveat(st, ss, horizon)

    ct, cs = st.constant_value(ideal=True), ss.constant_value(ideal=True)
    if ct is not None and cs is not None:
        c = ct * (1.0 - ct) * pr.alpha - cs * (1.0 + cs) * pr.gamma
        detail["coefficient"] = c
        if c < -OSCILLATION_TOL:
            detail["growth_factor"] = float(1.0 - (2.0 / n) * c * sp.lambda2)
            return Verdict(EXPECTED_DIVERGENCE, detail, caveats=caveat)
        if abs(c) <= OSCILLATION_TOL:
            return Verdict(INCONCLUSIVE, detail,
                           caveats=_join_caveats(
                               "per-slot coefficient is zero within tolerance", caveat))
        return Verdict(INCONCLUSIVE, detail,
                       caveats=_join_caveats("per-slot coefficient is not negative", caveat))

    if (terms <= 0.0).any():
        return Verdict(INCONCLUSIVE, detail,
                       caveats=_join_caveats("an early slot zeroes the lower envelope", caveat))
    c_inf = _coefficient_limit(st, ss, pr)
    detail["coefficient_limit"] = c_inf
    if c_inf < 0.0:
        return Verdict(EXPECTED_DIVERGENCE, detail, caveats=caveat)
    if c_inf > 0.0:
        return Verdict(INCONCLUSIVE, detail,
                       caveats=_join_caveats("tail coefficient is positive", caveat))
    if pr.alpha == 0.0 and pr.gamma > 0.0:
        diverges = _series_diverges(ss, _weight)
        detail["series_diverges"] = diverges
        if diverges:
            return Verdict(EXPECTED_DIVERGENCE, detail, caveats=caveat)
        return Verdict(INCONCLUSIVE, detail,
                       caveats=_join_caveats("sum of S_k is finite", caveat))
    return Verdict(INCONCLUSIVE, detail,
                   caveats=_join_caveats("tail coefficient limit is zero; not decided analytically", caveat))


def _eval_sym_rep_as_div(cfg, sp, detail, horizon, tau_grid, z_max) -> Verdict:
    st, ss, pr = cfg.schedule_t, cfg.schedule_s, cfg.probabilities
    if pr.gamma == 0.0:
        return Verdict(INCONCLUSIVE, detail,
                       caveats="no repulsion events; the growth exponent cannot be positive")
    s_inf, s_sup = ss.ideal_range()
    if not math.isfinite(s_sup):
        return Verdict(INCONCLUSIVE, detail, caveats="repulsion gains are unbounded")
    t_inf, t_sup = st.ideal_range()
    detail["t_range"] = [t_inf, t_sup]
    if not (t_sup < 0.5 or t_inf > 0.5):
        return Verdict(INCONCLUSIVE, detail,
                       caveats="attraction weights are not bounded away from 1/2")
    n = cfg.matrix.n
    t = st.ideal(0, horizon)
    s = ss.ideal(0, horizon)
    if (s <= 0.0).any():
        return Verdict(INCONCLUSIVE, detail,
                       caveats="a repulsion gain of zero appears within the horizon")
    c = _coefficient_array(st, ss, pr, horizon)
    i_hat = np.where(c >= 0.0, c * sp.lambda_n, c * sp.lambda2)
    s_poly = s * s + s
    best = (-math.inf, None)
    for tau in tau_grid:
        q = 1.0 + 4.0 * tau * s_poly
        p_k = -((2.0 / n) * i_hat + pr.gamma * q) / (4.0 * (1.0 - tau) * s_poly)
        j = p_k * np.log(q) + 2.0 * pr.alpha * np.log(np.abs(2.0 * t - 1.0))
        tail_mean = float(j[horizon // 2:].mean())
        if tail_mean > best[0]:
            best = (tail_mean, tau)
        if tail_mean > TAIL_MEAN_MARGIN:
            detail["tau"] = tau
            detail["tail_mean"] = tail_mean
            return Verdict(GUARANTEED, detail,
                           caveats=_floor_caveat(st, ss, horizon))
    detail["best_tail_mean"] = best[0]
    detail["best_tau"] = best[1]
    return Verdict(INCONCLUSIVE, detail,
                   caveats=_join_caveats(
                       "no grid point certifies a positive growth exponent",
                       _floor_caveat(st, ss, horizon)))


def _eval_beer_classify(cfg, sp, detail, horizon, tau_grid, z_max) -> Verdict:
    try:
        d0 = critical_measure(cfg.schedule_t, cfg.schedule_s, cfg.probabilities)
    except UnsupportedScheduleError:
        return Verdict(INCONCLUSIVE, detail,
                       caveats="classification needs time-invariant schedules")
    detail["d0"] = d0
    detail["topology_independent"] = True
    if abs(d0) <= OSCILLATION_TOL:
        detail["claim"] = "oscillation"
        detail["reason"] = "expected dispersion stays exactly at its initial value"
        return Verdict(EXPECTED_OSCILLATION, detail)
    if d0 < 0.0:
        detail["claim"] = "agreement"
        return Verdict(GUARANTEED, detail)
    detail["claim"] = "divergence"
    t = cfg.schedule_t.constant_value()
    s = cfg.schedule_s.constant_value()
    n = cfg.matrix.n
    certified = False
    cert: dict = {"certified": False, "tau": None, "p_star": None}
    if t != 0.5 and s > 0.0:
        s_poly = s * s + s
        for tau in tau_grid:
            q = 1.0 + 4.0 * tau * s_poly
            p_star = (2.0 * d0 * sp.lambda2 - n * cfg.probabilities.gamma * q) / (
                4.0 * n * (1.0 - tau) * s_poly)
            val = p_star * math.log(q) + 2.0 * cfg.probabilities.alpha * math.log(abs(2.0 * t - 1.0))
            if val > 0.0:
                certified = True
                cert = {"certified": True, "tau": tau, "p_star": p_star}
                break
    detail["as_divergence"] = cert
    caveat = "" if certified else "divergence holds in expectation; no almost-sure certificate found"
    return Verdict(EXPECTED_DIVERGENCE, detail, caveats=caveat)


def _effective_alpha(cfg) -> float:
    """Probability that a *specific* endpoint of the pair applies attraction."""
    if cfg.mode.variant == "asymmetric" and cfg.mode.active_rule == "uniform":
        return cfg.probabilities.alpha / 2.0
    return cfg.probabilities.alpha


def _effective_gamma(cfg) -> float:
    if cfg.mode.variant == "asymmetric" and cfg.mode.active_rule == "uniform":
        return cfg.probabilities.gamma / 2.0
    return cfg.probabilities.gamma


def _eval_asym_rep_agree(cfg, sp, detail, horizon, tau_grid, z_max) -> Verdict:
    st, ss, pr = cfg.schedule_t, cfg.schedule_s, cfg.probabilities
    _, s_sup = ss.ideal_range()
    if not math.isfinite(s_sup):
        return Verdict(INCONCLUSIVE, detail, caveats="repulsion gains are unbounded")
    n = cfg.matrix.n
    width = n - 1
    a_eff = _effective_alpha(cfg)
    chain = (a_eff * sp.a_star / n) ** width
    any_rep = 1.0 - (1.0 - pr.gamma) ** width
    detail["attraction_chain_weight"] = chain
    detail["any_repulsion_weight"] = any_rep

    t = st.ideal(0, horizon)
    s = ss.ideal(0, horizon)
    nb = horizon // width
    t_hat = np.prod((t[: nb * width] * (1.0 - t[: nb * width])).reshape(nb, width), axis=1)
    s_hat = np.prod((1.0 + s[: nb * width]).reshape(nb, width), axis=1)
    terms = 1.0 - chain * t_hat + any_rep * (s_hat - 1.0)
    with np.errstate(over="ignore"):
        detail["partial_product"] = float(np.exp(np.log(np.maximum(terms, 1e-300)).sum())) \
            if (terms > 0.0).all() else 0.0
    caveat = _floor_caveat(st, ss, horizon)

    ct, cs = st.constant_value(ideal=True), ss.constant_value(ideal=True)
    if ct is not None and cs is not None:
        e = 1.0 - chain * (ct * (1.0 - ct)) ** width \
            + any_rep * ((1.0 + cs) ** width - 1.0)
        detail["block_factor"] = e
        if e < 1.0:
            return Verdict(GUARANTEED, detail, caveats=caveat)
        if pr.gamma == 0.0 and a_eff > 0.0 and _series_diverges(st, _weight_complement, width):
            return Verdict(GUARANTEED, detail, caveats=caveat)
        return Verdict(INCONCLUSIVE, detail,
                       caveats=_join_caveats("block factor is not below one", caveat))

    tl, sl = st.limit(), ss.limit()
    e_inf = 1.0 - chain * (tl * (1.0 - tl)) ** width \
        + any_rep * ((1.0 + sl) ** width - 1.0)
    detail["block_factor_limit"] = e_inf
    if e_inf < 1.0:
        return Verdict(GUARANTEED, detail, caveats=caveat)
    if e_inf == 1.0 and pr.gamma == 0.0 and a_eff > 0.0:
        diverges = _series_diverges(st, _weight_complement, width)
        detail["series_diverges"] = diverges
        if diverges:
            return Verdict(GUARANTEED, detail, caveats=caveat)
    return Verdict(INCONCLUSIVE, detail,
                   caveats=_join_caveats("tail block factor is not below one", caveat))


def _eval_asym_rep_as_div(cfg, sp, detail, horizon, tau_grid, z_max) -> Verdict:
    st, ss, pr = cfg.schedule_t, cfg.schedule_s, cfg.probabilities
    if pr.gamma == 0.0:
        return Verdict(INCONCLUSIVE, detail,
                       caveats="no repulsion events; the growth term vanishes")
    _, s_sup = ss.ideal_range()
    if not math.isfinite(s_sup):
        return Verdict(INCONCLUSIVE, detail, caveats="repulsion gains are unbounded")
    _, t_sup = st.ideal_range()
    if t_sup >= 1.0:
        return Verdict(INCONCLUSIVE, detail,
                       caveats="attraction weights reach one; the shrink term is unbounded")
    n = cfg.matrix.n
    g_eff = _effective_gamma(cfg)
    t = st.ideal(0, horizon)
    s = ss.ideal(0, horizon)
    log1p_s = np.log1p(s)
    log1m_t = np.log1p(-t)
    best = (-math.inf, None)
    for z in range(0, min(z_max, horizon // 2 - 1) + 1):
        w = z + 1
        nb = horizon // w
        if nb < 2:
            break
        grow = log1p_s[: nb * w].reshape(nb, w).sum(axis=1) - math.log(n - 1)
        shrink = log1m_t[: nb * w].reshape(nb, w).sum(axis=1)
        j = (g_eff * sp.a_star / n) ** w * grow \
            + (1.0 - (1.0 - pr.alpha) ** w) * shrink
        tail_mean = float(j[nb // 2:].mean())
        if tail_mean > best[0]:
            best = (tail_mean, z)
        if tail_mean > TAIL_MEAN_MARGIN:
            detail["z"] = z
            detail["tail_mean"] = tail_mean
            return Verdict(GUARANTEED, detail,
                           caveats=_floor_caveat(st, ss, horizon))
    detail["best_tail_mean"] = best[0]
    detail["best_z"] = best[1]
    return Verdict(INCONCLUSIVE, detail,
                   caveats=_join_caveats(
                       "no block length certifies a positive growth exponent",
                       _floor_caveat(st, ss, horizon)))


def _eval_asym_const(cfg, sp, detail, horizon, tau_grid, z_max) -> Verdict:
    st, ss, pr = cfg.schedule_t, cfg.schedule_s, cfg.probabilities
    t = st.constant_value(ideal=True)
    s = ss.constant_value(ideal=True)
    if t is None or s is None:
        return Verdict(INCONCLUSIVE, detail,
                       caveats="applies to time-invariant schedules only")
    n = cfg.matrix.n
    width = n - 1
    a_eff = _effective_alpha(cfg)
    g_eff = _effective_gamma(cfg)
    lhs = (1.0 - (1.0 - pr.gamma) ** width) * ((s + 1.0) ** width - 1.0)
    rhs = (a_eff * sp.a_star / n) ** width * max(t, 1.0 - t) ** width
    detail["agreement_lhs"] = lhs
    detail["agreement_rhs"] = rhs
    agree = lhs < rhs

    def z_search(log_gain_per_slot_base: float) -> tuple[bool, int | None]:
        """Find Z with positive block exponent; gain term uses the given base."""
        if log_gain_per_slot_base <= 0.0:
            return False, None
        shrink_f = math.log1p(-t) if t < 1.0 else -math.inf
        for z in range(0, z_max + 1):
            w = z + 1
            grow = (g_eff * sp.a_star / n) ** w * (w * math.log(log_gain_per_slot_base)
                                                   - math.log(n - 1))
            frac = 1.0 - (1.0 - pr.alpha) ** w
            shrink = 0.0 if frac == 0.0 else frac * w * shrink_f
            if grow + shrink > 0.0:
                return True, z
        return False, None

    paper_ok, paper_z = z_search(s)
    prop8_ok, prop8_z = z_search(1.0 + s)
    detail["thm6_paper_form"] = {"satisfied": paper_ok, "z": paper_z}
    detail["thm6_prop8_form"] = {"satisfied": prop8_ok, "z": prop8_z}

    if agree:
        detail["claim"] = "agreement"
        return Verdict(GUARANTEED, detail)
    if paper_ok:
        detail["claim"] = "divergence"
        return Verdict(GUARANTEED, detail,
                       caveats="" if prop8_ok else "the two divergence readings disagree")
    caveats = "neither threshold is met"
    if prop8_ok:
        caveats = ("literal divergence reading not met; the one-plus-gain reading is "
                   "(see thm6_prop8_form)")
    return Verdict(INCONCLUSIVE, detail, caveats=caveats)


@dataclass(frozen=True)
class _Condition:
    """A condition's scope and its evaluator. `variant` None covers both
    update modes; `claim` None means the claim depends on the verdict."""

    variant: str | None
    claim: str | None
    evaluate: Callable[..., Verdict]
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


def _evaluate(cid: ConditionId, cfg, sp, horizon, tau_grid, z_max) -> Verdict:
    """Check the condition's declared scope (update mode, then repulsion,
    then attraction), and run its evaluator when the config is in scope."""
    cond = _CONDITIONS[cid]
    detail: dict = {} if cond.claim is None else {"claim": cond.claim}
    if cond.variant is not None and cfg.mode.variant != cond.variant:
        caveat = _VARIANT_CAVEATS[cond.variant]
    elif cond.repulsion_free and cfg.probabilities.gamma > 0.0:
        caveat = "applies to repulsion-free dynamics only"
    elif cond.needs_attraction and cfg.probabilities.alpha == 0.0:
        caveat = "attraction probability is zero"
    else:
        return cond.evaluate(cfg, sp, detail, horizon, tau_grid, z_max)
    return Verdict(INCONCLUSIVE, detail, caveats=caveat)


def _check_search_params(config, horizon, tau_grid, z_max) -> tuple[float, ...]:
    if not isinstance(horizon, (int, np.integer)) or horizon < max(config.matrix.n, 2):
        raise BadHorizonError(f"horizon must be an integer >= {max(config.matrix.n, 2)}")
    grid = tuple(float(tau) for tau in tau_grid)
    if not grid or any(not 0.0 < tau < 1.0 for tau in grid):
        raise BadHorizonError("tau_grid must be a nonempty sequence of values in (0, 1)")
    if not isinstance(z_max, (int, np.integer)) or z_max < 0:
        raise BadHorizonError(f"z_max must be a nonnegative integer, got {z_max}")
    return grid


def evaluate_condition(config: "ExperimentConfig", condition: ConditionId | str,
                       horizon: int = DEFAULT_HORIZON,
                       tau_grid: Sequence[float] = TAU_GRID,
                       z_max: int = Z_MAX) -> Verdict:
    """Evaluate one named condition for a config.

    `horizon` bounds the numeric partial sums/products reported in the
    verdict detail and the grid searches; analytic decisions for closed-form
    schedules do not depend on it. `tau_grid` and `z_max` bound the searches
    for an almost-sure divergence certificate.
    """
    if isinstance(condition, str):
        condition = ConditionId(condition)
    grid = _check_search_params(config, horizon, tau_grid, z_max)
    sp = spectral(config.matrix)
    return _evaluate(condition, config, sp, int(horizon), grid, int(z_max))


def theory_report(config: "ExperimentConfig",
                  horizon: int = DEFAULT_HORIZON,
                  tau_grid: Sequence[float] = TAU_GRID,
                  z_max: int = Z_MAX) -> TheoryReport:
    """Evaluate every condition applicable to the config's update mode.

    Raises InternalInconsistencyError when two verdicts contradict each
    other (an agreement guarantee next to any divergence verdict, or a
    guarantee next to the matching impossibility).
    """
    grid = _check_search_params(config, horizon, tau_grid, z_max)
    sp = spectral(config.matrix)
    conditions = [(cid, _evaluate(cid, config, sp, int(horizon), grid, int(z_max)))
                  for cid in ConditionId
                  if _CONDITIONS[cid].variant in (None, config.mode.variant)]

    d0: float | None = None
    if config.mode.variant == "symmetric":
        try:
            d0 = critical_measure(config.schedule_t, config.schedule_s,
                                  config.probabilities)
        except UnsupportedScheduleError:
            d0 = None

    c0 = contraction(sp, config.probabilities, config.schedule_t,
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

    return TheoryReport(d0=d0, spectral=sp, contraction0=c0, conditions=conditions)
