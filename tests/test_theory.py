"""Closed forms, envelope coefficients, and the condition evaluators.

Expected numbers in this file come from two independent sources: pinned
spectral constants (sympy, see conftest) and brute-force enumeration of all
pair/event outcomes. Nothing here re-derives a value through the code under
test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAMBDA2, LAMBDA_N, REF_ROWS, S_CRIT, make_config
from gossipsim.dynamics import EventProbabilities, Schedule, S_CLIP, T_CLIP
from gossipsim.errors import BadHorizonError, UnsupportedScheduleError
from gossipsim.graph import generate, spectral, validate
from gossipsim.theory import (
    EXPECTED_DIVERGENCE,
    EXPECTED_OSCILLATION,
    GUARANTEED,
    IMPOSSIBLE,
    INCONCLUSIVE,
    ConditionId,
    contraction,
    critical_measure,
    evaluate_condition,
    one_slot_expectation,
    one_slot_expectation_enumerated,
    theory_report,
)
from reference import expected_second_moment_matrix

PROBS_THIRDS = EventProbabilities(alpha=1 / 3, beta=1 / 3, gamma=1 / 3)

# Frozen from the closed form evaluated once by hand: with T = 1/4 and
# alpha = gamma = 1/3, d0 = (S(1+S) - 3/16) / 3.
D0_LOW = -0.02121459425887158
D0_HIGH = 0.02288126092553827


def const_t(v):
    return Schedule.constant(v, clip=T_CLIP)


def const_s(v):
    return Schedule.constant(v, clip=S_CLIP)


# ---------------------------------------------------------------------------
# critical measure
# ---------------------------------------------------------------------------

def test_critical_measure_three_regimes():
    lo = critical_measure(const_t(0.25), const_s(S_CRIT - 0.05), PROBS_THIRDS)
    crit = critical_measure(const_t(0.25), const_s(S_CRIT), PROBS_THIRDS)
    hi = critical_measure(const_t(0.25), const_s(S_CRIT + 0.05), PROBS_THIRDS)
    assert lo == pytest.approx(D0_LOW, abs=1e-15)
    assert abs(crit) <= 1e-15
    assert hi == pytest.approx(D0_HIGH, abs=1e-15)
    # and the rounded values quoted for this benchmark setup
    assert lo == pytest.approx(-0.0212, abs=5e-4)
    assert hi == pytest.approx(0.0229, abs=5e-4)


def test_critical_measure_keeps_positive_zero_at_the_critical_gain():
    # S(1+S)gamma and T(1-T)alpha are equal floats here, so d0 is +0.0
    d0 = critical_measure(const_t(0.25), const_s(S_CRIT), PROBS_THIRDS)
    assert d0 == 0.0 and math.copysign(1.0, d0) == 1.0


def test_critical_measure_repulsion_free_reduction():
    probs = EventProbabilities(alpha=0.7, beta=0.3, gamma=0.0)
    got = critical_measure(const_t(0.3), const_s(0.2), probs)
    assert got == pytest.approx(-0.3 * 0.7 * 0.7, abs=1e-15)


def test_critical_measure_needs_constant_schedules():
    with pytest.raises(UnsupportedScheduleError):
        critical_measure(Schedule.power(0.5, 1.0, clip=T_CLIP), const_s(0.1),
                         PROBS_THIRDS)
    with pytest.raises(UnsupportedScheduleError):
        critical_measure(const_t(0.25), Schedule.geometric(0.2, 0.5, clip=S_CLIP),
                         PROBS_THIRDS)


# ---------------------------------------------------------------------------
# expected second-moment matrix
# ---------------------------------------------------------------------------

def second_moment_enumerated(matrix, probs, t, s):
    """Entrywise oracle: average the squared per-event update matrices."""
    a = matrix.rows(0, matrix.n)
    n = matrix.n
    acc = np.zeros((n, n))
    p_selected = 0.0
    for i in range(n):
        for j in range(n):
            if a[i, j] <= 0.0:
                continue
            p = a[i, j] / n
            p_selected += p
            att = np.eye(n)
            att[i, i] = 1.0 - t
            att[i, j] = t
            att[j, j] = 1.0 - t
            att[j, i] = t
            rep = np.eye(n)
            rep[i, i] = 1.0 + s
            rep[i, j] = -s
            rep[j, j] = 1.0 + s
            rep[j, i] = -s
            acc += p * (probs.alpha * (att @ att) + probs.beta * np.eye(n)
                        + probs.gamma * (rep @ rep))
    # slots where no pair fires (total pair mass is 1/n short of one per row
    # sum... it is exactly 1 here: rows are stochastic, so sum a_ij / n = 1)
    assert p_selected == pytest.approx(1.0, abs=1e-12)
    return acc


def test_second_moment_identity_at_critical_point(ref_matrix):
    m = expected_second_moment_matrix(ref_matrix, PROBS_THIRDS, 0.25, S_CRIT)
    assert np.abs(m - np.eye(4)).max() <= 1e-12


def test_second_moment_closed_form_small_complete():
    matrix = generate("complete", 3)
    probs = EventProbabilities(alpha=1.0, beta=0.0, gamma=0.0)
    m = expected_second_moment_matrix(matrix, probs, 0.5, 0.0)
    lap = 2.0 * np.eye(3) - (np.ones((3, 3)) - np.eye(3))
    assert np.abs(m - (np.eye(3) - lap / 6.0)).max() <= 1e-12


def test_second_moment_rows_sum_to_one(ref_matrix):
    m = expected_second_moment_matrix(ref_matrix, PROBS_THIRDS, 0.3, 0.2)
    np.testing.assert_allclose(m.sum(axis=1), np.ones(4), atol=1e-12)


@settings(max_examples=30)
@given(t=st.floats(0.01, 0.99), s=st.floats(0.0, 2.0),
       alpha=st.floats(0.0, 1.0), frac=st.floats(0.0, 1.0))
def test_second_moment_matches_enumeration_entrywise(t, s, alpha, frac):
    matrix = validate(REF_ROWS)
    gamma = (1.0 - alpha) * frac
    probs = EventProbabilities(alpha=alpha, beta=1.0 - alpha - gamma, gamma=gamma)
    closed = expected_second_moment_matrix(matrix, probs, t, s)
    brute = second_moment_enumerated(matrix, probs, t, s)
    assert np.abs(closed - brute).max() <= 1e-12


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.01, 0.99),
       s=st.floats(0.0, 1.5), ref=st.floats(-5.0, 5.0))
def test_one_slot_expectation_matches_quadratic_form(seed, t, s, ref):
    # E[L(k+1) | x] with any fixed reference equals the quadratic form of the
    # second-moment matrix on the deviation vector: coupled updates keep row
    # sums at one, so the deviation evolves linearly too. The package's
    # closed form, a sum over the arcs, is that form.
    matrix = validate(REF_ROWS)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10.0, 10.0, size=4)
    enumerated = one_slot_expectation_enumerated(matrix, PROBS_THIRDS, t, s, x, ref)
    m = expected_second_moment_matrix(matrix, PROBS_THIRDS, t, s)
    dev = x - ref
    form = float(dev @ m @ dev)
    assert enumerated == pytest.approx(form, rel=1e-12, abs=1e-12)
    closed = one_slot_expectation(matrix, PROBS_THIRDS, t, s, x, ref)
    assert closed == pytest.approx(form, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# contraction coefficients
# ---------------------------------------------------------------------------

def test_contraction_repulsion_free(ref_matrix):
    sp = spectral(ref_matrix)
    probs = EventProbabilities(alpha=0.5, beta=0.5, gamma=0.0)
    co = contraction(sp, probs, const_t(0.25), const_s(0.1), k=0)
    c = 0.25 * 0.75 * 0.5
    assert co.i_k == pytest.approx(c * LAMBDA2, abs=1e-12)
    assert co.i_hat_k == pytest.approx(c * LAMBDA_N, abs=1e-12)
    assert co.z_k == pytest.approx(1.0 - 0.5 * c * LAMBDA_N, abs=1e-12)
    assert co.i_k > 0.0 and co.z_k < 1.0


def test_contraction_at_critical_point(ref_matrix):
    sp = spectral(ref_matrix)
    co = contraction(sp, PROBS_THIRDS, const_t(0.25), const_s(S_CRIT), k=0)
    assert abs(co.i_k) <= 1e-12
    assert abs(co.i_hat_k) <= 1e-12
    assert co.z_k == pytest.approx(1.0, abs=1e-12)


def test_contraction_divergent_regime_swaps_branches(ref_matrix):
    sp = spectral(ref_matrix)
    co = contraction(sp, PROBS_THIRDS, const_t(0.25), const_s(S_CRIT + 0.05), k=0)
    # c < 0: the fast eigenvalue bounds the slow envelope and vice versa
    assert co.i_k == pytest.approx(-D0_HIGH * LAMBDA_N, abs=1e-12)
    assert co.i_hat_k == pytest.approx(-D0_HIGH * LAMBDA2, abs=1e-12)
    assert co.z_k > 1.0


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.01, 0.99),
       s=st.floats(0.0, 1.0), gamma=st.floats(0.0, 0.5))
def test_envelope_bounds_quadratic_form(seed, t, s, gamma):
    """z_k L <= dev' E[Psi^2] dev <= (1 - (2/n) i_k) L for mean-centered dev."""
    matrix = validate(REF_ROWS)
    sp = spectral(matrix)
    probs = EventProbabilities(alpha=0.5, beta=0.5 - gamma, gamma=gamma)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10.0, 10.0, size=4)
    dev = x - x.mean()
    l_now = float((dev**2).sum())
    m = expected_second_moment_matrix(matrix, probs, t, s)
    form = float(dev @ m @ dev)
    co = contraction(sp, probs, const_t(max(t, 1e-12)), const_s(max(s, 1e-12)), k=0)
    slack = 1e-9 * max(1.0, l_now)
    assert co.z_k * l_now - slack <= form
    assert form <= (1.0 - 0.5 * co.i_k) * l_now + slack


# ---------------------------------------------------------------------------
# condition evaluators
# ---------------------------------------------------------------------------

def test_thm1_nec_variants(ref_matrix):
    # weights marching to one with a convergent (1 - T_k) series
    tail_one = Schedule.explicit([1 - 2 ** (-(k + 2)) for k in range(12)], 1.0,
                                 clip=T_CLIP)
    cfg = make_config(ref_matrix, gamma=0.0, beta=2 / 3, schedule_t=tail_one)
    assert evaluate_condition(cfg, ConditionId.THM1_NEC).status == IMPOSSIBLE

    # summable weights
    cfg = make_config(ref_matrix, schedule_t=Schedule.geometric(0.25, 0.5, clip=T_CLIP))
    assert evaluate_condition(cfg, ConditionId.THM1_NEC).status == IMPOSSIBLE

    # constant weights: both series diverge, nothing ruled out
    cfg = make_config(ref_matrix, t=0.25)
    v = evaluate_condition(cfg, ConditionId.THM1_NEC)
    assert v.status == INCONCLUSIVE
    assert v.detail["sum_T_diverges"] and v.detail["sum_one_minus_T_diverges"]

    # no attraction at all
    cfg = make_config(ref_matrix, alpha=0.0, beta=2 / 3, gamma=1 / 3)
    assert evaluate_condition(cfg, ConditionId.THM1_NEC).status == IMPOSSIBLE


def test_thm2_nec_variants(ref_matrix):
    cfg = make_config(ref_matrix, gamma=0.0, beta=2 / 3)
    assert evaluate_condition(cfg, ConditionId.THM2_NEC).status == IMPOSSIBLE

    cfg = make_config(ref_matrix,
                      schedule_s=Schedule.geometric(0.25, 0.5, clip=S_CLIP))
    assert evaluate_condition(cfg, ConditionId.THM2_NEC).status == IMPOSSIBLE

    cfg = make_config(ref_matrix, s=0.1)
    assert evaluate_condition(cfg, ConditionId.THM2_NEC).status == INCONCLUSIVE


def test_sym_agree_variants(ref_matrix):
    cfg = make_config(ref_matrix, gamma=0.0, beta=2 / 3, t=0.25)
    assert evaluate_condition(cfg, ConditionId.SYM_AGREE).status == GUARANTEED

    tail_one = Schedule.explicit([1 - 2 ** (-(k + 2)) for k in range(12)], 1.0,
                                 clip=T_CLIP)
    cfg = make_config(ref_matrix, gamma=0.0, beta=2 / 3, schedule_t=tail_one)
    assert evaluate_condition(cfg, ConditionId.SYM_AGREE).status == INCONCLUSIVE

    # out of scope with repulsion present
    cfg = make_config(ref_matrix, t=0.25, s=0.05)
    v = evaluate_condition(cfg, ConditionId.SYM_AGREE)
    assert v.status == INCONCLUSIVE
    assert "repulsion-free" in v.caveats


def test_sym_threshold_variants(ref_matrix):
    cfg = make_config(ref_matrix, gamma=0.0, beta=2 / 3,
                      schedule_t=Schedule.geometric(0.25, 0.5, clip=T_CLIP))
    v = evaluate_condition(cfg, ConditionId.SYM_THRESHOLD)
    assert v.status == IMPOSSIBLE
    assert v.detail["monotone"] == "nonincreasing"

    cfg = make_config(ref_matrix, gamma=0.0, beta=2 / 3, t=0.25)
    assert evaluate_condition(cfg, ConditionId.SYM_THRESHOLD).status == GUARANTEED


def test_beer_classify_three_regimes(ref_matrix):
    lo = evaluate_condition(make_config(ref_matrix, s=S_CRIT - 0.05),
                            ConditionId.BEER_CLASSIFY)
    assert lo.status == GUARANTEED
    assert lo.detail["claim"] == "agreement"
    assert lo.detail["d0"] == pytest.approx(D0_LOW, abs=1e-15)

    crit = evaluate_condition(make_config(ref_matrix, s=S_CRIT),
                              ConditionId.BEER_CLASSIFY)
    assert crit.status == EXPECTED_OSCILLATION

    hi = evaluate_condition(make_config(ref_matrix, s=S_CRIT + 0.05),
                            ConditionId.BEER_CLASSIFY)
    assert hi.status == EXPECTED_DIVERGENCE
    assert hi.detail["claim"] == "divergence"
    assert hi.detail["d0"] == pytest.approx(D0_HIGH, abs=1e-15)


def test_sym_rep_agree_and_expect_div_three_regimes(ref_matrix):
    lo = make_config(ref_matrix, s=S_CRIT - 0.05)
    assert evaluate_condition(lo, ConditionId.SYM_REP_AGREE).status == GUARANTEED
    assert evaluate_condition(lo, ConditionId.SYM_REP_EXPECT_DIV).status == INCONCLUSIVE

    crit = make_config(ref_matrix, s=S_CRIT)
    assert evaluate_condition(crit, ConditionId.SYM_REP_AGREE).status == INCONCLUSIVE
    v = evaluate_condition(crit, ConditionId.SYM_REP_EXPECT_DIV)
    assert v.status == INCONCLUSIVE
    assert "zero within tolerance" in v.caveats

    hi = make_config(ref_matrix, s=S_CRIT + 0.05)
    assert evaluate_condition(hi, ConditionId.SYM_REP_AGREE).status == INCONCLUSIVE
    assert evaluate_condition(hi, ConditionId.SYM_REP_EXPECT_DIV).status \
        == EXPECTED_DIVERGENCE


CRITICAL_TAILS = [round(0.033 + 0.02 * i, 3) for i in range(39)]


@pytest.mark.parametrize("t", CRITICAL_TAILS)
def test_critical_tail_is_decided_like_a_critical_constant(ref_matrix, t):
    """At the critical gain S(1+S) = T(1-T) the coefficient is zero up to
    rounding. A schedule that only reaches T = t in its tail must get the
    verdicts of the constant t, whatever sign the rounding residue has."""
    s = (-1.0 + math.sqrt(1.0 + 4.0 * t * (1.0 - t))) / 2.0
    schedules = [const_t(t), Schedule.explicit([0.5], t, clip=T_CLIP),
                 Schedule.power(t, 0.0, clip=T_CLIP), Schedule.geometric(t, 1.0, clip=T_CLIP)]
    for cid in (ConditionId.SYM_REP_AGREE, ConditionId.SYM_REP_EXPECT_DIV):
        statuses = {evaluate_condition(make_config(ref_matrix, s=s, schedule_t=sched), cid).status
                    for sched in schedules}
        assert statuses == {INCONCLUSIVE}, (cid, statuses)


def test_sym_rep_as_div_needs_repulsion(ref_matrix):
    cfg = make_config(ref_matrix, gamma=0.0, beta=2 / 3)
    assert evaluate_condition(cfg, ConditionId.SYM_REP_AS_DIV).status == INCONCLUSIVE


def test_asym_const_agreement_case():
    matrix = generate("complete", 3)
    cfg = make_config(matrix, variant="asymmetric", active_rule="initiator",
                      alpha=0.9, beta=0.099, gamma=0.001, t=0.9, s=0.01)
    v = evaluate_condition(cfg, ConditionId.ASYM_CONST)
    assert v.status == GUARANTEED
    assert v.detail["claim"] == "agreement"
    # lhs/rhs frozen from the closed forms evaluated by hand:
    # lhs = (1 - 0.999^2)(1.01^2 - 1), rhs = (0.9 * 0.5 / 3)^2 * 0.9^2
    assert v.detail["agreement_lhs"] == pytest.approx(4.01799e-05, rel=1e-4)
    assert v.detail["agreement_rhs"] == pytest.approx(0.018225, rel=1e-12)


def test_asym_const_divergence_case():
    matrix = generate("complete", 3)
    cfg = make_config(matrix, variant="asymmetric", active_rule="initiator",
                      alpha=0.01, beta=0.01, gamma=0.98, t=0.01, s=1e6)
    v = evaluate_condition(cfg, ConditionId.ASYM_CONST)
    assert v.status == GUARANTEED
    assert v.detail["claim"] == "divergence"
    assert v.detail["thm6_paper_form"] == {"satisfied": True, "z": 0}
    assert v.detail["thm6_prop8_form"] == {"satisfied": True, "z": 0}


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_asym_const_makes_no_agreement_claim_outside_open_interval(ref_matrix, t):
    # T(1-T) = 0 lies outside ASYM_CONST's hypothesis 0 < T < 1, and
    # THM1_NEC rules agreement out there, so ASYM_CONST must not claim it
    cfg = make_config(ref_matrix, variant="asymmetric", alpha=2 / 3, beta=1 / 3,
                      gamma=0.0, t=t)
    rep = theory_report(cfg)
    verdicts = dict(rep.conditions)
    assert verdicts[ConditionId.THM1_NEC].status == IMPOSSIBLE
    assert verdicts[ConditionId.ASYM_CONST].status == INCONCLUSIVE
    assert "0 < T < 1" in verdicts[ConditionId.ASYM_CONST].caveats


def test_beer_certificate_is_the_sym_rep_as_div_search(ref_matrix):
    # a constant divergent config: the classifier's almost-sure certificate
    # and SYM_REP_AS_DIV run the same tau search and agree
    cfg = make_config(ref_matrix, alpha=0.0, beta=1 / 3, gamma=2 / 3, t=0.05, s=1.0)
    beer = evaluate_condition(cfg, ConditionId.BEER_CLASSIFY)
    as_div = evaluate_condition(cfg, ConditionId.SYM_REP_AS_DIV)
    assert beer.status == EXPECTED_DIVERGENCE and as_div.status == GUARANTEED
    assert beer.detail["as_divergence"]["certified"]
    assert beer.detail["as_divergence"]["tau"] == as_div.detail["tau"]


def test_asym_conditions_out_of_scope_for_symmetric(ref_matrix):
    cfg = make_config(ref_matrix)
    for cid in (ConditionId.ASYM_AGREE, ConditionId.ASYM_AGREE_MONO,
                ConditionId.ASYM_REP_AGREE, ConditionId.ASYM_REP_AS_DIV,
                ConditionId.ASYM_CONST):
        assert evaluate_condition(cfg, cid).status == INCONCLUSIVE


def test_evaluate_condition_accepts_string_id(ref_matrix):
    cfg = make_config(ref_matrix, s=S_CRIT - 0.05)
    v = evaluate_condition(cfg, "BEER_CLASSIFY")
    assert v.status == GUARANTEED


def test_evaluate_condition_search_param_validation(ref_matrix):
    cfg = make_config(ref_matrix)
    with pytest.raises(BadHorizonError):
        evaluate_condition(cfg, ConditionId.SYM_AGREE, horizon=2)
    with pytest.raises(BadHorizonError):
        evaluate_condition(cfg, ConditionId.SYM_AGREE, horizon=10.5)


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def test_report_critical_point(ref_matrix):
    rep = theory_report(make_config(ref_matrix, s=S_CRIT))
    assert rep.d0 == pytest.approx(0.0, abs=1e-15)
    statuses = {cid: v.status for cid, v in rep.conditions}
    assert statuses[ConditionId.BEER_CLASSIFY] == EXPECTED_OSCILLATION
    # the knife edge certifies nothing else
    for cid, status in statuses.items():
        if cid is not ConditionId.BEER_CLASSIFY:
            assert status == INCONCLUSIVE, cid


def test_report_repulsion_free_midpoint(ref_matrix):
    rep = theory_report(make_config(ref_matrix, gamma=0.0, beta=2 / 3, t=0.5))
    statuses = {cid: v.status for cid, v in rep.conditions}
    assert statuses[ConditionId.SYM_AGREE] == GUARANTEED
    assert statuses[ConditionId.THM2_NEC] == IMPOSSIBLE
    assert statuses[ConditionId.BEER_CLASSIFY] == GUARANTEED


def test_report_condition_sets_by_variant(ref_matrix):
    sym = theory_report(make_config(ref_matrix))
    assert [cid for cid, _ in sym.conditions] == [
        ConditionId.THM1_NEC, ConditionId.THM2_NEC, ConditionId.SYM_AGREE,
        ConditionId.SYM_THRESHOLD, ConditionId.SYM_REP_AGREE,
        ConditionId.SYM_REP_EXPECT_DIV, ConditionId.SYM_REP_AS_DIV,
        ConditionId.BEER_CLASSIFY]

    asym = theory_report(make_config(ref_matrix, variant="asymmetric"))
    assert [cid for cid, _ in asym.conditions] == [
        ConditionId.THM1_NEC, ConditionId.THM2_NEC, ConditionId.ASYM_AGREE,
        ConditionId.ASYM_AGREE_MONO, ConditionId.ASYM_REP_AGREE,
        ConditionId.ASYM_REP_AS_DIV, ConditionId.ASYM_CONST]
    assert asym.d0 is None


def test_report_d0_needs_constant_schedules(ref_matrix):
    rep = theory_report(make_config(
        ref_matrix, gamma=0.0, beta=2 / 3,
        schedule_t=Schedule.geometric(0.25, 0.5, clip=T_CLIP)))
    assert rep.d0 is None


def test_report_benchmark_one_sided_setup(ref_matrix):
    cfg = make_config(ref_matrix, variant="asymmetric", active_rule="uniform",
                      alpha=1.0, beta=0.0, gamma=0.0, t=0.5)
    rep = theory_report(cfg)
    statuses = {cid.value: v.status for cid, v in rep.conditions}
    assert statuses == {
        "THM1_NEC": INCONCLUSIVE,
        "THM2_NEC": IMPOSSIBLE,
        "ASYM_AGREE": GUARANTEED,
        "ASYM_AGREE_MONO": GUARANTEED,
        "ASYM_REP_AGREE": GUARANTEED,
        "ASYM_REP_AS_DIV": INCONCLUSIVE,
        "ASYM_CONST": GUARANTEED,
    }


def test_classification_is_topology_independent():
    kwargs = [("complete", {}), ("ring", {}),
              ("erdos_renyi", {"seed": 7, "p": 0.35}),
              ("watts_strogatz", {"seed": 7, "k_nn": 4, "p_rewire": 0.1}),
              ("barabasi_albert", {"seed": 7, "m": 3})]
    verdicts = []
    for kind, extra in kwargs:
        cfg = make_config(generate(kind, 12, **extra), t=0.25, s=0.05)
        v = evaluate_condition(cfg, ConditionId.BEER_CLASSIFY)
        verdicts.append((v.status, v.detail["claim"], v.detail["d0"]))
    assert len(set(verdicts)) == 1
    assert verdicts[0] == (GUARANTEED, "agreement", pytest.approx(-0.045, abs=1e-15))
