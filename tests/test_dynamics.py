import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gossipsim.dynamics import (
    EventProbabilities,
    S_CLIP,
    Schedule,
    T_CLIP,
    UpdateMode,
)
from gossipsim.errors import (
    BadHorizonError,
    BadParameterError,
)
from gossipsim.graph import validate

from conftest import REF_ROWS, rng_for
from reference import (
    Event,
    NetworkState,
    NonFiniteStateError,
    StepOutcome,
    apply_step,
    run_trajectory,
    sample_events,
    sample_pair,
)


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

def test_event_probabilities_validation():
    p = EventProbabilities(alpha=0.2, beta=0.5, gamma=0.3)
    assert p.thresholds() == (0.2, 0.7)
    with pytest.raises(BadParameterError):
        EventProbabilities(alpha=-0.1, beta=0.6, gamma=0.5)
    with pytest.raises(BadParameterError):
        EventProbabilities(alpha=0.6, beta=0.6, gamma=0.2)


def test_update_mode_validation():
    assert UpdateMode(variant="symmetric").draws_per_slot == 3
    assert UpdateMode(variant="asymmetric", active_rule="initiator").draws_per_slot == 3
    assert UpdateMode(variant="asymmetric", active_rule="uniform").draws_per_slot == 4
    with pytest.raises(BadParameterError):
        UpdateMode(variant="sideways")
    with pytest.raises(BadParameterError):
        UpdateMode(variant="asymmetric", active_rule="loudest")


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_constant():
    s = Schedule.constant(0.25, clip=T_CLIP)
    assert s.applied(0, 1)[0] == 0.25
    assert s.applied(10**6, 10**6 + 1)[0] == 0.25
    assert s.constant_value() == 0.25
    assert s.limit() == 0.25


def test_schedule_power_and_geometric():
    pw = Schedule.power(0.5, 1.0, clip=T_CLIP)
    assert pw.raw(0, 4)[0] == 0.5
    assert pw.raw(0, 4)[3] == 0.125
    assert pw.limit() == 0.0
    assert pw.decay_exponent() == 1.0
    assert pw.monotone_direction() == "nonincreasing"

    geo = Schedule.geometric(0.25, 0.25, clip=T_CLIP)
    assert geo.raw(1, 2)[0] == 0.0625
    assert geo.decay_exponent() is None
    # deep tail clips to the floor in the simulator but not in the ideal view
    k_deep = 200
    assert geo.applied(k_deep, k_deep + 1)[0] == T_CLIP[0]
    assert geo.ideal(k_deep, k_deep + 1)[0] == pytest.approx(0.25 ** (k_deep + 1), rel=1e-12)
    clipped = geo.applied(0, k_deep + 1) != geo.raw(0, k_deep + 1)
    assert clipped[k_deep]
    assert not clipped[0]


def test_schedule_explicit_tail():
    e = Schedule.explicit([0.5, 0.4], 0.125, clip=T_CLIP)
    assert e.applied(0, 4).tolist() == [0.5, 0.4, 0.125, 0.125]
    assert e.applied(1, 3).tolist() == [0.4, 0.125]
    assert e.applied(5, 7).tolist() == [0.125, 0.125]
    assert e.constant_value() is None
    assert e.limit() == 0.125


def test_schedule_validation_and_clipping():
    with pytest.raises(BadParameterError):
        Schedule.constant(float("nan"), clip=T_CLIP)
    with pytest.raises(BadParameterError):
        Schedule.power(0.5, float("inf"), clip=T_CLIP)
    with pytest.raises(BadParameterError):
        Schedule.geometric(0.5, -0.25, clip=T_CLIP)
    # out-of-range values clip rather than raise
    assert Schedule.constant(1.5, clip=T_CLIP).applied(0, 1)[0] == 1.0
    assert Schedule.constant(-0.5, clip=S_CLIP).applied(0, 1)[0] == S_CLIP[0]
    # the ideal view keeps the legal range only
    assert Schedule.constant(-0.5, clip=S_CLIP).ideal(0, 1)[0] == 0.0


def test_schedule_overflow_saturates_and_clips():
    """r ** k overflows past slot 1750 for r = 1.5; the evaluator saturates
    to inf, which T clips to its ceiling and S keeps as an unbounded gain."""
    t = Schedule.geometric(0.1, 1.5, clip=T_CLIP)
    s = Schedule.geometric(0.1, 1.5, clip=S_CLIP)
    assert np.isinf(t.raw(1740, 1760)).any()
    assert (t.applied(1740, 1760) == 1.0).all()
    assert np.isinf(s.applied(3000, 3001)).all()
    assert t.limit() == 1.0 and s.limit() == math.inf
    assert t.monotone_direction() == "nondecreasing"


@pytest.mark.parametrize("schedule", [
    Schedule.power(0.5, 0.6, clip=T_CLIP),
    Schedule.power(0.3, -0.4, clip=S_CLIP),
    Schedule.geometric(0.9, 0.99, clip=T_CLIP),
    Schedule.geometric(0.1, 1.5, clip=S_CLIP),
    Schedule.explicit([0.5, 0.0, 2.0], 0.25, clip=T_CLIP),
])
def test_schedule_blocks_match_one_range(schedule):
    """Evaluating slot blocks gives the same bits as one pass over the run,
    which is what lets the engine (per step block) match the scalar path."""
    whole = schedule.applied(0, 3000)
    for lo, hi in ((0, 1), (2, 1026), (1024, 2048), (1750, 1751), (2999, 3000)):
        np.testing.assert_array_equal(schedule.applied(lo, hi), whole[lo:hi])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_pair_support_and_consumption(ref_matrix):
    rng = rng_for(7)
    seen = set()
    for _ in range(2000):
        i, j = sample_pair(ref_matrix, rng)
        assert i != j
        assert ref_matrix.rows(0, 4)[i, j] > 0.0
        seen.add((i, j))
    # every positive entry shows up
    assert seen == {(i, j) for i in range(4) for j in range(4)
                    if ref_matrix.rows(0, 4)[i, j] > 0.0}

    # exactly two uniforms per call: a parallel generator kept in lockstep by
    # discarding two draws must produce the same third draw
    a, b = rng_for(123), rng_for(123)
    sample_pair(ref_matrix, a)
    b.random(2)
    assert a.random() == b.random()


def test_sample_pair_distribution(ref_matrix):
    rng = rng_for(42)
    n = ref_matrix.n
    draws = 40000
    counts = np.zeros((n, n))
    for _ in range(draws):
        i, j = sample_pair(ref_matrix, rng)
        counts[i, j] += 1
    probs = ref_matrix.rows(0, n) / n
    se = np.sqrt(probs * (1 - probs) / draws)
    assert np.all(np.abs(counts / draws - probs) <= 4 * se + 1e-12)


def test_sample_events_symmetric_shares_one_draw():
    probs = EventProbabilities(alpha=0.3, beta=0.3, gamma=0.4)
    mode = UpdateMode(variant="symmetric")
    rng = rng_for(5)
    tallies = {Event.ATTRACTION: 0, Event.NEGLECT: 0, Event.REPULSION: 0}
    for _ in range(30000):
        ei, ej = sample_events(mode, probs, rng)
        assert ei == ej
        tallies[ei] += 1
    for ev, p in ((Event.ATTRACTION, 0.3), (Event.NEGLECT, 0.3), (Event.REPULSION, 0.4)):
        se = math.sqrt(p * (1 - p) / 30000)
        assert abs(tallies[ev] / 30000 - p) <= 4 * se

    a, b = rng_for(9), rng_for(9)
    sample_events(mode, probs, a)
    b.random()
    assert a.random() == b.random()


@pytest.mark.parametrize("rule,active_side", [("initiator", "i"), ("responder", "j")])
def test_sample_events_asymmetric_fixed_rules(rule, active_side):
    probs = EventProbabilities(alpha=0.5, beta=0.2, gamma=0.3)
    mode = UpdateMode(variant="asymmetric", active_rule=rule)
    rng = rng_for(1)
    for _ in range(500):
        ei, ej = sample_events(mode, probs, rng)
        passive = ej if active_side == "i" else ei
        assert passive == Event.NEGLECT


def test_sample_events_asymmetric_uniform_coin():
    probs = EventProbabilities(alpha=1.0, beta=0.0, gamma=0.0)
    mode = UpdateMode(variant="asymmetric", active_rule="uniform")
    rng = rng_for(77)
    active_i = 0
    trials = 20000
    for _ in range(trials):
        ei, ej = sample_events(mode, probs, rng)
        assert (ei == Event.NEGLECT) or (ej == Event.NEGLECT)
        if ei == Event.ATTRACTION:
            active_i += 1
    assert abs(active_i / trials - 0.5) <= 4 * math.sqrt(0.25 / trials)

    # two draws consumed (event + coin)
    a, b = rng_for(9), rng_for(9)
    sample_events(mode, probs, a)
    b.random(2)
    assert a.random() == b.random()


# ---------------------------------------------------------------------------
# one-slot updates
# ---------------------------------------------------------------------------

def test_apply_step_formulas():
    state = NetworkState(x=np.array([1.0, 4.0, 2.0]), k=0)
    att = StepOutcome(i=0, j=1, event_i=Event.ATTRACTION, event_j=Event.NEGLECT,
                      t_k=0.25, s_k=0.5)
    out = apply_step(state, att)
    assert out.x[0] == 0.75 * 1.0 + 0.25 * 4.0
    assert out.x[1] == 4.0
    assert out.k == 1

    rep = StepOutcome(i=0, j=1, event_i=Event.REPULSION, event_j=Event.REPULSION,
                      t_k=0.25, s_k=0.5)
    out = apply_step(state, rep)
    # both ends read pre-step values
    assert out.x[0] == 1.5 * 1.0 - 0.5 * 4.0
    assert out.x[1] == 1.5 * 4.0 - 0.5 * 1.0


def test_apply_step_midpoint_meet():
    state = NetworkState(x=np.array([0.0, 1.0, 5.0]), k=3)
    both = StepOutcome(i=0, j=1, event_i=Event.ATTRACTION, event_j=Event.ATTRACTION,
                       t_k=0.5, s_k=0.1)
    out = apply_step(state, both)
    assert out.x[0] == out.x[1] == 0.5


def test_apply_step_errors():
    state = NetworkState(x=np.array([1.0, 2.0, 3.0]), k=0)
    with pytest.raises(BadParameterError):
        apply_step(state, StepOutcome(i=1, j=1, event_i=Event.NEGLECT,
                                      event_j=Event.NEGLECT, t_k=0.5, s_k=0.5))
    huge = NetworkState(x=np.array([1e150, -1e150, 0.0]), k=0)
    with pytest.raises(NonFiniteStateError):
        apply_step(huge, StepOutcome(i=0, j=1, event_i=Event.REPULSION,
                                     event_j=Event.REPULSION, t_k=0.5, s_k=1.0))


# ---------------------------------------------------------------------------
# whole trajectories
# ---------------------------------------------------------------------------

def run_ref(matrix, seed=0, steps=60, variant="symmetric", alpha=0.4, beta=0.3,
            gamma=0.3, t=0.3, s=0.2, x0=None, checkpoints=None, k0=0):
    return run_trajectory(
        matrix, UpdateMode(variant=variant),
        EventProbabilities(alpha=alpha, beta=beta, gamma=gamma),
        Schedule.constant(t, clip=T_CLIP), Schedule.constant(s, clip=S_CLIP),
        np.array(x0 if x0 is not None else [1.0, 2.0, 3.0, 4.0]),
        k0, steps, rng_for(seed), checkpoints=checkpoints)


def test_run_trajectory_checkpoints(ref_matrix):
    res = run_ref(ref_matrix, checkpoints=[10, 20])
    assert [st.k for st in res.states] == [0, 10, 20, 60]
    res0 = run_ref(ref_matrix, steps=0)
    assert [st.k for st in res0.states] == [0]
    with pytest.raises(BadHorizonError):
        run_ref(ref_matrix, checkpoints=[61])
    with pytest.raises(BadHorizonError):
        run_ref(ref_matrix, steps=-1)


def test_run_trajectory_k0_offset(ref_matrix):
    res = run_ref(ref_matrix, k0=5, steps=10, checkpoints=[7])
    assert [st.k for st in res.states] == [5, 7, 15]
    with pytest.raises(BadHorizonError, match="k0"):
        run_ref(ref_matrix, k0=-3, steps=10)


def test_run_trajectory_freeze_on_overflow(ref_matrix):
    """A blow-up freezes the trial at its last finite state; later
    checkpoints replicate that state instead of recording inf."""
    res = run_trajectory(
        ref_matrix, UpdateMode(variant="symmetric"),
        EventProbabilities(alpha=0.0, beta=0.0, gamma=1.0),
        Schedule.constant(0.5, clip=T_CLIP),
        Schedule.constant(1e120, clip=S_CLIP),
        np.array([1.0, 2.0, 3.0, 4.0]), 0, 40, rng_for(3),
        checkpoints=list(range(41)))
    assert res.diverged
    assert res.diverged_at is not None and 1 <= res.diverged_at <= 40
    frozen = res.states[res.diverged_at - 1].x  # last state before the freeze
    for st in res.states[res.diverged_at:]:
        assert np.array_equal(st.x, frozen)
        assert np.isfinite(st.x).all()
    assert [st.k for st in res.states] == list(range(41))


def test_run_trajectory_counts_clipped_slots(ref_matrix):
    res = run_trajectory(
        ref_matrix, UpdateMode(variant="symmetric"),
        EventProbabilities(alpha=1.0, beta=0.0, gamma=0.0),
        Schedule.geometric(0.25, 0.25, clip=T_CLIP),
        Schedule.constant(0.1, clip=S_CLIP),
        np.array([1.0, 2.0, 3.0, 4.0]), 0, 40, rng_for(0))
    # 4^{-(k+1)} < 1e-12 from k=19 on: 21 of 40 slots are floored
    assert res.clipped_slots == 21


def test_run_trajectory_counts_clipped_slots_until_freeze(ref_matrix):
    """T is floored from slot 19 on; only the slots before the freeze count."""
    res = run_trajectory(
        ref_matrix, UpdateMode(variant="symmetric"),
        EventProbabilities(alpha=0.5, beta=0.0, gamma=0.5),
        Schedule.geometric(0.25, 0.25, clip=T_CLIP),
        Schedule.geometric(1e-6, 2.0, clip=S_CLIP),
        np.array([1.0, 2.0, 3.0, 4.0]), 0, 400, rng_for(0))
    assert res.diverged and 19 < res.diverged_at < 400
    assert res.clipped_slots == res.diverged_at - 19


def test_run_trajectory_rejects_bad_x0(ref_matrix):
    with pytest.raises(BadParameterError):
        run_ref(ref_matrix, x0=[1.0, 2.0])
    with pytest.raises(BadParameterError):
        run_ref(ref_matrix, x0=[1.0, np.nan, 2.0, 3.0])


# ---------------------------------------------------------------------------
# pathwise spread bounds (property tests)
# ---------------------------------------------------------------------------

def spreads_of(states):
    return [float(st.x.max() - st.x.min()) for st in states]


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1),
       t=st.floats(0.01, 0.99),
       s=st.floats(0.0, 1.5),
       gamma=st.floats(0.0, 0.5))
def test_spread_growth_cap(seed, t, s, gamma):
    """No slot can stretch the spread past the (1 + 2 S_k) factor."""
    matrix = validate(REF_ROWS)
    res = run_trajectory(
        matrix, UpdateMode(variant="symmetric"),
        EventProbabilities(alpha=0.4, beta=0.6 - gamma, gamma=gamma),
        Schedule.constant(t, clip=T_CLIP), Schedule.constant(max(s, 1e-12), clip=S_CLIP),
        np.array([1.0, 2.0, 3.0, 4.0]), 0, 80, rng_for(seed),
        checkpoints=list(range(81)))
    h = spreads_of(res.states)
    s_applied = max(s, 1e-12)
    for k in range(80):
        # relative term absorbs rounding once the state blows past O(1) scale
        cap = (1.0 + 2.0 * s_applied) * h[k]
        assert h[k + 1] <= cap * (1.0 + 1e-12) + 1e-9


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.01, 0.99))
def test_spread_never_grows_without_repulsion(seed, t):
    matrix = validate(REF_ROWS)
    res = run_trajectory(
        matrix, UpdateMode(variant="symmetric"),
        EventProbabilities(alpha=0.7, beta=0.3, gamma=0.0),
        Schedule.constant(t, clip=T_CLIP), Schedule.constant(0.5, clip=S_CLIP),
        np.array([1.0, 2.0, 3.0, 4.0]), 0, 80, rng_for(seed),
        checkpoints=list(range(81)))
    h = spreads_of(res.states)
    for k in range(80):
        assert h[k + 1] <= h[k] + 1e-12


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.01, 0.49))
def test_spread_shrink_floor_small_weights(seed, t):
    """With T_k < 1/2 and no repulsion, one slot shrinks the spread by at
    most the (1 - 2 T_k) factor."""
    matrix = validate(REF_ROWS)
    res = run_trajectory(
        matrix, UpdateMode(variant="symmetric"),
        EventProbabilities(alpha=1.0, beta=0.0, gamma=0.0),
        Schedule.constant(t, clip=T_CLIP), Schedule.constant(0.1, clip=S_CLIP),
        np.array([1.0, 2.0, 3.0, 4.0]), 0, 80, rng_for(seed),
        checkpoints=list(range(81)))
    h = spreads_of(res.states)
    for k in range(80):
        assert h[k + 1] >= (1.0 - 2.0 * t) * h[k] - 1e-12


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1),
       t=st.floats(0.01, 0.99),
       s=st.floats(0.0, 0.05),
       gamma=st.floats(0.0, 0.25))
def test_symmetric_updates_preserve_node_average(seed, t, s, gamma):
    """Coupled updates keep the node sum fixed. The gain/probability ranges
    keep the state at O(10) scale, where double rounding stays below the
    1e-12 budget over 200 slots; the conservation law itself is exact."""
    matrix = validate(REF_ROWS)
    x0 = np.array([1.0, 2.0, 3.0, 4.0])
    res = run_trajectory(
        matrix, UpdateMode(variant="symmetric"),
        EventProbabilities(alpha=0.5, beta=0.5 - gamma, gamma=gamma),
        Schedule.constant(t, clip=T_CLIP), Schedule.constant(max(s, 1e-12), clip=S_CLIP),
        x0, 0, 200, rng_for(seed))
    assert abs(res.states[-1].x.mean() - x0.mean()) <= 1e-12
