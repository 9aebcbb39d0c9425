import itertools
import math

import numpy as np
import pytest

from fogbandit.bandit import (
    LearnerParams,
    LearnerState,
    choice_probabilities,
    demand_weight,
    estimate_cost,
    learning_rates,
    patch_scores,
    select_arm,
    sync_candidates,
    update_scores,
)
from fogbandit.game import run_game

from conftest import synthetic_config
from reference_impls import ref_replay_learner

# frozen by an independent high-precision (mpmath, 40 digits) evaluation
GOLDEN_ETA_1_2 = 0.58870501125773734551  # clock=1, K=2, a=1
GOLDEN_SOFTMIN_167 = (  # scores [0.5, 1.0, 2.0], zeta = 1.67
    0.65982643106312353127,
    0.28628185061329384484,
    0.053891718323582623891,
)


def test_learning_rate_golden():
    rates = learning_rates(1, 2, 1.0, 0.5)
    assert rates.eta == pytest.approx(GOLDEN_ETA_1_2, rel=1e-12)
    assert rates.gamma == rates.eta * 0.5


def test_learning_rate_inverse_sqrt_scaling():
    assert learning_rates(4, 2, 1.0, 0.5).eta == pytest.approx(
        learning_rates(1, 2, 1.0, 0.5).eta / 2.0, rel=1e-15
    )


def test_learning_rate_single_arm_uses_log2_floor():
    rates = learning_rates(9, 1, 1.0, 0.5)
    assert rates.eta == pytest.approx(math.sqrt(math.log(2.0) / 9.0), rel=1e-12)


def test_learning_rate_rejects_bad_clock():
    with pytest.raises(ValueError):
        learning_rates(0, 2, 1.0, 0.5)


def test_uniform_over_fresh_scores():
    p = choice_probabilities(np.zeros(4), zeta=1.3)
    np.testing.assert_array_equal(p, np.full(4, 0.25))


def test_softmin_prefers_low_score():
    p = choice_probabilities(np.array([0.0, 10.0]), zeta=1.0)
    assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(-10.0)), rel=1e-12)
    assert p[0] > 0.99 > p[1]


def test_softmin_golden_triple():
    p = choice_probabilities(np.array([0.5, 1.0, 2.0]), zeta=1.67)
    np.testing.assert_allclose(p, GOLDEN_SOFTMIN_167, rtol=1e-12)


def test_softmin_shift_invariance_bitlevel_on_exact_inputs():
    # dyadic scores plus a power-of-two shift keep the arithmetic exact
    scores = np.array([3.0, 0.25, 1.5, 2.75])
    for shift in (8.0, -4.0, 0.5):
        a = choice_probabilities(scores, zeta=1.0)
        b = choice_probabilities(scores + shift, zeta=1.0)
        np.testing.assert_array_equal(a, b)


def test_softmin_shift_invariance_general():
    rng = np.random.default_rng(0)
    for _ in range(50):
        scores = rng.uniform(0, 5, size=5)
        shift = rng.uniform(-10, 10)
        np.testing.assert_allclose(
            choice_probabilities(scores, 1.4),
            choice_probabilities(scores + shift, 1.4),
            rtol=1e-12,
        )


def test_probabilities_sum_to_one_and_stay_positive():
    rng = np.random.default_rng(1)
    for _ in range(200):
        scores = rng.uniform(0, 50, size=rng.integers(2, 11))
        p = choice_probabilities(scores, zeta=rng.uniform(1, 2))
        assert abs(p.sum() - 1.0) < 1e-9
        assert (p > 0).all()


def test_raising_a_score_lowers_its_probability():
    rng = np.random.default_rng(2)
    for _ in range(100):
        scores = rng.uniform(0, 5, size=4)
        i = rng.integers(4)
        bumped = scores.copy()
        bumped[i] += rng.uniform(0.1, 2)
        assert choice_probabilities(bumped, 1.0)[i] < choice_probabilities(scores, 1.0)[i]


def test_sharper_demand_weight_concentrates_mass():
    rng = np.random.default_rng(3)
    for _ in range(100):
        scores = rng.uniform(0, 3, size=5)
        p1 = choice_probabilities(scores, zeta=1.0)
        p2 = choice_probabilities(scores, zeta=2.0)
        assert p2.max() >= p1.max() - 1e-12


def test_demand_weight_bounds():
    assert demand_weight(0.2e6, 0.2e6, 1.0e6) == 1.0
    assert demand_weight(1.0e6, 0.2e6, 1.0e6) == 2.0
    assert demand_weight(0.6e6, 0.2e6, 1.0e6) == pytest.approx(1.5)
    assert demand_weight(5.0e6, 0.2e6, 1.0e6) == 2.0  # clipped


# Score rows below are indexed by arm position; arm ids equal positions.


def _row(scores: dict[int, float], width: int = 10) -> np.ndarray:
    row = np.zeros(width)
    for k, v in scores.items():
        row[k] = v
    return row


def test_patch_appearing_arm_takes_persisting_minimum():
    row = _row({1: 3.0, 2: 5.0})
    patch_scores(row, (1, 2, 3), appearing=(3,))
    assert row[3] == 3.0
    assert row[1] == 3.0 and row[2] == 5.0


def test_patch_keeps_own_higher_score_on_reappearance():
    row = _row({1: 3.0, 2: 4.0, 9: 5.0})  # arm 9 vanished earlier with score 5
    patch_scores(row, (1, 2, 9), appearing=(9,))
    assert row[9] == 5.0  # max branch: own memory beats the minimum
    # and the mirrored case takes the minimum branch
    row2 = _row({1: 3.0, 2: 4.0, 9: 1.0})
    patch_scores(row2, (1, 2, 9), appearing=(9,))
    assert row2[9] == 3.0


def test_patch_no_appearing_is_noop():
    row = _row({1: 1.0, 2: 2.0})
    patch_scores(row, (1, 2), appearing=())
    np.testing.assert_array_equal(row, _row({1: 1.0, 2: 2.0}))


def test_patch_all_new_falls_back_to_reset():
    row = _row({1: 9.0})
    patch_scores(row, (5, 6), appearing=(5, 6))
    np.testing.assert_array_equal(row, np.zeros(10))  # cold storage wiped too


def test_patch_rejects_foreign_appearing_arms():
    with pytest.raises(ValueError):
        patch_scores(np.zeros(10), (1, 2), appearing=(3,))


def _state(*params: LearnerParams, scores=(), known=()) -> LearnerState:
    st = LearnerState.fresh(params, 10)
    for n, s in enumerate(scores):
        st.scores[n] = _row(s)
    st.known = list(known) or st.known
    return st


def test_sync_candidates_reset_modes():
    st = _state(LearnerParams(patch_mode="reset_all"), scores=[{1: 2.0, 2: 3.0, 7: 4.0}],
                known=[(1, 2)])
    assert sync_candidates(st, [0], [(1, 2, 3)]) == (0,)
    np.testing.assert_array_equal(st.scores[0], np.zeros(10))  # cold storage wiped
    assert st.known == [(1, 2, 3)]

    st = _state(LearnerParams(patch_mode="reset_new"), scores=[{1: 2.0, 2: 3.0, 7: 9.0}],
                known=[(1, 2)])
    sync_candidates(st, [0], [(1, 2, 7)])
    np.testing.assert_array_equal(st.scores[0], _row({1: 2.0, 2: 3.0, 7: 0.0}))

    # rows are independent, and an unchanged set is no event
    st = _state(LearnerParams(), LearnerParams(patch_mode="reset_all"),
                scores=[{1: 2.0, 2: 3.0}, {1: 5.0}], known=[(1, 2), (1,)])
    assert sync_candidates(st, [0, 1], [(1, 2, 3), (1,)]) == (0,)
    np.testing.assert_array_equal(st.scores, [_row({1: 2.0, 2: 3.0, 3: 2.0}), _row({1: 5.0})])


def _estimates(loss, chosen, probs, gamma) -> np.ndarray:
    """One agent's estimate row through the batched API."""
    return estimate_cost(np.array([loss]), np.array([chosen]), np.array([probs]),
                         np.array([gamma]))[0]


def test_estimate_cost_pointmass_and_zero_cases():
    est = _estimates(0.5, 0, [0.5, 0.5], gamma=0.0)
    np.testing.assert_array_equal(est, [1.0, 0.0])
    np.testing.assert_array_equal(_estimates(0.0, 1, [0.4, 0.6], gamma=0.2), [0.0, 0.0])
    # a batch is the rows stacked
    batch = estimate_cost(np.array([0.5, 0.0]), np.array([0, 1]),
                          np.array([[0.5, 0.5], [0.4, 0.6]]), np.array([0.0, 0.2]))
    np.testing.assert_array_equal(batch, [[1.0, 0.0], [0.0, 0.0]])


def test_estimate_cost_rejects_unnormalized_losses():
    with pytest.raises(ValueError, match="outside"):
        _estimates(1.5, 0, [1.0], gamma=0.1)


def test_ix_bias_two_arm_enumeration():
    # E[est_k] = p_k * l / (p_k + gamma), enumerated over both outcomes
    probs = np.array([0.6, 0.4])
    expect = np.zeros(2)
    for chosen in range(2):
        expect += probs[chosen] * _estimates(0.5, chosen, probs, gamma=0.1)
    np.testing.assert_allclose(expect, [0.42857142857142855, 0.4], rtol=1e-12)
    assert (expect <= 0.5).all()


@pytest.mark.parametrize("arms", [2, 3, 4])
def test_ix_bias_exhaustive_expectation(arms):
    rng = np.random.default_rng(arms)
    for _ in range(20):
        p = rng.dirichlet(np.ones(arms))
        losses = rng.uniform(0.05, 1.0, size=arms)
        for gamma in (0.0, 0.05, 0.3):
            expect = np.zeros(arms)
            for chosen in range(arms):
                expect += p[chosen] * _estimates(losses[chosen], chosen, p, gamma)
            assert (expect <= losses + 1e-12).all()
            if gamma == 0.0:
                np.testing.assert_allclose(expect, losses, rtol=1e-12)
            else:
                assert (expect < losses - 1e-12).all()


def test_update_scores_zero_estimates_touch_nothing():
    scores = np.array([[1.0, 2.0]])
    update_scores(scores, np.zeros((1, 2)), eta=np.array([[0.3]]))
    np.testing.assert_array_equal(scores, [[1.0, 2.0]])


def test_update_scores_single_step():
    # agent 1's [slot] scores on arms (1, 2, 3), updated in place through a view
    scores = np.zeros((2, 3))
    update_scores(scores[1:], np.array([[0.0, 0.0, 1.0]]), eta=np.array([[0.1]]))
    assert scores[1, 2] == pytest.approx(0.1)
    assert scores[1, 0] == 0.0
    assert not scores[0].any()  # other agents untouched


def test_select_arm_single_candidate_shortcircuit():
    u = np.array([[np.nan]])  # a single-arm agent consumes no uniform
    idx, probs = select_arm(np.zeros((1, 1)), np.ones((1, 1)), 0.0, u)
    np.testing.assert_array_equal(idx, [0])
    np.testing.assert_array_equal(probs, [[1.0]])


def test_select_arm_rejects_empty_candidates():
    with pytest.raises(ValueError, match="empty"):
        select_arm(np.zeros((1, 0)), np.ones((1, 1)), 0.0, np.array([[0.5]]))


def test_select_arm_uniform_mix_floor():
    zeta = demand_weight(np.array([[0.2e6]]), 0.2e6, 1e6)
    _, probs = select_arm(np.array([[0.0, 50.0]]), zeta, np.array([[0.2]]), np.array([[0.5]]))
    assert probs[0, 1] >= 0.1  # mix keeps the bad arm above eps/K


def test_select_arm_draws_by_cumulative_probability():
    # rows are independent draws: slot i wins when u falls in its cumulative band
    scores = np.zeros((4, 4))  # uniform over four slots
    u = np.array([[0.1], [0.3], [0.6], [0.99]])
    idx, probs = select_arm(scores, np.ones((4, 1)), 0.0, u)
    np.testing.assert_array_equal(idx, [0, 1, 2, 3])
    np.testing.assert_array_equal(probs, np.full((4, 4), 0.25))


def test_hundred_round_replay_matches_reference():
    cfg = synthetic_config({1: 0.2, 2: 0.5, 3: 0.35}, num_agents=1, horizon=100)
    trace = run_game(cfg, run_id=0)
    ref = ref_replay_learner(trace, agent=0)
    arms = trace.candidate_set(1, 0)
    for rnd in range(1, 101):
        np.testing.assert_allclose(
            trace.probs[rnd, 0, : len(arms)], ref["probs"][rnd - 1], rtol=1e-10
        )
        np.testing.assert_allclose(
            trace.estimates[rnd, 0, : len(arms)], ref["estimates"][rnd - 1], rtol=1e-10
        )
    # final scores reconstructed from the trace equal the reference recursion
    final = {k: 0.0 for k in arms}
    for rnd in range(1, 101):
        for i, k in enumerate(arms):
            final[k] += trace.eta[rnd, 0] * trace.estimates[rnd, 0, i]
    for k in arms:
        assert final[k] == pytest.approx(ref["scores"][k], abs=1e-10)


def test_learner_params_validation():
    with pytest.raises(Exception, match="0.5"):
        LearnerParams(gamma_ratio=0.6).validate()
    with pytest.raises(Exception, match="gamma_ratio > 0 or uniform_mix"):
        LearnerParams(gamma_ratio=0.0).validate()
    LearnerParams(gamma_ratio=0.0, uniform_mix=0.1).validate()
    LearnerParams(gamma_ratio=0.0, feedback="full").validate()
