import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogbandit import metrics
from fogbandit.bandit import LearnerParams
from fogbandit.configio import TaskSizeLaw
from fogbandit.game import run_game
from fogbandit.env import Environment
from fogbandit.oracle import stage_games

from conftest import synthetic_config
from reference_impls import ref_async_condition_check

# frozen by an independent high-precision (mpmath, 40 digits) evaluation
GOLDEN_PROP2_BOUND = 0.77686983985157017107  # K=2, zeta=1, dbeta=0, sum=5, gap=0.3
GOLDEN_XI_10_ARMS = 2.302585092994045684  # ln 10 at unit demand weight


def test_regret_zero_for_single_arm_agent():
    cfg = synthetic_config({1: 0.4}, num_agents=1, horizon=150)
    trace = run_game(cfg, 0)
    series = metrics.regret_series(trace, 0)
    np.testing.assert_allclose(series.normalized, 0.0, atol=1e-12)


def test_regret_zero_when_arms_are_identical():
    # equal congestion-free arms: the hindsight best ties the realized play
    cfg = synthetic_config(
        {1: 0.4, 2: 0.4}, num_agents=1, horizon=120, coupling="linear", theta=0.0
    )
    trace = run_game(cfg, 0)
    series = metrics.regret_series(trace, 0)
    np.testing.assert_allclose(series.normalized, 0.0, atol=1e-12)


def test_regret_matches_exhaustive_counterfactual_sums():
    cfg = synthetic_config({1: 0.35, 2: 0.45}, num_agents=2, horizon=100, master_seed=23)
    trace = run_game(cfg, 4)
    for n in range(2):
        series = metrics.regret_series(trace, n)
        realized = np.nansum(trace.cost_norm[1:, n])
        sums = [
            sum(trace.cf_norm[r, n, i] for r in range(1, 101)) for i in range(2)
        ]
        assert series.final() == pytest.approx(realized - min(sums), rel=1e-12)
        assert series.final() >= -1e-12


def test_regret_nonnegative_and_segmented_across_epochs():
    cfg = synthetic_config(
        {1: 0.25, 2: 0.5, 3: 0.6},
        num_agents=2,
        horizon=300,
        epochs=((1, ((1, 2), (1, 2))), (151, ((1, 2, 3), (1, 2, 3)))),
        noise_halfwidth=0.05,
    )
    trace = run_game(cfg, 7)
    for n in range(2):
        series = metrics.regret_series(trace, n)
        assert (series.normalized >= -1e-9).all()
        # per-epoch pieces recompute independently
        seg1 = np.nansum(trace.cost_norm[1:151, n]) - min(
            np.nansum(trace.cf_norm[1:151, n, i]) for i in range(2)
        )
        seg2 = np.nansum(trace.cost_norm[151:, n]) - min(
            np.nansum(trace.cf_norm[151:, n, i]) for i in range(3)
        )
        assert series.final() == pytest.approx(seg1 + seg2, rel=1e-9)


def test_per_round_regret_decreasing_on_stationary_instance():
    cfg = synthetic_config({1: 0.25, 2: 0.55}, num_agents=1, horizon=800)
    acc = np.zeros(800)
    runs = 40
    for rid in range(runs):
        trace = run_game(cfg, rid)
        acc += metrics.regret_series(trace, 0).per_round[1:]
    mean = acc / runs
    checkpoints = [mean[199], mean[399], mean[799]]
    assert checkpoints[0] > checkpoints[1] > checkpoints[2]


def test_pota_one_when_play_is_forced():
    # three agents on one arm, congestion-insensitive costs: ratio is exactly 1
    cfg = synthetic_config(
        {1: 0.3}, num_agents=3, horizon=50, coupling="linear", theta=0.0
    )
    trace = run_game(cfg, 0)
    games = stage_games(Environment(cfg, 0))
    series = metrics.pota_series(trace, games)
    np.testing.assert_allclose(series[1:], 1.0, rtol=1e-12)


def test_pota_at_least_one_on_seed_average():
    cfg = synthetic_config({1: 0.32, 2: 0.42}, num_agents=2, horizon=400, master_seed=29)
    games = stage_games(Environment(cfg, 0))
    acc = np.zeros(400)
    runs = 60
    for rid in range(runs):
        acc += metrics.pota_series(run_game(cfg, rid), games)[1:]
    assert (acc / runs >= 1.0 - 3e-2).all()
    assert acc[-1] / runs >= 1.0


def test_xi_bound_formula_and_degenerate_case():
    assert math.log(10) / 1.0 == pytest.approx(GOLDEN_XI_10_ARMS, rel=1e-12)
    cfg = synthetic_config({1: 0.4}, num_agents=2, horizon=200)
    trace = run_game(cfg, 0)
    games = stage_games(Environment(cfg, 0))
    cert = metrics.xi_certificate(trace, 1.0, games[-1][1])
    assert cert.xi_bound == 0.0
    assert cert.max_gap == pytest.approx(0.0, abs=1e-12)
    assert cert.certified


def test_xi_small_window_errors():
    cfg = synthetic_config({1: 0.3, 2: 0.5}, num_agents=1, horizon=300)
    trace = run_game(cfg, 0)
    games = stage_games(Environment(cfg, 0))
    with pytest.raises(ValueError, match="samples"):
        metrics.xi_certificate(trace, 0.1, games[-1][1])


def test_xi_gap_shrinks_for_later_windows():
    cfg = synthetic_config({1: 0.3, 2: 0.5}, num_agents=2, horizon=3000, master_seed=37)
    games = stage_games(Environment(cfg, 0))
    gaps_wide, gaps_tail = [], []
    for rid in range(10):
        trace = run_game(cfg, rid)
        gaps_wide.append(metrics.xi_certificate(trace, 0.9, games[-1][1]).max_gap)
        gaps_tail.append(metrics.xi_certificate(trace, 0.1, games[-1][1]).max_gap)
    assert np.mean(gaps_tail) <= np.mean(gaps_wide) + 1e-3


def test_dominant_arm_bound_golden_and_degenerate():
    bound = metrics.dominant_arm_bound(1.0, 2, 0.3, 0.0, np.array([5.0]))
    assert bound[0] == pytest.approx(GOLDEN_PROP2_BOUND, rel=1e-12)
    flat = metrics.dominant_arm_bound(1.0, 4, 0.0, 0.0, np.array([0.0, 10.0]))
    np.testing.assert_allclose(flat, [-2.0, -2.0])  # 2 - K, vacuous for K >= 2


def test_strict_gap_detection():
    single = synthetic_config({1: 0.2, 2: 0.5}, num_agents=1, horizon=50)
    assert metrics.strict_gap(single, 0) == (1, pytest.approx(0.3))
    congested = synthetic_config({1: 0.32, 2: 0.42}, num_agents=2, horizon=50)
    assert metrics.strict_gap(congested, 0) == (-1, 0.0)
    noisy = synthetic_config(
        {1: 0.2, 2: 0.5}, num_agents=1, horizon=50, noise_halfwidth=0.05
    )
    arm, gap = metrics.strict_gap(noisy, 0)
    assert arm == 1 and gap == pytest.approx(0.2)


def test_convergence_check_skips_without_gap():
    cfg = synthetic_config({1: 0.32, 2: 0.42}, num_agents=2, horizon=200)
    report = metrics.convergence_rate_check(run_game(cfg, 0), 0)
    assert report.skipped
    assert "strict-gap" in report.reason


def test_full_feedback_satisfies_bound_everywhere():
    cfg = synthetic_config(
        {1: 0.2, 2: 0.5},
        num_agents=1,
        horizon=500,
        learner=LearnerParams(feedback="full", use_demand_weight=False),
        task=TaskSizeLaw(law="fixed", fixed=(0.2e6,)),
    )
    report = metrics.convergence_rate_check(run_game(cfg, 0), 0)
    assert not report.skipped
    assert report.dominant_arm == 1
    assert report.delta_l == pytest.approx(0.3)
    assert report.violations == 0


def test_async_conditions_symmetric_agents():
    rep = metrics.async_condition_check([(1.0, 2), (1.0, 2)], horizon=20_000)
    assert rep.all_hold()
    # identical schedules: the reference rate sum equals each agent's sum
    assert rep.final_reference_sum == pytest.approx(rep.final_rate_sums[0], rel=1e-12)


def test_async_square_sums_under_log_bound():
    rep = metrics.async_condition_check([(1.0, 2)], horizon=100_000)
    c2 = math.log(2) / 2.0
    assert rep.final_reference_square_sum <= c2 * (1.0 + math.log(100_000)) + 1e-9
    assert rep.square_sums_bounded


def test_async_with_bernoulli_activation():
    rng = np.random.default_rng(0)
    acts = rng.random((50_000, 3)) < 0.5
    rep = metrics.async_condition_check([(1.0, 2), (1.0, 3), (0.5, 2)], 50_000, acts)
    assert rep.all_hold()
    assert rep.threshold_round < 50_000


@st.composite
def async_cases(draw):
    """Schedules, a horizon within one round of a multiple of the chunk,
    always-on or Bernoulli activations and a threshold the sums can pass in
    any chunk, with the chunk itself drawn too.  Half the schedule lists
    repeat entries: agents drawn as indices into a few distinct schedules."""
    chunk = draw(st.sampled_from([1, 3, 7, 64, metrics._ASYNC_CHUNK]))
    horizon = max(1, draw(st.integers(1, 3)) * chunk + draw(st.integers(-1, 1)))
    schedule = st.tuples(st.floats(0.05, 4.0), st.integers(1, 12))
    if draw(st.booleans()):
        schedules = draw(st.lists(schedule, min_size=1, max_size=6))
    else:
        distinct = draw(st.lists(schedule, min_size=1, max_size=3))
        picks = st.integers(0, len(distinct) - 1)
        schedules = [distinct[i] for i in draw(st.lists(picks, min_size=2, max_size=6))]
    acts = None
    if draw(st.booleans()):
        p = draw(st.lists(st.floats(0.0, 1.0), min_size=len(schedules), max_size=len(schedules)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        acts = rng.random((horizon, len(schedules))) < np.array(p)
    # an always-on rate sum grows like 2c sqrt(t), c in [0.13, 1.2]: cross it anywhere
    threshold = draw(st.floats(0.01, 1.0)) * math.sqrt(horizon)
    return chunk, schedules, horizon, acts, threshold


@settings(max_examples=80, deadline=None)
@given(async_cases())
def test_async_check_streams_to_the_whole_array_report(case):
    chunk, schedules, horizon, acts, threshold = case
    with mock.patch.object(metrics, "_ASYNC_CHUNK", chunk):
        rep = metrics.async_condition_check(schedules, horizon, acts, threshold)
    assert rep == ref_async_condition_check(schedules, horizon, acts, threshold)


def test_pota_bound_single_agent_rho_one():
    cfg = synthetic_config({1: 0.2, 2: 0.5}, num_agents=1, horizon=300)
    trace = run_game(cfg, 0)
    games = stage_games(Environment(cfg, 0))
    checks = metrics.pota_bound_check(trace, games)
    assert len(checks) == 1
    chk = checks[0]
    assert not chk.vacuous
    assert chk.rho == pytest.approx(1.0)
    assert chk.holds
    # independent recomputation of both sides from the trace arrays
    c_star = chk.smoothness.optimum_cost
    measured = float(np.nansum(trace.cost_norm[1:, 0]) / 300 / c_star)
    best = min(np.nansum(trace.cf_norm[1:, 0, i]) for i in range(2))
    regret_term = (np.nansum(trace.cost_norm[1:, 0]) - best) / (300 * 1.0 * c_star)
    assert chk.measured == pytest.approx(measured, rel=1e-12)
    assert chk.bound == pytest.approx(1.0 + regret_term, rel=1e-12)


def test_pota_bound_perturbation_lowers_bound():
    # demand/supply perturbations shrink the regret term, hence the bound
    means = {1: 0.15, 2: 0.5, 3: 0.55, 4: 0.6}
    epochs = ((1, ((1, 2),) * 2), (201, ((1, 2, 3, 4),) * 2))
    task = TaskSizeLaw(law="uniform")
    runs = 20
    sums = {}
    for name, lp in (
        ("perturbed", LearnerParams()),
        ("plain", LearnerParams(use_demand_weight=False, patch_mode="reset_all")),
    ):
        cfg = synthetic_config(
            means, num_agents=2, horizon=400, epochs=epochs,
            learner=lp, task=task, master_seed=43,
        )
        games = stage_games(Environment(cfg, 0))
        total = 0.0
        for rid in range(runs):
            checks = metrics.pota_bound_check(run_game(cfg, rid), games)
            total += sum(c.bound for c in checks)
        sums[name] = total / runs
    assert sums["perturbed"] < sums["plain"]


def test_metric_series_shapes():
    cfg = synthetic_config({1: 0.32, 2: 0.42}, num_agents=2, horizon=600)
    trace = run_game(cfg, 0)
    games = stage_games(Environment(cfg, 0))
    for n in range(2):
        assert metrics.regret_series(trace, n).normalized.shape == (601,)
    assert metrics.social_cost_series(trace).shape == (601,)
    assert metrics.pota_series(trace, games).shape == (601,)
    assert metrics.xi_certificate(trace, 0.5, games[-1][1]) is not None
    assert len(metrics.pota_bound_check(trace, games)) == 1
