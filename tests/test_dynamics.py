import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogbandit.bandit import LearnerParams
from fogbandit.dynamics import (
    ContractionReport,
    MeanCostField,
    MixedProfile,
    _euler_step,
    check_contraction,
    discrete_probability_path,
    estimate_theta,
    integrate_to_rest,
    ode_path,
    path_deviation,
    tracking_error,
)
from fogbandit.cli import bundled_config
from fogbandit.configio import load_config
from fogbandit.env import Environment
from fogbandit.game import run_game
from fogbandit.oracle import SmallGame, find_pure_nash, stage_games

from conftest import synthetic_config, seed_mean_probs
from reference_impls import (
    RefMeanCostField,
    ref_discrete_probability_path,
    ref_estimate_theta,
    ref_expected_costs,
    ref_integrate_fixed_step,
    ref_ode_path,
    replicator_velocity,
)
from test_oracle import make_game


def euler(prof, field, weights, dt):
    """One Euler step of the replicator field with a common step ``dt``."""
    vecs = [v.tolist() for v in prof.vectors]
    costs = field.evaluate(vecs)
    return MixedProfile(tuple(np.array(_euler_step(p, l, dt * w)[0]) for p, l, w in zip(vecs, costs, weights)))


def test_field_matches_exhaustive_enumeration():
    game = make_game([(1, 2), (1, 2, 3)], {1: 0.3, 2: 0.5, 3: 0.4})
    field = MeanCostField(game)
    rng = np.random.default_rng(1)
    for _ in range(10):
        prof = MixedProfile.random(game, rng)
        got = field.expected_costs(prof)
        for n in range(2):
            for i, arm in enumerate(game.candidate_sets[n]):
                total = 0.0
                opps = [u for u in range(2) if u != n]
                for combo in itertools.product(*(game.candidate_sets[u] for u in opps)):
                    w = 1.0
                    for u, a in zip(opps, combo):
                        w *= prof.vectors[u][game.candidate_sets[u].index(a)]
                    joint = [None, None]
                    joint[n] = arm
                    for u, a in zip(opps, combo):
                        joint[u] = a
                    total += w * game.cost(n, tuple(joint))
                assert got[n][i] == pytest.approx(total, rel=1e-12)


def test_replicator_hand_step():
    game = make_game([(1, 2)], {1: 0.2, 2: 0.8})
    # field for a single agent is just the mean vector [0.2, 0.8]
    field = MeanCostField(game)
    prof = MixedProfile((np.array([0.5, 0.5]),))
    nxt = euler(prof, field, [1.0], dt=0.1)
    np.testing.assert_allclose(nxt.vectors[0], [0.515, 0.485], rtol=1e-12)
    assert nxt.vectors[0].sum() == pytest.approx(1.0, abs=1e-15)


def test_symmetric_uniform_profile_is_fixed_point():
    game = make_game([(1, 2), (1, 2)], {1: 0.4, 2: 0.4})
    field = MeanCostField(game)
    prof = MixedProfile((np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    costs = field.expected_costs(prof)
    assert replicator_velocity(prof, costs, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-15)
    nxt = euler(prof, field, [1.0, 1.0], dt=0.05)
    np.testing.assert_allclose(nxt.vectors[0], [0.5, 0.5], atol=1e-15)


def test_faces_are_invariant():
    game = make_game([(1, 2, 3)], {1: 0.2, 2: 0.5, 3: 0.4})
    field = MeanCostField(game)
    prof = MixedProfile((np.array([0.0, 0.3, 0.7]),))
    for _ in range(200):
        prof = euler(prof, field, [1.0], dt=0.05)
        assert prof.vectors[0][0] == 0.0


def test_simplex_preserved_under_large_steps():
    rng = np.random.default_rng(3)
    game = make_game([(1, 2, 3), (1, 2, 3)], {1: 0.1, 2: 0.9, 3: 0.5})
    field = MeanCostField(game)
    prof = MixedProfile.random(game, rng)
    for _ in range(100):
        prof = euler(prof, field, [3.0, 3.0], dt=0.7)
        for v in prof.vectors:
            assert (v >= 0).all()
            assert v.sum() == pytest.approx(1.0, abs=1e-9)


def test_pure_profile_is_rest_point():
    game = make_game([(1, 2)], {1: 0.2, 2: 0.6})
    field = MeanCostField(game)
    prof = MixedProfile((np.array([1.0, 0.0]),))
    rest, converged = integrate_to_rest(prof, field, [1.0], tol=1e-10, max_steps=10)
    assert converged
    np.testing.assert_array_equal(rest.vectors[0], [1.0, 0.0])


class CountingField(MeanCostField):
    """Mean field that records every evaluation."""

    def __init__(self, game):
        super().__init__(game)
        self.calls = 0

    def evaluate(self, probs):
        self.calls += 1
        return super().evaluate(probs)


def test_field_evaluated_once_per_integration_step():
    # the velocity test and every step-halving try reuse one field value
    game = make_game([(1, 2, 3), (1, 2, 3)], {1: 0.1, 2: 0.9, 3: 0.5})
    prof = MixedProfile.random(game, np.random.default_rng(3))
    field = CountingField(game)
    # steps this large leave the simplex and get halved; tol 0 never converges
    _, converged = integrate_to_rest(prof, field, [3.0, 3.0], dt=5.0, tol=0.0, max_steps=40)
    assert not converged
    assert field.calls == 40


def test_single_arm_agents_converge_immediately():
    game = make_game([(1,), (1,)], {1: 0.5})
    field = MeanCostField(game)
    prof = MixedProfile((np.array([1.0]), np.array([1.0])))
    _, converged = integrate_to_rest(prof, field, [1.0, 1.0], max_steps=2)
    assert converged


def test_anticoordination_converges_to_split():
    game = make_game([(1, 2), (1, 2)], {1: 0.4, 2: 0.4})
    field = MeanCostField(game)
    splits = {(1, 2), (2, 1)}
    assert set(map(tuple, find_pure_nash(game))) == splits
    rng = np.random.default_rng(4)
    for _ in range(5):
        prof = MixedProfile.random(game, rng)
        rest, converged = integrate_to_rest(prof, field, [1.0, 1.0], dt=0.1, tol=1e-7)
        assert converged
        landed = tuple(game.candidate_sets[n][int(np.argmax(rest.vectors[n]))] for n in range(2))
        assert landed in splits
        assert rest.vectors[0].max() > 0.99


def test_rest_point_support_costs_equalize():
    # interior rest point: symmetric anti-coordination from the exact center
    game = make_game([(1, 2), (1, 2)], {1: 0.4, 2: 0.4})
    field = MeanCostField(game)
    prof = MixedProfile((np.array([0.5, 0.5]), np.array([0.5, 0.5])))
    rest, converged = integrate_to_rest(prof, field, [1.0, 1.0], tol=1e-8)
    assert converged
    costs = field.expected_costs(rest)
    for n in range(2):
        support = rest.vectors[n] > 0.1
        spread = costs[n][support].max() - costs[n][support].min()
        assert spread <= 1e-7  # tol * 10


def test_contraction_boundary_arithmetic():
    game = make_game([(1, 2), (1, 2)], {1: 0.3, 2: 0.4})
    report = check_contraction(game, zeta_max=2.0, theta=0.25)
    assert report.analytic_bound == pytest.approx(1.0)
    assert not report.condition_holds


def test_contraction_empirical_factor_below_one():
    # linear coupling with theta * zeta / 2 = 0.3
    game = make_game([(1, 2), (1, 2)], {1: 0.3, 2: 0.5}, coupling="linear", theta=0.3)
    report = check_contraction(game, zeta_max=2.0, num_pairs=50)
    assert report.linear_cost
    assert report.condition_holds
    assert report.empirical_factor < 1.0


def test_theta_estimate_compute_share_headroom():
    # a node granting f = w + f' per client keeps the cost slope below one
    w, f_extra = 1000.0, 500.0
    theta = w / (w + f_extra)
    assert theta < 1.0
    game = make_game([(1, 2), (1, 2)], {1: 0.3, 2: 0.5}, coupling="linear", theta=theta)
    est = estimate_theta(game)
    # table holds mean-blend costs, so the estimated slope is theta / 2
    assert est == pytest.approx(theta / 2.0, rel=1e-12)


def test_unique_attractor_under_contraction():
    # strictly dominant arm: every interior start reaches the same vertex
    game = make_game([(1, 2), (1, 2)], {1: 0.2, 2: 0.5})
    report = check_contraction(game, zeta_max=2.0)
    assert report.condition_holds
    field = MeanCostField(game)
    rng = np.random.default_rng(11)
    rests = []
    for _ in range(20):
        prof = MixedProfile.random(game, rng)
        rest, converged = integrate_to_rest(prof, field, [1.0, 1.0], dt=0.1, tol=1e-7)
        assert converged
        rests.append(np.concatenate(rest.vectors))
    rests = np.stack(rests)
    assert np.abs(rests - rests[0]).max() < 1e-6


def test_zero_rate_limit_freezes_both_paths():
    game = make_game([(1, 2)], {1: 0.4, 2: 0.4})
    field = MeanCostField(game)
    prof = MixedProfile((np.array([0.5, 0.5]),))
    dt = np.zeros((11, 1))
    ode = ode_path(field, [1.0], dt, prof)
    np.testing.assert_array_equal(ode[1:], np.broadcast_to([0.5, 0.5], (10, 1, 2)))
    assert path_deviation(ode[1:], ode[1:]).max() == 0.0


def test_tracking_error_zero_for_symmetric_full_feedback():
    # equal congestion-free arms + full feedback: discrete probabilities stay
    # uniform and the symmetric ODE sits at its fixed point -> deviation 0
    cfg = synthetic_config(
        {1: 0.4, 2: 0.4},
        num_agents=2,
        horizon=60,
        coupling="linear",
        theta=0.0,
        learner=LearnerParams(feedback="full", use_demand_weight=False),
    )
    trace = run_game(cfg, 0)
    game = make_game([(1, 2), (1, 2)], {1: 0.4, 2: 0.4}, coupling="linear", theta=0.0)
    dev = tracking_error(trace, MeanCostField(game))
    assert np.nanmax(dev) < 1e-12


def test_tracking_improves_with_smaller_rate_scale():
    means = {1: 0.25, 2: 0.55}
    game = make_game([(1, 2), (1, 2)], means)
    field = MeanCostField(game)
    sups = {}
    for a in (1.0, 0.01):
        cfg = synthetic_config(
            means, num_agents=2, horizon=1300,
            learner=LearnerParams(schedule_a=a),
            task=None, master_seed=41,
        )
        mean0, _ = seed_mean_probs(cfg, runs=30, agent=0, pos=0)
        mean1, _ = seed_mean_probs(cfg, runs=30, agent=1, pos=0)
        tr = run_game(cfg, 0)
        dt = np.where(tr.active, np.nan_to_num(tr.eta), 0.0)
        prof0 = MixedProfile((np.array([0.5, 0.5]), np.array([0.5, 0.5])))
        ode = ode_path(field, [1.5, 1.5], dt, prof0)
        dev = np.maximum(
            np.abs(mean0 - ode[1:, 0, 0]), np.abs(mean1 - ode[1:, 1, 0])
        )
        sups[a] = float(dev.max())
    assert sups[0.01] < sups[1.0]


def test_tracking_requires_single_epoch():
    cfg = synthetic_config(
        {1: 0.3, 2: 0.5, 3: 0.4},
        num_agents=1,
        horizon=40,
        epochs=((1, ((1, 2),)), (21, ((1, 2, 3),))),
    )
    trace = run_game(cfg, 0)
    game = make_game([(1, 2)], {1: 0.3, 2: 0.5})
    with pytest.raises(ValueError, match="single candidate epoch"):
        tracking_error(trace, MeanCostField(game))


def test_discrete_path_freezes_through_inactivity():
    cfg = synthetic_config(
        {1: 0.3, 2: 0.5}, num_agents=1, horizon=100, activation=(0.5,), master_seed=19
    )
    trace = run_game(cfg, 0)
    path = discrete_probability_path(trace)
    idle = np.where(~trace.active[1:, 0])[0] + 1
    assert idle.size > 0
    for rnd in idle:
        if rnd > 1:
            np.testing.assert_array_equal(path[rnd, 0, :2], path[rnd - 1, 0, :2])


@pytest.mark.parametrize("case", ["idle-epoch", "ragged-patch", "physical-ragged"])
def test_discrete_path_matches_round_by_round_reference(case):
    # agents idle through whole epochs, and epochs whose sets share a size
    from test_golden import edge_cases

    config = edge_cases()[case]
    for run_id in (0, 1):
        trace = run_game(config, run_id)
        np.testing.assert_array_equal(
            discrete_probability_path(trace), ref_discrete_probability_path(trace)
        )


@pytest.mark.parametrize("name, support", [
    ("acceptance-small", [[0], [0]]),
    ("paper-fig2", [[1], [7], [1]]),
    ("paper-fig3", [[2], [1], [1]]),
    ("paper-fig4", [[1], [1], [0]]),
    ("paper-fig5", [[7], [6], [6]]),
])
def test_bundled_rest_points(name, support):
    # verify's search: run 0's final-epoch stage game from the uniform profile
    spec = load_config(bundled_config(name))
    config = spec.game_for(spec.variants[0])
    game = stage_games(Environment(config, spec.run_ids[0]))[-1][1]
    field = CountingField(game)
    rest, converged = integrate_to_rest(
        MixedProfile.uniform(game), field, [1.0] * config.num_agents, tol=1e-5
    )
    assert converged
    assert field.calls <= 1_000
    assert [np.flatnonzero(v > 0.1).tolist() for v in rest.vectors] == support


@st.composite
def small_games(draw, disjoint=False):
    """2-3 agents on ragged subsets of 2-4 arms, costs rising with congestion.

    With ``disjoint`` no two agents share an arm.
    """
    n = draw(st.integers(2, 3))
    arms = list(range(1, draw(st.integers(n if disjoint else 2, 4)) + 1))
    if disjoint:
        order = draw(st.permutations(arms))
        cuts = sorted(draw(st.sets(st.integers(1, len(arms) - 1), min_size=n - 1, max_size=n - 1)))
        sets = [sorted(order[lo:hi]) for lo, hi in zip([0] + cuts, cuts + [len(arms)])]
    else:
        sets = [sorted(draw(st.lists(st.sampled_from(arms), min_size=1, unique=True)))
                for _ in range(n)]
    used = sorted({a for s in sets for a in s})
    # continuous draws: ties between arms would make rest points non-isolated
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = np.cumsum(rng.uniform(0.0, 0.5, size=(n, len(used), n)), axis=2)
    game = SmallGame(tuple(map(tuple, sets)), tuple(used), table)
    weights = draw(st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n))
    start = MixedProfile.random(game, rng) if draw(st.booleans()) else MixedProfile.uniform(game)
    return game, weights, start


@settings(max_examples=25, deadline=None)
@given(small_games())
def test_rest_point_matches_fixed_step_search(case):
    game, weights, start = case
    field = MeanCostField(game)
    ref, ref_converged = ref_integrate_fixed_step(start, field, weights, tol=1e-5, max_steps=4_000)
    if not ref_converged:
        return
    rest, converged = integrate_to_rest(start, field, weights, tol=1e-5)
    assert converged
    for a, b in zip(rest.vectors, ref.vectors):
        np.testing.assert_array_equal(a > 0.1, b > 0.1)
        assert np.abs(a - b).max() <= 1e-3


@st.composite
def field_cases(draw):
    """A small game (overlapping or disjoint candidate sets), a profile with
    zero entries, and a step matrix of 1-30 rounds in which agents idle."""
    game, weights, _ = draw(small_games(disjoint=draw(st.booleans())))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vecs = []
    for arms in game.candidate_sets:
        keep = np.array(draw(st.lists(st.booleans(), min_size=len(arms), max_size=len(arms))))
        keep[draw(st.integers(0, len(arms) - 1))] = True
        v = np.where(keep, rng.dirichlet(np.ones(len(arms))), 0.0)
        vecs.append(v / v.sum())
    rounds = draw(st.integers(1, 30))
    # steps up to 4 often overshoot the simplex, so the clip at zero is exercised
    dt = rng.uniform(0.0, 4.0, size=(rounds + 1, game.num_agents))
    dt[rng.random(dt.shape) < draw(st.floats(0.1, 0.9))] = 0.0
    return game, weights, MixedProfile(tuple(vecs)), dt


@settings(max_examples=60, deadline=None)
@given(field_cases())
def test_field_matches_convolution_reference(case):
    game, _, profile, _ = case
    got = MeanCostField(game).expected_costs(profile)
    for a, b in zip(got, ref_expected_costs(game, profile)):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(field_cases())
def test_ode_path_matches_array_reference(case):
    game, weights, profile, dt = case
    got = ode_path(MeanCostField(game), weights, dt, profile)
    np.testing.assert_allclose(got, ref_ode_path(game, weights, dt, profile), rtol=0.0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(field_cases())
def test_rest_point_matches_convolution_field(case):
    game, weights, profile, _ = case
    rest, converged = integrate_to_rest(profile, MeanCostField(game), weights, tol=1e-5)
    ref, ref_converged = integrate_to_rest(profile, RefMeanCostField(game), weights, tol=1e-5)
    assert converged == ref_converged
    for a, b in zip(rest.vectors, ref.vectors):
        assert np.abs(a - b).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.booleans().flatmap(lambda disjoint: small_games(disjoint=disjoint)))
def test_theta_matches_row_by_row_reference(case):
    game = case[0]
    assert estimate_theta(game) == ref_estimate_theta(game)
    flat = SmallGame(game.candidate_sets, game.arm_ids, game.table[:, :, :1])
    assert estimate_theta(flat) == ref_estimate_theta(flat) == 0.0
