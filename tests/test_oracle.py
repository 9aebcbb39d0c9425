import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogbandit import oracle
from fogbandit.bandit import LearnerParams
from fogbandit.cli import bundled_config
from fogbandit.configio import load_config
from fogbandit.env import Environment
from fogbandit.game import run_game
from fogbandit.oracle import (
    SmallGame,
    best_fixed_arm,
    find_pure_nash,
    smoothness_constants,
    social_optimum,
    stage_games,
)

import reference_impls
from conftest import physical_config, synthetic_config


def make_game(candidate_sets, means, coupling="sqrt", theta=0.1):
    """SmallGame with table[n, k, c-1] built from per-arm means."""
    arm_ids = tuple(sorted({a for s in candidate_sets for a in s}))
    n_agents = len(candidate_sets)
    table = np.zeros((n_agents, len(arm_ids), n_agents))
    for n in range(n_agents):
        for i, arm in enumerate(arm_ids):
            for c in range(1, n_agents + 1):
                mu = means[arm]
                if coupling == "sqrt":
                    table[n, i, c - 1] = mu * (1.0 + (math.sqrt(c) - 1.0) * 0.5)
                else:
                    table[n, i, c - 1] = mu + theta * (c - 1) * 0.5
    return SmallGame(
        candidate_sets=tuple(tuple(s) for s in candidate_sets),
        arm_ids=arm_ids,
        table=table,
        linear_coupling=(coupling == "linear"),
    )


def ref_nash(game):
    """Independent deviation re-check: best-response intersection."""
    out = []
    for joint in itertools.product(*game.candidate_sets):
        ok = True
        for n in range(game.num_agents):
            here = game.cost(n, joint)
            best = min(
                game.cost(n, joint[:n] + (alt,) + joint[n + 1 :])
                for alt in game.candidate_sets[n]
            )
            if here > best:
                ok = False
                break
        if ok:
            out.append(tuple(joint))
    return out


def ref_social_optimum(game):
    """Second exhaustive search with a different enumeration order."""
    sizes = [len(s) for s in game.candidate_sets]
    best, best_cost = None, math.inf
    for idx in np.ndindex(*sizes):
        joint = tuple(game.candidate_sets[n][i] for n, i in enumerate(idx))
        c = sum(game.cost(n, joint) for n in range(game.num_agents))
        if c < best_cost:
            best, best_cost = joint, c
    return best, best_cost


def test_single_agent_nash_is_argmin():
    game = make_game([(1, 2, 3)], {1: 0.5, 2: 0.2, 3: 0.9})
    assert find_pure_nash(game) == [(2,)]
    opt, c = social_optimum(game)
    assert opt == (2,) and c == pytest.approx(0.2)


def test_equal_arm_congestion_game_anticoordinates():
    game = make_game([(1, 2), (1, 2)], {1: 0.4, 2: 0.4})
    assert sorted(find_pure_nash(game)) == [(1, 2), (2, 1)]


def test_dominant_arm_game_congestion_threshold():
    # all agents pile on the cheap arm iff the congestion penalty < gap
    crowded = make_game([(1, 2), (1, 2)], {1: 0.2, 2: 0.5})
    assert (1, 1) in find_pure_nash(crowded)  # 0.2*1.207 < 0.5
    tight = make_game([(1, 2), (1, 2)], {1: 0.4, 2: 0.45})
    assert (1, 1) not in find_pure_nash(tight)  # 0.4*1.207 > 0.45


def test_three_agents_single_arm_forced():
    game = make_game([(1,), (1,), (1,)], {1: 0.2})
    assert find_pure_nash(game) == [(1, 1, 1)]
    opt, c = social_optimum(game)
    assert opt == (1, 1, 1)
    assert c == pytest.approx(3 * 0.2 * (1.0 + (math.sqrt(3) - 1.0) * 0.5))


def test_optimum_matches_second_enumeration_2x3():
    rng = np.random.default_rng(5)
    for _ in range(10):
        means = {k: float(rng.uniform(0.1, 0.9)) for k in (1, 2, 3)}
        game = make_game([(1, 2, 3), (1, 2, 3)], means)
        assert social_optimum(game) == ref_social_optimum(game)


BUNDLED = ("acceptance-small", "paper-fig2", "paper-fig3", "paper-fig4", "paper-fig5")


def test_nash_pass_independent_recheck_randomized():
    rng = np.random.default_rng(6)
    games = []
    for _ in range(20):
        means = {k: float(rng.uniform(0.1, 0.9)) for k in (1, 2, 3)}
        games.append(make_game([(1, 2, 3)] * 3, means))
    # every epoch's stage game of run 0 under each bundled config's first variant
    for name in BUNDLED:
        spec = load_config(bundled_config(name))
        env = Environment(spec.game_for(spec.variants[0]), spec.run_ids[0])
        games.extend(game for _, game in stage_games(env))
    for game in games:
        assert find_pure_nash(game) == ref_nash(game)


def test_optimum_not_above_any_pure_nash():
    rng = np.random.default_rng(7)
    for _ in range(20):
        means = {k: float(rng.uniform(0.1, 0.9)) for k in (1, 2)}
        game = make_game([(1, 2), (1, 2)], means)
        _, c_star = social_optimum(game)
        for ne in find_pure_nash(game):
            assert game.social_cost(ne) >= c_star - 1e-12


def test_best_fixed_arm_identities():
    cfg = synthetic_config({1: 0.4}, num_agents=1, horizon=120)
    trace = run_game(cfg, 0)
    arm, total = best_fixed_arm(trace, 0, (1, 120))
    assert arm == 1
    assert total == pytest.approx(np.nansum(trace.cost_norm[1:, 0]))


def test_best_fixed_arm_exhaustive_crosscheck():
    cfg = synthetic_config({1: 0.35, 2: 0.45}, num_agents=2, horizon=100)
    trace = run_game(cfg, 1)
    for n in range(2):
        arm, total = best_fixed_arm(trace, n, (1, 100))
        sums = {
            k: sum(
                trace.cf_norm[r, n, trace.candidate_set(r, n).index(k)]
                for r in range(1, 101)
            )
            for k in (1, 2)
        }
        assert total == pytest.approx(min(sums.values()), rel=1e-12)
        assert sums[arm] == pytest.approx(min(sums.values()), rel=1e-12)
        # hindsight best never exceeds any fixed arm, including the modal one
        modal = np.bincount(trace.chosen[1:, n]).argmax()
        assert total <= sums[int(modal)] + 1e-12


def test_best_fixed_arm_rejects_cross_epoch_segment():
    cfg = synthetic_config(
        {1: 0.3, 2: 0.5, 3: 0.4},
        num_agents=1,
        horizon=60,
        epochs=((1, ((1, 2),)), (31, ((1, 2, 3),))),
    )
    trace = run_game(cfg, 0)
    with pytest.raises(ValueError, match="spans"):
        best_fixed_arm(trace, 0, (20, 40))
    # but within-epoch segments work on both sides
    assert best_fixed_arm(trace, 0, (1, 30))[0] in (1, 2)
    assert best_fixed_arm(trace, 0, (31, 60))[0] in (1, 2, 3)


def test_best_fixed_arm_spans_epochs_with_the_same_set():
    # agent 0 keeps its set across the epoch boundary, agent 1 does not
    cfg = synthetic_config(
        {1: 0.3, 2: 0.5, 3: 0.4},
        horizon=60,
        epochs=((1, ((1, 2), (1, 2))), (31, ((1, 2), (2, 3)))),
    )
    trace = run_game(cfg, 0)
    arm, total = best_fixed_arm(trace, 0, (20, 40))
    act = trace.active[20:41, 0]
    sums = np.where(act[:, None], trace.cf_norm[20:41, 0, :2], 0.0).sum(axis=0)
    assert (arm, total) == ((1, 2)[int(np.argmin(sums))], float(sums.min()))
    with pytest.raises(ValueError, match="spans"):
        best_fixed_arm(trace, 1, (20, 40))


@settings(max_examples=60, deadline=None)
@given(
    sets=st.lists(
        st.lists(st.integers(1, 6), min_size=1, max_size=6, unique=True),
        min_size=1, max_size=4,
    ),
    seed=st.integers(0, 2**32 - 1),
    levels=st.sampled_from([0, 3]),
)
def test_array_oracles_equal_the_loops(sets, seed, levels):
    # exact equality with the per-joint loops: optimum, its cost, the fitted
    # constants and the worst joint; coarse tables (levels > 0) force ties
    arm_ids = tuple(sorted({a for s in sets for a in s}))
    rng = np.random.default_rng(seed)
    shape = (len(sets), len(arm_ids), len(sets))
    table = rng.integers(0, levels + 1, shape) / levels if levels else rng.random(shape)
    game = SmallGame(tuple(map(tuple, sets)), arm_ids, table)
    # every joint's social cost, not only the optimum's, sums in the loops' order
    joints = oracle._joints(game)
    assert [tuple(arm_ids[p] for p in j) for j in joints.tolist()] == list(game.joint_actions())
    assert oracle._total_costs(game, joints, joints).tolist() == [
        game.social_cost(j) for j in game.joint_actions()
    ]
    assert social_optimum(game) == reference_impls.ref_social_optimum(game)
    fit, ref = smoothness_constants(game), reference_impls.ref_smoothness_constants(game)
    # repr compares floats exactly, NaN included, and the types of the arm ids
    assert repr(fit) == repr(ref)


def test_smoothness_single_agent_is_one():
    game = make_game([(1, 2)], {1: 0.3, 2: 0.6})
    res = smoothness_constants(game)
    assert res.feasible
    assert res.lam == pytest.approx(1.0)
    assert res.mu == pytest.approx(0.0)
    assert res.rho == pytest.approx(1.0)


def test_smoothness_constraints_hold_exhaustively():
    rng = np.random.default_rng(8)
    for _ in range(10):
        means = {k: float(rng.uniform(0.1, 0.8)) for k in (1, 2)}
        game = make_game([(1, 2), (1, 2)], means)
        res = smoothness_constants(game)
        assert res.feasible
        k_star, c_star = res.optimum, res.optimum_cost
        for joint in itertools.product(*game.candidate_sets):
            dev = sum(
                game.cost(n, joint[:n] + (k_star[n],) + joint[n + 1 :])
                for n in range(game.num_agents)
            )
            assert dev <= res.lam * c_star + res.mu * game.social_cost(joint) + 1e-9


def test_smoothness_scale_invariance():
    means = {1: 0.2, 2: 0.45}
    game = make_game([(1, 2), (1, 2)], means)
    scaled = SmallGame(
        candidate_sets=game.candidate_sets,
        arm_ids=game.arm_ids,
        table=game.table * 2.0,
        linear_coupling=game.linear_coupling,
    )
    a, b = smoothness_constants(game), smoothness_constants(scaled)
    assert (a.lam, a.mu, a.rho) == (b.lam, b.mu, b.rho)


def test_poa_below_rho_for_all_pure_nash():
    rng = np.random.default_rng(9)
    for _ in range(20):
        means = {k: float(rng.uniform(0.15, 0.85)) for k in (1, 2, 3)}
        game = make_game([(1, 2, 3)] * 2, means)
        res = smoothness_constants(game)
        assert res.feasible
        _, c_star = social_optimum(game)
        for ne in find_pure_nash(game):
            assert game.social_cost(ne) / c_star <= res.rho + 1e-9


def test_stage_games_cover_epochs():
    cfg = synthetic_config(
        {1: 0.3, 2: 0.5, 3: 0.4},
        num_agents=2,
        horizon=60,
        epochs=((1, ((1, 2), (1, 2))), (31, ((1, 2, 3), (1, 2, 3)))),
    )
    games = stage_games(Environment(cfg, 0))
    assert [seg for seg, _ in games] == [(1, 30), (31, 60)]
    assert games[0][1].candidate_sets[0] == (1, 2)
    assert games[1][1].candidate_sets[0] == (1, 2, 3)


def test_enumeration_guard():
    sets = tuple((tuple(range(100)),) * 4)
    with pytest.raises(ValueError, match="too large"):
        SmallGame(
            candidate_sets=sets,
            arm_ids=tuple(range(100)),
            table=np.zeros((4, 100, 4)),
        )


def test_stage_games_refuse_before_building_a_table(monkeypatch):
    # a refused game's mean-cost table (a [N, K, N, 2049] quadrature on the
    # physical model) would be thrown away, so the size check comes first
    env = Environment(physical_config(freqs_ghz=(6.0, 4.0, 3.0), num_agents=3, horizon=20), 0)
    built = []
    table = Environment.mean_cost_table
    monkeypatch.setattr(Environment, "mean_cost_table", lambda self, lo, hi: built.append(lo) or table(self, lo, hi))
    monkeypatch.setattr(oracle, "MAX_JOINT_ACTIONS", 3**3 - 1)
    with pytest.raises(ValueError, match="joint action space 27 too large to enumerate"):
        stage_games(env)
    assert built == []
    monkeypatch.setattr(oracle, "MAX_JOINT_ACTIONS", 3**3)
    assert [seg for seg, _ in stage_games(env)] == [(1, 20)] and built == [1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.05, 0.2, -0.05]))
def test_nash_honours_eps(seed, eps):
    # a deviation counts only if it saves more than eps; staying put never
    # counts, even with a negative eps
    rng = np.random.default_rng(seed)
    means = {k: float(rng.uniform(0.1, 0.9)) for k in (1, 2, 3)}
    game = make_game([(1, 2), (1, 2, 3), (2, 3)], means)
    assert find_pure_nash(game, eps) == reference_impls.ref_find_pure_nash(game, eps)
