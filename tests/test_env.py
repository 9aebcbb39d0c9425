import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogbandit.bandit import LearnerParams
from fogbandit.cli import bundled_config
from fogbandit.configio import load_config
from fogbandit.env import (
    AdversaryPhaseSchedule,
    CandidateSchedule,
    ChannelParams,
    ConfigError,
    EnvConfig,
    Environment,
    ProtocolError,
    VfnSpec,
    allocate_cpu,
    link_rate,
    pathloss_db,
)
from fogbandit.oracle import stage_games

from conftest import physical_config, synthetic_config
from reference_impls import ref_cost_vectors, ref_draws

# frozen by an independent high-precision (mpmath, 40 digits) evaluation
GOLDEN_RATE_BPS = 9303683.3732028858787  # P=24dBm, N0=-174dBm/Hz, B=1MHz, g=1e-11
GOLDEN_PATHLOSS_400M = 113.13745567393138588


def test_pathloss_matches_model_at_400m():
    assert pathloss_db(400.0, ChannelParams()) == pytest.approx(
        GOLDEN_PATHLOSS_400M, rel=1e-12
    )


def test_link_rate_golden_value():
    params = ChannelParams(bandwidth_hz=1e6, num_subchannels=1)
    # invert the pathloss so the effective gain is exactly the golden g
    plgain = 10.0 ** (-pathloss_db(1000.0, params) / 10.0)
    rate = link_rate(1000.0, 1e-11 / plgain, params, num_agents=1)
    assert rate == pytest.approx(GOLDEN_RATE_BPS, rel=1e-9)


def test_deep_fade_clamps_to_positive_rate():
    rate = link_rate(400.0, 0.0, ChannelParams(), num_agents=3)
    assert rate > 0.0
    assert math.isfinite(rate)


def test_sampled_rate_positive_and_finite():
    rng = np.random.default_rng(3)
    params = ChannelParams()
    for _ in range(200):
        # one task: uniform distance within range, fresh Rayleigh fade
        r = link_rate(rng.uniform(0.0, params.comm_range_m), rng.exponential(1.0), params, 3)
        assert 0.0 < r < math.inf


def test_allocate_cpu_examples():
    assert allocate_cpu(6e9, 0.5, 1) == 3e9
    assert allocate_cpu(4e9, 0.25, 4) == pytest.approx(0.5e9, rel=1e-15)
    # unit congestion is the identity on F * fraction
    for f, frac in ((1.5e9, 0.2), (5e9, 0.37)):
        assert allocate_cpu(f, frac, 1) == f * frac


def test_allocate_cpu_rejects_zero_congestion():
    with pytest.raises(ProtocolError):
        allocate_cpu(6e9, 0.5, 0)


def test_allocation_monotone_in_congestion():
    allocs = [allocate_cpu(6e9, 0.4, c) for c in range(1, 8)]
    assert all(a > b for a, b in zip(allocs, allocs[1:]))


def _round_costs(env, rnd, joint):
    """Per-agent cost vectors of one round's joint action {agent: arm}."""
    chosen = np.full((1, env.num_agents), -1)
    active = np.zeros((1, env.num_agents), dtype=bool)
    for n, arm in joint.items():
        chosen[0, n], active[0, n] = arm, True
    vec = env.cost_vectors(env.cost_inputs(rnd, rnd), env.congestion(rnd, chosen, active))
    sets = env.candidates.sets_at(rnd)
    return {
        n: dict({key: v[0, n, : len(sets[n])] for key, v in vec.items()}, arms=np.array(sets[n]))
        for n in joint
    }


def test_congestion_counts_and_conservation():
    cfg = synthetic_config({1: 0.2, 2: 0.5}, num_agents=3, horizon=10)
    env = Environment(cfg, 0)
    vec = _round_costs(env, 1, {0: 1, 1: 1, 2: 1})
    for n in range(3):
        i = list(vec[n]["arms"]).index(1)
        assert vec[n]["congestion"][i] == 3
    # every agent counted once on its own arm: 2 on arm 1, 1 on arm 2
    vec = _round_costs(env, 1, {0: 1, 1: 2, 2: 1})
    at_chosen = {n: vec[n]["congestion"][list(vec[n]["arms"]).index(a)]
                 for n, a in {0: 1, 1: 2, 2: 1}.items()}
    assert at_chosen == {0: 2, 1: 1, 2: 2}
    assert sum(1 / c for c in at_chosen.values()) == 2  # two occupied arms, 3 agents
    # idle agents count toward no congestion and get NaN vectors
    chosen, active = np.array([[1, 1, 1]]), np.array([[True, False, True]])
    degree = env.congestion(1, chosen, active)
    assert degree[0, 0, 0] == 2 and np.isnan(degree[0, 1]).all()


def test_blend_identity_and_normalization_bounds():
    cfg = physical_config(horizon=40, num_agents=3, freqs_ghz=(6.0, 1.5, 4.0))
    env = Environment(cfg, 5)
    rng = np.random.default_rng(0)
    arms = cfg.candidates.sets_at(1)[0]
    for rnd in range(1, 41):
        joint = {n: arms[rng.integers(len(arms))] for n in range(3)}
        for vec in _round_costs(env, rnd, joint).values():
            la, lc = vec["adversary"], vec["collision"]
            expect = la + (lc - la) * vec["outlier"]
            assert (np.abs(vec["realized"] - expect) <= 1e-12 * np.abs(expect)).all()
            assert ((vec["normalized"] >= 0.0) & (vec["normalized"] <= 1.0)).all()


def test_single_agent_collision_free():
    cfg = synthetic_config({1: 0.3, 2: 0.6}, num_agents=1, horizon=20)
    env = Environment(cfg, 0)
    for rnd in range(1, 21):
        vec = _round_costs(env, rnd, {0: 1})[0]
        # c == 1 on every arm, so the blend collapses to the adversary cost
        np.testing.assert_array_equal(vec["collision"], vec["adversary"])
        np.testing.assert_array_equal(vec["realized"], vec["adversary"])


def test_identical_seeds_identical_cost_streams():
    cfg = physical_config(horizon=30, num_agents=2)
    a, b = Environment(cfg, 3), Environment(cfg, 3)
    for rnd in range(1, 31):
        va = _round_costs(a, rnd, {0: 1, 1: 1})
        vb = _round_costs(b, rnd, {0: 1, 1: 1})
        for n in range(2):
            assert np.array_equal(va[n]["realized"], vb[n]["realized"])
            assert np.array_equal(va[n]["normalized"], vb[n]["normalized"])


def test_cost_triples_match_reference_implementation():
    # ten rounds of a fixed-seed 2-agent/2-arm physical game, all entries
    cfg = physical_config(horizon=10, num_agents=2, freqs_ghz=(6.0, 4.0))
    env = Environment(cfg, 1)
    rng = np.random.default_rng(9)
    for rnd in range(1, 11):
        joint = {0: int(rng.integers(1, 3)), 1: int(rng.integers(1, 3))}
        got = _round_costs(env, rnd, joint)
        ref = ref_cost_vectors(env, rnd, joint)
        for n in joint:
            np.testing.assert_allclose(got[n]["adversary"], ref[n]["la"], rtol=1e-12)
            np.testing.assert_allclose(got[n]["collision"], ref[n]["lc"], rtol=1e-12)
            np.testing.assert_allclose(got[n]["realized"], ref[n]["real"], rtol=1e-12)
            np.testing.assert_allclose(got[n]["normalized"], ref[n]["norm"], rtol=1e-12)


def test_action_outside_candidate_set_raises():
    cfg = synthetic_config({1: 0.2, 2: 0.5}, num_agents=2, horizon=5)
    env = Environment(cfg, 0)
    with pytest.raises(ProtocolError, match="agent 1"):
        _round_costs(env, 2, {0: 1, 1: 9})


def test_adversary_schedule_validation():
    with pytest.raises(ConfigError, match="partition"):
        AdversaryPhaseSchedule(
            phases=((1, 10, {1: 0.5}), (12, 20, {1: 0.5})), mean_range=(0.1, 1.0)
        ).validate(20, [1])
    with pytest.raises(ConfigError, match="outside"):
        AdversaryPhaseSchedule(
            phases=((1, 20, {1: 2.0}),), mean_range=(0.1, 1.0)
        ).validate(20, [1])


def test_candidate_schedule_validation():
    with pytest.raises(ConfigError, match="empty candidate set"):
        CandidateSchedule(epochs=((1, ((), (1,))),)).validate(10, 2, [1])
    with pytest.raises(ConfigError, match="start at round 1"):
        CandidateSchedule(epochs=((2, ((1,),)),)).validate(10, 1, [1])
    with pytest.raises(ConfigError, match="unknown arm"):
        CandidateSchedule(epochs=((1, ((7,),)),)).validate(10, 1, [1])


def test_generated_phases_partition_horizon():
    rng = np.random.default_rng(2)
    sched = AdversaryPhaseSchedule.generate(997, [1, 2, 3], 4, (1.0, 2.5), 0.1, rng)
    sched.validate(997, [1, 2, 3])
    assert len(sched.phases) == 4
    lengths = {hi - lo + 1 for lo, hi, _ in sched.phases}
    assert len(lengths) > 1  # phases of different lengths


def test_mean_cost_table_against_quadrature_oracle():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    cfg = physical_config(horizon=20, num_agents=2, freqs_ghz=(6.0, 1.5), num_phases=1)
    env = Environment(cfg, 4)
    table = env.mean_cost_table(1, 20)
    ch = cfg.env.channel
    for (n, pos, c) in ((0, 0, 1), (1, 1, 2)):
        snr = env._snr_mean[0, n, pos]
        mean_s = env.phase_means[0, pos]
        f1 = env.max_freqs[pos] * env.fractions[0, pos]
        comp = cfg.computation_intensity * mean_s * (1 + (math.sqrt(c) - 1) * 0.5) / f1

        def integrand(x):
            rate = env._b_alloc * math.log2(1.0 + snr * max(x, 1e-9))
            return min((1.0 / rate + comp) / env.cost_cap, 1.0) * math.exp(-x)

        expect, err = scipy_integrate.quad(integrand, 1e-9, 60.0, limit=400)
        expect += (1.0 - math.exp(-1e-9)) * integrand(1e-9) * math.exp(1e-9)
        assert table[n, pos, c - 1] == pytest.approx(expect, rel=1e-5)


def test_mean_cost_table_matches_monte_carlo():
    # field values within 3 standard errors of 1e5-sample estimates
    cfg = physical_config(horizon=10, num_agents=2, freqs_ghz=(6.0, 4.0), num_phases=1)
    env = Environment(cfg, 8)
    table = env.mean_cost_table(1, 10)
    rng = np.random.default_rng(123)
    samples = 100_000
    ch = cfg.env.channel
    for (n, pos, c) in ((0, 0, 1), (0, 1, 2), (1, 0, 2)):
        snr = env._snr_mean[0, n, pos]
        f1 = env.max_freqs[pos] * env.fractions[0, pos]
        mean_s = env.phase_means[0, pos]
        h = cfg.env.adversary_noise_halfwidth
        x = np.maximum(rng.exponential(1.0, samples), 1e-9)
        s = mean_s + rng.uniform(-h, h, samples)
        o = rng.uniform(0.0, 1.0, samples)
        inv_r = 1.0 / (env._b_alloc * np.log2(1.0 + snr * x))
        cost = inv_r + cfg.computation_intensity * s / f1 * (1.0 + (math.sqrt(c) - 1.0) * o)
        norm = np.minimum(cost / env.cost_cap, 1.0)
        se = norm.std(ddof=1) / math.sqrt(samples)
        assert abs(table[n, pos, c - 1] - norm.mean()) < 3.0 * se


def test_synthetic_mean_table_exact():
    cfg = synthetic_config({1: 0.3, 2: 0.5}, num_agents=3, horizon=10)
    env = Environment(cfg, 0)
    table = env.mean_cost_table(1, 10)
    for pos, mu in ((0, 0.3), (1, 0.5)):
        for c in (1, 2, 3):
            expect = mu * (1.0 + (math.sqrt(c) - 1.0) * 0.5)
            assert table[0, pos, c - 1] == pytest.approx(expect, rel=1e-14)


def test_mean_table_rejects_cross_epoch_segments():
    cfg = synthetic_config(
        {1: 0.3, 2: 0.5},
        horizon=20,
        epochs=((1, ((1, 2), (1, 2))), (11, ((1,), (1, 2)))),
    )
    env = Environment(cfg, 0)
    with pytest.raises(ValueError, match="spans candidate epochs"):
        env.mean_cost_table(5, 15)
    with pytest.raises(ValueError, match="span candidate epochs"):
        env.cost_inputs(5, 15)


def test_default_cost_cap_is_analytic_worst_case():
    cfg = physical_config(horizon=10, cost_cap=None)
    env = Environment(cfg, 0)
    # floored rate term dominates; every realized cost normalizes below 1
    assert env.cost_cap > 1.0
    for rnd in range(1, 11):
        for vec in _round_costs(env, rnd, {0: 1, 1: 2}).values():
            assert (vec["normalized"] < 1e-3).all()


def _cap_configs() -> dict:
    configs = {}
    for path in sorted(bundled_config("acceptance-small").parent.glob("*.yaml")):
        spec = load_config(path)
        for variant in spec.variants:
            configs[f"{path.stem}/{variant.name}"] = spec.game_for(variant)
    configs["physical-analytic-cap"] = physical_config(cost_cap=None, num_phases=3)
    return configs


@pytest.mark.parametrize("name", sorted(_cap_configs()))
def test_cost_cap_equal_across_run_ids(name):
    # the round loop evaluates one batch-wide cost table with any replication's
    # Environment, which needs the same cost_cap in every replication
    config = _cap_configs()[name]
    envs = [Environment(config, run_id) for run_id in (0, 1, 7, 123456)]
    assert len({env.cost_cap for env in envs}) == 1
    if name == "physical-analytic-cap":  # drawn phases differ, the analytic cap does not
        assert config.env.cost_cap is None and config.env.adversary is None
        assert len({env.phase_means.tobytes() for env in envs}) == len(envs)


@pytest.mark.parametrize("path", sorted(bundled_config("acceptance-small").parent.glob("*.yaml")),
                         ids=lambda p: p.stem)
def test_environment_is_the_same_for_every_variant(path):
    # run fans a run id's one Environment and stage games out to every
    # variant, which holds because variants differ only in their learners
    spec = load_config(path)
    for run_id in (0, 1):
        envs = [Environment(spec.game_for(v), run_id) for v in spec.variants]
        games = [stage_games(env) for env in envs]
        for env, game in zip(envs[1:], games[1:]):
            assert env.cost_cap == envs[0].cost_cap
            for name in ("distances", "fractions"):
                assert np.array_equal(getattr(env, name), getattr(envs[0], name)), name
            for lo, hi in env.epoch_bounds:  # the per-round draws, through the costs they enter
                for a, b in zip(env.cost_inputs(lo, hi), envs[0].cost_inputs(lo, hi)):
                    assert (a is None and b is None) or a.tobytes() == b.tobytes()
            assert [seg for seg, _ in game] == [seg for seg, _ in games[0]]
            for (_, g), (_, g0) in zip(game, games[0]):
                assert (g.candidate_sets, g.table.tobytes()) == (g0.candidate_sets, g0.table.tobytes())


@st.composite
def block_requests(draw):
    """A small game of either model, with adversary noise or without and one
    to three candidate epochs; a run id; and the rounds ``cost_inputs`` is
    asked for: a partition of each epoch into blocks in order, then those
    blocks and a few sub-blocks in a drawn order, which asks for earlier
    rounds too."""
    n, horizon, arms = draw(st.integers(1, 3)), draw(st.integers(3, 40)), draw(st.integers(1, 4))
    noise, seed = draw(st.sampled_from([0.0, 0.05])), draw(st.integers(0, 2**31))
    if draw(st.booleans()):
        config = physical_config(freqs_ghz=(2.0,) * arms, num_agents=n, horizon=horizon, noise_halfwidth=noise,
                                 num_phases=draw(st.integers(1, 3)), master_seed=seed)
    else:
        config = synthetic_config({k: 0.5 for k in range(1, arms + 1)}, num_agents=n, horizon=horizon,
                                  noise_halfwidth=noise, master_seed=seed)
    subsets = st.lists(st.integers(1, arms), min_size=1, unique=True).map(tuple)
    starts = [1] + sorted(draw(st.sets(st.integers(2, horizon), max_size=2)))
    config = dataclasses.replace(config, candidates=CandidateSchedule(
        tuple((start, tuple(draw(subsets) for _ in range(n))) for start in starts)))
    bounds = config.candidates.epoch_bounds(horizon)
    blocks = []
    for lo, hi in bounds:
        cuts = sorted(draw(st.sets(st.integers(lo + 1, hi), max_size=3))) if hi > lo else []
        blocks += zip([lo] + cuts, [c - 1 for c in cuts] + [hi])
    inside = st.sampled_from(bounds).flatmap(
        lambda b: st.integers(*b).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, b[1]))))
    return config, draw(st.integers(0, 3)), blocks + draw(st.permutations(blocks + draw(st.lists(inside, max_size=3))))


@settings(max_examples=40, deadline=None)
@given(block_requests())
def test_cost_inputs_equal_the_whole_horizon_draws_for_any_blocks(case):
    # an Environment draws its per-round randomness as cost_inputs asks for
    # it; whatever the blocks and their order, it must hold what one draw over
    # the whole horizon gives, and give the costs a fresh Environment gives
    config, run_id, requests = case
    env = Environment(config, run_id)
    whole = ref_draws(Environment(config, run_id))
    names = ("fading", "outliers", "adv_noise") if config.env.model == "physical" else ("outliers", "adv_noise")
    for lo, hi in requests:
        inputs = env.cost_inputs(lo, hi)
        for name in names:
            assert getattr(env, name)[: hi + 1 - lo].tobytes() == whole[name][lo : hi + 1].tobytes(), name
        for got, expect in zip(inputs, Environment(config, run_id).cost_inputs(lo, hi)):
            assert (got is None and expect is None) or got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("model", ["synthetic", "physical"])
def test_environment_holds_a_block_of_draws(model):
    # N = 50, K = 20, T = 20,000: whole-horizon outlier weights alone would
    # take 153 MiB, and as many again for the physical model's fades
    n, k, horizon = 50, 20, 20_000
    if model == "physical":
        config = physical_config(freqs_ghz=(4.0,) * k, num_agents=n, horizon=horizon, num_phases=3)
    else:
        config = synthetic_config({a: 0.5 for a in range(1, k + 1)}, num_agents=n, horizon=horizon,
                                  noise_halfwidth=0.05)
    tracemalloc.start()
    try:
        env = Environment(config, 0)
        built = tracemalloc.get_traced_memory()
        inputs = env.cost_inputs(1, 32)
        played = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inputs.outlier.shape == (32, n, k)
    limit = 5 * 2**20
    assert max(built) < limit and max(played) < limit, (built, played)
