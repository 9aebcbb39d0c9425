"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy criteria use
200 replications and two worker processes; the whole module is sized for a
small desk machine.
"""

import itertools
import math

import numpy as np
import pytest

from fogbandit import dynamics, metrics
from fogbandit.bandit import LearnerParams, estimate_cost
from fogbandit.configio import GameConfig, TaskSizeLaw, load_config
from fogbandit.cli import bundled_config, run_experiment
from fogbandit.dynamics import MeanCostField, MixedProfile
from fogbandit.env import Environment
from fogbandit.game import run_game, run_games
from fogbandit.oracle import (
    SmallGame,
    find_pure_nash,
    smoothness_constants,
    social_optimum,
    stage_games,
)

from conftest import map_runs, synthetic_config, seed_mean_probs
from test_oracle import make_game, ref_nash, ref_social_optimum

WORKERS = 2


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- 1: oracle equivalence ---------------------------------------------------


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    games_checked = 0
    for shape in ([(1, 2), (1, 2)], [(1, 2, 3)] * 3):
        for _ in range(12):
            means = {k: float(rng.uniform(0.15, 0.85)) for k in {a for s in shape for a in s}}
            game = make_game(shape, means)
            nes = find_pure_nash(game)
            assert nes == ref_nash(game), "deviation re-check mismatch"
            assert social_optimum(game) == ref_social_optimum(game), "optimum mismatch"
            smooth = smoothness_constants(game)
            assert smooth.feasible
            _, c_star = social_optimum(game)
            for ne in nes:
                assert game.social_cost(ne) / c_star <= smooth.rho + 1e-9, "PoA above rho"
            games_checked += 1
    report(1, "oracle-equivalence", games_checked >= 20,
           f"{games_checked} randomized stage games: NE re-checked, optimum "
           f"re-searched, PoA <= rho everywhere")


# -- 2: IX estimator bias ----------------------------------------------------


def test_criterion_02_ix_bias():
    rng = np.random.default_rng(102)
    cases = 0
    for arms in (2, 3, 4):
        for _ in range(25):
            p = rng.dirichlet(np.ones(arms))
            losses = rng.uniform(0.02, 1.0, size=arms)
            for gamma in (0.0, 0.01, 0.1, 0.4):
                # row c: the estimate vector after a draw of slot c
                est = estimate_cost(losses, np.arange(arms), np.tile(p, (arms, 1)),
                                    np.full(arms, gamma))
                expect = p @ est
                assert (expect <= losses + 1e-12).all(), "bias direction violated"
                if gamma == 0.0:
                    np.testing.assert_allclose(expect, losses, rtol=1e-12)
                else:
                    assert (expect < losses - 1e-14).all(), "strict bias expected"
                cases += 1
    report(2, "ix-estimator-bias", True,
           f"{cases} exhaustive expectations: E[estimate] <= loss elementwise, "
           f"equality iff gamma = 0 (tol 1e-12)")


# -- 3: replicator tracking (two-agent, 200 seeds) ---------------------------


def _tracking_instance(schedule_a: float) -> GameConfig:
    return synthetic_config(
        {1: 0.25, 2: 0.55},
        num_agents=2,
        horizon=2000,
        learner=LearnerParams(schedule_a=schedule_a),
        task=TaskSizeLaw(law="fixed", fixed=(0.2e6, 0.2e6)),
        master_seed=31,
    )


def test_criterion_03_replicator_tracking():
    sups = {}
    for a in (1.0, 0.01):
        cfg = _tracking_instance(a)
        game = SmallGame.from_environment(Environment(cfg, 0), 1, cfg.horizon)
        field = MeanCostField(game)
        mean0, _ = seed_mean_probs(cfg, runs=200, agent=0, pos=0, workers=WORKERS)
        mean1, _ = seed_mean_probs(cfg, runs=200, agent=1, pos=0, workers=WORKERS)
        tr = run_game(cfg, 0)
        dt = np.where(tr.active, np.nan_to_num(tr.eta), 0.0)
        prof0 = MixedProfile((np.array([0.5, 0.5]), np.array([0.5, 0.5])))
        ode = dynamics.ode_path(field, [1.0, 1.0], dt, prof0)
        dev = np.maximum(np.abs(mean0 - ode[1:, 0, 0]), np.abs(mean1 - ode[1:, 1, 0]))
        sups[a] = float(dev.max())
    ratio = sups[0.01] / sups[1.0]
    report(3, "replicator-tracking", ratio <= 0.5,
           f"sup deviation of 200-seed mean path: a=1 -> {sups[1.0]:.4f}, "
           f"a=0.01 -> {sups[0.01]:.4f} (ratio {ratio:.3f} <= 0.5)")


# -- 4: quasi-exponential convergence bound ----------------------------------


def test_criterion_04_convergence_rate_bound():
    # gap-0.3 strict-gap instance; the bound describes the weight dynamics fed
    # with per-round cost gaps, i.e. the full-information feedback regime
    cfg = synthetic_config(
        {1: 0.2, 2: 0.5},
        num_agents=1,
        horizon=2000,
        learner=LearnerParams(feedback="full", use_demand_weight=False),
        task=TaskSizeLaw(law="fixed", fixed=(0.2e6,)),
        master_seed=99,
    )
    arm, gap = metrics.strict_gap(cfg, 0)
    assert (arm, round(gap, 12)) == (1, 0.3)
    mean, se = seed_mean_probs(cfg, runs=200, agent=0, pos=0, workers=WORKERS)
    rep = metrics.convergence_rate_check(run_game(cfg, 0), 0)
    margin = mean + 3.0 * se - rep.bounds
    ok = bool((margin >= -1e-12).all())
    report(4, "convergence-rate-bound", ok,
           f"200-seed mean dominant-arm probability >= bound at all 2000 rounds "
           f"(grounded gap {gap:.2f}, min margin {margin.min():.2e})")


# -- 5: xi-equilibrium certification ------------------------------------------


def _xi_instance(horizon: int, activation=(), seed: int = 55) -> GameConfig:
    return synthetic_config(
        {1: 0.32, 2: 0.42},
        num_agents=2,
        horizon=horizon,
        activation=activation,
        master_seed=seed,
    )


XI = ("chosen", "zeta")  # what xi_certificate reads besides active


def _xi_worker(args):
    config, run_ids, window = args
    envs = [Environment(config, r) for r in run_ids]
    rows = []
    for trace, env in zip(run_games(config, run_ids, envs, keep=set(), columns=XI), envs):
        cert = metrics.xi_certificate(trace, window, stage_games(env)[-1][1])
        rows.append((cert.certified, cert.max_gap, cert.xi_bound))
    return rows


def test_criterion_05_xi_certification():
    cfg = _xi_instance(5000)
    rows = map_runs(_xi_worker, cfg, 50, 0.2, workers=WORKERS, columns=XI)
    certified = sum(r[0] for r in rows)
    worst = max(r[1] for r in rows)
    bound = rows[0][2]
    report(5, "xi-equilibrium", certified == 50,
           f"{certified}/50 seeds certified at horizon 5000; worst tail gap "
           f"{worst:.4f} <= xi {bound:.4f}")


# -- 6: smoothness PoTA bound --------------------------------------------------


POTA = ("cost_norm", "cf_norm")  # what pota_bound_check reads besides active


def _pota_worker(args):
    config, run_ids = args
    envs = [Environment(config, r) for r in run_ids]
    rows = []
    for trace, env in zip(run_games(config, run_ids, envs, keep=set(), columns=POTA), envs):
        checks = metrics.pota_bound_check(trace, stage_games(env))
        bad = sum((not c.vacuous) and (not c.holds) for c in checks)
        vac = sum(c.vacuous for c in checks)
        rows.append((bad, vac, len(checks)))
    return rows


def test_criterion_06_pota_bound():
    instances = {
        "congested-2x2": _xi_instance(2000, seed=56),
        "disjoint-supply": synthetic_config(
            {1: 0.3, 2: 0.5, 3: 0.35, 4: 0.45},
            num_agents=2,
            horizon=800,
            epochs=((1, ((1, 2), (3, 4))),),
            noise_halfwidth=0.05,
            master_seed=58,
        ),
        "volatile-6-arm": synthetic_config(
            {1: 0.15, 2: 0.5, 3: 0.55, 4: 0.6, 5: 0.65, 6: 0.7},
            num_agents=3,
            horizon=1500,
            epochs=((1, ((1, 2, 3),) * 3), (751, ((1, 2, 3, 4, 5, 6),) * 3)),
            noise_halfwidth=0.05,
            task=TaskSizeLaw(law="uniform"),
            master_seed=81,
        ),
    }
    details = []
    all_ok = True
    for name, cfg in instances.items():
        rows = map_runs(_pota_worker, cfg, 200, workers=WORKERS, columns=POTA)
        violations = sum(r[0] for r in rows)
        vacuous = sum(r[1] for r in rows)
        epochs = rows[0][2]
        all_ok &= violations == 0 and vacuous == 0
        details.append(f"{name}: 0 violations in 200x{epochs} epoch checks"
                       if violations == 0 else f"{name}: {violations} violations")
    report(6, "pota-bound", all_ok, "; ".join(details))


# -- 7: benchmark reproduction (volatile-supply scenario) ----------------------


FINALS = ("cost_norm",)  # what social_cost_series and pota_series read besides active


def _finals_worker(args):
    """Per run id, each variant's final (cost, pota)."""
    configs, run_ids = args
    envs = [Environment(configs[0], r) for r in run_ids]
    games = [stage_games(env) for env in envs]
    traces = run_games(configs, run_ids, envs, keep=set(), columns=FINALS)
    return [
        [(float(metrics.social_cost_series(trace)[-1]), float(metrics.pota_series(trace, games[i])[-1]))
         for trace in traces[i :: len(run_ids)]]
        for i in range(len(run_ids))
    ]


@pytest.mark.slow
def test_criterion_07_benchmark_direction():
    spec = load_config(bundled_config("paper-fig2"))
    names = ("perturbed", "vanilla-ix")
    cfgs = [spec.game_for(next(v for v in spec.variants if v.name == name)) for name in names]
    rows = map_runs(_finals_worker, cfgs, 200, workers=WORKERS, columns=FINALS)
    finals = {name: np.array([row[v] for row in rows]) for v, name in enumerate(names)}  # [200, 2] cost, pota
    msgs = []
    ok = True
    for i, metric in enumerate(("cumulative-cost", "pota")):
        a = finals["perturbed"][:, i]
        b = finals["vanilla-ix"][:, i]
        diff = b - a  # variants share seeds, so the paired difference is exact
        se = diff.std(ddof=1) / math.sqrt(len(diff))
        sep = diff.mean() / (3.0 * se)
        pct = 100.0 * diff.mean() / b.mean()
        ok &= diff.mean() > 0 and sep >= 1.0
        msgs.append(f"{metric}: perturbed lower by {pct:.1f}% "
                    f"(paired delta {diff.mean():.4g}, {sep:.1f}x the 3-sigma band)")
    report(7, "benchmark-direction", ok, "; ".join(msgs))


# -- 8: score patching vs full reset -------------------------------------------


def _volatile_instance(patch_mode: str) -> GameConfig:
    return synthetic_config(
        {1: 0.15, 2: 0.5, 3: 0.55, 4: 0.6, 5: 0.65, 6: 0.7},
        num_agents=3,
        horizon=1500,
        epochs=((1, ((1, 2, 3),) * 3), (751, ((1, 2, 3, 4, 5, 6),) * 3)),
        noise_halfwidth=0.05,
        learners=(LearnerParams(patch_mode=patch_mode),) * 3,
        task=TaskSizeLaw(law="uniform"),
        master_seed=81,
    )


def test_criterion_08_patching_beats_reset():
    from conftest import _regret_worker

    modes = ("patch", "reset_all")
    rows = map_runs(_regret_worker, [_volatile_instance(mode) for mode in modes], 200, workers=WORKERS)
    # per-seed mean over agents
    a, b = (np.stack([row[v] for row in rows]).mean(axis=1) for v in range(len(modes)))
    band3 = 3.0 * (a.std(ddof=1) + b.std(ddof=1)) / math.sqrt(len(a))
    delta = b.mean() - a.mean()
    ok = delta > band3
    report(8, "patching-benefit", ok,
           f"final per-agent regret: patched {a.mean():.2f} vs full reset "
           f"{b.mean():.2f}; delta {delta:.2f} exceeds the 3-sigma band {band3:.2f}")


# -- 9: learning-rate effect ----------------------------------------------------


def test_criterion_09_learning_rate_ordering():
    window = slice(9, 60)  # early rounds (10..60), after the first updates
    means = {}
    for a in (0.25, 1.0, 4.0):
        cfg = synthetic_config(
            {1: 0.2, 2: 0.5},
            num_agents=1,
            horizon=300,
            learner=LearnerParams(schedule_a=a),
            task=TaskSizeLaw(law="fixed", fixed=(0.2e6,)),
            master_seed=61,
        )
        mean, _ = seed_mean_probs(cfg, runs=200, agent=0, pos=0, workers=WORKERS)
        means[a] = float(mean[window].mean())
    ok = means[0.25] < means[1.0] < means[4.0]
    report(9, "learning-rate-ordering", ok,
           "early dominant-arm probability grows with schedule_a: "
           + ", ".join(f"a={a} -> {means[a]:.3f}" for a in (0.25, 1.0, 4.0)))


# -- 10: asynchronous soundness ---------------------------------------------------


def test_criterion_10_async_soundness():
    rng = np.random.default_rng(107)
    acts = rng.random((1_000_000, 2)) < 0.5
    rep = metrics.async_condition_check([(1.0, 2), (1.0, 2)], 1_000_000, acts)
    conds = rep.all_hold()

    sync_cfg = _xi_instance(8000, seed=57)
    async_cfg = _xi_instance(8000, activation=(0.5, 0.5), seed=57)
    certs = {}
    for name, cfg in (("sync", sync_cfg), ("async", async_cfg)):
        trace = run_game(cfg, 3)
        games = stage_games(Environment(cfg, 3))
        certs[name] = metrics.xi_certificate(trace, 0.2, games[-1][1])
    same_bound = abs(certs["sync"].xi_bound - certs["async"].xi_bound) < 1e-12
    ok = conds and certs["sync"].certified and certs["async"].certified and same_bound
    report(10, "async-soundness", ok,
           f"max-rate partial sums OK to T=1e6 under Bernoulli(0.5) activation; "
           f"async tail gap {certs['async'].max_gap:.4f} and sync "
           f"{certs['sync'].max_gap:.4f} both certify xi={certs['sync'].xi_bound:.4f}")


# -- 11: determinism ---------------------------------------------------------------


def test_criterion_11_determinism(tmp_path):
    spec = load_config(bundled_config("acceptance-small"))
    import dataclasses

    spec = dataclasses.replace(spec, run_ids=tuple(range(4)), trace_policy="all")
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert run_experiment(spec, out1, workers=2) == 0
    assert run_experiment(spec, out2, workers=1) == 0
    compared = 0
    for path in sorted((out1 / spec.name).rglob("*")):
        if path.is_dir():
            continue
        other = out2 / spec.name / path.relative_to(out1 / spec.name)
        assert other.read_bytes() == path.read_bytes(), f"{path.name} differs"
        compared += 1
    report(11, "determinism", compared >= 8,
           f"{compared} output files byte-identical across reruns "
           f"(including worker-count change)")
