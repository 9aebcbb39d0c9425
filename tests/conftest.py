import numpy as np
import pytest
from hypothesis import Phase, settings

from fogbandit.bandit import LearnerParams
from fogbandit.env import (
    AdversaryPhaseSchedule,
    CandidateSchedule,
    ChannelParams,
    EnvConfig,
    VfnSpec,
)
from fogbandit.cli import run_batch
from fogbandit.configio import GameConfig, TaskSizeLaw
from fogbandit.game import _METRIC, batches, run_games

# Tier-1 properties report a failing example as found: each shrink step
# replays whole games, and with no deadline shrinking could hold the suite
# for minutes.  The examples tried, and every assertion, are unchanged.
settings.register_profile("tier1", phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.load_profile("tier1")


def synthetic_config(
    arm_means: dict[int, float],
    num_agents: int = 2,
    horizon: int = 200,
    *,
    epochs=None,
    noise_halfwidth: float = 0.0,
    coupling: str = "sqrt",
    theta: float = 0.1,
    learner: LearnerParams | None = None,
    learners=None,
    task=None,
    activation=(),
    master_seed: int = 7,
    phases=None,
) -> GameConfig:
    """Small synthetic game with explicit arm means (one phase by default)."""
    arms = tuple(sorted(arm_means))
    env = EnvConfig(
        model="synthetic",
        vfns=tuple(VfnSpec(k, 1e9) for k in arms),
        adversary=AdversaryPhaseSchedule(
            phases=phases or ((1, horizon, dict(arm_means)),),
            noise_halfwidth=noise_halfwidth,
            mean_range=(0.01, 1.0),
        ),
        coupling=coupling,
        theta=theta,
    )
    if epochs is None:
        epochs = ((1, (arms,) * num_agents),)
    if learners is None:
        learners = (learner or LearnerParams(),) * num_agents
    return GameConfig(
        num_agents=num_agents,
        horizon=horizon,
        env=env,
        candidates=CandidateSchedule(epochs=epochs),
        learners=learners,
        task_size=task or TaskSizeLaw(law="fixed", fixed=(0.6e6,) * num_agents),
        activation=activation,
        master_seed=master_seed,
    )


def physical_config(
    freqs_ghz=(6.0, 4.0),
    num_agents: int = 2,
    horizon: int = 100,
    *,
    cost_cap: float | None = 1.0e-5,
    num_phases: int = 2,
    noise_halfwidth: float = 0.25,
    master_seed: int = 11,
    learner: LearnerParams | None = None,
) -> GameConfig:
    vfns = tuple(VfnSpec(i + 1, f * 1e9) for i, f in enumerate(freqs_ghz))
    arms = tuple(v.id for v in vfns)
    env = EnvConfig(
        model="physical",
        vfns=vfns,
        channel=ChannelParams(),
        adversary_num_phases=num_phases,
        adversary_mean_range=(1.0, 2.5),
        adversary_noise_halfwidth=noise_halfwidth,
        cost_cap=cost_cap,
    )
    return GameConfig(
        num_agents=num_agents,
        horizon=horizon,
        env=env,
        candidates=CandidateSchedule(epochs=((1, (arms,) * num_agents),)),
        learners=(learner or LearnerParams(),) * num_agents,
        task_size=TaskSizeLaw(law="uniform"),
        master_seed=master_seed,
    )


# -- parallel helpers (top-level functions so they pickle) -------------------


def map_runs(fn, configs, runs: int, *extra, workers: int = 2, columns=_METRIC) -> list:
    """One result per run id in range(runs), in order.

    ``fn((configs, run_ids, *extra))`` returns a list of results for one
    ``run_games(configs, run_ids, keep=set(), columns=columns)`` batch of
    ids; the batches are spread over ``workers``.  ``configs`` is one config
    or the variants a worker plays together, and ``columns`` are the trace
    columns ``fn`` reads.
    """
    plan = batches(configs, range(runs), workers, set(), columns)
    parts = run_batch(fn, [(configs, ids, *extra) for ids in plan], workers)
    return [row for part in parts for row in part]


PROBS = ("probs",)


def _probs_worker(args):
    config, run_ids, agent, pos = args
    traces = run_games(config, run_ids, keep=set(), columns=PROBS)
    return [trace.probs[1:, agent, pos].copy() for trace in traces]


def _regret_worker(args):
    """Per run id, each variant's final regret per agent, from the metric columns."""
    from fogbandit import metrics

    configs, run_ids = args
    traces = run_games(configs, run_ids, keep=set())
    return [
        [np.array([metrics.regret_series(trace, i).final() for i in range(trace.num_agents)])
         for trace in traces[i :: len(run_ids)]]
        for i in range(len(run_ids))
    ]


def seed_mean_probs(config: GameConfig, runs: int, agent: int, pos: int, workers: int = 2):
    stack = np.stack(map_runs(_probs_worker, config, runs, agent, pos, workers=workers, columns=PROBS))
    return stack.mean(axis=0), stack.std(axis=0, ddof=1) / np.sqrt(runs)
