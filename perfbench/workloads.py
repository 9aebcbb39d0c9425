"""The benchmark's three workloads, as YAML documents built from a seed.

Every workload pins ``master_seed`` and lets the workload seed draw the run
ids of every replication but the first.  Run id 0 is the reference
replication: its stage games feed `verify`'s replicator, contraction and
oracle checks, and with ``traces: first`` its trace is the persisted one.
Pinning it keeps the cost of those checks, which depends on the stage game
and not on the seed count, the same from seed to seed, so a run measures the
code and not the luck of the draw.  On paper-fig2-shaped instances the
replicator needs from 25k to over 400k field evaluations, depending on the
master seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import yaml

BUNDLED = Path("src") / "fogbandit" / "configs"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # () -> YAML document without seeds
    replications: int
    # spans the traced run must see fire (calls > 0) / stay silent (calls == 0)
    fired: tuple[str, ...] = ()
    silent: tuple[str, ...] = ()
    # span -> expected call count as a function of the replication count
    exact: dict = field(default_factory=dict)


def run_ids(seed: int, replications: int) -> list[int]:
    """Run id 0, then replications - 1 distinct ids drawn from the seed."""
    rng = random.Random(seed)
    return [0] + sorted(rng.sample(range(1, 1_000_000), replications - 1))


def _bundled(name: str) -> dict:
    with open(BUNDLED / f"{name}.yaml") as fh:
        return yaml.safe_load(fh)


def _desk() -> dict:
    doc = _bundled("acceptance-small")
    doc.update(name="desk-2x2", workers=2)
    return doc


def _fig2() -> dict:
    doc = _bundled("paper-fig2")
    # Half the bundled horizon, epochs rescaled to keep 3 -> 5 -> 10 arms in
    # three equal epochs.  Master seed 26 gives a final-epoch stage game whose
    # replicator run takes ~78k field evaluations: the cheapest of master
    # seeds 1-83 at this horizon, so an easier stage game than most.  The
    # typical one does not fit a run's time budget.
    horizon = 1500
    doc.update(name="fig2-volatile", workers=2, master_seed=26)
    doc["game"]["horizon"] = horizon
    for i, epoch in enumerate(doc["game"]["candidates"]):
        epoch["start"] = 1 + i * horizon // 3
    return doc


def _wide() -> dict:
    horizon, arms = 1000, list(range(1, 13))
    return {
        "name": "wide-traces",
        "master_seed": 20261017,
        "metrics": ["cost"],
        "traces": "all",
        "workers": 2,
        "variants": [{"name": "perturbed"}],
        "game": {
            "num_agents": 6,
            "horizon": horizon,
            "activation": 0.8,
            "task_size": {"law": "uniform", "q_lo": 2.0e5, "q_hi": 1.0e6},
            "learner": {"schedule_a": 1.0, "gamma_ratio": 0.5, "patch_mode": "patch"},
            "candidates": [
                {"start": 1, "all": arms[:8]},
                {"start": horizon // 2 + 1, "all": arms},
            ],
            "env": {
                "model": "synthetic",
                "coupling": "sqrt",
                "vfns": [{"id": k, "max_cpu_freq": 1.0e9} for k in arms],
                "adversary": {"num_phases": 3, "mean_range": [0.1, 0.9], "noise_halfwidth": 0.05},
            },
        },
    }


_CORE = (
    "configio.load_config", "env.init", "env.cost_vectors", "bandit.select_arm",
    "bandit.update_scores", "bandit.estimate_cost", "game.run_game",
    "game.write_trace", "game.read_trace", "cli.run_experiment", "cli.verify",
)
_ANALYSIS = (
    "env.mean_cost_table", "oracle.stage_games", "oracle.social_optimum",
    "oracle.smoothness_constants", "dynamics.integrate_to_rest",
    "dynamics.expected_costs", "dynamics.check_contraction",
    "metrics.regret_series", "metrics.pota_series", "metrics.pota_bound_check",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-2x2",
            "bundled acceptance-small: the Python round loop dominates both verbs; "
            "oracle and dynamics are small",
            _desk, replications=8,
            fired=_CORE + _ANALYSIS + ("dynamics.tracking_error", "metrics.xi_certificate"),
        ),
        Workload(
            "fig2-volatile",
            "paper-fig2 at half horizon (physical model, 4 variants, 3->5->10 arms): run is "
            "cost_vectors-bound, verify is replicator-dynamics-bound",
            _fig2, replications=4,
            fired=_CORE + _ANALYSIS + ("bandit.sync_candidates.patch_events",),
        ),
        Workload(
            "wide-traces",
            "6 agents on 8->12 arms, every trace persisted: trace I/O is the largest "
            "layer, the stage game is too large to enumerate",
            _wide, replications=6,
            fired=_CORE,
            silent=("oracle.social_optimum", "dynamics.expected_costs", "metrics.regret_series",
                    "metrics.pota_series", "metrics.pota_bound_check"),
            exact={"game.read_trace": lambda r: r, "game.write_trace": lambda r: 2 * r},
        ),
    )
}


def document(workload: Workload, seed: int) -> dict:
    """The YAML document for one workload seed."""
    ids = run_ids(seed, workload.replications)
    doc = workload.build()
    doc["replications"] = len(ids)
    doc["seeds"] = ids
    return doc
