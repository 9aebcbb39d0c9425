"""Repeated-game orchestration.

Runs the round loop: candidate-set evolution, Bernoulli activations,
simultaneous arm commitment, environment resolution, and feedback delivery.
Produces a GameTrace carrying every per-round quantity plus the ground truth
needed to recompute counterfactual costs exactly (same fades, same outlier
draws, congestion re-counted for the switched arm).
"""

from __future__ import annotations

import json

import numpy as np

from . import bandit
from .bandit import AgentState, LearningRates
from .configio import GameConfig, parse_game
from .env import Environment, ProtocolError
from .streams import stream_rng


class GameTrace:
    """Full history of one replication plus counterfactual ground truth.

    Column-major arrays indexed [round, agent] (1-based rounds; row 0 is
    unused padding).  Ragged per-round vectors (probabilities, estimates,
    counterfactual normalized costs) are NaN-padded to the largest candidate
    set and aligned with the round's candidate tuple.
    """

    def __init__(self, config: GameConfig, run_id: int):
        config_pad = config.horizon + 1
        n = config.num_agents
        kmax = max(len(s) for _, sets in config.candidates.epochs for s in sets)
        self.config = config
        self.run_id = run_id
        self.kmax = kmax
        self.active = np.zeros((config_pad, n), dtype=bool)
        self.chosen = np.full((config_pad, n), -1, dtype=np.int64)
        self.congestion = np.zeros((config_pad, n), dtype=np.int64)
        self.clock = np.zeros((config_pad, n), dtype=np.int64)
        self.zeta = np.full((config_pad, n), np.nan)
        self.task_size = np.full((config_pad, n), np.nan)
        self.eta = np.full((config_pad, n), np.nan)
        self.gamma = np.full((config_pad, n), np.nan)
        self.cost_a = np.full((config_pad, n), np.nan)
        self.cost_c = np.full((config_pad, n), np.nan)
        self.outlier = np.full((config_pad, n), np.nan)
        self.cost_real = np.full((config_pad, n), np.nan)
        self.cost_norm = np.full((config_pad, n), np.nan)
        self.probs = np.full((config_pad, n, kmax), np.nan)
        self.estimates = np.full((config_pad, n, kmax), np.nan)
        self.cf_norm = np.full((config_pad, n, kmax), np.nan)
        self.cf_raw = np.full((config_pad, n, kmax), np.nan)

    # -- structure ----------------------------------------------------------

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @property
    def num_agents(self) -> int:
        return self.config.num_agents

    def candidate_set(self, rnd: int, agent: int) -> tuple[int, ...]:
        return self.config.candidates.sets_at(rnd)[agent]

    def arm_index(self, rnd: int, agent: int, arm: int) -> int:
        arms = self.candidate_set(rnd, agent)
        try:
            return arms.index(arm)
        except ValueError:
            raise ProtocolError(
                f"arm {arm} not in agent {agent}'s candidate set at round {rnd}"
            ) from None

    def counterfactual_cost(self, rnd: int, agent: int, alt_arm: int) -> float:
        """Normalized cost had the agent switched to alt_arm, others fixed."""
        if not self.active[rnd, agent]:
            raise ProtocolError(f"agent {agent} was inactive at round {rnd}")
        return float(self.cf_norm[rnd, agent, self.arm_index(rnd, agent, alt_arm)])


def run_game(config: GameConfig, run_id: int = 0) -> GameTrace:
    """Play the configured game once; deterministic in (config, run_id)."""
    config.validate()
    env = Environment(config, run_id)
    trace = GameTrace(config, run_id)

    act_rng = stream_rng(config.master_seed, run_id, "activation")
    probs_act = np.array(config.activation_probs())
    active = act_rng.random((config.horizon + 1, config.num_agents)) < probs_act

    task_rng = stream_rng(config.master_seed, run_id, "task")
    ts = config.task_size
    shape = (config.horizon + 1, config.num_agents)
    if ts.law == "fixed":
        fixed = ts.fixed or ((ts.q_lo + ts.q_hi) / 2.0,) * config.num_agents
        tasks = np.broadcast_to(np.array(fixed), shape).copy()
    elif ts.law == "uniform":
        tasks = task_rng.uniform(ts.q_lo, ts.q_hi, size=shape)
    else:  # truncnorm: mean at midpoint, sd a quarter range, resampled
        mu, sd = (ts.q_lo + ts.q_hi) / 2.0, (ts.q_hi - ts.q_lo) / 4.0
        tasks = task_rng.normal(mu, sd, size=shape)
        bad = (tasks < ts.q_lo) | (tasks > ts.q_hi)
        while bad.any():
            tasks[bad] = task_rng.normal(mu, sd, size=int(bad.sum()))
            bad = (tasks < ts.q_lo) | (tasks > ts.q_hi)

    sel_rng = stream_rng(config.master_seed, run_id, "selection")
    states = [AgentState(params=lp) for lp in config.learners]
    agent_rates: list[LearningRates | None] = [None] * config.num_agents
    agent_probs: list[np.ndarray | None] = [None] * config.num_agents

    for rnd in range(1, config.horizon + 1):
        sets = config.candidates.sets_at(rnd)
        joint: dict[int, int] = {}
        for n in range(config.num_agents):
            if not active[rnd, n]:
                continue
            st = states[n]
            st.activation_clock += 1
            rates = bandit.learning_rates(
                st.activation_clock, len(sets[n]), st.params.schedule_a, st.params.gamma_ratio
            )
            bandit.sync_candidates(st, sets[n])
            arm, p = bandit.select_arm(
                st, tasks[rnd, n], sets[n], sel_rng, q_lo=ts.q_lo, q_hi=ts.q_hi
            )
            joint[n] = arm
            agent_rates[n] = rates
            agent_probs[n] = p

        if not joint:
            continue
        try:
            vectors = env.cost_vectors(rnd, joint)
        except ProtocolError as exc:
            raise ProtocolError(f"round {rnd}: {exc}") from exc

        for n, arm in joint.items():
            st = states[n]
            vec = vectors[n]
            arms = sets[n]
            k = len(arms)
            i = arms.index(arm)
            rates = agent_rates[n]
            p = agent_probs[n]
            if st.params.feedback == "full":
                est = np.asarray(vec["normalized"], dtype=np.float64).copy()
            else:
                est = bandit.estimate_cost(float(vec["normalized"][i]), i, p, rates.gamma)
            bandit.update_scores(st, est, rates.eta, arms)

            trace.active[rnd, n] = True
            trace.chosen[rnd, n] = arm
            trace.congestion[rnd, n] = int(vec["congestion"][i])
            trace.clock[rnd, n] = st.activation_clock
            trace.zeta[rnd, n] = st.demand_weight
            trace.task_size[rnd, n] = tasks[rnd, n]
            trace.eta[rnd, n] = rates.eta
            trace.gamma[rnd, n] = rates.gamma
            trace.cost_a[rnd, n] = vec["adversary"][i]
            trace.cost_c[rnd, n] = vec["collision"][i]
            trace.outlier[rnd, n] = vec["outlier"][i]
            trace.cost_real[rnd, n] = vec["realized"][i]
            trace.cost_norm[rnd, n] = vec["normalized"][i]
            trace.probs[rnd, n, :k] = p
            trace.estimates[rnd, n, :k] = est
            trace.cf_norm[rnd, n, :k] = vec["normalized"]
            trace.cf_raw[rnd, n, :k] = vec["realized"]
        # inactive agents keep frozen clocks in the trace for bookkeeping
        for n in range(config.num_agents):
            if not active[rnd, n]:
                trace.clock[rnd, n] = states[n].activation_clock

    return trace


# ---------------------------------------------------------------------------
# line-oriented trace serialization
# ---------------------------------------------------------------------------

_TRACE_MAGIC = "# fogbandit-trace v2"


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_vec(row: np.ndarray, k: int) -> str:
    return ",".join(_fmt(v) for v in row[:k])


def write_trace(trace: GameTrace, path) -> None:
    """One agent-round per line, fixed column order, full-precision floats.

    The header line holds ``GameConfig.to_dict()``, the run id and the config
    digest.  Columns: round agent active clock zeta task_size eta gamma chosen
    congestion cost_a cost_c outlier cost_real cost_norm probs estimates
    cf_norm cf_raw -- the last four comma-joined over the round's candidate
    set.  Inactive agent-rounds carry "-" placeholders.
    """
    with open(path, "w") as fh:
        fh.write(_TRACE_MAGIC + "\n")
        header = {"config": trace.config.to_dict(), "run_id": trace.run_id,
                  "config_sha256": trace.config.digest()}
        fh.write("# " + json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for rnd in range(1, trace.horizon + 1):
            for n in range(trace.num_agents):
                if not trace.active[rnd, n]:
                    fh.write(f"{rnd} {n} 0 {trace.clock[rnd, n]}" + " -" * 15 + "\n")
                    continue
                k = len(trace.candidate_set(rnd, n))
                cols = [
                    str(rnd), str(n), "1", str(int(trace.clock[rnd, n])),
                    _fmt(trace.zeta[rnd, n]), _fmt(trace.task_size[rnd, n]),
                    _fmt(trace.eta[rnd, n]), _fmt(trace.gamma[rnd, n]),
                    str(int(trace.chosen[rnd, n])), str(int(trace.congestion[rnd, n])),
                    _fmt(trace.cost_a[rnd, n]), _fmt(trace.cost_c[rnd, n]),
                    _fmt(trace.outlier[rnd, n]), _fmt(trace.cost_real[rnd, n]),
                    _fmt(trace.cost_norm[rnd, n]),
                    _fmt_vec(trace.probs[rnd, n], k),
                    _fmt_vec(trace.estimates[rnd, n], k),
                    _fmt_vec(trace.cf_norm[rnd, n], k),
                    _fmt_vec(trace.cf_raw[rnd, n], k),
                ]
                fh.write(" ".join(cols) + "\n")


def read_trace(path) -> GameTrace:
    """Parse a trace file back into arrays (no re-simulation)."""
    with open(path) as fh:
        magic = fh.readline().rstrip("\n")
        if magic != _TRACE_MAGIC:
            raise ValueError(f"{path}: not a fogbandit trace (bad magic line)")
        header = json.loads(fh.readline().lstrip("# ").rstrip("\n"))
        config = parse_game(header["config"])
        trace = GameTrace(config, header.get("run_id", 0))
        for line in fh:
            parts = line.split()
            rnd, n, act = int(parts[0]), int(parts[1]), parts[2] == "1"
            trace.clock[rnd, n] = int(parts[3])
            if not act:
                continue
            trace.active[rnd, n] = True
            (trace.zeta[rnd, n], trace.task_size[rnd, n], trace.eta[rnd, n],
             trace.gamma[rnd, n]) = (float(parts[4]), float(parts[5]),
                                     float(parts[6]), float(parts[7]))
            trace.chosen[rnd, n] = int(parts[8])
            trace.congestion[rnd, n] = int(parts[9])
            (trace.cost_a[rnd, n], trace.cost_c[rnd, n], trace.outlier[rnd, n],
             trace.cost_real[rnd, n], trace.cost_norm[rnd, n]) = map(float, parts[10:15])
            for dest, col in ((trace.probs, 15), (trace.estimates, 16),
                              (trace.cf_norm, 17), (trace.cf_raw, 18)):
                vals = [float(v) for v in parts[col].split(",")]
                dest[rnd, n, : len(vals)] = vals
    return trace
