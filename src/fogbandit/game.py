"""Repeated-game orchestration.

Runs the round loop: candidate-set evolution, Bernoulli activations,
simultaneous arm commitment, environment resolution, and feedback delivery.
Each round is one array step over all agents; costs come from the
environment a block of rounds at a time.  Produces a GameTrace carrying
every per-round quantity plus the ground truth needed to recompute
counterfactual costs exactly (same fades, same outlier draws, congestion
re-counted for the switched arm).  Trace files hold the trace's columns as
raw little-endian bytes (``write_trace``/``read_trace``); ``format_trace``
renders one as text, one agent-round per line.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import numpy as np

from . import bandit
from .configio import GameConfig, parse_game
from .env import CostInputs, Environment
from .streams import stream_rng


# The trace columns in file order: name, dtype, fill before play.  The last
# four are NaN-padded per candidate slot.
_COLUMNS = (
    ("active", "|b1", False),
    ("chosen", "<i8", -1),
    ("congestion", "<i8", 0),
    ("clock", "<i8", 0),
    *((name, "<f8", np.nan) for name in (
        "zeta", "task_size", "eta", "gamma", "cost_a", "cost_c", "outlier", "cost_real",
        "cost_norm", "probs", "estimates", "cf_norm", "cf_raw",
    )),
)
_PER_SLOT = ("probs", "estimates", "cf_norm", "cf_raw")


class GameTrace:
    """Full history of one replication plus counterfactual ground truth.

    One array per ``_COLUMNS`` entry, indexed [round, agent] (1-based rounds;
    row 0 is unused padding).  Ragged per-round vectors (probabilities,
    estimates, counterfactual normalized and realized costs) are indexed
    [round, agent, slot], NaN-padded to the largest candidate set and aligned
    with the round's candidate tuple.  The traces of one ``run_games``
    batch share storage: each column is a view of one stacked
    [replication, round, agent(, slot)] array (see ``_stacked``).

    ``clock[t, n]`` is agent n's running count of activations through round
    t, except in rounds where no agent is active: there every agent's clock
    reads 0.  Recorded traces have always carried that 0, and the golden
    digests pin it.
    """

    def __init__(self, config: GameConfig, run_id: int, columns: dict | None = None):
        self.config = config
        self.run_id = run_id
        vars(self).update(columns or {name: col[0] for name, col in _stacked(config, 1).items()})
        self.kmax = self.probs.shape[-1]

    # -- structure ----------------------------------------------------------

    @property
    def horizon(self) -> int:
        return self.config.horizon

    @property
    def num_agents(self) -> int:
        return self.config.num_agents

    def candidate_set(self, rnd: int, agent: int) -> tuple[int, ...]:
        return self.config.candidates.sets_at(rnd)[agent]

    def epochs(self) -> list[tuple[int, int, tuple[tuple[int, ...], ...]]]:
        """(first round, last round, per-agent candidate sets) of each epoch."""
        schedule = self.config.candidates
        return [(lo, hi, sets) for (lo, hi), (_, sets)
                in zip(schedule.epoch_bounds(self.horizon), schedule.epochs)]


def _stacked(config: GameConfig, reps: int) -> dict[str, np.ndarray]:
    """Blank trace columns of ``reps`` replications, [replication, round, agent(, slot)]."""
    shape = (reps, config.horizon + 1, config.num_agents)
    kmax = max(len(s) for _, sets in config.candidates.epochs for s in sets)
    return {name: np.full(shape + (kmax,) if name in _PER_SLOT else shape, fill, dtype=dtype)
            for name, dtype, fill in _COLUMNS}


# A block of rounds holds at most this many cells of replication x round x
# agent x candidate slot x congestion degree in its table of normalized costs,
# which bounds the round loop's working memory whatever the horizon and batch.
_BLOCK_CELLS = 2**15
# A batch of replications stepped together holds at most this many trace
# cells of replication x round x agent x candidate slot, which bounds the
# memory of the traces one batch plays at once.
_BATCH_CELLS = 2**17


def batches(config: GameConfig, run_ids, parts: int = 1) -> list[list[int]]:
    """``run_ids`` cut into contiguous batches for ``run_games``, in order.

    A batch holds about ``len(run_ids) / parts`` ids (say, one batch per
    worker), and never more than ``_BATCH_CELLS`` allows.
    """
    ids = list(run_ids)
    kmax = max(len(s) for _, sets in config.candidates.epochs for s in sets)
    cap = max(1, _BATCH_CELLS // ((config.horizon + 1) * config.num_agents * kmax))
    size = min(cap, max(1, -(-len(ids) // max(parts, 1))))
    return [ids[i : i + size] for i in range(0, len(ids), size)]


def run_game(config: GameConfig, run_id: int = 0, env: Environment | None = None) -> GameTrace:
    """Play the configured game once; deterministic in (config, run_id).

    ``env`` is the replication's Environment when the caller needs it too
    (say, for its stage games); by default it is built here.
    """
    return run_games(config, [run_id], [env])[0]


def run_games(config: GameConfig, run_ids, envs=None) -> list[GameTrace]:
    """Play the configured game once per run id; the traces in the same order.

    Replications never interact, so a batch of them (see ``batches``) is
    played in lockstep: each (replication, agent) pair is one row of a
    single learner state, each round is one array step over the rows, and
    each block of rounds takes its costs and fills the traces in one step
    over the batch.  Every trace is byte-identical to the one its run id
    gives alone.  ``envs``, when given, holds each replication's
    Environment or None; it may come from a config that differs from
    ``config`` only in ``learners``, which an Environment does not read: the
    learners are always taken from ``config``.  What play does not change
    (activations, clocks, task sizes, demand weights, learning rates,
    selection uniforms) is drawn before the first round.
    """
    config.validate()
    run_ids = list(run_ids)
    envs = [None] * len(run_ids) if envs is None else list(envs)
    if len(envs) != len(run_ids):
        raise ValueError(f"{len(envs)} environments for {len(run_ids)} run ids")
    traces: list[GameTrace] = []
    for ids in batches(config, run_ids):
        done = len(traces)
        batch_envs = [
            env if env is not None else Environment(config, rid)
            for rid, env in zip(ids, envs[done : done + len(ids)])
        ]
        columns = _stacked(config, len(ids))
        traces += [GameTrace(config, rid, {name: col[i] for name, col in columns.items()})
                   for i, rid in enumerate(ids)]
        stack = SimpleNamespace(**columns, uniforms=np.stack(
            [_predraw(config, rid, env, tr) for rid, env, tr in zip(ids, batch_envs, traces[done:])]
        ))
        # row i * num_agents + n holds agent n of the batch's replication i
        state = bandit.LearnerState.fresh(config.learners * len(ids), len(batch_envs[0].arm_ids))
        for epoch, (lo, hi) in enumerate(batch_envs[0].epoch_bounds):
            _play_epoch(config, batch_envs, stack, state, epoch, lo, hi)
    return traces


def _predraw(config: GameConfig, run_id: int, env: Environment, trace: GameTrace) -> np.ndarray:
    """Fill the trace's play-independent columns; return the selection uniforms.

    The uniforms come as a [round, agent] array, NaN where no draw is made:
    one scalar draw per selection, taken in row-major order (rounds in
    order, agents in order within a round) where the agent is active on
    more than one arm.
    """
    shape = (config.horizon + 1, config.num_agents)  # row 0 unused
    act_rng = stream_rng(config.master_seed, run_id, "activation")
    active = act_rng.random(shape) < np.array(config.activation_probs())
    active[0] = False

    task_rng = stream_rng(config.master_seed, run_id, "task")
    ts = config.task_size
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

    trace.active[:] = active
    np.cumsum(active, axis=0, out=trace.clock)
    # recorded traces carry clock 0 in rounds where no agent plays
    trace.clock[~active.any(axis=1)] = 0
    np.copyto(trace.task_size, tasks, where=active)
    del tasks
    drawn = np.zeros(shape, dtype=bool)
    for (lo, hi), pos in zip(env.epoch_bounds, env.slot_pos):
        rounds = slice(lo, hi + 1)
        for n, (lp, k) in enumerate(zip(config.learners, (pos >= 0).sum(axis=1))):
            act = active[rounds, n]
            drawn[rounds, n] = act & (k > 1)
            trace.zeta[rounds, n][act] = (
                bandit.demand_weight(trace.task_size[rounds, n][act], ts.q_lo, ts.q_hi)
                if lp.use_demand_weight else 1.0
            )
            rates = bandit.learning_rates(trace.clock[rounds, n][act], int(k), lp.schedule_a, lp.gamma_ratio)
            trace.eta[rounds, n][act] = rates.eta
            trace.gamma[rounds, n][act] = rates.gamma
    uniforms = np.full(shape, np.nan)
    uniforms[drawn] = stream_rng(config.master_seed, run_id, "selection").random(int(drawn.sum()))
    return uniforms


def _play_epoch(config, envs, stack, state, epoch, lo, hi) -> None:
    """Rounds [lo, hi] of one candidate epoch for a batch, in blocks of rounds.

    ``stack`` holds the batch's stacked trace columns and selection
    uniforms, [replication, round, agent(, slot)].  Agents are stepped in
    groups of equal candidate-set size, each group one array step per round
    over every replication of the batch, on scores it holds for the epoch.
    A group's idle agents are stepped too, with learning rate 0 and demand
    weight 1, which leaves their scores unchanged; their choices count
    toward no congestion and the fill drops them.
    """
    reps, n_agents = len(envs), config.num_agents
    pos = envs[0].slot_pos[epoch]  # [agent, slot], the same in every replication
    sizes = (pos >= 0).sum(axis=1)
    sets = [tuple(int(a) for a in row[:k]) for row, k in zip(pos, sizes)] * reps
    # a learner syncs to the epoch's sets at its first activation in it
    active = stack.active[:, lo : hi + 1]
    syncs: dict[int, list[int]] = {}
    for i, n in np.argwhere(active.any(axis=1)).tolist():
        syncs.setdefault(lo + int(active[i, :, n].argmax()), []).append(i * n_agents + n)
    n_arms = len(envs[0].arm_ids)
    groups = [_Group(k, sizes, pos, reps, n_arms, config.learners, state) for k in sorted(set(sizes.tolist()))]
    degrees = np.arange(n_agents + 1)
    k_max = pos.shape[1]
    block = max(1, _BLOCK_CELLS // (reps * n_agents * k_max * degrees.size))
    for b_lo in range(lo, hi + 1, block):
        b_hi = min(b_lo + block - 1, hi)
        rounds = slice(b_lo, b_hi + 1)
        # cost ingredients [replication, round, agent, slot] and normalized cost [round,
        # replication * agent, slot, congestion degree]; replications share cost_cap
        inputs = CostInputs(*(
            None if parts[0] is None else np.stack(parts)
            for parts in zip(*(env.cost_inputs(b_lo, b_hi) for env in envs))
        ))
        table = envs[0].cost_vectors(CostInputs(*(
            None if a is None else a.swapaxes(0, 1).reshape(b_hi - b_lo + 1, -1, k_max, 1)
            for a in inputs
        )), degrees)["normalized"]
        blocks = [g.block(stack, rounds) for g in groups]
        for r, rnd in enumerate(range(b_lo, b_hi + 1)):
            if rnd in syncs:
                for g in groups:
                    g.store(state)
                bandit.sync_candidates(state, syncs[rnd], sets)
                for g in groups:
                    g.load(state)
            cells, playing = [], []  # replication * n_arms + chosen arm position
            for g, b in zip(groups, blocks):
                b.slot[r], b.probs[r] = bandit.select_arm(g.scores, b.zeta[r], g.mix, b.u[r])
                cells.append(g.cells[g.index, b.slot[r]])
                playing.append(cells[-1] if b.everyone[r] else cells[-1][b.active[r]])
            counts = np.bincount(
                np.concatenate(playing) if len(playing) > 1 else playing[0],
                minlength=reps * n_arms,
            )
            for g, b, cell in zip(groups, blocks, cells):
                idx = b.slot[r]
                est = bandit.estimate_cost(
                    table[r, g.flat, idx, counts[cell]], idx, b.probs[r], b.gamma[r]
                )
                if g.any_full:  # the whole counterfactual vector is the estimate
                    f = g.full
                    degree = counts[g.cells[f]] + (np.arange(g.k) != idx[f, None])
                    est[f] = table[r, g.rows[f], np.arange(g.k), degree]
                bandit.update_scores(g.scores, est, b.eta[r])
                b.estimates[r] = est
        _fill(envs[0], stack, inputs, b_lo, b_hi, groups, blocks)
    for g in groups:
        g.store(state)


class _Group:
    """Agents of one epoch that share a candidate-set size ``k``.

    A group array has one row per (replication, agent) pair of the batch,
    replication-major: row ``i * agents.size + j`` is agent ``agents[j]``
    of replication i.  ``scores`` holds the rows' [row, slot] scores through
    the epoch; ``store`` writes them back to the learner state.
    """

    def __init__(self, k, sizes, pos, reps, n_arms, learners, state):
        n_agents, agents = pos.shape[0], np.flatnonzero(sizes == k)
        mix = np.array([learners[n].uniform_mix for n in agents])
        full = np.array([learners[n].feedback == "full" for n in agents])
        rep = np.repeat(np.arange(reps), agents.size)
        self.k, self.agents = k, agents
        self.flat = rep * n_agents + np.tile(agents, reps)  # learner-state rows
        self.rows = self.flat[:, None]
        self.cols = np.tile(pos[agents, :k], (reps, 1))  # arm positions
        self.cells = (rep * n_arms)[:, None] + self.cols  # in the batch's congestion counts
        self.index = np.arange(self.flat.size)
        self.mix = np.tile(mix, reps)[:, None] if mix.any() else 0.0
        self.full = np.tile(full, reps)
        self.any_full = bool(self.full.any())
        self.load(state)

    def load(self, state) -> None:
        self.scores = state.scores[self.rows, self.cols]

    def store(self, state) -> None:
        state.scores[self.rows, self.cols] = self.scores

    def rows_of(self, stacked: np.ndarray, rounds) -> np.ndarray:  # [rep, round, agent] -> [round, row]
        part = stacked[:, rounds, self.agents]
        return part.swapaxes(0, 1).reshape(part.shape[1], -1)

    def stacked(self, rows: np.ndarray) -> np.ndarray:  # [round, row, ...] -> [rep, round, agent, ...]
        return rows.reshape(rows.shape[0], -1, self.agents.size, *rows.shape[2:]).swapaxes(0, 1)

    def block(self, stack, rounds) -> SimpleNamespace:
        """Per-round inputs and outputs of the group over one block of rounds."""

        def per_slot(values):  # [round, row] -> [round, row, slot]
            return np.repeat(values[:, :, None], self.k, axis=2)

        active = self.rows_of(stack.active, rounds)
        shape = active.shape
        return SimpleNamespace(
            active=active,
            everyone=active.all(axis=1).tolist(),
            zeta=per_slot(np.where(active, self.rows_of(stack.zeta, rounds), 1.0)),
            eta=per_slot(np.where(active, self.rows_of(stack.eta, rounds), 0.0)),
            gamma=np.where(active, self.rows_of(stack.gamma, rounds), 1.0),
            u=per_slot(self.rows_of(stack.uniforms, rounds)),
            slot=np.zeros(shape, dtype=np.int64),
            probs=np.empty(shape + (self.k,)),
            estimates=np.empty(shape + (self.k,)),
        )


def _fill(env, stack, inputs, lo, hi, groups, blocks) -> None:
    """Fill rounds [lo, hi] of every trace of the batch from the block outputs.

    ``inputs`` holds the cost ingredients [replication, round, agent, slot];
    ``env`` is any replication's Environment.
    """
    rounds = slice(lo, hi + 1)
    active = stack.active[:, rounds]  # [replication, round, agent]
    slots = np.zeros(active.shape, dtype=np.int64)
    for g, b in zip(groups, blocks):
        slots[:, :, g.agents] = g.stacked(b.slot)
        idle = ~b.active[:, :, None]
        stack.probs[:, rounds, g.agents, : g.k] = g.stacked(np.where(idle, np.nan, b.probs))
        stack.estimates[:, rounds, g.agents, : g.k] = g.stacked(np.where(idle, np.nan, b.estimates))
    pos = env.slot_pos[env.epoch_index(lo)]
    chosen = stack.chosen[:, rounds]
    chosen[...] = np.where(active, np.asarray(env.arm_ids)[pos[np.arange(pos.shape[0]), slots]], -1)
    vec = env.cost_vectors(inputs, env.congestion(lo, chosen, active))
    stack.cf_norm[:, rounds, :, : pos.shape[1]] = vec["normalized"]
    stack.cf_raw[:, rounds, :, : pos.shape[1]] = vec["realized"]
    at = {key: np.take_along_axis(v, slots[..., None], -1)[..., 0] for key, v in vec.items()}
    stack.congestion[:, rounds] = np.where(active, at["congestion"], 0)
    for column, key in (("cost_a", "adversary"), ("cost_c", "collision"), ("outlier", "outlier"),
                        ("cost_real", "realized"), ("cost_norm", "normalized")):
        getattr(stack, column)[:, rounds] = np.where(active, at[key], np.nan)


# ---------------------------------------------------------------------------
# trace files: raw columns, and their text form
# ---------------------------------------------------------------------------

_TRACE_MAGIC = b"# fogbandit-trace v3\n"
_TEXT_MAGIC = "# fogbandit-trace v2\n"


def _header(trace: GameTrace) -> str:
    header = {"config": trace.config.to_dict(), "run_id": trace.run_id,
              "config_sha256": trace.config.digest()}
    return "# " + json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"


def write_trace(trace: GameTrace, path) -> None:
    """The magic line, a JSON header line, then every column's raw bytes.

    The header holds ``GameConfig.to_dict()``, the run id and the config
    digest.  The columns follow in ``_COLUMNS`` order with their explicit
    little-endian dtypes, C order, shaped [horizon + 1, agents] or, for the
    last four, [horizon + 1, agents, largest candidate set].
    """
    with open(path, "wb") as fh:
        fh.write(_TRACE_MAGIC + _header(trace).encode())
        for name, dtype, _ in _COLUMNS:
            fh.write(np.ascontiguousarray(getattr(trace, name), dtype=dtype))


def read_trace(path) -> GameTrace:
    """Read a trace file's columns straight into a fresh GameTrace's arrays."""
    with open(path, "rb") as fh:
        if fh.readline() != _TRACE_MAGIC:
            raise ValueError(f"{path}: not a fogbandit trace (bad magic line)")
        try:
            header = json.loads(fh.readline().removeprefix(b"# "))
            trace = GameTrace(parse_game(header["config"]), header.get("run_id", 0))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: damaged trace header: {exc}") from None
        columns = [getattr(trace, name) for name, _, _ in _COLUMNS]
        size = os.fstat(fh.fileno()).st_size
        expected = fh.tell() + sum(col.nbytes for col in columns)
        if size != expected:
            raise ValueError(
                f"{path}: damaged trace: {size} bytes where the header and columns take {expected}"
            )
        for col in columns:
            fh.readinto(memoryview(col).cast("B"))
    return trace


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_vec(row: np.ndarray, k: int) -> str:
    return ",".join(_fmt(v) for v in row[:k])


def format_trace(trace: GameTrace, fh) -> None:
    """Write the trace as text: one agent-round per line, full-precision floats.

    The magic line ``# fogbandit-trace v2`` and the header line come first.
    Columns: round agent active clock zeta task_size eta gamma chosen
    congestion cost_a cost_c outlier cost_real cost_norm probs estimates
    cf_norm cf_raw -- the last four comma-joined over the round's candidate
    set.  Inactive agent-rounds carry "-" placeholders.
    """
    fh.write(_TEXT_MAGIC + _header(trace))
    for lo, hi, sets in trace.epochs():
        sizes = [len(arms) for arms in sets]
        for rnd in range(lo, hi + 1):
            for n, k in enumerate(sizes):
                if not trace.active[rnd, n]:
                    fh.write(f"{rnd} {n} 0 {trace.clock[rnd, n]}" + " -" * 15 + "\n")
                    continue
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
