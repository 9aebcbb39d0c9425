"""Repeated-game orchestration.

Runs the round loop: candidate-set evolution, Bernoulli activations,
simultaneous arm commitment, environment resolution, and feedback delivery.
Each round is one array step over all agents; costs come from the
environment a block of rounds at a time.  Produces a GameTrace (see
``traces``) carrying every per-round quantity plus the ground truth needed
to recompute counterfactual costs exactly (same fades, same outlier draws,
congestion re-counted for the switched arm).
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np

from . import bandit
from .configio import GameConfig
from .env import CostInputs, Environment
from .metrics import running_best_sums
from .streams import stream_rng
from .traces import (_COLUMNS, _DERIVED, _PER_SLOT, GameTrace, _clock, _kmax, _left_out, _params, _rules,
                     _same_bits, _Sink, _stacked, _TempFile)
# the trace-file API, kept under this module's name too
from .traces import format_trace, read_trace, write_trace  # noqa: F401


# Every variant of a run id shares the columns drawn before play.  Every game
# stacks the columns its caller asks for (see ``run_games``), and a kept game
# streams what its trace file holds into the file as it plays.  By default
# the caller asks for ``_METRIC``: ``cost_norm``, which
# ``metrics.social_cost_series``, ``pota_series`` and ``regret_series`` read,
# and the [round, agent] series ``cf_best`` that ``regret_series`` reads in
# place of ``cf_norm``.
_SHARED = ("active", "clock", "task_size")
_OWN = tuple(name for name, _, _ in _COLUMNS if name not in _SHARED)
_METRIC = ("cost_norm", "cf_best")


def _bytes(config: GameConfig, names) -> int:
    """Bytes of one trace's named columns, ``cf_best`` among them if named."""
    kmax = _kmax(config)
    per_cell = 8 * ("cf_best" in names) + sum(np.dtype(dtype).itemsize * (kmax if name in _PER_SLOT else 1)
                                              for name, dtype, _ in _COLUMNS if name in names)
    return (config.horizon + 1) * config.num_agents * per_cell


# A block of rounds holds at most half this many cells of game x round x
# agent x candidate slot in each of the groups' per-round arrays and of its
# fill's costs, which are several at once: they set the block's length.  Its
# table of normalized costs, run id x round x agent x candidate slot x
# congestion degree, is taken a span of rounds at a time within the block and
# holds at most this many cells.  That bounds the round loop's working memory
# whatever the horizon and batch (unless one round exceeds the bound).
_BLOCK_CELLS = 2**15
# Trace columns and ``cf_best`` a batch of games stacks: ``batches`` gives
# each of the batches played at once (one per worker) its share, and a run id
# over its share plays alone in batches of up to the whole bound (see
# ``iter_games``).  A kept game stacks what any other game stacks, as its
# trace file goes to its sink block by block.  The rest of what a batch holds
# grows with a block's rounds, not the horizon, and is not counted here: the
# learners' rates and demand weights, the selection uniforms, each
# Environment's per-round draws, and the block's cost table, fill, check and
# packed values.  At 10 MiB, one process plays the 6 run ids of a fully
# written 6-agent, 12-arm, 1000-round game in one batch, 30 acceptance-small
# run ids, and 4 variants of a 1500-round paper-fig2 game on 4 run ids.
_BATCH_BYTES = 10 * 2**20
# Active agent-rounds of a group that a block's check of the kept games
# takes at a time (see ``_check``).  A piece's gathers and rules are about
# ten [piece, slot] arrays, under half a MiB at 12 slots.
_CHECK_CELLS = 2**9


def _variants(configs) -> list[GameConfig]:
    return [configs] if isinstance(configs, GameConfig) else list(configs)


def _game_bytes(config: GameConfig, columns) -> int:
    """Bytes each game stacks beyond its run id's shared columns: its
    requested ``columns``, kept or not (a kept game holds no section of its
    trace file; they are in its sink)."""
    return _bytes(config, set(columns).difference(_SHARED))


def _cuts(count, weight, bound, most=None) -> list[range]:
    """``range(count)`` cut into contiguous runs of items that each weigh
    ``weight``: a run holds as many as ``bound`` takes, at most ``most``
    and at least one (items of zero weight all fit while ``bound`` >= 0)."""
    fit = bound // weight if weight else (count if bound >= 0 else 1)
    size = max(1, min(fit, most or count))
    return [range(lo, min(lo + size, count)) for lo in range(0, count, size)]


def batches(configs, run_ids, parts: int = 1, columns=_METRIC) -> list[list[int]]:
    """``run_ids`` cut into contiguous batches for ``run_games``, in order.

    ``configs`` and ``columns`` are as in ``run_games``: a batch plays every
    config on its run ids.  A batch holds about ``len(run_ids) / parts`` ids
    (say, one batch per worker), and the ``parts`` batches that play at once
    share ``_BATCH_BYTES``: each stacks at most its part of it, counting a
    run id's shared columns and every game's requested columns, whether the
    game is kept or not.  A run id whose games alone take more is a batch of
    its own; ``run_games`` plays its variants a few at a time if they exceed
    the whole bound.
    """
    configs, ids = _variants(configs), list(run_ids)
    weight = _bytes(configs[0], _SHARED) + len(configs) * _game_bytes(configs[0], columns)
    parts = max(parts, 1)
    return [[ids[i] for i in cut] for cut in _cuts(len(ids), weight, _BATCH_BYTES // parts, -(-len(ids) // parts))]


def run_game(config: GameConfig, run_id: int = 0) -> GameTrace:
    """Play the configured game once; deterministic in (config, run_id).

    The game is kept and asks for no column: it streams its trace file into
    a sink, from which its trace unpacks or derives every column but
    ``active`` when first read.
    """
    return run_games(config, [run_id], columns=())[0]


def run_games(configs, run_ids, envs=None, keep=None, columns=_METRIC) -> list[GameTrace]:
    """Play every (config, run id) game once; the traces config-major.

    ``configs`` is one GameConfig or a sequence of configs that differ only
    in ``learners`` (the variants of an experiment).  Games never interact,
    so a batch of them (see ``batches``) is played in lockstep: each (game,
    agent) pair is one row of a single learner state, each round is one
    array step over the rows, and each block of rounds takes its costs and
    fills the traces in one step over the batch.  Each run id's
    Environment, activations, clocks, task sizes, selection uniforms and
    cost table serve every variant; each game counts its own congestion.
    Every trace is byte-identical to the one its (config, run id) gives
    alone.

    ``envs``, when given, holds each run id's Environment or None; it may
    come from any of the configs, as an Environment does not read learners.
    ``columns`` names the trace columns every game stacks, and ``cf_best``
    for ``metrics.regret_series``; by default they are what ``run`` reads,
    ``cost_norm`` and ``cf_best``.  Each requested column holds the values
    a whole trace holds.  ``keep`` holds the (config index, run id) pairs
    whose trace files may be written; by default (None) every game's may.
    A kept game streams its trace file into a sink (an unnamed temporary
    file, see ``traces._Sink``) as it plays: each block of its rounds is
    checked and then written at its offsets in the file, so the game holds
    no more than any other.  If the loop used a value its file would not
    give back, a ValueError names the column (as ``write_trace`` does) and
    the game leaves no file.  Its trace unpacks or derives any other column
    from the sink when first read, and ``write_trace`` puts the file at a
    path.  The trace of any other game holds ``active`` and the requested
    columns only.
    """
    traces = dict(((v, i), trace) for v, i, trace in iter_games(configs, run_ids, envs, keep, columns))
    return [traces[key] for key in sorted(traces)]


def iter_games(configs, run_ids, envs=None, keep=None, columns=_METRIC):
    """``run_games`` one batch at a time: yield (config index, run id
    position, trace) as each batch ends, so a caller that reduces the traces
    as they come holds one batch's at most."""
    configs, run_ids = _variants(configs), list(run_ids)
    unknown = set(columns).difference(_SHARED, _OWN, ["cf_best"])
    if unknown:
        raise ValueError(f"no trace column {', '.join(sorted(unknown))}")
    base = configs[0]
    for config in configs:
        config.validate()
        if dataclasses.replace(config, learners=base.learners).digest() != base.digest():
            raise ValueError("the configs of one batch may differ only in learners")
    envs = [None] * len(run_ids) if envs is None else list(envs)
    if len(envs) != len(run_ids):
        raise ValueError(f"{len(envs)} environments for {len(run_ids)} run ids")
    weight = _game_bytes(base, columns)
    done = 0
    for ids in batches(configs, run_ids, columns=columns):
        at = range(done, done + len(ids))
        done += len(ids)
        batch_envs = [Environment(base, run_ids[i]) if envs[i] is None else envs[i] for i in at]
        # every variant in one batch, unless the run ids' games exceed the bound
        room = _BATCH_BYTES - len(ids) * _bytes(base, _SHARED)
        for vs in _cuts(len(configs), len(ids) * weight, room):
            kept = [keep is None or (v, run_ids[i]) in keep for v in vs for i in at]
            traces = _play([configs[v] for v in vs], ids, batch_envs, kept, columns)
            yield from ((v, i, traces[j * len(ids) + r]) for j, v in enumerate(vs) for r, i in enumerate(at))
            del traces


def _play(configs, run_ids, envs, kept, columns) -> list[GameTrace]:
    """One lockstep batch: every config on every run id; the traces config-major.

    Every game stacks ``columns``.  ``kept`` says, per game, whether its
    trace file may be written: such a game streams the file into a sink,
    which takes the header and ``active`` before play (the sinks of a batch
    share one temporary file); its loop values are checked block by block
    against what the file gives back (``_check``) and then written into the
    sink (``_pack``), and its trace unpacks or derives the rest when read.
    """
    config, runs = configs[0], len(run_ids)
    shared = _stacked(config, runs, _SHARED)
    for r, rid in enumerate(run_ids):
        _predraw(config, rid, SimpleNamespace(**{n: col[r] for n, col in shared.items()}))
    own = _stacked(config, len(kept), set(columns).intersection(_OWN))
    # every game's running best-arm sums, and the per-slot sums they continue from
    best = np.zeros(((len(kept) if "cf_best" in columns else 0),) + shared["active"].shape[1:])
    best_carry = np.zeros(best.shape[:1] + (config.num_agents, _kmax(config)))
    file = _TempFile() if any(kept) else None
    traces, kept_at = [], np.flatnonzero(kept)
    for g in range(len(kept)):
        v, r = divmod(g, runs)
        trace = {name: col[r] for name, col in shared.items() if name == "active" or name in columns}
        trace.update({name: col[g] for name, col in own.items()})
        if best.size:
            trace["cf_best"] = best[g]
        traces.append(GameTrace(configs[v], run_ids[r], trace, envs[0].cost_cap))
        if kept[g]:
            traces[-1].sections = _Sink(traces[-1], file)
    stack = SimpleNamespace(**shared, **own, runs=runs, games=len(kept), columns=set(columns),
                            kept=kept_at, sinks=[traces[g].sections for g in kept_at],
                            selection=[stream_rng(config.master_seed, rid, "selection") for rid in run_ids],
                            count=np.zeros((runs, config.num_agents), dtype=np.int64),
                            packed=np.zeros((runs, 2), dtype=np.int64), cf_best=best, best_carry=best_carry)
    # game g = variant * runs + run; row g * num_agents + n holds its agent n
    learners = [c.learners for c in configs for _ in run_ids]
    state = bandit.LearnerState.fresh(sum(learners, ()), len(envs[0].arm_ids))
    for epoch, (lo, hi) in enumerate(envs[0].epoch_bounds):
        _play_epoch(config, envs, stack, state, learners, epoch, lo, hi)
    return traces


def _predraw(config: GameConfig, run_id: int, columns) -> None:
    """Fill a run id's shared columns: ``columns`` holds its [round, agent]
    ``active``, ``clock`` and ``task_size`` arrays."""
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

    columns.active[:] = active
    np.copyto(columns.task_size, tasks, where=active)
    _clock(active, columns.clock)


def _uniforms(stack, rounds, drawn) -> np.ndarray:
    """The selection uniforms of a block of rounds, [run, round, agent].

    Each run id draws from its own ``selection`` stream one scalar per
    selection where the agent is active and ``drawn`` (it holds more than
    one arm this epoch), in row-major order: rounds in order, agents in
    order within a round.  Blocks take the rounds in order, so the draws
    are those of one draw over the whole horizon.  NaN where none is made.
    """
    drawn = stack.active[:, rounds] & drawn
    out = np.full(drawn.shape, np.nan)
    for u, here, rng in zip(out, drawn, stack.selection):
        u[here] = rng.random(int(np.count_nonzero(here)))
    return out


def _play_epoch(config, envs, stack, state, learners, epoch, lo, hi) -> None:
    """Rounds [lo, hi] of one candidate epoch for a batch, in blocks of rounds.

    ``stack`` holds the batch's stacked columns: the shared ones per run id,
    [run, round, agent], the others per game, [game, round, agent(, slot)],
    and the block's selection uniforms (see ``_uniforms``).  ``learners``
    holds each game's learners.  Agents are stepped in groups of equal
    candidate-set size, each group one array step per round over every game
    of the batch, on scores it holds for the epoch.  A group's idle agents
    are stepped too, with learning rate 0 and demand weight 1, which leaves
    their scores unchanged; their choices count toward no congestion and the
    fill drops them.

    A block takes the cost ingredients of all its rounds at once, and the
    per-game arrays (``_BLOCK_CELLS``) set its length.  Its learners look
    their costs up in a table over every congestion degree, which is taken
    from the ingredients ``span`` rounds at a time, so the table stays
    within ``_BLOCK_CELLS`` however long the block; the cost formula is
    elementwise, so any span gives the same bits.  The normalized costs a
    block's learners see are checked to lie in [0, 1] once the block is
    played, and then the block fills the traces (``_fill``).
    """
    runs, games, n_agents = len(envs), len(learners), config.num_agents
    pos = envs[0].slot_pos[epoch]  # [agent, slot], the same for every run id
    if epoch:  # an agent whose candidate set changes starts a new segment
        before, now = (config.candidates.epochs[e][1] for e in (epoch - 1, epoch))
        stack.best_carry[:, [n for n in range(n_agents) if before[n] != now[n]]] = 0.0
    sizes = (pos >= 0).sum(axis=1)
    sets = [tuple(int(a) for a in row[:k]) for row, k in zip(pos, sizes)] * games
    # a learner syncs to the epoch's sets at its first activation in it; game g
    # plays run g % runs
    active = stack.active[:, lo : hi + 1]
    syncs: dict[int, list[int]] = {}
    for r, n in np.argwhere(active.any(axis=1)).tolist():
        syncs.setdefault(lo + int(active[r, :, n].argmax()), []).extend(
            g * n_agents + n for g in range(r, games, runs)
        )
    n_arms = state.scores.shape[1]
    degrees = np.arange(n_agents + 1)
    k_max = pos.shape[1]
    block = max(1, _BLOCK_CELLS // (2 * games * n_agents * k_max))
    span = max(1, _BLOCK_CELLS // (runs * degrees.size * n_agents * k_max))  # rounds of the cost table
    groups = [_Group(k, pos, learners, state, stack, config.task_size, min(block, hi - lo + 1))
              for k in sorted(set(sizes.tolist()))]
    for b_lo in range(lo, hi + 1, block):
        b_hi = min(b_lo + block - 1, hi)
        rounds = slice(b_lo, b_hi + 1)
        # cost ingredients [run, round, agent, slot]; run ids share cost_cap
        inputs = CostInputs(*(
            None if parts[0] is None else np.stack(parts)
            for parts in zip(*(env.cost_inputs(b_lo, b_hi) for env in envs))
        ))
        stack.uniforms = _uniforms(stack, rounds, sizes > 1)
        blocks = [g.block(stack, rounds) for g in groups]
        for r, rnd in enumerate(range(b_lo, b_hi + 1)):
            if r % span == 0:  # the next span rounds' normalized costs [round, run * agent, slot, degree]
                table = envs[0].cost_vectors(CostInputs(*(
                    None if a is None else a[:, r : r + span].swapaxes(0, 1).reshape(-1, runs * n_agents, k_max, 1)
                    for a in inputs
                )), degrees)["normalized"]
            if rnd in syncs:
                for g in groups:
                    g.store(state)
                bandit.sync_candidates(state, syncs[rnd], sets)
                for g in groups:
                    g.load(state)
            cells, playing = [], []  # game * n_arms + chosen arm position
            for g, b in zip(groups, blocks):
                b.slot[r] = bandit.select_arm(g.scores, b.zeta[r], g.mix, b.u[r], b.probs[r])[0]
                cells.append(g.cells[g.index, b.slot[r]])
                playing.append(cells[-1] if b.everyone[r] else cells[-1][b.active[r]])
            counts = np.bincount(
                np.concatenate(playing) if len(playing) > 1 else playing[0],
                minlength=games * n_arms,
            )
            costs = table[r % span]
            for g, b, cell in zip(groups, blocks, cells):
                idx = b.slot[r]
                b.loss[r] = costs[g.table_rows, idx, counts[cell]]
                est = bandit.estimate_cost(b.loss[r], idx, b.probs[r], b.gamma[r], b.estimates[r])
                if g.full.size:  # the whole counterfactual vector is the estimate
                    degree = counts[g.full_cells] + (g.slots != idx[g.full, None])
                    est[g.full] = costs[g.full_rows, g.slots, degree]
                bandit.update_scores(g.scores, est, b.eta[r])
        for b in blocks:
            bandit.check_losses(b.loss)
        del table, costs  # before the fill's costs
        _fill(envs[0], stack, inputs, b_lo, b_hi, groups, blocks)
    for g in groups:
        g.store(state)


class _Group:
    """Agents of one epoch that share a candidate-set size ``k``.

    A group array has one row per (game, agent) pair of the batch,
    game-major: row ``g * agents.size + j`` is agent ``agents[j]`` of game
    g, which plays run id ``g % runs`` (games are variant-major).  Each
    row carries its own learner's parameters.  ``scores`` holds the rows'
    [row, slot] scores through the epoch; ``store`` writes them back to the
    learner state.  ``block`` derives the rows' demand weights and learning
    rates for one block of rounds from each learner and its run id's clocks
    and task sizes; an idle row steps with zeta 1, eta 0 and gamma 1.
    ``out`` holds the [round, row(, slot)] outputs of up to ``rounds``
    rounds, reused by every block of the epoch.
    """

    def __init__(self, k, pos, learners, state, stack, task_size, rounds):
        n_agents, agents = pos.shape[0], np.flatnonzero((pos >= 0).sum(axis=1) == k)
        game_runs = np.arange(len(learners)) % stack.runs
        game = np.repeat(np.arange(game_runs.size), agents.size)
        agent = np.tile(agents, game_runs.size)
        params = _params(learners[g][n] for g, n in zip(game.tolist(), agent.tolist()))  # per row
        self.k, self.agents, self.variants, self.params = k, agents, game_runs.size // stack.runs, params
        self.flat = game * n_agents + agent  # learner-state rows
        self.rows = self.flat[:, None]
        self.table_rows = game_runs[game] * n_agents + agent  # in the run ids' cost table
        self.cols = np.tile(pos[agents, :k], (game_runs.size, 1))  # arm positions
        self.cells = (game * state.scores.shape[1])[:, None] + self.cols  # in the batch's congestion counts
        self.index = np.arange(self.flat.size)
        self.mix = params.uniform_mix[:, None] if params.uniform_mix.any() else 0.0
        # the full-feedback rows, their congestion cells and cost-table rows
        self.full = np.flatnonzero(params.feedback == "full")
        self.full_cells, self.full_rows = self.cells[self.full], self.table_rows[self.full, None]
        self.slots = np.arange(k)
        self.load(state)
        self.task_size = task_size
        shape = (rounds, self.flat.size)
        self.out = SimpleNamespace(slot=np.zeros(shape, dtype=np.int64), loss=np.empty(shape),
                                   probs=np.empty(shape + (k,)), estimates=np.empty(shape + (k,)))

    def load(self, state) -> None:
        self.scores = state.scores[self.rows, self.cols]

    def store(self, state) -> None:
        state.scores[self.rows, self.cols] = self.scores

    def rows_of(self, per_run: np.ndarray, rounds) -> np.ndarray:  # [run, round, agent] -> [round, row]
        part = per_run[:, rounds, self.agents].swapaxes(0, 1)  # [round, run, agent]
        part = part.reshape(part.shape[0], -1)
        return np.tile(part, self.variants) if self.variants > 1 else part

    def stacked(self, rows: np.ndarray) -> np.ndarray:  # [round, row, ...] -> [game, round, agent, ...]
        return rows.reshape(rows.shape[0], -1, self.agents.size, *rows.shape[2:]).swapaxes(0, 1)

    def block(self, stack, rounds) -> SimpleNamespace:
        """Per-round inputs and outputs of the group over one block of rounds.

        The rows' learning rates and demand weights come from their clocks
        and task sizes in the block, and their uniforms from
        ``stack.uniforms``; ``zeta``, ``eta`` and ``u`` come as [round, row,
        1] views, which broadcast against a row's slots.  The games that
        stack ``zeta``, ``eta`` or ``gamma`` get them (NaN where idle) in
        their columns.
        """
        active, p = self.rows_of(stack.active, rounds), self.params
        rates = bandit.learning_rates(
            np.where(active, self.rows_of(stack.clock, rounds), 1), self.k, p.schedule_a, p.gamma_ratio
        )
        eta = np.where(active, rates.eta, 0.0)
        gamma = np.where(active, rates.gamma, 1.0)
        bandit.check_gamma(gamma)
        ts = self.task_size
        weight = bandit.demand_weight(self.rows_of(stack.task_size, rounds), ts.q_lo, ts.q_hi)
        zeta = np.where(active & p.use_demand_weight, weight, 1.0)
        for column, values in (("zeta", zeta), ("eta", eta), ("gamma", gamma)):
            if column in stack.columns:
                getattr(stack, column)[:, rounds, self.agents] = self.stacked(np.where(active, values, np.nan))
        return SimpleNamespace(
            active=active,
            everyone=active.all(axis=1).tolist(),
            zeta=zeta[:, :, None],
            eta=eta[:, :, None],
            gamma=gamma,
            u=self.rows_of(stack.uniforms, slice(None))[:, :, None],
            **{name: out[: active.shape[0]] for name, out in vars(self.out).items()},
        )


def _rows(values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The rows ``at`` of [game, ...] ``values``, uncopied when they are all of them."""
    return values if at.size == values.shape[0] else values[at]


def _fill(env, stack, inputs, lo, hi, groups, blocks) -> None:
    """Fill rounds [lo, hi] of the batch's columns from the block outputs.

    Each requested column is filled for every game, and ``cf_best``, if
    stacked, continued per slot from ``stack.best_carry``; then the kept
    games are checked (``_check``) and written into their sinks
    (``_pack``).  ``inputs`` holds the cost ingredients [run, round, agent,
    slot]; ``env`` is any run id's Environment.
    """
    rounds = slice(lo, hi + 1)
    active = stack.active[:, rounds]  # [run, round, agent]
    shape = (stack.games // stack.runs,) + active.shape  # [variant, run, round, agent]
    slots = np.zeros((stack.games,) + active.shape[1:], dtype=np.int64)  # [game, round, agent]
    for g, b in zip(groups, blocks):
        slots[:, :, g.agents] = g.stacked(b.slot)
        for column, values in (("probs", b.probs), ("estimates", b.estimates)):
            if column in stack.columns:
                getattr(stack, column)[:, rounds, g.agents, : g.k] = g.stacked(
                    np.where(b.active[:, :, None], values, np.nan))
    pos = env.slot_pos[env.epoch_index(lo)]
    k = pos.shape[1]
    played = np.broadcast_to(active, shape)
    chosen = np.where(played, np.asarray(env.arm_ids)[pos[np.arange(pos.shape[0]), slots.reshape(shape)]], -1)
    vec = env.cost_vectors(inputs, env.congestion(lo, chosen, played))
    chosen, played = chosen.reshape(slots.shape), played.reshape(slots.shape)
    kept, every = stack.kept, np.arange(stack.games)
    t, n = np.ogrid[: slots.shape[1], : slots.shape[2]]

    def at_chosen(values, games=every, fill=np.nan):  # at each chosen slot -> [game, round, agent]
        rows = games % stack.runs if values.ndim == len(shape) else games  # [run, ...] inputs, or per game
        picked = values.reshape((-1,) + slots.shape[1:] + (k,))[rows[:, None, None], t, n, slots[games]]
        return np.where(played[games], picked, fill)

    norm, raw = (vec[key].reshape(slots.shape + (k,)) for key in ("normalized", "realized"))  # [game, ..., slot]
    for column, key, fill in (("cost_norm", "normalized", np.nan), ("congestion", "congestion", 0),
                              ("cost_a", "adversary", np.nan), ("cost_c", "collision", np.nan),
                              ("outlier", "outlier", np.nan), ("cost_real", "realized", np.nan)):
        if column in stack.columns:
            getattr(stack, column)[:, rounds] = at_chosen(vec[key], fill=fill)
    if "chosen" in stack.columns:
        stack.chosen[:, rounds] = chosen
    if "cf_norm" in stack.columns:
        stack.cf_norm[:, rounds, :, :k] = norm
    if "cf_raw" in stack.columns:
        stack.cf_raw[:, rounds, :, :k] = raw
    if kept.size:
        own = {"chosen": _rows(chosen, kept), "cf_raw": _rows(raw, kept),
               **{column: at_chosen(vec[key], kept)
                  for column, key in (("cost_a", "adversary"), ("cost_c", "collision"), ("outlier", "outlier"))}}
        degree = at_chosen(vec["congestion"], kept, fill=0)
    del vec, raw  # the block's other costs, which neither cf_best, the check nor the sinks read
    if stack.cf_best.size:
        norm_r, played_r = norm.swapaxes(0, 1), played.swapaxes(0, 1)  # round first
        for g in groups:
            carry = stack.best_carry[:, g.agents, : g.k]
            best = running_best_sums(played_r[:, :, g.agents], norm_r[:, :, g.agents, : g.k], carry)
            stack.cf_best[:, rounds, g.agents] = best.swapaxes(0, 1)
            stack.best_carry[:, g.agents, : g.k] = carry
    if kept.size:
        _check(env, stack, lo, hi, groups, blocks, _rows(norm, kept), degree, own)
        _pack(stack, lo, hi, groups, blocks, own)


def _check(env, stack, lo, hi, groups, blocks, norm, degree, own) -> None:
    """Raise ValueError unless the kept games' loop values in rounds [lo, hi]
    are those their trace files give back, naming the first column (in
    ``_DERIVED`` order) that differs.

    The ``traces._DERIVED`` rules are applied to the block's stored values
    and compared, bit for bit at the active agent-rounds, with what the
    loop used: each run id's clocks; the congestion degrees (``degree``,
    [kept game, round, agent]) and normalized costs (``norm``, [kept game,
    round, agent, slot]) the costs were taken at; and each group's table
    costs, demand weights, rates and the estimates it updated its scores
    by.  The stored values are each run id's task sizes, each group's
    selection probabilities and, in ``own``, the kept games' chosen arms
    and realized costs, [kept game, round, agent(, slot)].
    ``stack.count`` carries the activation counts across blocks.
    """
    rounds, kept, n_agents = slice(lo, hi + 1), stack.kept, stack.active.shape[2]
    active = stack.active[:, rounds]  # [run, round, agent]
    count = stack.count[:, None] + np.cumsum(active, axis=1)
    stack.count = count[:, -1]
    clock = np.where(active.any(axis=2, keepdims=True), count, 0)
    bad = set() if _same_bits(clock, stack.clock[:, rounds]) else {"clock"}
    runs = kept % stack.runs
    # the active agents on each chosen arm, per kept game and round
    cells = np.flatnonzero(active[runs])
    ids = np.sort(env.arm_ids)
    key = cells // n_agents * ids.size + np.searchsorted(ids, own["chosen"].reshape(-1)[cells])
    if not _same_bits(np.bincount(key)[key], degree.reshape(-1)[cells]):
        bad.add("congestion")
    for g, b in zip(groups, blocks):
        rows = (kept[:, None] * g.agents.size + np.arange(g.agents.size)).reshape(-1)  # of the kept games
        found = np.nonzero(b.active[:, rows])
        for i in range(0, found[0].size, _CHECK_CELLS):
            r, q = (axis[i : i + _CHECK_CELLS] for axis in found)
            game, agent, t = q // g.agents.size, g.agents[q % g.agents.size], lo + r
            held = {"chosen": own["chosen"][game, r, agent], "clock": clock[runs[game], r, agent],
                    "task_size": stack.task_size[runs[game], t, agent], "probs": b.probs[r, rows[q]],
                    "cf_raw": own["cf_raw"][game, r, agent, : g.k]}
            rule = _rules(g.k, rows[q], g.params, np.asarray(env.arm_ids)[g.cols], held, g.task_size, env.cost_cap)
            used = {"cf_norm": norm[game, r, agent, : g.k], "cost_norm": b.loss[r, rows[q]],
                    "zeta": b.zeta[r, rows[q], 0], "eta": b.eta[r, rows[q], 0], "gamma": b.gamma[r, rows[q]],
                    "estimates": b.estimates[r, rows[q]]}
            bad.update(name for name, values in used.items() if not _same_bits(rule[name], values))
    if bad:
        name = next(name for name in _DERIVED if name in bad)
        raise ValueError(f"{name} holds a value other than {_left_out(name, None)}")


def _pack(stack, lo, hi, groups, blocks, own) -> None:
    """Write the kept games' stored values of rounds [lo, hi] into their
    sinks, each section's at the active agent-rounds past what each run
    id's earlier rounds took (``stack.packed`` carries, per run id, the
    agent-rounds and slots written so far).  ``own`` holds the kept games'
    values, [kept game, round, agent(, slot)] over the epoch's largest
    candidate set, of every section but ``task_size``, which is each run
    id's, and ``probs``: those are the groups' block outputs, NaN past each
    agent's own set."""
    rounds = slice(lo, hi + 1)
    probs = np.full(own["cf_raw"].shape, np.nan)
    for g, b in zip(groups, blocks):
        probs[:, :, g.agents, : g.k] = _rows(g.stacked(b.probs), stack.kept)
    own = {**own, "probs": probs, "task_size": stack.task_size[stack.kept % stack.runs, rounds]}
    packed = stack.packed.copy()
    at = [np.flatnonzero(here) for here in stack.active[:, rounds]]  # each run id's active agent-rounds
    for j, (game, sink) in enumerate(zip(stack.kept, stack.sinks)):
        r = game % stack.runs
        for name, values in own.items():
            i = int(name in _PER_SLOT)
            rows = values[j].reshape((-1,) + values.shape[3:])
            packed[r, i] = sink.write(name, stack.packed[r, i], np.take(rows, at[r], axis=0))
    stack.packed = packed
