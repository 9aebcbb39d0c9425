import dataclasses
import filecmp
import tracemalloc

import numpy as np
import pytest

from fogbandit import bandit, game, traces
from fogbandit.bandit import LearnerParams
from fogbandit.cli import bundled_config, run_batch
from fogbandit.configio import BASELINES, TaskSizeLaw, load_config
from fogbandit.env import ConfigError, Environment, ProtocolError
from fogbandit.game import iter_games, read_trace, run_game, run_games, write_trace
from fogbandit.metrics import agent_segments, regret_series

from conftest import physical_config, synthetic_config
from reference_impls import ref_cost_entry, ref_run_game


def counterfactual_cost(trace, rnd: int, agent: int, alt_arm: int) -> float:
    """Normalized cost had the agent switched to alt_arm, others fixed."""
    if not trace.active[rnd, agent]:
        raise ProtocolError(f"agent {agent} was inactive at round {rnd}")
    arms = trace.candidate_set(rnd, agent)
    if alt_arm not in arms:
        raise ProtocolError(f"arm {alt_arm} not in agent {agent}'s candidate set at round {rnd}")
    return float(trace.cf_norm[rnd, agent, arms.index(alt_arm)])


def test_degenerate_single_agent_single_arm():
    cfg = synthetic_config({1: 0.4}, num_agents=1, horizon=10)
    trace = run_game(cfg, 0)
    assert (trace.chosen[1:, 0] == 1).all()
    np.testing.assert_array_equal(trace.probs[1:, 0, 0], np.ones(10))


def test_trace_matches_independent_reference_loop():
    cfg = synthetic_config({1: 0.25, 2: 0.55}, num_agents=2, horizon=50, master_seed=21)
    trace = run_game(cfg, run_id=2)
    ref = ref_run_game(cfg, run_id=2)
    for rnd in range(1, 51):
        for n in range(2):
            assert int(trace.chosen[rnd, n]) == ref["chosen"][rnd - 1][n]
            np.testing.assert_allclose(
                trace.probs[rnd, n, :2], ref["probs"][rnd - 1][n], rtol=1e-10
            )
            assert trace.cost_norm[rnd, n] == pytest.approx(
                ref["norm"][rnd - 1][n], rel=1e-10
            )


def test_trace_reference_loop_physical():
    cfg = physical_config(horizon=25, num_agents=2, master_seed=33)
    trace = run_game(cfg, run_id=1)
    ref = ref_run_game(cfg, run_id=1)
    for rnd in range(1, 26):
        for n in range(2):
            assert int(trace.chosen[rnd, n]) == ref["chosen"][rnd - 1][n]
            assert trace.cost_norm[rnd, n] == pytest.approx(
                ref["norm"][rnd - 1][n], rel=1e-10
            )


def _roundtrip_worker(args):
    config, run_id, path = args
    write_trace(run_game(config, run_id), path)
    return path


def test_determinism_across_processes(tmp_path):
    cfg = physical_config(horizon=60, num_agents=3, freqs_ghz=(6.0, 1.5, 4.0))
    paths = run_batch(
        _roundtrip_worker,
        [(cfg, 4, tmp_path / "a.trace"), (cfg, 4, tmp_path / "b.trace")],
        workers=2,
    )
    assert filecmp.cmp(paths[0], paths[1], shallow=False)


def test_trace_file_roundtrip(tmp_path):
    cfg = synthetic_config(
        {1: 0.2, 2: 0.5, 3: 0.4},
        num_agents=2,
        horizon=40,
        epochs=((1, ((1, 2), (1, 2))), (21, ((1, 2, 3), (1, 2, 3)))),
        activation=(1.0, 0.5),
    )
    trace = run_game(cfg, 6)
    path = tmp_path / "run.trace"
    write_trace(trace, path)
    back = read_trace(path)
    assert back.config.digest() == cfg.digest()
    for name in ("active", "chosen", "clock", "congestion"):
        np.testing.assert_array_equal(getattr(trace, name), getattr(back, name))
    for name in ("probs", "estimates", "cf_norm", "cf_raw", "cost_norm", "zeta"):
        np.testing.assert_array_equal(
            np.nan_to_num(getattr(trace, name), nan=-1),
            np.nan_to_num(getattr(back, name), nan=-1),
        )
    # serialization is reproducible byte for byte
    path2 = tmp_path / "again.trace"
    write_trace(back, path2)
    assert filecmp.cmp(path, path2, shallow=False)


def test_activation_clock_counts_active_rounds():
    cfg = synthetic_config(
        {1: 0.3, 2: 0.5}, num_agents=2, horizon=200, activation=(0.5, 1.0), master_seed=13
    )
    trace = run_game(cfg, 0)
    for n in range(2):
        assert np.array_equal(
            trace.clock[1:, n], np.cumsum(trace.active[1:, n]).astype(np.int64)
        )
    # an inactive agent is skipped entirely
    idle = ~trace.active[1:, 0]
    assert idle.any()
    assert np.isnan(trace.cost_norm[1:, 0][idle]).all()
    assert (trace.chosen[1:, 0][idle] == -1).all()


def test_congestion_conservation_per_round():
    cfg = synthetic_config(
        {1: 0.3, 2: 0.5}, num_agents=3, horizon=100, activation=(0.8, 0.8, 0.8)
    )
    trace = run_game(cfg, 1)
    for rnd in range(1, 101):
        active = [n for n in range(3) if trace.active[rnd, n]]
        counts = {}
        for n in active:
            counts[int(trace.chosen[rnd, n])] = counts.get(int(trace.chosen[rnd, n]), 0) + 1
        assert sum(counts.values()) == len(active)
        for n in active:
            assert trace.congestion[rnd, n] == counts[int(trace.chosen[rnd, n])]


def test_counterfactual_identity_at_realized_arm():
    cfg = physical_config(horizon=50, num_agents=3, freqs_ghz=(6.0, 4.0, 1.5))
    trace = run_game(cfg, 2)
    for rnd in range(1, 51):
        for n in range(3):
            arm = int(trace.chosen[rnd, n])
            assert counterfactual_cost(trace, rnd, n, arm) == trace.cost_norm[rnd, n]


def test_counterfactual_matrix_against_resimulation():
    cfg = synthetic_config(
        {1: 0.25, 2: 0.5}, num_agents=2, horizon=10,
        learner=LearnerParams(schedule_a=4.0),
    )
    trace = run_game(cfg, 3)
    env = Environment(cfg, 3)
    for rnd in range(1, 11):
        others = {n: int(trace.chosen[rnd, n]) for n in range(2)}
        for n in range(2):
            for alt in (1, 2):
                c = 1 + sum(
                    1 for u, a in others.items() if u != n and a == alt
                )
                expect = ref_cost_entry(env, rnd, n, alt, c)["norm"]
                assert counterfactual_cost(trace, rnd, n, alt) == pytest.approx(
                    expect, rel=1e-12
                )


def test_counterfactual_congestion_rises_when_joining_crowd():
    cfg = synthetic_config({1: 0.3, 2: 0.4}, num_agents=3, horizon=220, master_seed=17)
    trace = run_game(cfg, 0)
    env = Environment(cfg, 0)
    seen = False
    for rnd in range(1, 221):
        chosen = [int(trace.chosen[rnd, n]) for n in range(3)]
        for n in range(3):
            other = [a for u, a in enumerate(chosen) if u != n]
            alt = 1 if chosen[n] != 1 else 2
            if other.count(alt) == 2:
                expect = ref_cost_entry(env, rnd, n, alt, 3)["norm"]
                assert counterfactual_cost(trace, rnd, n, alt) == pytest.approx(expect, rel=1e-12)
                seen = True
    assert seen, "instance never produced a 2-agent crowd to join"


def test_counterfactual_rejects_foreign_arm():
    cfg = synthetic_config(
        {1: 0.3, 2: 0.4}, num_agents=1, horizon=5,
        learner=LearnerParams(schedule_a=4.0),
    )
    trace = run_game(cfg, 0)
    with pytest.raises(ProtocolError):
        counterfactual_cost(trace, 1, 0, 9)


def test_epoch_structure_of_volatile_runs():
    cfg = synthetic_config(
        {1: 0.2, 2: 0.4, 3: 0.5, 4: 0.6},
        num_agents=3,
        horizon=90,
        epochs=(
            (1, ((1, 2), (1, 2), (1, 2))),
            (31, ((1, 2, 3), (1, 2, 3), (1, 2, 3))),
            (61, ((1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4))),
        ),
    )
    trace = run_game(cfg, 0)
    assert trace.candidate_set(30, 0) == (1, 2)
    assert trace.candidate_set(31, 0) == (1, 2, 3)
    assert trace.candidate_set(61, 2) == (1, 2, 3, 4)
    # 3 agents x 90 rounds, all active
    assert int(trace.active[1:].sum()) == 270


def test_config_validation_rejects_bad_ratio_and_short_horizon():
    with pytest.raises(ConfigError, match="0.5"):
        synthetic_config({1: 0.3, 2: 0.4}, learner=LearnerParams(gamma_ratio=0.6)).validate()
    with pytest.raises(ConfigError, match="exploration rate"):
        synthetic_config({1: 0.3, 2: 0.4}, horizon=8).validate()


def test_truncnorm_task_sizes_respect_bounds():
    cfg = synthetic_config(
        {1: 0.3, 2: 0.4},
        num_agents=2,
        horizon=300,
        task=TaskSizeLaw(law="truncnorm", q_lo=0.2e6, q_hi=1.0e6),
    )
    trace = run_game(cfg, 0)
    sizes = trace.task_size[1:][trace.active[1:]]
    assert (sizes >= 0.2e6).all() and (sizes <= 1.0e6).all()
    assert (trace.zeta[1:][trace.active[1:]] >= 1.0).all()
    assert (trace.zeta[1:][trace.active[1:]] <= 2.0).all()


def test_full_feedback_updates_every_arm():
    cfg = synthetic_config(
        {1: 0.3, 2: 0.4},
        num_agents=1,
        horizon=30,
        learner=LearnerParams(feedback="full", use_demand_weight=False),
    )
    trace = run_game(cfg, 0)
    est = trace.estimates[1:, 0, :2]
    assert (est > 0).all()  # both arms receive their realized cost
    np.testing.assert_allclose(est, trace.cf_norm[1:, 0, :2], rtol=0, atol=0)


def test_loop_rejects_a_cost_outside_the_unit_interval(monkeypatch):
    cost_vectors = Environment.cost_vectors

    def overpriced(self, inputs, degrees):
        out = cost_vectors(self, inputs, degrees)
        out["normalized"] = np.where(np.isnan(out["normalized"]), np.nan, 1.5)
        return out

    monkeypatch.setattr(Environment, "cost_vectors", overpriced)
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        run_game(synthetic_config({1: 0.3, 2: 0.4}, horizon=40), 0)


def _two_variants(config):
    """The bundled config's first two variants; a one-variant config gets its full-feedback form."""
    spec = load_config(bundled_config(config))
    configs = [spec.game_for(v) for v in spec.variants[:2]]
    full = BASELINES["full-feedback"]
    return configs + [dataclasses.replace(configs[0], learners=tuple(
        dataclasses.replace(lp, **full) for lp in configs[0].learners))][: 2 - len(configs)]


def _ragged():
    """Agent 0 keeps its set across the first boundary, agent 1 keeps it across the second."""
    return [synthetic_config(
        {1: 0.3, 2: 0.5, 3: 0.4}, num_agents=2, horizon=120, activation=(0.7, 0.9),
        epochs=((1, ((1, 2), (1, 3))), (41, ((1, 2), (1, 2, 3))), (81, ((2, 3), (1, 2, 3)))),
        learners=(LearnerParams(), LearnerParams(feedback="full")),
    )]


@pytest.mark.parametrize("configs", [
    *(pytest.param(name, id=name) for name in
      ("acceptance-small", "paper-fig2", "paper-fig3", "paper-fig4", "paper-fig5")),
    pytest.param(None, id="ragged"),
])
def test_best_arm_sums_equal_the_counterfactual_table(configs, monkeypatch):
    # an unkept game's cf_best is, bit for bit, the least per-slot running
    # sum regret_series took from cf_norm over each agent's segment, for
    # blocks of one round, of the default size and of a whole epoch
    configs = _ragged() if configs is None else _two_variants(configs)
    if len(configs) == 1:
        segments = [agent_segments(run_game(configs[0]), n) for n in range(2)]
        assert segments == [[(1, 80), (81, 120)], [(1, 40), (41, 120)]]
    full = run_games(configs, [0, 1])
    for cells in (1, 2**15, 2**40):
        monkeypatch.setattr(game, "_BLOCK_CELLS", cells)
        for ours, theirs in zip(run_games(configs, [0, 1], keep=set()), full):
            assert not hasattr(ours, "cf_norm")
            for n in range(ours.num_agents):
                for lo, hi in agent_segments(theirs, n):
                    k = len(theirs.candidate_set(lo, n))
                    act = theirs.active[lo : hi + 1, n]
                    sums = np.where(act[:, None], np.nan_to_num(theirs.cf_norm[lo : hi + 1, n, :k]), 0.0)
                    best = sums.cumsum(axis=0).min(axis=1)
                    assert best.tobytes() == ours.cf_best[lo : hi + 1, n].tobytes(), (cells, n, lo)
                assert regret_series(ours, n).normalized.tobytes() == regret_series(theirs, n).normalized.tobytes()


def test_unkept_game_stacks_no_counterfactual_table(monkeypatch):
    # with small blocks, whose working memory the block bound caps whatever
    # the horizon, a game nobody keeps peaks below its [round, agent, slot]
    # cf_norm table: it stacks [round, agent] columns only
    monkeypatch.setattr(game, "_BLOCK_CELLS", 2**10)
    cfg = synthetic_config({k: 0.2 + 0.03 * k for k in range(1, 21)}, num_agents=2, horizon=3000)
    envs = [Environment(cfg, 0)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        [trace] = [trace for _, _, trace in iter_games(cfg, [0], envs, keep=set())]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3001 * 2 * 20 * 8
    assert trace.cf_best.shape == (3001, 2)


@pytest.mark.parametrize("num_agents, horizon, epochs, runs, blocks, spans", [
    # wide-traces' batch: 6 agents on 8 then 12 arms, 6 run ids; the per-game
    # arrays give 56- and 37-round blocks, and the table is taken 16 and 10
    # rounds at a time
    (6, 1000, ((1, tuple(range(1, 9))), (501, tuple(range(1, 13)))), 6, 9 + 14, (16, 10)),
    # stress-shaped: one round's table of 50 agents on 20 arms (51,000 cells)
    # exceeds the bound, so it is taken a round at a time in 16-round blocks
    (50, 40, ((1, tuple(range(1, 21))),), 1, 3, (1,)),
])
def test_the_per_game_arrays_size_a_block(monkeypatch, num_agents, horizon, epochs, runs, blocks, spans):
    # a block's length is set by its per-game arrays (game x round x agent x
    # slot, twice over), and its cost table over every congestion degree is
    # taken a span of rounds at a time; the table holds at most _BLOCK_CELLS
    # cells unless one round of it is larger
    cfg = synthetic_config({k: 0.1 + 0.04 * k for k in range(1, 21)}, num_agents=num_agents, horizon=horizon,
                           epochs=tuple((start, (arms,) * num_agents) for start, arms in epochs),
                           activation=(0.8,) * num_agents)
    fills, tables = [], []  # each block's (first, last) round; each table's (cells per round, rounds)
    fill, cost_vectors = game._fill, Environment.cost_vectors

    def counted_fill(env, stack, inputs, lo, hi, *rest):
        fills.append((lo, hi))
        return fill(env, stack, inputs, lo, hi, *rest)

    def counted_cost_vectors(self, inputs, congestion):
        if np.ndim(congestion) == 1:  # a table over every congestion degree
            rounds = inputs.adversary.shape[0]
            tables.append((inputs.adversary.size // rounds * len(congestion), rounds))
        return cost_vectors(self, inputs, congestion)

    monkeypatch.setattr(game, "_fill", counted_fill)
    monkeypatch.setattr(Environment, "cost_vectors", counted_cost_vectors)
    run_games(cfg, list(range(runs)))
    assert len(fills) == blocks
    for (start, arms), end in zip(epochs, [start for start, _ in epochs[1:]] + [horizon + 1]):
        block = game._BLOCK_CELLS // (2 * runs * num_agents * len(arms))
        assert [(lo, hi) for lo, hi in fills if start <= lo < end] == [
            (lo, min(lo + block - 1, end - 1)) for lo in range(start, end, block)]
    for (_, arms), span in zip(epochs, spans):
        per_round = runs * (num_agents + 1) * num_agents * len(arms)
        assert max(rounds for cells, rounds in tables if cells == per_round) == span
        assert per_round * span <= max(game._BLOCK_CELLS, per_round)


# three column sets that together hold every column but ``active``, and ``cf_best``
_COLUMN_SETS = (
    ("cost_norm",),
    ("chosen", "zeta", "probs", "cf_norm", "cf_best"),
    ("clock", "task_size", "congestion", "eta", "gamma", "cost_a", "cost_c", "outlier", "cost_real",
     "estimates", "cf_raw"),
)


@pytest.mark.parametrize("config", ("acceptance-small", "paper-fig2", "paper-fig3", "paper-fig4",
                                    "paper-fig5"))
def test_games_not_kept_hold_the_requested_columns_bit_for_bit(config, tmp_path):
    # each requested column is, byte for byte, the whole trace's, and any
    # other column is missing, to write_trace too
    configs = _two_variants(config)
    whole = run_games(configs, [0, 1])
    for columns in _COLUMN_SETS:
        for ours, theirs in zip(run_games(configs, [0, 1], keep=set(), columns=columns), whole):
            for name, _, _ in game._COLUMNS:
                if name == "active" or name in columns:
                    assert getattr(ours, name).tobytes() == getattr(theirs, name).tobytes(), (columns, name)
                else:
                    with pytest.raises(AttributeError):
                        getattr(ours, name)
            assert hasattr(ours, "cf_best") == ("cf_best" in columns)
            lacking = next(name for name, _, _ in traces._STORED[1:] if name not in columns)
            with pytest.raises(AttributeError, match=f"trace has no column '{lacking}'"):
                write_trace(ours, tmp_path / "t.trace")


@pytest.mark.parametrize("config", [
    *(pytest.param(name, id=name) for name in
      ("acceptance-small", "paper-fig2", "paper-fig3", "paper-fig4", "paper-fig5")),
    pytest.param(None, id="ragged"),
])
def test_game_bytes_are_what_each_game_stacks(config):
    # a kept game holds its trace file's sections and the requested columns,
    # any other game the requested ones; the plan weighs each at those bytes,
    # a kept game's sections as if every agent-round were active (batches are
    # planned before activations are drawn), as they are at activation 1
    configs = _ragged() * 2 if config is None else _two_variants(config)
    keep = {(0, 0), (1, 1)}
    for columns in (game._METRIC, _COLUMN_SETS[1]):
        weights = game._game_bytes(configs, [0, 1], keep, columns)
        for g, trace in enumerate(run_games(configs, [0, 1], keep=keep, columns=columns)):
            v, i = divmod(g, 2)
            stacked = sum(values.nbytes for name, values in vars(trace).items()
                          if isinstance(values, np.ndarray) and name not in game._SHARED)
            sections = sum(values.nbytes for values in (trace.sections or {}).values())
            held, every = (traces._body_bytes(*traces._extent(trace.config, active), game._SECTIONS)
                           for active in (trace.active, np.ones_like(trace.active)))
            kept = (v, i) in keep
            assert (trace.sections is not None) == kept
            assert sections == kept * held
            assert stacked + kept * every == weights[i][v], (columns, v, i)
            assert (held == every) == (config is not None)  # the ragged game idles in some agent-rounds


def test_the_block_check_reads_every_piece_of_a_block(monkeypatch):
    # the check takes a block's active agent-rounds a few at a time: an
    # estimate the loop used only in the game's last round, which lies in
    # the last piece of the one block, is refused too
    config = synthetic_config({1: 0.3, 2: 0.5, 3: 0.4}, num_agents=3, horizon=60)
    monkeypatch.setattr(game, "_CHECK_CELLS", 2)
    steps, update = [], bandit.update_scores

    def nudged(scores, estimates, eta):
        steps.append(None)
        if len(steps) == config.horizon:  # one group of agents: one step per round
            np.nextafter(estimates, 1.0, out=estimates)
        update(scores, estimates, eta)
    monkeypatch.setattr(bandit, "update_scores", nudged)
    with pytest.raises(ValueError, match="estimates holds a value other than"):
        run_game(config, 0)
    assert len(steps) == config.horizon


def test_an_unknown_column_is_rejected():
    with pytest.raises(ValueError, match="no trace column cost"):
        run_games(synthetic_config({1: 0.3, 2: 0.4}, horizon=40), [0], keep=set(), columns=("cost",))
