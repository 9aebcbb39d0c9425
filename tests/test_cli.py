import dataclasses
import filecmp
import gc
import importlib.util
import io
import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from multiprocessing import Pool
from pathlib import Path

import numpy as np
import pytest
import yaml

from fogbandit import bandit, cli, configio, game, metrics, oracle, traces
from fogbandit.cli import bundled_config, main, oracle_dump, run_batch, run_experiment, verify
from fogbandit.configio import BASELINES, ExperimentSpec, load_config, parse_spec
from fogbandit.env import ConfigError, Environment
from fogbandit.game import (
    _COLUMNS, GameTrace, batches, format_trace, iter_games, read_trace, run_game, run_games,
)
from fogbandit.oracle import stage_games

from conftest import synthetic_config, traced_peak

MINIMAL = """
name: mini
replications: 3
master_seed: 5
metrics: [cost, pota, regret]
xi_window: 0.5
traces: all
variants:
  - name: default
game:
  num_agents: 1
  horizon: 240
  candidates:
    - {start: 1, all: [1, 2]}
  env:
    model: synthetic
    vfns:
      - {id: 1, max_cpu_freq: 1.0e+9}
      - {id: 2, max_cpu_freq: 1.0e+9}
    adversary:
      mean_range: [0.1, 0.9]
      noise_halfwidth: 0.0
      phases:
        - {start: 1, end: 240, means: {1: 0.3, 2: 0.5}}
"""


TWO_VARIANTS = [{"name": "perturbed"}, {"name": "full-feedback", "baseline": "full-feedback"}]


@pytest.fixture
def mini_path(tmp_path):
    p = tmp_path / "mini.yaml"
    p.write_text(MINIMAL)
    return p


def _with_variants(mini_path, variants, name):
    doc = yaml.safe_load(mini_path.read_text())
    doc["variants"] = variants
    path = mini_path.with_name(name)
    path.write_text(yaml.safe_dump(doc))
    return path


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _count_environments(monkeypatch) -> list:
    """The run ids of the Environments built from now on, in build order."""
    built = []
    init = Environment.__init__

    def counting_init(self, config, run_id=0):
        built.append(run_id)
        init(self, config, run_id)

    monkeypatch.setattr(Environment, "__init__", counting_init)
    return built


def _count_plays(monkeypatch) -> list:
    """The (config digest, run id) of each game ``cli`` plays from now on: each
    ``run_game`` call and each game ``iter_games`` yields."""
    played = []
    replay, batch = cli.run_game, cli.iter_games

    def counting_replay(config, run_id=0):
        played.append((config.digest(), run_id))
        return replay(config, run_id)

    def counting_batch(*args):
        for v, i, trace in batch(*args):
            played.append((trace.config.digest(), trace.run_id))
            yield v, i, trace

    monkeypatch.setattr(cli, "run_game", counting_replay)
    monkeypatch.setattr(cli, "iter_games", counting_batch)
    return played


def test_minimal_config_valid_with_defaults(mini_path):
    spec = load_config(mini_path)
    assert spec.name == "mini"
    assert spec.base.num_agents == 1
    assert spec.base.learners[0].gamma_ratio == 0.5
    assert spec.run_ids == (0, 1, 2)


def test_gamma_ratio_above_half_rejected(mini_path):
    doc = yaml.safe_load(mini_path.read_text())
    doc["game"]["learner"] = {"gamma_ratio": 0.6}
    with pytest.raises(ConfigError, match="0.5"):
        parse_spec(doc)


def test_unknown_key_strict_vs_lenient(mini_path):
    doc = yaml.safe_load(mini_path.read_text())
    doc["game"]["horizont"] = 5
    with pytest.raises(ConfigError, match="horizont"):
        parse_spec(doc, strict=True)
    parse_spec(doc, strict=False)  # lenient mode ignores it


def test_bundled_fig2_epoch_structure():
    spec = load_config(bundled_config("paper-fig2"), strict=True)
    epochs = spec.base.candidates.epochs
    assert [e[0] for e in epochs] == [1, 1001, 2001]
    assert [len(e[1][0]) for e in epochs] == [3, 5, 10]
    assert spec.base.horizon == 3000
    assert spec.base.num_agents == 3
    assert len(spec.run_ids) == 200
    assert {v.name for v in spec.variants} >= {"perturbed", "vanilla-ix"}


def test_baseline_overrides():
    assert BASELINES["vanilla-ix"]["use_demand_weight"] is False
    spec = load_config(bundled_config("paper-fig2"))
    byname = {v.name: v for v in spec.variants}
    assert byname["vanilla-ix"].learners[0].patch_mode == "reset_all"
    assert byname["full-feedback"].learners[0].feedback == "full"
    assert byname["perturbed"].learners[0].use_demand_weight is True


def test_run_experiment_idempotent(mini_path, tmp_path):
    spec = load_config(mini_path)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run_experiment(spec, out1) == 0
    assert run_experiment(spec, out2) == 0
    for rel in ("mini/default/cost.csv", "mini/default/pota.csv",
                "mini/default/regret_agent0.csv", "mini/manifest.json",
                "mini/default/traces/run_0000.trace"):
        assert filecmp.cmp(out1 / rel, out2 / rel, shallow=False), rel


def _count_pools(monkeypatch) -> list:
    """The keyword arguments of each process pool ``cli`` starts from now on."""
    pools = []

    def counting_pool(*args, **kwargs):
        pools.append(kwargs)
        return Pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    return pools


# a batch bound under which the ``_long`` configs plan several batches (a
# run id of one variant weighs 0.73 MB, of two 1.08 MB)
_LONG_BOUND = 3 * 2**20


def _long(mini_path, name, variants=None, replications=3):
    """The mini config at 2 agents and 11,000 rounds, which plans several
    batches under ``_LONG_BOUND``."""
    doc = yaml.safe_load(mini_path.read_text())
    doc["replications"] = replications
    doc["variants"] = variants or doc["variants"]
    doc["game"].update(num_agents=2, horizon=11_000)
    doc["game"]["env"]["adversary"]["phases"][0]["end"] = 11_000
    path = mini_path.with_name(name)
    path.write_text(yaml.safe_dump(doc))
    return path


def _run_trees(path, tmp_path) -> list:
    """The output trees of ``run`` with ``--workers 1`` and ``--workers 2``."""
    trees = []
    for workers in ("1", "2"):
        out = tmp_path / f"{path.stem}-w{workers}"
        assert main(["run", str(path), "--workers", workers, "--out", str(out)]) == 0
        trees.append(_tree(out))
    return trees


def test_output_tree_is_the_same_for_any_batching(mini_path, tmp_path, monkeypatch):
    # long enough that a batch holds 4 replications: 6 run ids make batches
    # of 4 + 2 with one worker and 2 + 2 + 2 with two, which share the bound;
    # the --workers 2 run plays tasks 0 and 2 itself and task 1 in one child
    monkeypatch.setattr(game, "_BATCH_BYTES", _LONG_BOUND)
    path = _long(mini_path, "long.yaml", replications=6)
    spec = load_config(path)
    assert [len(ids) for ids in batches(spec.base, spec.run_ids, 1)] == [4, 2]
    assert [len(ids) for ids in batches(spec.base, spec.run_ids, 2)] == [2, 2, 2]
    pools = _count_pools(monkeypatch)
    trees = _run_trees(path, tmp_path)
    assert pools == [{"processes": 1}]  # only the --workers 2 run, with one child
    assert len(trees[0]) == 6 + 4 + 2  # traces, CSVs, summary and manifest
    assert trees[0] == trees[1]


def test_variants_share_one_pool_and_match_single_variant_runs(mini_path, tmp_path, monkeypatch):
    # each run task plays every variant on shared Environments; the output
    # must not depend on the worker count or on which variants run together
    path = _with_variants(mini_path, TWO_VARIANTS, "two.yaml")
    pools = _count_pools(monkeypatch)
    trees = _run_trees(path, tmp_path)
    assert pools == []  # both runs fit one lockstep batch and play in-process
    assert trees[0] == trees[1]
    # a run that plans more than one batch starts one pool, not one per variant
    monkeypatch.setattr(game, "_BATCH_BYTES", _LONG_BOUND)
    long_path = _long(mini_path, "two-long.yaml", TWO_VARIANTS)
    spec = load_config(long_path)
    configs = [spec.game_for(variant) for variant in spec.variants]
    assert [len(ids) for ids in batches(configs, spec.run_ids, 1)] == [2, 1]
    long_trees = _run_trees(long_path, tmp_path)
    assert pools == [{"processes": 1}]
    assert long_trees[0] == long_trees[1]
    summary = json.loads(trees[0][Path("mini/summary.json")])
    for variant in TWO_VARIANTS:
        alone = tmp_path / variant["name"]
        one = _with_variants(mini_path, [variant], f"{variant['name']}.yaml")
        assert main(["run", str(one), "--workers", "1", "--out", str(alone)]) == 0
        mine = {rel: data for rel, data in trees[0].items() if rel.parts[1] == variant["name"]}
        assert len(mine) == 3 + 3  # traces: all, and the cost, pota and regret CSVs
        assert mine == {rel: data for rel, data in _tree(alone).items() if len(rel.parts) > 2}
        assert json.loads((alone / "mini/summary.json").read_text()) == {
            variant["name"]: summary[variant["name"]]
        }


def test_fig2_shaped_run_fits_one_batch_and_starts_no_pool(tmp_path, monkeypatch):
    # games whose traces are not written carry [round, agent] best-arm sums,
    # not the [round, agent, slot] counterfactual table, so the 16 games of
    # a 1500-round paper-fig2 run with 4 run ids and one trace written per
    # variant fit one lockstep batch, and --workers 2 plays it in-process
    doc = yaml.safe_load(bundled_config("paper-fig2").read_text())
    doc.update(replications=4, traces="first")
    doc["game"]["horizon"] = 1500
    for i, epoch in enumerate(doc["game"]["candidates"]):
        epoch["start"] = 1 + i * 500
    path = tmp_path / "fig2.yaml"
    path.write_text(yaml.safe_dump(doc))
    spec = load_config(path)
    configs = [spec.game_for(variant) for variant in spec.variants]
    assert batches(configs, spec.run_ids, 1) == [list(spec.run_ids)]
    pools = _count_pools(monkeypatch)
    trees = _run_trees(path, tmp_path)
    assert pools == []
    assert trees[0] == trees[1]


def test_run_reductions_derive_no_column_of_a_kept_trace(mini_path, tmp_path, monkeypatch):
    # run reads cost_norm and cf_best of every game, which every game stacks:
    # reading cf_norm of a kept trace would derive and cache its [round,
    # agent, slot] table
    played = []
    games = cli.iter_games

    def recording(*args):
        for item in games(*args):
            played.append(item[2])
            yield item

    monkeypatch.setattr(cli, "iter_games", recording)
    assert main(["run", str(mini_path), "--workers", "1", "--out", str(tmp_path)]) == 0
    assert len(played) == 3 and all(trace.sections is not None for trace in played)  # traces: all
    for trace in played:
        assert set(vars(trace)) & set(traces._DERIVED) == {"cost_norm"}


def _perturb(monkeypatch, column: str) -> None:
    """Make the round loop use, for ``column``, values other than those its
    ``_DERIVED`` rule gives from the stored columns, and change nothing
    else the loop checks earlier in ``_DERIVED`` order."""
    if column == "clock":
        def clock(active, out):
            traces._clock(active, out)
            out[-1] += 1
        monkeypatch.setattr(game, "_clock", clock)
    elif column == "congestion":
        degrees = Environment.congestion
        monkeypatch.setattr(Environment, "congestion", lambda env, *args: degrees(env, *args) + 1)
    elif column in ("cf_norm", "cost_norm"):  # the fill's costs, or the cost table's
        costs = Environment.cost_vectors

        def cost_vectors(env, inputs, congestion):
            out = costs(env, inputs, congestion)
            if (np.ndim(congestion) == 1) == (column == "cost_norm"):
                out["normalized"] = np.nextafter(out["normalized"], 0.5)
            return out
        monkeypatch.setattr(Environment, "cost_vectors", cost_vectors)
    elif column in ("zeta", "eta", "gamma"):
        block = game._Group.block

        def nudged(group, stack, rounds):
            b = block(group, stack, rounds)
            values = getattr(b, column)
            values[...] = np.nextafter(values, 0.0)
            return b
        monkeypatch.setattr(game._Group, "block", nudged)
    else:  # estimates
        update = bandit.update_scores

        def nudged(scores, estimates, eta):
            np.nextafter(estimates, 1.0, out=estimates)
            update(scores, estimates, eta)
        monkeypatch.setattr(bandit, "update_scores", nudged)


# cost_real has no loop value of its own: the fill takes it and cf_raw from one array
@pytest.mark.parametrize("column", [name for name in traces._DERIVED if name != "cost_real"])
def test_a_loop_value_the_trace_file_would_not_give_back_is_refused(mini_path, tmp_path, monkeypatch,
                                                                    capsys, column):
    # the kept games' loop values are checked block by block: a game that
    # used another value raises naming the column, run leaves no file of any
    # name in its traces directory, and verify fails the replay's
    # determinism and leaves nothing in the temporary directory, on one
    # process or two
    out = tmp_path / "out"
    assert main(["run", str(mini_path), "--workers", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    _perturb(monkeypatch, column)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    message = f"{column} holds a value other than {traces._DERIVED[column]}, which a trace file derives"
    spec = load_config(mini_path)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_games(spec.game_for(spec.variants[0]), [0])
    assert run_games(spec.game_for(spec.variants[0]), [0], keep=set())  # a game not kept is not checked
    for workers in ("1", "2"):
        bad = tmp_path / f"bad-w{workers}"
        assert main(["run", str(mini_path), "--workers", workers, "--out", str(bad)]) == cli.EXIT_RUNTIME
        assert message in capsys.readouterr().err
        assert [path.name for path in bad.glob("mini/*/traces")] == ["traces"]
        assert not list(bad.glob("mini/*/traces/**/*"))
        assert main(["verify", str(mini_path), "--workers", workers, "--out", str(out)]) == cli.EXIT_VERIFY
        text = capsys.readouterr().out
        for rid in spec.run_ids:
            stored = out / "mini" / "default" / "traces" / f"run_{rid:04d}.trace"
            assert f"FAIL  determinism: replay of {stored} has no trace file: {message}\n" in text
        assert not list(scratch.iterdir())


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_refused_replay_is_played_again_only_for_the_sample_checks(mini_path, tmp_path, monkeypatch, capsys,
                                                                      workers):
    # 27 run ids, every trace stored, of two variants: every replay is
    # refused, and verify plays a refused replay again, unkept, only for a
    # sampled run id (the first 25) of the first variant, stacking what the
    # sample checks read and never every column
    doc = yaml.safe_load(_with_variants(mini_path, TWO_VARIANTS, "two.yaml").read_text())
    doc["replications"] = 27
    path = tmp_path / "two-27.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    assert main(["run", str(path), "--workers", "1", "--out", str(out)]) == 0
    _perturb(monkeypatch, "estimates")
    log = tmp_path / "replays.jsonl"  # appended to by every process
    replay = cli.run_games

    def recording(configs, run_ids, **kwargs):
        with open(log, "a") as fh:
            fh.write(json.dumps([configs.digest(), list(run_ids), sorted(set(kwargs["columns"]))]) + "\n")
        return replay(configs, run_ids, **kwargs)

    monkeypatch.setattr(cli, "run_games", recording)
    capsys.readouterr()
    assert main(["verify", str(path), "--workers", workers, "--out", str(out)]) == cli.EXIT_VERIFY
    text = capsys.readouterr().out
    spec = load_config(path)
    for variant in spec.variants:
        for rid in spec.run_ids:
            stored = out / "mini" / variant.name / "traces" / f"run_{rid:04d}.trace"
            assert f"FAIL  determinism: replay of {stored} has no trace file: " in text
    assert "pota-bound" in text
    first = spec.game_for(spec.variants[0]).digest()
    columns = ["cf_norm", "chosen", "cost_norm", "eta", "probs", "zeta"]
    assert sorted(json.loads(line) for line in log.read_text().splitlines()) == [
        [first, [rid], columns] for rid in spec.run_ids[:25]]
    assert len(columns) < len(_COLUMNS)


def _wide(tmp_path) -> Path:
    """A 6-agent game on 8 -> 12 arms, 900 rounds, 6 run ids, every trace kept."""
    horizon, arms = 900, list(range(1, 13))
    doc = {
        "name": "wide", "master_seed": 20261017, "replications": 6, "metrics": ["cost"],
        "traces": "all", "variants": [{"name": "perturbed"}],
        "game": {
            "num_agents": 6, "horizon": horizon, "activation": 0.8,
            "task_size": {"law": "uniform", "q_lo": 2.0e5, "q_hi": 1.0e6},
            "candidates": [{"start": 1, "all": arms[:8]}, {"start": horizon // 2 + 1, "all": arms}],
            "env": {
                "model": "synthetic", "coupling": "sqrt",
                "vfns": [{"id": k, "max_cpu_freq": 1.0e9} for k in arms],
                "adversary": {"num_phases": 3, "mean_range": [0.1, 0.9], "noise_halfwidth": 0.05},
            },
        },
    }
    path = tmp_path / "wide.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_wide_kept_games_play_in_one_process(tmp_path, monkeypatch):
    # every trace of the wide game is kept: one process plays the 6 run ids
    # in one lockstep batch, as a kept game stacks only cost_norm, as any
    # other does, so --workers 2 starts no pool; a share of two processes
    # would hold 3 run ids each
    path = _wide(tmp_path)
    spec = load_config(path)
    assert [len(ids) for ids in batches(spec.base, spec.run_ids, 1, ("cost_norm",))] == [6]
    assert [len(ids) for ids in batches(spec.base, spec.run_ids, 2, ("cost_norm",))] == [3, 3]
    pools = _count_pools(monkeypatch)
    trees = _run_trees(path, tmp_path)
    assert pools == []
    assert len(trees[0]) == 6 + 3  # traces, cost CSV, summary and manifest
    assert trees[0] == trees[1]


def test_wide_batch_streams_its_trace_files(tmp_path):
    # the wide batch with every game kept streams each trace file into its
    # sink as it plays, so it peaks below the same batch with no game kept
    # plus one game's file body, not six
    spec = load_config(_wide(tmp_path))
    config, ids = spec.base, list(spec.run_ids)
    run_game(synthetic_config({1: 0.3, 2: 0.4}, horizon=40))  # the lazy imports of a first game
    played = []

    def play(keep):
        played.extend(trace for _, _, trace in iter_games(config, ids, None, keep, ("cost_norm",)))

    streamed = traced_peak(play, {(0, rid) for rid in ids})
    assert all(isinstance(trace.sections, traces._Sink) for trace in played)
    body = 8 * sum(count for _, _, count in traces._sizes(*traces._extent(config, played[0].active)))
    played.clear()
    unkept = traced_peak(play, set())
    assert streamed < unkept + body, (streamed, unkept, body)


@pytest.mark.parametrize("name", ["acceptance-small", "paper-fig2", "paper-fig3", "paper-fig4", "paper-fig5"])
def test_bundled_runs_split_among_their_workers(name):
    # acceptance-small's 30 run ids fit one lockstep batch, so its run plays
    # in-process; of every other bundled run no batch of the 2-way plan plays
    # a game alone (a lone run id still plays its variants together), so it
    # keeps its 2 processes
    spec = load_config(bundled_config(name))
    assert (spec.workers, spec.trace_policy, "regret" in spec.metrics) == (2, "first", True)
    configs = [spec.game_for(variant) for variant in spec.variants]
    plan, workers = cli._plan(configs, sorted(spec.run_ids), spec.workers, cli._run_columns(True))
    assert workers == (1 if name == "acceptance-small" else 2)
    assert plan == batches(configs, sorted(spec.run_ids), workers, cli._run_columns(True))


def _yaml_loaders() -> list:
    """PyYAML's pure-Python safe loader, and its C one where PyYAML ships it."""
    return [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


def test_configs_load_alike_under_both_yaml_loaders(tmp_path, monkeypatch):
    # load_config parses with the C loader where there is one; every bundled
    # config and each benchmark workload's document gives the same spec under
    # either loader
    assert configio._YAML_LOADER is _yaml_loaders()[-1]
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)  # the workloads read the bundled configs from src/
    found = importlib.util.spec_from_file_location("bench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(found)
    monkeypatch.setitem(sys.modules, found.name, workloads)
    found.loader.exec_module(workloads)
    paths = [bundled_config(name) for name in ("acceptance-small", "paper-fig2", "paper-fig3",
                                               "paper-fig4", "paper-fig5")]
    for name, workload in workloads.WORKLOADS.items():
        paths.append(tmp_path / f"{name}.yaml")
        paths[-1].write_text(yaml.safe_dump(workloads.document(workload, 0), sort_keys=False))
    specs = []
    for loader in _yaml_loaders():
        monkeypatch.setattr(configio, "_YAML_LOADER", loader)
        specs.append([load_config(path, strict=True) for path in paths])
    assert all(loaded == specs[0] for loaded in specs)


@pytest.mark.parametrize("loader", _yaml_loaders(), ids=lambda loader: loader.__name__)
def test_malformed_yaml_is_a_config_error(tmp_path, capsys, monkeypatch, loader):
    monkeypatch.setattr(configio, "_YAML_LOADER", loader)
    path = tmp_path / "broken.yaml"
    path.write_text("name: broken\ngame: {num_agents: [1, 2\n")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: YAML parse error:"), err
    assert not (tmp_path / "out").exists()


def test_run_without_regret_builds_no_best_arm_sums(mini_path, tmp_path, monkeypatch):
    # a metrics: [cost] run stacks cost_norm alone for the games whose traces
    # it does not write, and writes the tree it wrote when they stacked the
    # best-arm sums too
    mini_path.write_text(MINIMAL.replace("metrics: [cost, pota, regret]", "metrics: [cost]")
                         .replace("traces: all", "traces: first"))
    spec = load_config(mini_path)
    calls = []
    best = game.running_best_sums

    def spy(*args):
        calls.append(args)
        return best(*args)

    monkeypatch.setattr(game, "running_best_sums", spy)
    assert run_experiment(spec, tmp_path / "cost") == 0
    assert calls == []
    monkeypatch.setattr(cli, "_run_columns", lambda want_regret: game._METRIC)
    assert run_experiment(spec, tmp_path / "with-sums") == 0
    assert calls
    assert _tree(tmp_path / "cost") == _tree(tmp_path / "with-sums")


def _pid_of(task):
    if task == "boom":
        raise ValueError("boom")
    return task, os.getpid()


def test_run_batch_caller_plays_every_wth_task(monkeypatch):
    pools = _count_pools(monkeypatch)
    for workers in (2, 3):
        out = run_batch(_pid_of, list(range(7)), workers)
        assert [task for task, _ in out] == list(range(7))  # task order kept
        mine = [task for task, pid in out if pid == os.getpid()]
        assert mine == list(range(0, 7, workers))
        assert multiprocessing.active_children() == []
    assert pools == [{"processes": 1}, {"processes": 2}]
    # no more processes than tasks, and none for one task or one worker
    assert run_batch(_pid_of, [0, 1], 5)[1][1] != os.getpid()
    assert run_batch(_pid_of, [0], 3) == run_batch(_pid_of, [0], 1) == [(0, os.getpid())]
    assert pools[2:] == [{"processes": 1}]
    for bad in (0, 1, 4):  # in the caller's share, a child's, and the caller's again
        tasks = list(range(5))
        tasks[bad] = "boom"
        with pytest.raises(ValueError, match="boom"):
            run_batch(_pid_of, tasks, 2)
        assert multiprocessing.active_children() == []


def _per_variant_task(configs, run_ids) -> None:
    """``cli._run_replications`` with the variants played in turn, each with
    full traces, on Environments and stage games shared by every variant."""
    envs = [Environment(configs[0], rid) for rid in run_ids]
    games = [stage_games(env) for env in envs]
    for config in configs:
        traces = run_games(config, run_ids, envs)
        for trace, game in zip(traces, games):
            metrics.social_cost_series(trace)
            metrics.pota_series(trace, game)
            [metrics.regret_series(trace, n) for n in range(config.num_agents)]
        del traces


def test_run_task_of_four_variants_peaks_below_the_per_variant_loop(mini_path):
    # with traces: none every game keeps only the metric columns, so playing
    # all four variants at once takes less memory than playing them one after
    # another with full traces
    doc = yaml.safe_load(mini_path.read_text())
    doc.update(traces="none", variants=[{"name": "perturbed"}, {"name": "vanilla-ix", "baseline": "vanilla-ix"},
                                        {"name": "explicit", "baseline": "explicit"},
                                        {"name": "full-feedback", "baseline": "full-feedback"}])
    doc["game"].update(num_agents=2, horizon=3000)
    doc["game"]["candidates"] = [{"start": 1, "all": [1, 2]}, {"start": 1501, "all": [1, 2, 3]}]
    doc["game"]["env"]["vfns"].append({"id": 3, "max_cpu_freq": 1.0e9})
    doc["game"]["env"]["adversary"]["phases"] = [{"start": 1, "end": 3000, "means": {1: 0.3, 2: 0.5, 3: 0.4}}]
    spec = parse_spec(doc)
    configs = [spec.game_for(v) for v in spec.variants]
    run_ids = list(spec.run_ids)
    assert batches(configs, run_ids) == [run_ids]
    lockstep = traced_peak(
        cli._run_replications, (configs, run_ids, True, True, [[None] * len(run_ids) for _ in configs])
    )
    assert lockstep < traced_peak(_per_variant_task, configs, run_ids)


def test_csv_schema(mini_path, tmp_path):
    spec = load_config(mini_path)
    run_experiment(spec, tmp_path)
    lines = (tmp_path / "mini/default/cost.csv").read_text().splitlines()
    assert lines[0] == "round,mean,std,ci_lo,ci_hi"
    assert len(lines) == 241
    assert all(len(line.split(",")) == 5 for line in lines[1:])


def test_manifest_hash_tracks_config_changes(mini_path):
    spec = load_config(mini_path)
    base = spec.base
    assert base.digest() == load_config(mini_path).base.digest()
    changed = dataclasses.replace(base, master_seed=base.master_seed + 1)
    assert changed.digest() != base.digest()


def test_verify_passes_on_fresh_outputs(mini_path, tmp_path, capsys):
    spec = load_config(mini_path)
    run_experiment(spec, tmp_path)
    assert verify(spec, tmp_path) == 0
    out = capsys.readouterr().out
    assert "PASS  determinism" in out
    assert "xi-equilibrium" in out


def _games(spec, run_ids, variants=None) -> list:
    """The sorted (config digest, run id) of each variant's game of each run id."""
    return sorted((spec.game_for(variant).digest(), rid)
                  for variant in (variants or spec.variants) for rid in run_ids)


def test_verify_simulates_first_sample_once(mini_path, tmp_path, monkeypatch):
    # each stored trace's replay is its run id's sample trace, so no game plays twice
    spec = load_config(mini_path)
    run_experiment(spec, tmp_path)
    played = _count_plays(monkeypatch)
    assert verify(spec, tmp_path, workers=1) == 0
    assert sorted(played) == _games(spec, [0, 1, 2])


def test_verify_without_stored_traces_plays_each_sample_once(mini_path, tmp_path, monkeypatch):
    # with no stored trace, each sampled game plays once in the sample batch
    mini_path.write_text(MINIMAL.replace("traces: all", "traces: none"))
    spec = load_config(mini_path)
    run_experiment(spec, tmp_path)
    played = _count_plays(monkeypatch)
    assert verify(spec, tmp_path, workers=1) == 0
    assert sorted(played) == _games(spec, [0, 1, 2])


@pytest.mark.parametrize("traces", ["all", "first"])
def test_verify_replays_each_variant_once(mini_path, tmp_path, monkeypatch, traces):
    # every stored (variant, run id) game plays once, and a sampled run id
    # with no stored trace plays its first variant's game once
    path = _with_variants(mini_path, TWO_VARIANTS, "two.yaml")
    path.write_text(path.read_text().replace("traces: all", f"traces: {traces}"))
    spec = load_config(path)
    run_experiment(spec, tmp_path)
    played = _count_plays(monkeypatch)
    assert verify(spec, tmp_path, workers=1) == 0
    stored, batched = ([0, 1, 2], []) if traces == "all" else ([0], [1, 2])
    assert sorted(played) == sorted(_games(spec, stored) + _games(spec, batched, spec.variants[:1]))


def test_verify_writes_replays_outside_the_output_tree(mini_path, tmp_path, monkeypatch):
    # concurrent or interrupted verifies must not meet scratch files in <out>
    spec = load_config(mini_path)
    run_experiment(spec, tmp_path)
    out_dir = (tmp_path / spec.name).resolve()
    before = _tree(out_dir)
    written = []
    write = cli.write_trace

    def recording_write(trace, path):
        written.append(Path(path).resolve())
        write(trace, path)

    monkeypatch.setattr(cli, "write_trace", recording_write)
    assert verify(spec, tmp_path, workers=1) == 0
    assert len(written) == len(spec.run_ids)  # one replay per stored trace
    assert not [p for p in written if out_dir in p.parents]
    assert _tree(out_dir) == before


def test_stage_games_error_keeps_no_environment_alive(mini_path, tmp_path, capsys, monkeypatch):
    # verify reports a stage game it cannot enumerate as a SKIP, and no
    # Environment it builds, for the stage games or a replay, outlives it
    spec = load_config(mini_path)  # the config's pota needs enumerable games
    run_experiment(spec, tmp_path)
    built = []
    init = Environment.__init__

    def tracked_init(self, config, run_id=0):
        built.append(weakref.ref(self))
        init(self, config, run_id)

    monkeypatch.setattr(Environment, "__init__", tracked_init)
    monkeypatch.setattr(oracle, "MAX_JOINT_ACTIONS", 1)
    capsys.readouterr()
    assert verify(spec, tmp_path, workers=1) == 0
    assert "SKIP  stage-games: not enumerable: joint action space 2 too large" in capsys.readouterr().out
    gc.collect()
    assert len(built) == 4  # the stage games' and one per stored trace
    assert [ref for ref in built if ref() is not None] == []


def test_verify_missing_outputs_is_runtime_error(mini_path, tmp_path):
    spec = load_config(mini_path)
    assert verify(spec, tmp_path) == 2


SMALL_CHUNK = 7  # bytes: the replay comparison crosses many chunk boundaries


@pytest.mark.parametrize("where, chunk", [
    (lambda data: data.index(b"\n", data.index(b"\n") + 1) + 1, None),  # after the header line
    (lambda data: len(data) // 2 // SMALL_CHUNK * SMALL_CHUNK, SMALL_CHUNK),  # a chunk's first byte
    (lambda data: len(data) - 1, None),  # the last byte of the last realized counterfactual cost
], ids=["first-column-byte", "chunk-boundary", "last-byte"])
def test_verify_fails_on_corrupted_trace(mini_path, tmp_path, capsys, monkeypatch, where, chunk):
    if chunk is not None:
        monkeypatch.setattr(cli, "_COMPARE_CHUNK", chunk)
    spec = load_config(mini_path)
    run_experiment(spec, tmp_path)
    victim = tmp_path / "mini/default/traces/run_0001.trace"
    data = bytearray(victim.read_bytes())
    data[where(data)] ^= 0x01
    victim.write_bytes(bytes(data))
    assert verify(spec, tmp_path) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out and "run_0001.trace" in out


def test_verify_passes_with_a_small_comparison_chunk(mini_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_COMPARE_CHUNK", SMALL_CHUNK)
    spec = load_config(mini_path)
    run_experiment(spec, tmp_path)
    assert verify(spec, tmp_path) == 0
    assert "PASS  determinism" in capsys.readouterr().out


class _ReplaysDone(Exception):
    pass


def test_verify_replays_hold_one_trace_at_a_time(mini_path, tmp_path, monkeypatch):
    # of each stored trace only the config and run id outlive the read, the
    # replay and stored files are compared a chunk at a time, and each replay
    # is dropped (a sample trace once reduced): each replay peaks below two
    # traces' column bytes above the memory at its start, and the loop
    # leaves less than 1.5 traces behind.  Small blocks of rounds and small
    # comparison chunks keep the round loop's working set and the two chunks
    # well under one trace.
    monkeypatch.setattr(game, "_BLOCK_CELLS", 2**12)
    monkeypatch.setattr(cli, "_COMPARE_CHUNK", 2**16)
    path = _with_variants(mini_path, TWO_VARIANTS, "two.yaml")
    doc = yaml.safe_load(path.read_text())
    doc["replications"] = 1
    doc["game"].update(num_agents=2, horizon=3000)
    doc["game"]["env"]["adversary"]["phases"][0]["end"] = 3000
    spec = parse_spec(doc)
    run_experiment(spec, tmp_path)
    stored = read_trace(tmp_path / "mini" / cli._trace_name(spec.variants[0], 0))
    columns = sum(getattr(stored, name).nbytes for name, _, _ in _COLUMNS)
    del stored
    excess, starts, left = [], [], []
    read = cli.read_trace

    def close_window():
        if starts:
            excess.append(tracemalloc.get_traced_memory()[1] - starts[-1])

    def windowed_read(path):  # one window per stored trace, from its read to the next
        close_window()
        starts.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return read(path)

    def stop_after_replays(self, status, name, detail):
        assert (status, name) == ("PASS", "determinism"), detail
        close_window()
        left.append(tracemalloc.get_traced_memory()[0] - starts[0])
        raise _ReplaysDone

    monkeypatch.setattr(cli, "read_trace", windowed_read)
    monkeypatch.setattr(cli._Verdicts, "emit", stop_after_replays)
    with pytest.raises(_ReplaysDone):
        traced_peak(verify, spec, tmp_path, 1)
    assert len(excess) == 2
    assert max(excess) < 2 * columns
    assert left[0] < 1.5 * columns


def test_verify_reduces_each_sample_trace_as_it_is_played(mini_path, tmp_path, monkeypatch):
    # run 0's replay and the lockstep batch of runs 1-3 are the sample
    # traces; each is reduced to its part of the checks as it is played and
    # then dropped, so the first verdict after determinism finds less than
    # one trace's column bytes above the memory at the start of the replays
    monkeypatch.setattr(game, "_BLOCK_CELLS", 2**12)
    doc = yaml.safe_load(mini_path.read_text())
    doc.update(replications=4, traces="first")
    doc["game"].update(num_agents=2, horizon=3000)
    doc["game"]["env"]["adversary"]["phases"][0]["end"] = 3000
    spec = parse_spec(doc)
    run_experiment(spec, tmp_path)
    stored = read_trace(tmp_path / "mini" / cli._trace_name(spec.variants[0], 0))
    columns = sum(getattr(stored, name).nbytes for name, _, _ in _COLUMNS)
    del stored
    starts, left = [], []
    read = cli.read_trace

    def marked_read(path):
        starts.append(tracemalloc.get_traced_memory()[0])
        return read(path)

    def stop_after_determinism(self, status, name, detail):
        if name != "determinism":
            left.append(tracemalloc.get_traced_memory()[0] - starts[0])
            raise _ReplaysDone

    monkeypatch.setattr(cli, "read_trace", marked_read)
    monkeypatch.setattr(cli._Verdicts, "emit", stop_after_determinism)
    with pytest.raises(_ReplaysDone):
        traced_peak(verify, spec, tmp_path, 1)
    assert len(starts) == 1
    assert left[0] < columns


@pytest.mark.parametrize("edit, columns", [
    ({"traces": "first"}, ("cost_norm", "cf_norm", "chosen", "zeta")),
    # a strict gap under full feedback: the convergence-rate probabilities
    ({"traces": "first", "xi_window": None, "variants": TWO_VARIANTS[::-1]},
     ("cost_norm", "cf_norm", "probs")),
    # run 0 plays in the sample batch, whole
    ({"traces": "none"}, ("cost_norm", "cf_norm", "chosen", "zeta")),
], ids=["xi-window", "full-feedback", "no-traces"])
def test_sample_reductions_from_limited_columns_equal_whole_traces(tmp_path, monkeypatch, edit, columns):
    # verify's sample games stack only what its checks read, and reduce bit
    # for bit as whole traces do
    doc = yaml.safe_load(MINIMAL)
    doc.update(replications=4, **edit)
    spec = parse_spec({key: value for key, value in doc.items() if value is not None})
    run_experiment(spec, tmp_path)
    seen = []
    reduce = cli._SampleChecks.__call__

    def recording(checks, trace):
        out = reduce(checks, trace)
        seen.append((checks, trace.run_id, sorted(n for n, _, _ in _COLUMNS if hasattr(trace, n)), out))
        return out

    monkeypatch.setattr(cli._SampleChecks, "__call__", recording)
    assert verify(spec, tmp_path, workers=1) == 0
    assert sorted(rid for _, rid, _, _ in seen) == [0, 1, 2, 3]
    config = spec.game_for(spec.variants[0])
    for checks, rid, held, out in seen:
        assert checks.columns == columns
        assert held == sorted(name for name, _, _ in _COLUMNS if rid == 0 or name in ("active",) + columns)
        assert pickle.dumps(out) == pickle.dumps(reduce(checks, run_game(config, rid)))


def test_desk_sample_batch_peaks_below_its_whole_traces():
    # acceptance-small's 7 sample games with no stored trace (runs 1-7 of 8)
    # stack only the columns the checks read, so playing them on their
    # Environments peaks below the bytes of their whole traces
    spec = load_config(bundled_config("acceptance-small"))
    config, ids = spec.base, list(range(1, 8))
    assert config.learners[0].feedback == "bandit"  # no convergence-rate probabilities
    checks = cli._SampleChecks([], [], spec.xi_window, None, 0)
    assert batches(config, ids, 1, checks.columns) == [ids]
    blank = GameTrace(config, 0)
    whole = len(ids) * sum(getattr(blank, name).nbytes for name, _, _ in _COLUMNS)
    del blank
    run_game(synthetic_config({1: 0.3, 2: 0.4}, horizon=40))  # the lazy imports of a first game
    envs = [Environment(config, rid) for rid in ids]
    traces = []
    peak = traced_peak(lambda: traces.extend(trace for _, _, trace in iter_games(config, ids, envs, checks.keep,
                                                                                   checks.columns)))
    assert len(traces) == len(ids)
    assert peak < whole, (peak, whole)


def test_verify_fails_on_truncated_trace(mini_path, tmp_path, capsys):
    out_root = tmp_path / "out"
    assert main(["run", str(mini_path), "--out", str(out_root)]) == 0
    victim = out_root / "mini/default/traces/run_0001.trace"
    victim.write_bytes(victim.read_bytes()[:-100])
    capsys.readouterr()
    assert main(["verify", str(mini_path), "--out", str(out_root)]) == 3
    captured = capsys.readouterr()
    assert "FAIL  trace-integrity" in captured.out and "run_0001.trace" in captured.out
    assert "runtime error" not in captured.err
    line, = (line for line in captured.out.splitlines() if line.startswith("FAIL  trace-integrity"))
    assert line.count(str(victim)) == 1, line


def test_verify_fails_on_a_replay_that_write_trace_refuses(mini_path, tmp_path, capsys, monkeypatch):
    # a replay whose congestion at one active agent-round is off by one
    # breaks a rule the trace file derives it by: write_trace refuses it and
    # removes its scratch file, and verify reports a determinism FAIL
    out_root = tmp_path / "out"
    assert main(["run", str(mini_path), "--out", str(out_root)]) == 0
    replay, write = cli.run_game, cli.write_trace
    refused = []

    def off_by_one(config, run_id=0):
        trace = replay(config, run_id)
        if run_id == 1:
            rnd, agent = np.argwhere(trace.active)[0]
            trace.congestion[rnd, agent] += 1
        return trace

    def recording_write(trace, path):
        try:
            write(trace, path)
        except ValueError:
            refused.append(path.exists())
            raise

    monkeypatch.setattr(cli, "run_game", off_by_one)
    monkeypatch.setattr(cli, "write_trace", recording_write)
    capsys.readouterr()
    assert main(["verify", str(mini_path), "--workers", "1", "--out", str(out_root)]) == 3
    captured = capsys.readouterr()
    assert refused == [False]
    victim = out_root / "mini/default/traces/run_0001.trace"
    fails = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
    assert fails == [f"FAIL  determinism: replay of {victim} has no trace file: congestion holds a value "
                     "other than the number of active agents on the chosen arm in the round, which a "
                     "trace file derives"]
    assert "runtime error" not in captured.err


def _verify_outputs(path, out, capsys) -> set:
    """The distinct (exit code, stdout) of ``verify`` with ``--workers`` 1, 2 and 3."""
    capsys.readouterr()
    seen = set()
    for workers in ("1", "2", "3"):
        code = main(["verify", str(path), "--workers", workers, "--out", str(out)])
        seen.add((code, capsys.readouterr().out))
    return seen


def test_verify_prints_the_same_for_any_workers(mini_path, tmp_path, capsys):
    # six replays play as one task, as 3 + 3 (run 1's two traces in two
    # processes) and as 2 + 2 + 2; full feedback first gives the
    # convergence-rate check a dominant arm
    path = _with_variants(mini_path, TWO_VARIANTS[::-1], "two.yaml")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    (code, clean), = _verify_outputs(path, out, capsys)
    assert code == 0
    for verdict in ("determinism", "xi-equilibrium", "convergence-rate", "pota-bound"):
        assert f"PASS  {verdict}:" in clean
    # a truncated sample trace and a corrupted trace of another task fail in
    # file order; the truncated one's sample trace is played afresh
    truncated = out / "mini/full-feedback/traces/run_0001.trace"
    truncated.write_bytes(truncated.read_bytes()[:-100])
    corrupted = out / "mini/perturbed/traces/run_0002.trace"
    data = bytearray(corrupted.read_bytes())
    data[-1] ^= 0x01
    corrupted.write_bytes(bytes(data))
    (code, text), = _verify_outputs(path, out, capsys)
    assert code == 3
    lines = text.splitlines()
    assert lines[0].startswith("FAIL  trace-integrity") and "run_0001.trace" in lines[0]
    assert lines[1] == f"FAIL  determinism: replay of {corrupted} differs from stored bytes"
    assert lines[2:] == clean.splitlines()[1:]
    # 24 tail rounds are too few to certify the xi-equilibrium
    xi_path = mini_path.with_name("xi.yaml")
    xi_path.write_text(MINIMAL.replace("xi_window: 0.5", "xi_window: 0.1"))
    assert main(["run", str(xi_path), "--out", str(tmp_path / "xi")]) == 0
    (code, text), = _verify_outputs(xi_path, tmp_path / "xi", capsys)
    assert code == 0 and "SKIP  xi-equilibrium: window [217,240] has 24 samples" in text


def test_verify_plays_sample_batches_a_split_would_leave_alone_in_one_task(mini_path, tmp_path, capsys,
                                                                         monkeypatch):
    # with traces: none every sample game is played afresh; under a 40 kB
    # bound one process batches the runs in pairs (run 0, kept, weighs what
    # the others weigh), but a 2-way split would play every game alone, so
    # the sample ids stay one loop and no pool starts
    mini_path.write_text(MINIMAL.replace("replications: 3", "replications: 6").replace("traces: all", "traces: none"))
    out = tmp_path / "out"
    assert main(["run", str(mini_path), "--out", str(out)]) == 0
    (code, clean), = _verify_outputs(mini_path, out, capsys)
    assert code == 0
    monkeypatch.setattr(game, "_BATCH_BYTES", 40_000)
    spec = load_config(mini_path)
    checks = cli._SampleChecks([], [], spec.xi_window, None, 0)  # the columns verify stacks
    ids = list(spec.run_ids)
    assert batches(spec.base, ids, 1, checks.columns) == [[0, 1], [2, 3], [4, 5]]
    assert batches(spec.base, ids, 2, checks.columns) == [[rid] for rid in ids]
    pools = _count_pools(monkeypatch)
    assert _verify_outputs(mini_path, out, capsys) == {(0, clean)}
    assert pools == []


def test_verify_reports_an_error_in_a_child_task(mini_path, tmp_path, capsys, monkeypatch):
    # with two workers the child plays the last three replays, the
    # full-feedback variant's, among them run 2's
    path = _with_variants(mini_path, TWO_VARIANTS, "two.yaml")
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    replay = cli.run_game

    def failing_replay(config, run_id=0):
        if run_id == 2 and config.learners[0].feedback == "full":
            raise RuntimeError(f"full-feedback replay of run 2 failed in process {os.getpid()}")
        return replay(config, run_id)

    monkeypatch.setattr(cli, "run_game", failing_replay)
    capsys.readouterr()
    assert main(["verify", str(path), "--workers", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: full-feedback replay of run 2 failed in process ")
    assert int(err.split()[-1]) != os.getpid()
    assert multiprocessing.active_children() == []


def _fails(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("FAIL")]


def test_verify_fails_on_a_trace_stored_under_another_run_id(mini_path, tmp_path, capsys):
    # a file must hold the game its name says: run 2's trace stored as run
    # 1's fails, although it replays as its own header says
    spec = load_config(mini_path)
    run_experiment(spec, tmp_path)
    traces = tmp_path / "mini/default/traces"
    (traces / "run_0001.trace").write_bytes((traces / "run_0002.trace").read_bytes())
    capsys.readouterr()
    assert verify(spec, tmp_path) == 3
    assert _fails(capsys.readouterr().out) == [
        f"FAIL  determinism: replay of {traces / 'run_0001.trace'} differs from stored bytes"]


def test_verify_fails_every_trace_under_another_master_seed(mini_path, tmp_path, capsys):
    # the config given to verify defines the games: under another master
    # seed no stored trace is the play it defines
    spec = load_config(mini_path)
    run_experiment(spec, tmp_path)
    other = dataclasses.replace(spec, base=dataclasses.replace(spec.base, master_seed=6))
    capsys.readouterr()
    assert verify(other, tmp_path) == 3
    traces = tmp_path / "mini/default/traces"
    assert [line for line in _fails(capsys.readouterr().out) if "determinism" in line] == [
        f"FAIL  determinism: replay of {traces / f'run_{rid:04d}.trace'} differs from stored bytes"
        for rid in range(3)]


def test_verify_fails_on_a_listed_trace_the_experiment_does_not_write(mini_path, tmp_path, capsys):
    spec = load_config(mini_path)
    run_experiment(spec, tmp_path)
    manifest_path = tmp_path / "mini/manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["files"].append("default/traces/run_0001-copy.trace")
    manifest_path.write_text(json.dumps(manifest))
    assert verify(spec, tmp_path) == 3
    out = capsys.readouterr().out
    assert "FAIL  trace-integrity" in out and "run_0001-copy.trace" in out


def test_inspect_prints_the_text_form(mini_path, tmp_path, capsys):
    out_root = tmp_path / "out"
    assert main(["run", str(mini_path), "--out", str(out_root)]) == 0
    path = out_root / "mini/default/traces/run_0000.trace"
    expected = io.StringIO()
    format_trace(read_trace(path), expected)
    capsys.readouterr()
    assert main(["inspect", str(path)]) == 0
    printed = capsys.readouterr().out
    assert printed == expected.getvalue()
    assert printed.startswith("# fogbandit-trace v2\n# {")
    assert main(["inspect", str(tmp_path / "missing.trace")]) == 2


def test_oracle_dump_writes_json(mini_path, tmp_path, capsys):
    spec = load_config(mini_path)
    assert oracle_dump(spec, tmp_path) == 0
    payload = json.loads((tmp_path / "mini/oracle.json").read_text())
    assert payload[0]["segment"] == [1, 240]
    assert payload[0]["optimum"] == [1]
    assert payload[0]["smoothness"]["rho"] == pytest.approx(1.0)
    assert "C*" in capsys.readouterr().out


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [broken\n")
    assert main(["run", str(bad)]) == 1
    assert main(["run", "no-such-config"]) == 1
    for workers in ("0", "-2"):
        out = tmp_path / f"w{workers}"
        assert main(["run", "acceptance-small", "--workers", workers, "--out", str(out)]) == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()
    assert main(["schema"]) == 0
    assert "fogbandit experiment config" in capsys.readouterr().out


def test_cli_run_and_verify_roundtrip(mini_path, tmp_path):
    out = tmp_path / "cli-out"
    assert main(["run", str(mini_path), "--out", str(out)]) == 0
    assert main(["verify", str(mini_path), "--out", str(out)]) == 0
    assert main(["oracle", str(mini_path), "--out", str(out)]) == 0


def test_seed_override(mini_path, tmp_path):
    out = tmp_path / "seeded"
    assert main(["run", str(mini_path), "--out", str(out), "--seeds", "2"]) == 0
    manifest = json.loads((out / "mini/manifest.json").read_text())
    assert manifest["run_ids"] == [0, 1]


def test_explicit_seed_list(mini_path):
    doc = yaml.safe_load(mini_path.read_text())
    doc["seeds"] = [7, 11, 13]
    spec = parse_spec(doc)
    assert spec.run_ids == (7, 11, 13)


def test_variant_names_must_be_unique(mini_path):
    doc = yaml.safe_load(mini_path.read_text())
    doc["variants"] = [{"name": "x"}, {"name": "x"}]
    with pytest.raises(ConfigError, match="unique"):
        parse_spec(doc)


def test_benchmark_tracer_bindings_exist():
    # perfbench/tracer.py wraps layer functions and methods by name; a rename
    # or deletion must fail here rather than in the benchmark
    root = Path(__file__).resolve().parents[1]
    code = "import sys; sys.path.insert(0, sys.argv[1]); import tracer; tracer.install(tracer.Tracer())"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "perfbench")], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_loads_no_multiprocessing():
    # only a call that starts a process pool pays for loading multiprocessing
    root = Path(__file__).resolve().parents[1]
    code = "import sys, fogbandit.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_oversized_game_rejected_at_load(mini_path, tmp_path, capsys):
    # horizon * agents * arms past the cell limit fails before any draw
    doc = yaml.safe_load(mini_path.read_text())
    doc["game"]["horizon"] = 30_000_000  # x 1 agent x 2 arms = 6e7 cells
    doc["game"]["env"]["adversary"]["phases"][0]["end"] = 30_000_000
    big = tmp_path / "big.yaml"
    big.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError) as exc:
        load_config(big)
    for part in ("game.horizon", "game.num_agents", "game.env.vfns", "60000000", "50000000"):
        assert part in str(exc.value)
    assert main(["run", str(big), "--out", str(tmp_path / "out")]) == 1
    assert "game.horizon" in capsys.readouterr().err


def test_pota_on_a_non_enumerable_epoch_is_a_config_error(mini_path, tmp_path, capsys, monkeypatch):
    # PoTA needs each epoch's stage-game optimum; a game too large to
    # enumerate fails at load, naming the key, before any Environment is built
    doc = yaml.safe_load(mini_path.read_text())
    doc["game"]["num_agents"] = 6
    doc["game"]["candidates"] = [{"start": 1, "all": [1]}, {"start": 121, "all": [1, 2]}]
    path = tmp_path / "wide.yaml"
    path.write_text(yaml.safe_dump(doc))
    monkeypatch.setattr(oracle, "MAX_JOINT_ACTIONS", 2**6 - 1)
    with pytest.raises(ConfigError, match="wide.yaml: metrics: pota .* round 121 has a joint action space 64 too"):
        load_config(path)
    built = _count_environments(monkeypatch)
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "wide.yaml: metrics: pota" in capsys.readouterr().err
    assert built == []
    doc["metrics"] = ["cost", "regret"]  # without pota the game runs
    path.write_text(yaml.safe_dump(doc))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    # but the oracles need every epoch's stage game
    built.clear()
    capsys.readouterr()
    assert main(["oracle", str(path), "--out", str(tmp_path / "out")]) == 1
    assert ("config error: oracle needs an enumerable stage game, but the candidate epoch starting at "
            "round 121 has a joint action space 64 too") in capsys.readouterr().err
    assert built == []


PHYSICAL_ENV = {
    "model": "physical",
    "cost_cap": 1.0e-5,
    "vfns": [{"id": 1, "max_cpu_freq": 6.0e9}, {"id": 2, "max_cpu_freq": 4.0e9}],
    "adversary": {"num_phases": 2, "mean_range": [1.0, 2.5], "noise_halfwidth": 0.25},
}


@pytest.mark.parametrize("model", ["synthetic", "physical"])
def test_traced_pass_keeps_the_benchmark_contract(tmp_path, capsys, model):
    # perfbench's traced pass reads each Environment's draw sizes after
    # construction and counts trace reads and writes.  On a `traces: all`
    # config it must count what the wide-traces workload pins, and tracing
    # must change no byte of the output tree and no verdict line
    doc = yaml.safe_load(MINIMAL)
    doc.update(replications=3)
    doc["game"]["num_agents"] = 2
    if model == "physical":
        doc["game"]["env"] = PHYSICAL_ENV
    path = tmp_path / "traced.yaml"
    path.write_text(yaml.safe_dump(doc))
    root = Path(__file__).resolve().parents[1]
    code = (
        "import contextlib, io, json, sys; sys.path.insert(0, sys.argv[1]); import tracer, workloads\n"
        "from fogbandit import cli\n"
        "t = tracer.Tracer(); tracer.install(t)\n"
        "out = {}\n"
        "for verb in ('run', 'verify'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as text:\n"
        "        code = cli.main([verb, sys.argv[2], '--workers', '1', '--out', sys.argv[3]])\n"
        "    out[verb] = [code, text.getvalue()]\n"
        "exact = workloads.WORKLOADS['wide-traces'].exact\n"
        "out['calls'] = {n: [len(t.durations[n]), f(int(sys.argv[4]))] for n, f in exact.items()}\n"
        "out['extra'] = t.extra\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "perfbench"), str(path), str(tmp_path / "traced"), "3"],
        env=env, capture_output=True, text=True, cwd=root,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(proc.stdout.splitlines()[-1])
    assert traced["run"][0] == 0 and traced["verify"][0] == 0, proc.stderr
    assert traced["calls"] == {"game.read_trace": [3, 3], "game.write_trace": [6, 6]}
    assert traced["extra"].get("env.init.predraw_bytes", 0) > 0
    capsys.readouterr()
    assert main(["run", str(path), "--workers", "1", "--out", str(tmp_path / "plain")]) == 0
    assert main(["verify", str(path), "--workers", "1", "--out", str(tmp_path / "plain")]) == 0
    assert capsys.readouterr().out.split("\n", 1)[1] == traced["verify"][1]
    assert _tree(tmp_path / "traced" / "mini") == _tree(tmp_path / "plain" / "mini")


def test_benchmark_core_spans_fire(mini_path, tmp_path):
    # the spans the desk-2x2 workload must see fire, the analysis spans
    # among them, do fire on a tiny run + verify, so an engine that
    # bypasses a traced layer or moves where sample traces are reduced fails here
    root = Path(__file__).resolve().parents[1]
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import tracer, workloads\n"
        "from fogbandit import cli\n"
        "t = tracer.Tracer(); tracer.install(t)\n"
        "codes = [cli.main([v, sys.argv[2], '--workers', '1', '--out', sys.argv[3]])"
        " for v in ('run', 'verify')]\n"
        "fired = workloads.WORKLOADS['desk-2x2'].fired\n"
        "print(json.dumps({'codes': codes, 'calls': {n: len(t.durations[n]) for n in fired}}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "perfbench"), str(mini_path), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, cwd=root,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert [name for name, calls in result["calls"].items() if not calls] == []
