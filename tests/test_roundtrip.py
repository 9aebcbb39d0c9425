"""Property tests of the one config format and of trace files.

Generated YAML documents cover both cost models, explicit and generated
adversary phases, shared and per-agent learners, scalar and per-agent
activation, every task-size law and one to three candidate epochs.  A
batch of replications played together must equal the same replications
played one at a time, and so must a batch that mixes variants and keeps
only some of its games whole.
"""

import dataclasses
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fogbandit import game, traces
from fogbandit.bandit import FEEDBACK_MODES, PATCH_MODES, LearnerParams
from fogbandit.cli import bundled_config, run_experiment
from fogbandit.configio import TASK_LAWS, TaskSizeLaw, parse_game, parse_spec
from fogbandit.env import Environment
from fogbandit.game import _COLUMNS, format_trace, read_trace, run_game, run_games, write_trace
from fogbandit.metrics import pota_series, regret_series, social_cost_series
from fogbandit.oracle import stage_games

from conftest import synthetic_config
from reference_impls import ref_learner_column


def _explores(learner: dict) -> dict:
    """A learner that sets gamma_ratio 0 mixes uniformly, and one that sets
    uniform_mix 0 but no gamma_ratio inherits both: so every learner, also
    merged over a game's shared one, explores."""
    if learner.get("gamma_ratio") == 0.0:
        learner["uniform_mix"] = learner.get("uniform_mix") or 0.25
    elif "gamma_ratio" not in learner and learner.get("uniform_mix") == 0.0:
        del learner["uniform_mix"]
    return learner


# horizons of 40+ rounds satisfy the exploration-rate condition for every
# drawn (gamma_ratio 0 or >= 0.3, schedule_a >= 1, K <= 4) learner
LEARNER = st.fixed_dictionaries({}, optional={
    "schedule_a": st.floats(1.0, 4.0),
    "gamma_ratio": st.just(0.0) | st.floats(0.3, 0.5),
    "use_demand_weight": st.booleans(),
    "patch_mode": st.sampled_from(PATCH_MODES),
    "uniform_mix": st.floats(0.0, 0.5),
    "feedback": st.sampled_from(FEEDBACK_MODES),
}).map(_explores)


@st.composite
def range_pairs(draw, lo, hi):
    a, b = draw(st.floats(lo, hi)), draw(st.floats(lo, hi))
    return [min(a, b), max(a, b)]


@st.composite
def config_docs(draw):
    n = draw(st.integers(1, 3))
    horizon = draw(st.integers(40, 80))
    arms = list(range(1, draw(st.integers(2, 4)) + 1))
    subsets = st.lists(st.sampled_from(arms), min_size=1, unique=True)

    starts = [1] + sorted(draw(st.sets(st.integers(2, horizon), max_size=2)))
    candidates = [
        {"start": s, "all": draw(subsets)} if draw(st.booleans())
        else {"start": s, "sets": [draw(subsets) for _ in range(n)]}
        for s in starts
    ]

    model = draw(st.sampled_from(["synthetic", "physical"]))
    env = {
        "model": model,
        "vfns": [
            {"id": k, "max_cpu_freq": draw(st.floats(1e9, 6e9)),
             **({"alloc_fraction": draw(range_pairs(0.1, 1.0))} if draw(st.booleans()) else {})}
            for k in arms
        ],
    }
    mean_range = draw(range_pairs(0.05, 1.0) if model == "synthetic" else range_pairs(1.0, 2.5))
    adversary = {"mean_range": mean_range, "noise_halfwidth": draw(st.floats(0.0, 0.05))}
    if draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(1, horizon - 1), max_size=3)))
        bounds = list(zip([1] + [c + 1 for c in cuts], cuts + [horizon]))
        adversary["phases"] = [
            {"start": lo, "end": hi, "means": {k: draw(st.floats(*mean_range)) for k in arms}}
            for lo, hi in bounds
        ]
    else:
        adversary["num_phases"] = draw(st.integers(1, 4))
    env["adversary"] = adversary
    if model == "synthetic":
        env["coupling"] = draw(st.sampled_from(["sqrt", "linear"]))
        env["theta"] = draw(st.floats(0.0, 0.3))
    else:
        if draw(st.booleans()):
            env["cost_cap"] = draw(st.floats(1e-6, 1e-4))
        env["channel"] = draw(st.fixed_dictionaries({}, optional={
            "bandwidth_hz": st.floats(1e6, 2e7),
            "num_subchannels": st.integers(1, 20),
            "tx_power_dbm": st.floats(10.0, 30.0),
        }))

    q_lo = draw(st.floats(1e5, 5e5))
    task = {"law": draw(st.sampled_from(TASK_LAWS)), "q_lo": q_lo, "q_hi": q_lo + draw(st.floats(1e5, 1e6))}
    if task["law"] == "fixed" and draw(st.booleans()):
        task["fixed"] = [draw(st.floats(task["q_lo"], task["q_hi"])) for _ in range(n)]

    game = {
        "num_agents": n,
        "horizon": horizon,
        "activation": draw(st.floats(0.3, 1.0) | st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)),
        "task_size": task,
        "learner": draw(LEARNER),
        "candidates": candidates,
        "env": env,
    }
    if draw(st.booleans()):
        game["learners"] = [draw(LEARNER) for _ in range(n)]
    doc = {"name": "prop", "master_seed": draw(st.integers(0, 2**31)), "game": game}
    return yaml.safe_load(yaml.safe_dump(doc))


@settings(max_examples=60, deadline=None)
@given(config_docs())
def test_config_parse_to_dict_parse_keeps_digest(doc):
    base = parse_spec(doc, strict=True).base
    d = base.to_dict()
    again = parse_game(d)
    assert again.digest() == base.digest()
    assert again.to_dict() == d
    # the same dict as a trace header (JSON) and as a config file (YAML)
    header = json.loads(json.dumps(d))
    assert parse_game(header).digest() == base.digest()
    game = {k: v for k, v in d.items() if k != "master_seed"}
    as_file = yaml.safe_load(yaml.safe_dump({"name": "rt", "master_seed": d["master_seed"], "game": game}))
    assert parse_spec(as_file, strict=True).base.digest() == base.digest()


@settings(max_examples=15, deadline=None)
@given(config_docs(), st.integers(0, 3))
def test_trace_write_read_write_is_byte_identical(doc, run_id):
    trace = run_game(parse_spec(doc).base, run_id)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.trace", Path(tmp) / "second.trace"
        write_trace(trace, first)
        write_trace(read_trace(first), second)
        assert first.read_bytes() == second.read_bytes()


def test_v1_trace_is_rejected(tmp_path):
    # text trace files (v1, and v2, which is what format_trace prints) are not read
    text = io.StringIO()
    format_trace(run_game(synthetic_config({1: 0.3, 2: 0.5}, horizon=20), 0), text)
    lines = text.getvalue().splitlines(keepends=True)
    assert lines[0] == "# fogbandit-trace v2\n"
    for magic in ("# fogbandit-trace v1\n", lines[0]):
        path = tmp_path / "old.trace"
        path.write_text(magic + "".join(lines[1:]))
        with pytest.raises(ValueError, match="bad magic"):
            read_trace(path)


def _bits(values) -> bytes:
    return np.ascontiguousarray(values).tobytes()


def _columns_start(data: bytes) -> int:
    """Where a trace file's columns start: past its magic and header lines."""
    return data.index(b"\n", data.index(b"\n") + 1) + 1


# the 20-round, 2-agent, 2-arm trace below holds 42 bytes of active, then
# chosen and four more columns at its m active agent-rounds, then probs and
# cf_raw at their 2 slots
DAMAGE = {
    "short-by-one-float": lambda data, m: data[:-8],
    "cut-in-header": lambda data, m: data[:60],
    "one-trailing-byte": lambda data, m: data + b"\0",
    "cut-in-active": lambda data, m: data[: _columns_start(data) + 5],
    "cut-in-chosen": lambda data, m: data[: _columns_start(data) + 42 + 4],
    "cut-in-probs": lambda data, m: data[: _columns_start(data) + 42 + 5 * 8 * m + 4],
    "cut-in-cf-raw": lambda data, m: data[: _columns_start(data) + 42 + (5 + 2) * 8 * m + 4],
    "chosen-outside-its-set": lambda data, m: (data[: _columns_start(data) + 42] + (99).to_bytes(8, "little")
                                               + data[_columns_start(data) + 50 :]),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_trace_is_rejected(tmp_path, damage):
    path = tmp_path / "run.trace"
    trace = run_game(synthetic_config({1: 0.3, 2: 0.5}, horizon=20), 0)
    write_trace(trace, path)
    path.write_bytes(DAMAGE[damage](path.read_bytes(), int(trace.active.sum())))
    with pytest.raises(ValueError, match="damaged trace") as exc:
        read_trace(path)
    assert str(path) in str(exc.value)


def test_v3_trace_is_rejected(tmp_path):
    # a v3 file: the same header, then every column whole
    trace = run_game(synthetic_config({1: 0.3, 2: 0.5}, horizon=20), 0)
    path = tmp_path / "old.trace"
    with open(path, "wb") as fh:
        fh.write(b"# fogbandit-trace v3\n" + traces._header(trace).encode())
        for name, dtype, _ in _COLUMNS:
            fh.write(np.ascontiguousarray(getattr(trace, name), dtype=dtype))
    with pytest.raises(ValueError, match="bad magic line '# fogbandit-trace v3'") as exc:
        read_trace(path)
    assert str(path) in str(exc.value)


def test_read_trace_allocates_only_the_stored_columns(tmp_path):
    # a wide-traces-shaped game, 6 agents on 8 -> 12 arms at activation 0.8:
    # read_trace holds active and the file's sections, and allocates under
    # half the 17 columns of a whole trace, and at most 1.4 times what it
    # holds (the chosen arms' check of the rest)
    arms = tuple(range(1, 13))
    config = synthetic_config({k: 0.1 + 0.06 * k for k in arms}, num_agents=6, horizon=1000,
                              epochs=((1, (arms[:8],) * 6), (501, (arms,) * 6)), activation=(0.8,) * 6,
                              task=TaskSizeLaw(law="uniform"))
    path = tmp_path / "wide.trace"
    write_trace(run_game(config, 0), path)
    blank = game.GameTrace(config, 0)
    whole = sum(getattr(blank, name).nbytes for name, _, _ in _COLUMNS)
    del blank
    read_trace(path)  # the lazy imports of a first read
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = read_trace(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = trace.active.nbytes + sum(section.nbytes for section in trace.sections.values())
    assert held == path.stat().st_size - _columns_start(path.read_bytes())
    assert peak < 0.5 * whole
    assert peak < 1.4 * held
    assert [name for name, _, _ in _COLUMNS if name in vars(trace)] == ["active"]
    assert list(trace.sections) == [name for name, _, _ in traces._STORED[1:]]


def _rejects_magic(path, version: str) -> None:
    """A current trace file under an older magic line is not read."""
    write_trace(run_game(synthetic_config({1: 0.3, 2: 0.5}, horizon=20), 0), path)
    data = path.read_bytes()
    assert data.startswith(traces._TRACE_MAGIC)
    path.write_bytes(f"# fogbandit-trace {version}\n".encode() + data[len(traces._TRACE_MAGIC):])
    with pytest.raises(ValueError, match=f"bad magic line '# fogbandit-trace {version}'") as exc:
        read_trace(path)
    assert str(path) in str(exc.value)


def test_v4_trace_is_rejected(tmp_path):
    _rejects_magic(tmp_path / "old.trace", "v4")


def test_v5_trace_is_rejected(tmp_path):
    _rejects_magic(tmp_path / "old.trace", "v5")


def _ragged_trace():
    """A trace whose agent 1 plays full feedback, idles in some rounds and,
    in the first epoch, has 1 arm where the epoch's largest set has 2 and the
    trace's has 3."""
    config = synthetic_config(
        {1: 0.2, 2: 0.5, 3: 0.4}, num_agents=2, horizon=40,
        epochs=((1, ((1, 2), (2,))), (21, ((1, 2, 3), (3, 1)))), activation=(1.0, 0.5),
        learners=(LearnerParams(), LearnerParams(feedback="full", use_demand_weight=False)),
        task=TaskSizeLaw(law="uniform"),
    )
    return run_game(config, 6)


def _up(v):
    return np.nextafter(v, np.inf)


# a value in a cell that a trace file leaves out, as (column, cell, value or
# the value from the cell's own); agent 0 plays bandit feedback in every
# round, agent 1 full feedback
STRAYS = {
    "inactive-agent-round": ("cost_norm", lambda t: (_idle_round(t), 1), 0.5),
    "inactive-chosen": ("chosen", lambda t: (_idle_round(t), 1), 0),
    "padding-slot": ("probs", lambda t: (5, 0, 2), 0.5),
    "negative-nan": ("cf_raw", lambda t: (_idle_round(t), 1, 0), -np.nan),
    "congestion-plus-one": ("congestion", lambda t: (5, 0), lambda v: v + 1),
    "clock-plus-one": ("clock", lambda t: (5, 0), lambda v: v + 1),
    "cost-norm-off-cf-norm": ("cost_norm", lambda t: (5, 0), lambda v: np.nextafter(v, 2.0)),
    "cf-norm-one-ulp": ("cf_norm", lambda t: (5, 0, 0), lambda v: np.nextafter(v, 2.0)),
    "bandit-estimate-off-chosen": ("estimates", lambda t: (5, 0, _unchosen_slot(t, 5, 0)), 0.1),
    "negative-zero-estimate": ("estimates", lambda t: (5, 0, _unchosen_slot(t, 5, 0)), -0.0),
    "zeta-one-ulp": ("zeta", lambda t: (5, 0), _up),
    "unweighted-zeta-one-ulp": ("zeta", lambda t: (_busy_round(t), 1), _up),
    "eta-one-ulp": ("eta", lambda t: (5, 0), _up),
    "gamma-one-ulp": ("gamma", lambda t: (5, 0), _up),
    "bandit-estimate-one-ulp": ("estimates", lambda t: (5, 0, _chosen_slot(t, 5, 0)), _up),
    "full-estimate-one-ulp": ("estimates", lambda t: (_busy_round(t), 1, 0), _up),
}


def _idle_round(trace) -> int:
    return int(np.flatnonzero(~trace.active[1:, 1])[0]) + 1


def _busy_round(trace) -> int:
    return int(np.flatnonzero(trace.active[1:, 1])[0]) + 1


def _chosen_slot(trace, rnd, agent) -> int:
    return trace.candidate_set(rnd, agent).index(int(trace.chosen[rnd, agent]))


def _unchosen_slot(trace, rnd, agent) -> int:
    slot = 1 - _chosen_slot(trace, rnd, agent)
    assert trace.estimates[rnd, agent, slot] == 0.0  # a -0.0 stray differs only in its bits
    return slot


@pytest.mark.parametrize("stray", sorted(STRAYS))
def test_write_rejects_a_value_in_a_cell_it_leaves_out(tmp_path, stray):
    trace = _ragged_trace()
    name, cell, value = STRAYS[stray]
    assert [p.feedback for p in trace.config.learners] == ["bandit", "full"]
    path = tmp_path / "run.trace"
    write_trace(trace, path)
    column, at = getattr(trace, name), cell(trace)
    column[at] = value(column[at]) if callable(value) else value
    with pytest.raises(ValueError, match=f"{name} holds a value other than") as exc:
        write_trace(trace, path)
    assert str(path) in str(exc.value)
    assert not path.exists()


BUNDLED = ("acceptance-small", "paper-fig2", "paper-fig3", "paper-fig4", "paper-fig5")


def _trace_file_size(trace) -> int:
    """A trace file's bytes past its header, by the README's formula: active
    whole, then (5 + 2 k) values per active agent-round of an epoch whose
    largest candidate set has k arms."""
    return trace.active.nbytes + sum(
        int(trace.active[lo : hi + 1].sum()) * (5 + 2 * max(map(len, sets))) * 8
        for lo, hi, sets in trace.epochs()
    )


def _text(trace) -> str:
    text = io.StringIO()
    format_trace(trace, text)
    return text.getvalue()


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_configs_write_lossless_trace_files(tmp_path, name):
    # every bundled config, its horizon cut to 150 rounds (the shortest the
    # slowest schedule allows; candidate epochs and adversary phases scaled
    # with it), every trace of two run ids written by ``run``
    with open(bundled_config(name)) as fh:
        doc = yaml.safe_load(fh)
    short = 150
    horizon, doc["game"]["horizon"] = doc["game"]["horizon"], short
    for part in doc["game"]["candidates"] + doc["game"]["env"]["adversary"].get("phases", []):
        part["start"] = 1 + (part["start"] - 1) * short // horizon
        if "end" in part:
            part["end"] = part["end"] * short // horizon
    doc.update(traces="all", seeds=[0, 1], metrics=["cost"], workers=1)
    spec = parse_spec(doc)
    assert run_experiment(spec, tmp_path) == 0
    for variant in spec.variants:
        for run_id in spec.run_ids:
            path = tmp_path / spec.name / variant.name / "traces" / f"run_{run_id:04d}.trace"
            trace = run_game(spec.game_for(variant), run_id)
            data = path.read_bytes()
            assert len(data) == _columns_start(data) + _trace_file_size(trace)
            back = read_trace(path)
            for column, _, _ in _COLUMNS:
                assert _bits(getattr(back, column)) == _bits(getattr(trace, column)), column
            assert _text(back) == _text(trace)


@st.composite
def ragged_games(draw, extra_epochs=(1, 4)):
    """Generated games with per-agent epoch sets in any arm order, per-agent
    learners (bandit or full feedback) and activation below 1, over one
    epoch plus ``extra_epochs`` more, so that some are short enough for an
    agent to sit through idle."""
    doc = draw(config_docs())
    game = doc["game"]
    n, horizon = game["num_agents"], game["horizon"]
    subsets = st.lists(st.sampled_from([v["id"] for v in game["env"]["vfns"]]), min_size=1, unique=True)
    lo, hi = extra_epochs
    starts = [1] + sorted(draw(st.sets(st.integers(2, horizon), min_size=lo, max_size=hi)))
    game["candidates"] = [{"start": s, "sets": [draw(subsets) for _ in range(n)]} for s in starts]
    game["activation"] = [draw(st.floats(0.05, 0.95)) for _ in range(n)]
    game["learners"] = [draw(LEARNER) for _ in range(n)]
    return parse_spec(doc).base


@settings(max_examples=30, deadline=None)
@given(ragged_games(extra_epochs=(0, 3)), st.integers(0, 3))
def test_trace_file_holds_only_the_cells_a_trace_fills(config, run_id):
    trace = run_game(config, run_id)
    idle = ~trace.active
    for name, dtype, fill in _COLUMNS:
        if name not in ("active", "clock"):
            held = getattr(trace, name)[idle]
            assert _bits(held) == _bits(np.full(held.shape, fill, dtype=dtype)), name
    for lo, hi, sets in trace.epochs():
        for name in game._PER_SLOT:
            pad = getattr(trace, name)[lo : hi + 1, :, max(map(len, sets)):]
            assert _bits(pad) == _bits(np.full(pad.shape, np.nan)), name
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.trace"
        write_trace(trace, path)
        back = read_trace(path)
    for name, _, _ in _COLUMNS:
        assert _bits(getattr(back, name)) == _bits(getattr(trace, name)), name


@settings(max_examples=40, deadline=None)
@given(ragged_games(extra_epochs=(0, 3)), st.integers(0, 3))
def test_trace_file_leaves_out_what_the_rest_determines(config, run_id):
    trace = run_game(config, run_id)
    active = trace.active
    # clock: the running count of active, 0 in a round where no agent plays
    assert _bits(trace.clock) == _bits(np.cumsum(active, axis=0) * active.any(axis=1, keepdims=True))
    # congestion: the active agents on the chosen arm in the round
    together = (trace.chosen[:, :, None] == trace.chosen[:, None, :]) & active[:, None, :]
    assert _bits(trace.congestion) == _bits(np.where(active, together.sum(axis=2), 0))
    # cf_norm: cf_raw normalized by the Environment's cost_cap
    assert trace.cost_cap == Environment(config, run_id).cost_cap
    assert _bits(trace.cf_norm) == _bits(np.clip(trace.cf_raw / trace.cost_cap, 0.0, 1.0))
    # per epoch and agent: cost_norm and cost_real at the chosen slot; the
    # demand weight of the task size; the learning rates of the clock on the
    # agent's own set; the IX estimate at a bandit-feedback agent's chosen
    # slot and +0.0 at its other ones, cf_norm at a full-feedback agent's,
    # NaN past its set
    ts = config.task_size
    for lo, hi, sets in trace.epochs():
        for n, arms in enumerate(sets):
            learner = config.learners[n]
            rounds = lo + np.flatnonzero(active[lo : hi + 1, n])
            slots = [arms.index(arm) for arm in trace.chosen[rounds, n]]
            assert _bits(trace.cost_norm[rounds, n]) == _bits(trace.cf_norm[rounds, n, slots])
            assert _bits(trace.cost_real[rounds, n]) == _bits(trace.cf_raw[rounds, n, slots])
            zeta = 1.0 + np.clip((trace.task_size[rounds, n] - ts.q_lo) / (ts.q_hi - ts.q_lo), 0.0, 1.0)
            assert _bits(trace.zeta[rounds, n]) == _bits(zeta if learner.use_demand_weight else np.ones_like(zeta))
            log_k = max(np.log(len(arms)), np.log(2.0))
            eta = np.sqrt(learner.schedule_a * log_k / (len(arms) * trace.clock[rounds, n]))
            assert _bits(trace.eta[rounds, n]) == _bits(eta)
            assert _bits(trace.gamma[rounds, n]) == _bits(learner.gamma_ratio * eta)
            own = trace.estimates[rounds, n, : len(arms)]
            if learner.feedback == "full":
                assert _bits(own) == _bits(trace.cf_norm[rounds, n, : len(arms)])
            else:
                ix = np.zeros((rounds.size, len(arms)))
                probs = trace.probs[rounds, n, slots] + trace.gamma[rounds, n]
                ix[np.arange(rounds.size), slots] = trace.cost_norm[rounds, n] / probs
                assert _bits(own) == _bits(ix)
            past = trace.estimates[rounds, n, len(arms):]
            assert _bits(past) == _bits(np.full(past.shape, np.nan))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.trace"
        write_trace(trace, path)
        assert path.stat().st_size == _columns_start(path.read_bytes()) + _trace_file_size(trace)
        back = read_trace(path)
    assert back.cost_cap == trace.cost_cap
    for name, _, _ in _COLUMNS:
        assert _bits(getattr(back, name)) == _bits(getattr(trace, name)), name


@settings(max_examples=30, deadline=None)
@given(ragged_games(extra_epochs=(0, 3)), st.integers(0, 3))
def test_learner_rules_equal_the_per_agent_reference(config, run_id):
    # ragged per-agent sets, idle agent-rounds, per-agent learners with bandit
    # and full feedback: the rules stepped over all agents of a set size at
    # once give, bit for bit, what the per-(epoch, agent) loop gave, on a kept
    # game's trace and on the trace read back from its file
    trace = run_game(config, run_id)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.trace"
        write_trace(trace, path)
        back = read_trace(path)
    for name in ("zeta", "eta", "gamma", "estimates"):
        reference = _bits(ref_learner_column(name, back))
        assert _bits(getattr(back, name)) == reference, name
        assert _bits(getattr(trace, name)) == reference, name


@settings(max_examples=40, deadline=None)
@given(ragged_games(), st.lists(st.integers(0, 40), min_size=1, max_size=5))
def test_batched_replications_equal_single_runs(config, run_ids):
    batched = run_games(config, run_ids)
    assert [t.run_id for t in batched] == run_ids
    for trace, run_id in zip(batched, run_ids):
        alone = run_game(config, run_id)
        for name, dtype, _ in _COLUMNS:
            assert np.array_equal(getattr(trace, name), getattr(alone, name), equal_nan=dtype == "<f8"), name


@settings(max_examples=30, deadline=None)
@given(ragged_games(extra_epochs=(0, 3)), st.integers(0, 3), st.sampled_from([1, 100, 2**15, 2**40]))
def test_kept_sections_are_the_packed_columns(config, run_id, cells):
    # a kept game's sections are, bit for bit, what write_trace packs of the
    # same game played unkept with every column stacked, for blocks of one
    # round, of the default size and of a whole epoch, and for blocks whose
    # cost table is taken in spans that do not divide them (100 cells: a
    # 2-agent, 2-slot game plays 12-round blocks in 8-round spans), on ragged
    # games of either cost model and either feedback
    lifted, game._BLOCK_CELLS = game._BLOCK_CELLS, cells
    try:
        kept = run_game(config, run_id)
        whole = run_games(config, [run_id], keep=set(), columns=[name for name, _, _ in _COLUMNS])[0]
    finally:
        game._BLOCK_CELLS = lifted
    lay = traces._layout(whole)
    assert [name for name, _, _ in _COLUMNS if name in vars(kept)] == list(game._SHARED)
    assert list(kept.sections) == list(game._SECTIONS)
    for name, section in kept.sections.items():
        assert _bits(section) == _bits(traces._section(whole, name, lay)), name
    with tempfile.TemporaryDirectory() as tmp:
        mine, theirs = Path(tmp) / "kept.trace", Path(tmp) / "whole.trace"
        write_trace(kept, mine)
        write_trace(whole, theirs)
        assert mine.read_bytes() == theirs.read_bytes()


# what a game not kept whole may stack besides ``active``
STACKABLE = [name for name, _, _ in _COLUMNS if name != "active"] + ["cf_best"]


@st.composite
def variant_batches(draw):
    """Two or three variants of one generated ragged game, each with its own
    per-agent learners (patch modes, bandit and full feedback, uniform
    mixing, demand weights), a few run ids, the games kept whole, the
    columns the others stack (``run``'s default or any set), and a batch
    bound that is lifted or that forces one game per batch."""
    base = draw(ragged_games())
    configs = [base] + [
        dataclasses.replace(base, learners=tuple(LearnerParams(**draw(LEARNER)) for _ in base.learners))
        for _ in range(draw(st.integers(1, 2)))
    ]
    run_ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=3, unique=True))
    games = [(v, rid) for v in range(len(configs)) for rid in run_ids]
    keep = set(draw(st.lists(st.sampled_from(games), unique=True)))
    columns = draw(st.just(game._METRIC) | st.lists(st.sampled_from(STACKABLE), unique=True).map(tuple))
    return configs, run_ids, keep, columns, draw(st.sampled_from([1, game._BATCH_BYTES, 2**40]))


@settings(max_examples=30, deadline=None)
@given(variant_batches())
def test_mixed_variant_batches_keep_what_is_asked(batch):
    configs, run_ids, keep, columns, bound = batch
    lifted, game._BATCH_BYTES = game._BATCH_BYTES, bound
    try:
        traces = run_games(configs, run_ids, keep=keep, columns=columns)
    finally:
        game._BATCH_BYTES = lifted
    assert [(t.config, t.run_id) for t in traces] == [(c, rid) for c in configs for rid in run_ids]
    with tempfile.TemporaryDirectory() as tmp:
        mine, theirs = Path(tmp) / "batched.trace", Path(tmp) / "alone.trace"
        for g, trace in enumerate(traces):
            v = g // len(run_ids)
            alone = run_game(configs[v], trace.run_id)
            if (v, trace.run_id) in keep:
                write_trace(trace, mine)
                write_trace(alone, theirs)
                assert mine.read_bytes() == theirs.read_bytes()
                continue
            # a game not kept whole: active and the requested columns, and the
            # series they give, bit for bit
            held = sorted(name for name, _, _ in _COLUMNS if hasattr(trace, name))
            assert held == sorted({"active", *columns} - {"cf_best"})
            assert hasattr(trace, "cf_best") == ("cf_best" in columns)
            for name in held:
                assert _bits(getattr(trace, name)) == _bits(getattr(alone, name)), name
            if "cost_norm" not in columns:
                continue
            assert _bits(social_cost_series(trace)) == _bits(social_cost_series(alone))
            for n in range(trace.num_agents if {"cf_best", "cf_norm"} & set(columns) else 0):
                ours, full = regret_series(trace, n), regret_series(alone, n)
                assert _bits(ours.normalized) == _bits(full.normalized)
                assert _bits(ours.per_round) == _bits(full.per_round)
            games = stage_games(Environment(configs[v], trace.run_id))
            assert _bits(pota_series(trace, games)) == _bits(pota_series(alone, games))
