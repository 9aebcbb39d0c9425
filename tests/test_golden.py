"""Golden traces: SHA-256 of a trace's text form for fixed (config, run id).

Each trace goes through a trace file first (`write_trace` -> `read_trace`
-> `format_trace`), so one digest pins both the simulation and a lossless
file format.  The digests were recorded from the per-agent round loop that
preceded the array-native one, as the bytes of the text trace files of that
time, so any change to the draws, the learner arithmetic, the cost formula,
the trace fill or the file columns shows up here as a mismatch.  The cases cover
every bundled config and variant at run ids 0 and 1, plus edge cases the
bundled configs never reach: an agent idle through a whole candidate epoch,
candidate sets of unequal size (one arm, more than eight arms, reordered
sets), every patch mode, full feedback and uniform mixing on ragged sets,
linear coupling, and truncated-normal task sizes.  Every case is also
played inside a batch of replications (``run_games``) and must give the
same digest there, also next to a second variant of its game (whose
trace must equal the one it gives alone), and a few cases also at both
extremes of the block size (one round per block, one block per epoch) and
at a block size whose cost table is taken in spans of fewer rounds.
"""

import dataclasses
import functools
import hashlib
import io

import pytest

from fogbandit import game
from fogbandit.bandit import LearnerParams
from fogbandit.cli import bundled_config
from fogbandit.configio import TaskSizeLaw, load_config
from fogbandit.env import CandidateSchedule
from fogbandit.game import format_trace, read_trace, run_game, write_trace

from conftest import physical_config, synthetic_config

BUNDLED = ("acceptance-small", "paper-fig2", "paper-fig3", "paper-fig4", "paper-fig5")

# three agents: one arm, nine arms, and a set that vanishes, re-appears,
# is replaced wholesale and comes back reordered
RAGGED_EPOCHS = (
    (1, ((1, 2), (1, 2, 3, 4, 5, 6, 7, 8, 9), (4,))),
    (21, ((2, 3), (1, 2, 3, 4, 5, 6, 7, 8), (4, 5))),
    (41, ((1, 2, 3), (9,), (6, 7))),
    (61, ((3, 2, 1), (1, 2, 3, 4, 5, 6, 7, 8, 9), (6, 7))),
)
RAGGED_MEANS = {k: 0.1 + 0.08 * k for k in range(1, 10)}
# short epochs and a rarely active second agent: idle through whole epochs
IDLE_EPOCHS = tuple(
    (start, (((1, 2), (1, 2, 3)) if i % 2 == 0 else ((2, 3), (3, 1))))
    for i, start in enumerate(range(1, 61, 4))
)


def _ragged(**kw):
    return synthetic_config(RAGGED_MEANS, num_agents=3, horizon=80, epochs=RAGGED_EPOCHS,
                            noise_halfwidth=0.05, **kw)


def edge_cases() -> dict:
    uniform = TaskSizeLaw(law="uniform")
    physical = physical_config(freqs_ghz=(6.0, 1.5, 4.0, 3.0), num_agents=3, horizon=60)
    return {
        "idle-epoch": synthetic_config(
            {1: 0.2, 2: 0.5, 3: 0.35}, horizon=60, epochs=IDLE_EPOCHS,
            activation=(1.0, 0.15), task=uniform, master_seed=3,
        ),
        "ragged-patch": _ragged(task=uniform, activation=(0.9, 0.7, 1.0)),
        "ragged-reset-all": _ragged(learner=LearnerParams(patch_mode="reset_all")),
        "ragged-reset-new": _ragged(learner=LearnerParams(patch_mode="reset_new"), task=uniform),
        "ragged-mixed-learners": _ragged(
            learners=(
                LearnerParams(feedback="full", use_demand_weight=False),
                LearnerParams(gamma_ratio=0.0, uniform_mix=0.2, patch_mode="reset_new"),
                LearnerParams(schedule_a=2.0, gamma_ratio=0.3),
            ),
            task=uniform,
        ),
        "ragged-linear": _ragged(coupling="linear", theta=0.15),
        "truncnorm": synthetic_config(
            {1: 0.3, 2: 0.4, 3: 0.6}, num_agents=3, horizon=120,
            task=TaskSizeLaw(law="truncnorm", q_lo=0.2e6, q_hi=1.0e6), activation=(0.8, 0.8, 0.8),
        ),
        "physical-ragged": dataclasses.replace(
            physical,
            candidates=CandidateSchedule(epochs=(
                (1, ((1, 2), (1, 2, 3, 4), (3,))),
                (31, ((1, 2, 3, 4), (2, 4), (3, 4))),
            )),
            activation=(1.0, 0.6, 0.8),
        ),
    }


@functools.lru_cache(maxsize=None)
def cases() -> dict:
    out = {}
    for name in BUNDLED:
        spec = load_config(bundled_config(name))
        for variant in spec.variants:
            for run_id in (0, 1):
                out[f"{name}/{variant.name}/{run_id}"] = (spec.game_for(variant), run_id)
    for name, config in edge_cases().items():
        for run_id in (0, 1):
            out[f"{name}/{run_id}"] = (config, run_id)
    return out


def trace_sha256(trace, path) -> str:
    write_trace(trace, path)
    text = io.StringIO()
    format_trace(read_trace(path), text)
    return hashlib.sha256(text.getvalue().encode()).hexdigest()


GOLDEN = {
    "acceptance-small/perturbed/0": "73217b67af31ac58b423c7121641fd1d30fba71e2bb78b4591a86a0f8787cd8c",
    "acceptance-small/perturbed/1": "b4ed7b39d73edd3f2f4ceaaef6c3a56f86ff70ee79621482486d600f9a9f1bea",
    "idle-epoch/0": "1aa1ef0398f869512203a63513e9fe3f5a82d63271b07ee4a98e20a31f292926",
    "idle-epoch/1": "c1300cc991a6d852aca9c9906ebb2a5435de057d8a5734bfe83366672e326bf8",
    "paper-fig2/explicit/0": "4709d0aeadb863dd93b4fdb1b4595b63f1be5e334314874dd5666ddaba4a0068",
    "paper-fig2/explicit/1": "9eaf43c7eeb8fdbf8415871115bc9d9e67e9493b848787506dccee97479c47de",
    "paper-fig2/full-feedback/0": "398baf834be6b7be2240aeb1f2ceaf704aa9f55ef779d8b55bf6de810f96dd63",
    "paper-fig2/full-feedback/1": "d0d0110e1f3f55f3eff71853b02c0ec624fb215ebda02d76d2279f42f4a612e2",
    "paper-fig2/perturbed/0": "2aa0d39aafd5b206e503c7dba1b433cf0a780cc7097fecbaca34988014fe1183",
    "paper-fig2/perturbed/1": "f6839043c1f46abc04bcd794314df5dfd5ae8db731c0c9314e1d5a27539f8813",
    "paper-fig2/vanilla-ix/0": "2318fac885f158628b71d2d123b569a227edeb51b274002c2f443a3c268b6995",
    "paper-fig2/vanilla-ix/1": "053db787dbcad7ff2f9eb167ce80d97e4e1161337299207cd051293634e539b0",
    "paper-fig3/explicit/0": "444642ed1b688e93b1e702cf4b0fa85bedf3d7058bd126dae09027a9235b4bf5",
    "paper-fig3/explicit/1": "1634b7f670bfe701207794bae353a554fabc4c052920ec82d59a264ac8b50f8c",
    "paper-fig3/perturbed/0": "e1c23374dee8df0c5c68362c43cc4bcafa9de6e0a2ee3e01df7a74df984f7cbe",
    "paper-fig3/perturbed/1": "310a4221117aea8612bdbca29e93dd68c21cb4cf07d83513d9b7039ba81ae577",
    "paper-fig3/vanilla-ix/0": "4ede0a15f3f84b081432c2573e5e01e6c4ebcd723c8fe2117ce9e5d05dd2f64a",
    "paper-fig3/vanilla-ix/1": "0d9e2333855b04e30af623f75deb9c91c09c16fd3c0cf10d200da4750786fb37",
    "paper-fig4/fast/0": "7a204012b6a4e04e806354da0834eb93da6fefc566173f5db660a238f4ced1ef",
    "paper-fig4/fast/1": "a71cef715e0febac89261ef4880fd5fb4c36025f24879fb9076a02ae35addc18",
    "paper-fig4/medium/0": "0d947747e3ed50df8475e0445a39a0d2a64f06005d6fa71376b6c13968de32b6",
    "paper-fig4/medium/1": "2ed75ba18d3a69cf317af1078ae384ecab12ef31df7491577e1d849b12d4434b",
    "paper-fig4/slow/0": "0662efb2975c7c5ef4a549fb32225fc83bef6dc4a53f724e1567451424b9275b",
    "paper-fig4/slow/1": "d6f390cc35f49cda29036ac01e4466cf64b25a2043152711263bc6135a2efb26",
    "paper-fig5/full-reset/0": "46c228a8fdac1f939aed7c895419488e1743f9ca2b5a393ef91e978462b50220",
    "paper-fig5/full-reset/1": "01b97e9dad703304ab58527cf421e9ff8a114abbb33fc86b2f4114b52b78ba90",
    "paper-fig5/patched/0": "bc4d899534e39141f392812ddf7aef555c57318b9fdfe4dbc5eb9b8a032d1f01",
    "paper-fig5/patched/1": "17e76439b1cb51a715ef6b857322235e067a743bcdf3e7d62a4ccee11b09d991",
    "physical-ragged/0": "9072169a77437e4d3d1c814f6e97163dbf01cf94a66cf1e6d03d6cf37d418808",
    "physical-ragged/1": "8f9c4bb8d2e4e30002f16152d2a05acc3fc0661bc419740b12d6606e6b33ff1d",
    "ragged-linear/0": "620e85405d29bc85fdf5f219221a4618e6b4e306ed51e9ab4c7e24d8798c1908",
    "ragged-linear/1": "040ff1a447ae409f4dc3f8fad4c7468425cc1f8c3d7de2faae566406bf81b73c",
    "ragged-mixed-learners/0": "da378ce1fc4440f7f67dd0e216cf118dac966a98581dbd52fdcdb6ba3ffa896e",
    "ragged-mixed-learners/1": "5a78d9b242823ee808ee1a5488845ebaab5bc1d5af8e8f6341d42e25a88a9264",
    "ragged-patch/0": "b01d420b2bbb72b2530f72dbd99c00cf38636e8f6ffc43c94c57628a000e475a",
    "ragged-patch/1": "7eda81cf0f0f7fa9cc18e379e033fbcd6758191bda3781ad12d0d0743caa9b13",
    "ragged-reset-all/0": "056fe4e5cb17dcd6a27731d7323f37b11dce7cbff95ce1cedfe5e1806b5b05f0",
    "ragged-reset-all/1": "bcf2d307ff34cccada7ce449b41f2d3abbb60a939ff67a0b616093cd6518f830",
    "ragged-reset-new/0": "9a40213a115595dae4e8c1392a38e07c7b7119323d0160364f0a0de217c73f20",
    "ragged-reset-new/1": "70d978f2737df8ef7b05d8f40eedc5a1207dbac4aec7ba788e2bac664a7f50a9",
    "truncnorm/0": "3331fd5144a098f74fe3662853b7af3cad7c136a48c99433883bc415c950bdb8",
    "truncnorm/1": "ffd065f3e58e4cf32c67b3ea79f1994c24f47a57f404fbc8469b1dca218f393a",
}


def test_edge_cases_reach_their_edges():
    # the idle case really leaves agent 1 idle through a whole epoch
    config = edge_cases()["idle-epoch"]
    trace = run_game(config, 0)
    bounds = config.candidates.epoch_bounds(config.horizon)
    assert any(not trace.active[lo : hi + 1, 1].any() for lo, hi in bounds)
    sizes = {len(s) for _, sets in RAGGED_EPOCHS for s in sets}
    assert 1 in sizes and max(sizes) >= 8


@pytest.mark.parametrize("key", sorted(cases()))
def test_golden_trace(key, tmp_path):
    config, run_id = cases()[key]
    assert trace_sha256(run_game(config, run_id), tmp_path / "run.trace") == GOLDEN[key]


# the learners of a second variant batched with each case: every parameter
# differs from the defaults
OTHER_LEARNER = LearnerParams(schedule_a=2.0, gamma_ratio=0.3, use_demand_weight=False,
                              patch_mode="reset_all", uniform_mix=0.1, feedback="full")


def partner(config):
    return dataclasses.replace(config, learners=(OTHER_LEARNER,) * config.num_agents)


def raw_bytes(trace, path) -> bytes:
    write_trace(trace, path)
    return path.read_bytes()


def _alone(name, path) -> dict:
    """The trace file bytes of case ``name``'s partner at run ids 0 and 1, played alone."""
    other = partner(cases()[f"{name}/0"][0])
    return {rid: raw_bytes(run_game(other, rid), path) for rid in (0, 1)}


def _two_variants(name, ids, path, alone) -> None:
    """Case ``name`` and its partner played as one batch: the case's traces
    give their golden digests, the partner's the bytes it gives alone."""
    config, _ = cases()[f"{name}/0"]
    traces = game.run_games([config, partner(config)], ids)
    assert [(t.config.learners, t.run_id) for t in traces] == [
        (learners, rid) for learners in (config.learners, (OTHER_LEARNER,) * config.num_agents) for rid in ids
    ]
    for trace in traces[: len(ids)]:
        assert trace_sha256(trace, path) == GOLDEN[f"{name}/{trace.run_id}"]
    for trace in traces[len(ids) :]:
        assert raw_bytes(trace, path) == alone[trace.run_id]


@pytest.mark.parametrize("name", sorted({key.rsplit("/", 1)[0] for key in GOLDEN}))
def test_golden_traces_in_one_batch(name, tmp_path, monkeypatch):
    # run ids 0 and 1 stepped together as one batch give the same bytes, also
    # next to a second variant; the batch bound is lifted so that the long
    # bundled games batch too
    alone = _alone(name, tmp_path / "run.trace")
    monkeypatch.setattr(game, "_BATCH_BYTES", 2**40)
    config, _ = cases()[f"{name}/0"]
    assert game.batches(config, [0, 1]) == [[0, 1]]
    traces = game.run_games(config, [0, 1])
    assert [t.run_id for t in traces] == [0, 1]
    for trace in traces:
        assert trace_sha256(trace, tmp_path / "run.trace") == GOLDEN[f"{name}/{trace.run_id}"]
    assert game.batches([config, partner(config)], [0, 1]) == [[0, 1]]
    _two_variants(name, [0, 1], tmp_path / "run.trace", alone)


@pytest.mark.parametrize("cells", [1, 240, 2**15, 2**40])
@pytest.mark.parametrize(
    "name", ["acceptance-small/perturbed", "idle-epoch", "ragged-mixed-learners", "truncnorm", "physical-ragged"]
)
def test_golden_traces_at_block_extremes(name, cells, tmp_path, monkeypatch):
    # block edges move with the batch size; one round per block, one block
    # per epoch and blocks whose cost table is taken in spans that do not
    # divide them give the same bytes, alone and in a batch of two run ids,
    # also with a second (full-feedback) variant in the batch, and each kept
    # game streams the file that write_trace packs of the same batch played
    # unkept with every column.  At 240 cells acceptance-small's 2 run ids
    # play 15-round blocks in 10-round spans, ragged-mixed-learners'
    # full-feedback agent 5-round blocks in 2-round spans alone, and
    # physical-ragged's 2 run ids 5-round blocks in 2-round spans.
    alone = _alone(name, tmp_path / "run.trace")
    monkeypatch.setattr(game, "_BLOCK_CELLS", cells)
    monkeypatch.setattr(game, "_BATCH_BYTES", 2**40)
    config, _ = cases()[f"{name}/0"]
    every = [name for name, _, _ in game._COLUMNS]
    for ids in ([0], [1], [0, 1]):
        unkept = game.run_games(config, ids, keep=set(), columns=every)
        for trace, whole in zip(game.run_games(config, ids), unkept):
            assert trace_sha256(trace, tmp_path / "run.trace") == GOLDEN[f"{name}/{trace.run_id}"]
            assert raw_bytes(trace, tmp_path / "run.trace") == raw_bytes(whole, tmp_path / "whole.trace")
    _two_variants(name, [0, 1], tmp_path / "run.trace", alone)
