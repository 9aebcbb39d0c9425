"""Game traces: the per-round columns of one replication, and trace files.

A GameTrace holds one array per ``_COLUMNS`` entry.  Trace files hold the
values of a trace's columns that the rest of the file does not determine,
as raw little-endian bytes (``write_trace``/``read_trace``);
``format_trace`` renders a trace as text, one agent-round per line.  The
round loop that fills traces is ``game``.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import numpy as np

from . import bandit
from .configio import GameConfig, parse_game
from .env import normalized


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
    with the round's candidate tuple.  Every column but ``active`` and
    ``clock`` holds its ``_COLUMNS`` fill value at each inactive agent-round
    and in row 0, and the last four hold NaN past their epoch's largest
    candidate set: a trace file leaves those cells out, and the values its
    other columns determine (see ``write_trace``).  The traces of one
    ``run_games`` batch share storage: each column is a view of one stacked
    [game, round, agent(, slot)] array (see ``_stacked``), and the games of
    one run id share their ``game._SHARED`` columns.  A trace that ``run_games``
    was not asked to keep whole holds ``active`` plus the columns its caller
    asked for, and reading any other column raises ``AttributeError``.
    Among those may be ``cf_best``, which no trace file holds:
    ``cf_best[t, n]`` is the least, over agent n's candidate slots, of its
    counterfactual normalized costs summed over its active rounds from the
    start of its segment (see ``metrics.agent_segments``) through round t,
    as ``metrics.running_best_sums`` takes it.

    ``clock[t, n]`` is agent n's running count of activations through round
    t, except in rounds where no agent is active: there every agent's clock
    reads 0.  Recorded traces have always carried that 0, and the golden
    digests pin it.

    ``cost_cap`` is the cap ``game._fill`` normalized the trace's costs by
    (``cf_norm`` is ``env.normalized(cf_raw, cost_cap)``): ``game._play`` sets
    it from the batch's Environment, ``read_trace`` from the file's header.
    A blank trace has None, and no trace file.
    """

    def __init__(self, config: GameConfig, run_id: int, columns: dict | None = None,
                 cost_cap: float | None = None):
        self.config = config
        self.run_id = run_id
        self.cost_cap = cost_cap
        vars(self).update(columns or {name: col[0] for name, col in _stacked(config, 1).items()})
        self.kmax = _kmax(config)

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


def _kmax(config: GameConfig) -> int:
    return max(len(s) for _, sets in config.candidates.epochs for s in sets)


def _stacked(config: GameConfig, games: int, names=None) -> dict[str, np.ndarray]:
    """Blank trace columns (all, or the named) of ``games`` games, [game, round, agent(, slot)]."""
    shape = (games, config.horizon + 1, config.num_agents)
    kmax = _kmax(config)
    return {name: np.full(shape + (kmax,) if name in _PER_SLOT else shape, fill, dtype=dtype)
            for name, dtype, fill in _COLUMNS if names is None or name in names}


def _clock(active: np.ndarray, out: np.ndarray) -> None:
    """Each agent's running count of activations, [round, agent], into ``out``;
    recorded traces carry clock 0 in rounds where no agent plays."""
    np.cumsum(active, axis=0, out=out)
    out[~active.any(axis=1)] = 0


# ---------------------------------------------------------------------------
# trace files: raw columns, and their text form
# ---------------------------------------------------------------------------

_TRACE_MAGIC = b"# fogbandit-trace v6\n"
_TEXT_MAGIC = "# fogbandit-trace v2\n"
# the columns a trace file leaves out, in the order ``read_trace`` derives
# them, each with the rule it derives them by
_DERIVED = {
    "clock": "the running count of active (0 in a round where no agent plays)",
    "congestion": "the number of active agents on the chosen arm in the round",
    "cf_norm": "cf_raw normalized by cost_cap",
    "cost_norm": "cf_norm at the chosen slot",
    "cost_real": "cf_raw at the chosen slot",
    "zeta": "bandit.demand_weight of task_size, or 1 where the learner's use_demand_weight is off",
    "eta": "bandit.learning_rates' eta of the clock on the agent's own candidate set, by its learner",
    "gamma": "bandit.learning_rates' gamma of the clock on the agent's own candidate set, by its learner",
    "estimates": "bandit.estimate_cost of cost_norm at the chosen slot (+0.0 at a bandit-feedback "
                 "agent's other slots), or cf_norm at a full-feedback agent's slots",
}
# the columns a trace file holds, in file order: active whole, then each at its cells
_STORED = tuple(column for column in _COLUMNS if column[0] not in _DERIVED)
# every column past active, in the order write_trace checks them: the stored, then the derived
_CHECKED = _STORED[1:] + tuple(column for name in _DERIVED for column in _COLUMNS if column[0] == name)


def _header(trace: GameTrace, **extra) -> str:
    header = {"config": trace.config.to_dict(), "run_id": trace.run_id,
              "config_sha256": trace.config.digest(), **extra}
    return "# " + json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"


def _layout(trace: GameTrace) -> SimpleNamespace:
    """Where a trace file holds a trace's cells, from ``active`` alone.

    ``at`` holds the flat [round, agent] indices of the active agent-rounds
    (row 0, the padding, left out) in (round, agent) order, and ``cuts``
    where in it each epoch starts, then its length.  ``slot_at`` holds the
    flat [round, agent, slot] indices of their slots within their epoch's
    largest candidate set, in the same order: the cells where a file holds
    ``probs`` and ``cf_raw``.
    """
    n, kmax = trace.num_agents, trace.kmax
    live = np.array(trace.active, dtype=bool).reshape(-1)
    live[:n] = False
    at = np.flatnonzero(live)
    del live
    epochs = trace.epochs()
    cuts = np.searchsorted(at, [lo * n for lo, _, _ in epochs] + [n * (trace.horizon + 1)]).tolist()
    widths = [max(map(len, sets)) for _, _, sets in epochs]
    slot_at = np.empty(sum((b - a) * k for a, b, k in zip(cuts, cuts[1:], widths)), dtype=np.int64)
    start = 0
    for a, b, k in zip(cuts, cuts[1:], widths):
        cells = slot_at[start : start + (b - a) * k]
        start += cells.size
        np.add(at[a:b, None] * kmax, np.arange(k), out=cells.reshape(-1, k))
    return SimpleNamespace(at=at, cuts=cuts, slot_at=slot_at)


def _cells(trace: GameTrace, lay: SimpleNamespace) -> SimpleNamespace:
    """What the chosen arms of the active agent-rounds (``lay.at``) place.

    ``chosen_at`` holds the flat [round, agent, slot] index of each one's
    chosen slot, and ``congestion`` the number of active agents on each
    chosen arm in its round.  A chosen arm outside its agent's candidate set
    raises ValueError.
    """
    n, kmax = trace.num_agents, trace.kmax
    ids = np.sort(trace.config.env.arm_ids())  # distinct; an arm's rank is its index here
    ranks = {arm: i for i, arm in enumerate(ids.tolist())}
    chosen = trace.chosen.reshape(-1)[lay.at]
    rank = np.searchsorted(ids, chosen)
    np.minimum(rank, ids.size - 1, out=rank)
    stray = ids[rank] != chosen
    del chosen
    chosen_at = lay.at * kmax  # plus each chosen slot, epoch by epoch
    for a, b, (_, _, sets) in zip(lay.cuts, lay.cuts[1:], trace.epochs()):
        slot_of = np.full((n, ids.size), -1)  # [agent, arm rank] the arm's slot, -1 outside the set
        for agent, arms in enumerate(sets):
            slot_of[agent, [ranks[arm] for arm in arms]] = range(len(arms))
        slot = lay.at[a:b] % n * ids.size
        slot += rank[a:b]
        np.take(slot_of.reshape(-1), slot, out=slot)  # buffered, so out may be the indices
        stray[a:b] |= slot < 0
        chosen_at[a:b] += slot
    if stray.any():
        cell = int(lay.at[stray.argmax()])
        raise ValueError(f"chosen holds arm {trace.chosen.flat[cell]} at round {cell // n}, "
                         f"outside agent {cell % n}'s candidate set")
    key = lay.at // n  # the (round, arm) each chosen arm counts toward
    key *= ids.size
    key += rank
    del rank
    congestion = np.bincount(key)[key]
    return SimpleNamespace(chosen_at=chosen_at, congestion=congestion)


def _held(name: str, lay) -> np.ndarray:
    """The flat indices of a stored column's cells (past ``active``) that a trace file holds."""
    return lay.slot_at if name in _PER_SLOT else lay.at


def _learner_rule(name: str, out: np.ndarray, trace: GameTrace) -> None:
    """The ``_DERIVED`` rule of ``zeta``, ``eta``, ``gamma`` or ``estimates``
    into ``out``, by the functions of ``bandit`` the round loop steps the
    learners with, one agent's active rounds of an epoch at a time."""
    ts = trace.config.task_size
    for lo, hi, sets in trace.epochs():
        rounds = slice(lo, hi + 1)
        for agent, (learner, arms) in enumerate(zip(trace.config.learners, sets)):
            act, cell, k = trace.active[rounds, agent], out[rounds, agent], len(arms)
            if name == "zeta" and not learner.use_demand_weight:
                cell[act] = 1.0
            elif name == "zeta":
                cell[act] = bandit.demand_weight(trace.task_size[rounds, agent][act], ts.q_lo, ts.q_hi)
            elif name in ("eta", "gamma"):
                clock = trace.clock[rounds, agent][act]
                cell[act] = getattr(bandit.learning_rates(clock, k, learner.schedule_a, learner.gamma_ratio), name)
            elif learner.feedback == "full":
                cell[act, :k] = trace.cf_norm[rounds, agent, :k][act]
            else:
                slot = (trace.chosen[rounds, agent][act, None] == arms).argmax(axis=1)
                probs = trace.probs[rounds, agent, :k][act]
                cell[act, :k] = bandit.estimate_cost(trace.cost_norm[rounds, agent][act], slot, probs,
                                                     trace.gamma[rounds, agent][act], out=np.empty(probs.shape))


def _restore(name: str, out: np.ndarray, trace: GameTrace, lay, cells, part=None) -> None:
    """Column ``name`` of a trace as its file gives it back, into ``out``, which holds the column's fill.

    A stored column takes ``part``, the values the file holds, at its cells
    (``cells`` may be None for ``chosen``).  A derived column takes the
    values of its ``_DERIVED`` rule, from ``trace``'s other columns.
    """
    flat = out.reshape(-1)
    if name == "clock":
        _clock(trace.active, out)
    elif name == "congestion":
        flat[lay.at] = cells.congestion
    elif name == "cf_norm":
        normalized(trace.cf_raw, trace.cost_cap, out=out)
    elif name in ("cost_norm", "cost_real"):
        source = trace.cf_norm if name == "cost_norm" else trace.cf_raw
        flat[lay.at] = source.reshape(-1)[cells.chosen_at]
    elif name in ("zeta", "eta", "gamma", "estimates"):
        _learner_rule(name, out, trace)
    else:
        flat[_held(name, lay)] = part


def _part_buffer(lay) -> np.ndarray:
    """Bytes for the largest part of a column a trace file holds, reused by every column."""
    return np.empty(lay.slot_at.size * 8, dtype=np.uint8)


def write_trace(trace: GameTrace, path) -> None:
    """The magic line, a JSON header line, then the values the rest of the file does not determine.

    The header holds ``GameConfig.to_dict()``, the run id, the config
    digest and the trace's ``cost_cap``.  The ``_STORED`` columns follow in
    order with their explicit little-endian dtypes and nothing between
    them: ``active`` whole, [horizon + 1, agents], then ``chosen``,
    ``task_size``, ``cost_a``, ``cost_c`` and ``outlier`` at the active
    agent-rounds, in (round, agent) order, then ``probs`` and ``cf_raw``
    over the same agent-rounds' slots within their epoch's largest
    candidate set.  The ``_DERIVED`` columns are not written.  Every value
    left out must be the one ``read_trace`` puts back, bit for bit: the
    column's ``_COLUMNS`` fill or the value of the column's ``_DERIVED``
    rule.  If one is not, the file is removed and a ValueError names the
    column.
    """
    try:
        with open(path, "wb") as fh:
            _write(trace, fh)
    except ValueError as exc:
        os.remove(path)
        raise ValueError(f"{path}: {exc}") from None


def _write(trace: GameTrace, fh) -> None:
    if trace.cost_cap is None:
        raise ValueError("a trace without a cost_cap (a blank one) has no trace file")
    fh.write(_TRACE_MAGIC + _header(trace, cost_cap=trace.cost_cap).encode())
    fh.write(np.ascontiguousarray(trace.active, dtype="|b1"))
    lay = _layout(trace)
    cells = _cells(trace, lay)
    buf = _part_buffer(lay)
    back = np.empty(trace.cf_raw.nbytes, dtype=np.uint8)  # room for any column as the file gives it back
    for name, dtype, fill in _CHECKED:
        values = np.ascontiguousarray(getattr(trace, name), dtype=dtype)
        part = None
        if name not in _DERIVED:
            held = _held(name, lay)
            # "clip" (the indices are in range) lets take write into ``out`` unbuffered
            part = np.take(values.reshape(-1), held, out=buf[: held.size * 8].view(dtype), mode="clip")
        restored = back[: values.nbytes].view(dtype).reshape(values.shape)
        restored.fill(fill)
        _restore(name, restored, trace, lay, cells, part)
        bits = f"<u{values.itemsize}"
        if not np.array_equal(restored.view(bits), values.view(bits)):
            raise ValueError(f"{name} holds a value other than {_left_out(name, fill)}")
        if part is not None:
            fh.write(part)


def _left_out(name: str, fill) -> str:
    """What a trace file gives a column back in the cells it leaves out."""
    if name in _DERIVED:
        return f"{_DERIVED[name]}, which a trace file derives"
    return (f"{fill} in a cell that a trace file leaves out (an inactive agent-round, or a slot "
            f"past its epoch's largest candidate set)")


def read_trace(path) -> GameTrace:
    """Read a trace file into a fresh GameTrace, all 17 columns and
    ``cost_cap``: the values the file leaves out are put back by the rules
    ``write_trace`` holds them to."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != _TRACE_MAGIC:
            found = magic[:40].decode("ascii", "replace").strip()
            raise ValueError(f"{path}: not a fogbandit trace v6 (bad magic line {found!r}); a trace "
                             "file of an older format must be written again by `fogbandit run`")
        try:
            header = json.loads(fh.readline().removeprefix(b"# "))
            trace = GameTrace(parse_game(header["config"]), header.get("run_id", 0),
                              cost_cap=float(header["cost_cap"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: damaged trace header: {exc}") from None
        size, start = os.fstat(fh.fileno()).st_size, fh.tell()
        fh.readinto(memoryview(trace.active).cast("B"))  # a short read leaves the size check failing
        lay = _layout(trace)
        expected = start + trace.active.nbytes + 8 * sum(_held(name, lay).size for name, _, _ in _STORED[1:])
        if size != expected:
            raise ValueError(
                f"{path}: damaged trace: {size} bytes where the header and columns take {expected}"
            )
        buf, cells = _part_buffer(lay), None
        for name, dtype, _ in _STORED[1:]:
            part = buf[: _held(name, lay).size * 8]
            fh.readinto(part)
            _restore(name, getattr(trace, name), trace, lay, cells, part.view(dtype))
            if name == "chosen":  # it places the others
                try:
                    cells = _cells(trace, lay)
                except ValueError as exc:
                    raise ValueError(f"{path}: damaged trace: {exc}") from None
        del buf, part
    for name in _DERIVED:
        _restore(name, getattr(trace, name), trace, lay, cells)
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
