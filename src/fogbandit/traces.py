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
    one run id share their ``game._SHARED`` columns.

    A trace need not hold every column.  A trace that ``derives`` (a kept
    game's of ``run_games``, or ``read_trace``'s) holds every ``_STORED``
    column and derives any ``_DERIVED`` column it lacks, by the rule a
    trace file derives it by, the first time it is read, and then keeps
    it.  Any other trace of ``run_games`` holds ``active`` plus the columns
    its caller asked for, and reading any other column raises
    ``AttributeError``, also where those are every ``_STORED`` column: no
    check compared the values its file would give back with the loop's.
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
                 cost_cap: float | None = None, derives: bool = False):
        self.config = config
        self.run_id = run_id
        self.cost_cap = cost_cap
        self.derives = derives
        vars(self).update(columns or {name: col[0] for name, col in _stacked(config, 1).items()})
        self.kmax = _kmax(config)

    def __getattr__(self, name: str):
        # reached only for a column the trace does not hold
        if name not in _DERIVED or not vars(self).get("derives"):
            raise AttributeError(f"trace has no column {name!r}")
        value = _derive(self, name)
        setattr(self, name, value)
        return value

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
# the columns a trace file leaves out, each with the rule it derives them by,
# in the order a check names the first one that differs
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
# the columns the learner rules read (see ``_rules``)
_INPUTS = ("clock", "task_size", "chosen", "probs", "cf_raw")
# the columns a trace file holds, in file order: active whole, then each at its cells
_STORED = tuple(column for column in _COLUMNS if column[0] not in _DERIVED)


def _header(trace: GameTrace, **extra) -> str:
    header = {"config": trace.config.to_dict(), "run_id": trace.run_id,
              "config_sha256": trace.config.digest(), **extra}
    return "# " + json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"


def _layout(trace: GameTrace) -> SimpleNamespace:
    """Where a trace file holds a trace's cells, from ``active`` alone.

    ``at`` holds the flat [round, agent] indices of the active agent-rounds
    (row 0, the padding, left out) in (round, agent) order, ``cuts`` where
    in it each epoch starts, then its length, and ``widths`` each epoch's
    largest candidate set: a file holds ``probs`` and ``cf_raw`` over that
    many slots of each of the epoch's agent-rounds, ``slots`` cells in all.
    """
    n = trace.num_agents
    live = np.array(trace.active, dtype=bool).reshape(-1)
    live[:n] = False
    at = np.flatnonzero(live)
    del live
    epochs = trace.epochs()
    cuts = np.searchsorted(at, [lo * n for lo, _, _ in epochs] + [n * (trace.horizon + 1)]).tolist()
    widths = [max(map(len, sets)) for _, _, sets in epochs]
    slots = sum((b - a) * k for a, b, k in zip(cuts, cuts[1:], widths))
    return SimpleNamespace(at=at, cuts=cuts, widths=widths, slots=slots)


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


# values of one column that a trace file reads or writes at a time, at most
_PIECE = 1 << 12


def _pieces(name: str, lay):
    """The cells of a stored column (past ``active``) that a trace file
    holds, in file order, a piece of at most ``_PIECE`` values at a time:
    (flat [round, agent] indices, the slots held at each, or None for a
    [round, agent] column)."""
    spans = zip(lay.cuts, lay.cuts[1:], lay.widths) if name in _PER_SLOT else [(0, lay.at.size, None)]
    for a, b, k in spans:
        step = _PIECE // (k or 1)
        for lo in range(a, b, step):
            yield lay.at[lo : min(lo + step, b)], k


def _held(name: str, lay) -> int:
    """How many values of a stored column (past ``active``) a trace file holds."""
    return lay.slots if name in _PER_SLOT else lay.at.size


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether ``b``, as ``a``'s dtype, holds ``a``'s values bit for bit (NaN
    equals NaN, -0.0 differs from +0.0)."""
    b, bits = np.asarray(b, dtype=a.dtype), f"<u{a.itemsize}"
    return a.shape == b.shape and not np.any(a.view(bits) != b.view(bits))


def _params(learners) -> SimpleNamespace:
    """The learners' parameters, each an array over the learners."""
    learners = list(learners)
    return SimpleNamespace(**{attr: np.array([getattr(p, attr) for p in learners]) for attr in
                              ("schedule_a", "gamma_ratio", "use_demand_weight", "uniform_mix", "feedback")})


def _rules(k, row, params, arms, cells, task_size, cost_cap) -> dict[str, np.ndarray]:
    """The ``_DERIVED`` rules of the learner columns, and of ``cf_norm`` and
    ``cost_norm``, at active agent-rounds of one epoch whose agents hold
    sets of ``k`` arms: one step over all of them, by the ``bandit``
    functions the round loop steps the learners with.  Cell i is a round
    of row ``row[i]``, whose learner has the ``params`` (see ``_params``)
    and candidate arms ``arms`` at that row; ``cells`` holds the clock,
    task size and chosen arm there, and ``probs`` and ``cf_raw`` per slot."""
    rates = bandit.learning_rates(cells["clock"], k, params.schedule_a[row], params.gamma_ratio[row])
    cf_norm = normalized(cells["cf_raw"], cost_cap)
    slot = (cells["chosen"][:, None] == arms[row]).argmax(axis=1)
    cost_norm = cf_norm[np.arange(slot.size), slot]
    estimates = bandit.estimate_cost(cost_norm, slot, cells["probs"], rates.gamma, out=np.empty(cf_norm.shape))
    full = params.feedback[row] == "full"
    estimates[full] = cf_norm[full]
    weight = bandit.demand_weight(cells["task_size"], task_size.q_lo, task_size.q_hi)
    return {"cf_norm": cf_norm, "cost_norm": cost_norm, "eta": rates.eta, "gamma": rates.gamma,
            "zeta": np.where(params.use_demand_weight[row], weight, 1.0), "estimates": estimates}


def _derive(trace: GameTrace, name: str) -> np.ndarray:
    """Column ``name`` of a trace by its ``_DERIVED`` rule, from the trace's other columns."""
    out = _stacked(trace.config, 1, [name])[name][0]
    if name == "clock":
        _clock(trace.active, out)
        return out
    if name == "cf_norm":
        return normalized(trace.cf_raw, trace.cost_cap, out=out)
    lay, flat, n = _layout(trace), out.reshape(-1), trace.num_agents
    if name in ("congestion", "cost_norm", "cost_real"):
        cells = _cells(trace, lay)
        if name == "congestion":
            flat[lay.at] = cells.congestion
        else:
            raw = trace.cf_raw.reshape(-1)[cells.chosen_at]
            flat[lay.at] = raw if name == "cost_real" else normalized(raw, trace.cost_cap)
        return out
    # learner columns: one step per epoch, candidate-set size and piece of _PIECE agent-rounds
    for a, b, (_, _, sets) in zip(lay.cuts, lay.cuts[1:], trace.epochs()):
        sizes = np.array([len(arms) for arms in sets])
        for k in sorted(set(sizes.tolist())):
            agents = np.flatnonzero(sizes == k)
            cells = lay.at[a:b][sizes[lay.at[a:b] % n] == k]
            for lo in range(0, cells.size, _PIECE):
                at = cells[lo : lo + _PIECE]
                held = {c: getattr(trace, c).reshape(-1, trace.kmax)[at, :k] if c in _PER_SLOT
                        else getattr(trace, c).reshape(-1)[at] for c in _INPUTS}
                rule = _rules(k, np.searchsorted(agents, at % n), _params(trace.config.learners[i] for i in agents),
                              np.array([sets[i] for i in agents]), held, trace.config.task_size, trace.cost_cap)
                if name == "estimates":
                    out.reshape(-1, trace.kmax)[at, :k] = rule[name]
                else:
                    flat[at] = rule[name]
    return out


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
    left out must be the one ``read_trace`` gives back, bit for bit: a
    stored column's ``_COLUMNS`` fill, and the value of its ``_DERIVED``
    rule for each derived column the trace holds.  (A kept game of
    ``game.run_games`` holds few of those: the round loop checked its
    derived values block by block.)  If one is not, the file is removed
    and a ValueError names the column.
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
    _cells(trace, lay)  # a chosen arm outside its candidate set raises
    for name, dtype, fill in _STORED[1:]:
        values = np.ascontiguousarray(getattr(trace, name), dtype=dtype)
        bits = f"<u{values.itemsize}"
        blank = np.array(fill, dtype=dtype).view(bits)
        # the cells left out hold the fill: as many fills as the column holds past the written ones
        left = np.count_nonzero(values.view(bits) == blank)
        for at, k in _pieces(name, lay):
            part = values.reshape(-1)[at] if k is None else values.reshape(-1, trace.kmax)[at, :k]
            left -= np.count_nonzero(part.view(bits) == blank)
            fh.write(part)
        if left != values.size - _held(name, lay):
            raise ValueError(f"{name} holds a value other than {_left_out(name, fill)}")
    # each derived column the trace holds, against its rule on the stored columns alone, one at a time
    stored = GameTrace(trace.config, trace.run_id, {name: getattr(trace, name) for name, _, _ in _STORED},
                       trace.cost_cap, derives=True)
    for name in _DERIVED:
        if name in vars(trace) and not _same_bits(_derive(stored, name), vars(trace)[name]):
            raise ValueError(f"{name} holds a value other than {_left_out(name, None)}")


def _left_out(name: str, fill) -> str:
    """What a trace file gives a column back in the cells it leaves out."""
    if name in _DERIVED:
        return f"{_DERIVED[name]}, which a trace file derives"
    return (f"{fill} in a cell that a trace file leaves out (an inactive agent-round, or a slot "
            f"past its epoch's largest candidate set)")


def read_trace(path) -> GameTrace:
    """Read a trace file into a fresh GameTrace: its ``cost_cap`` and the
    ``_STORED`` columns, each cell the file leaves out at its fill.  The
    ``_DERIVED`` columns are derived when first read, by the rules
    ``write_trace`` holds them to."""
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != _TRACE_MAGIC:
            found = magic[:40].decode("ascii", "replace").strip()
            raise ValueError(f"{path}: not a fogbandit trace v6 (bad magic line {found!r}); a trace "
                             "file of an older format must be written again by `fogbandit run`")
        try:
            header = json.loads(fh.readline().removeprefix(b"# "))
            config = parse_game(header["config"])
            active = _stacked(config, 1, ["active"])["active"][0]
            trace = GameTrace(config, header.get("run_id", 0), {"active": active}, float(header["cost_cap"]),
                              derives=True)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: damaged trace header: {exc}") from None
        size, start = os.fstat(fh.fileno()).st_size, fh.tell()
        fh.readinto(memoryview(trace.active).cast("B"))  # a short read leaves the size check failing
        lay = _layout(trace)
        expected = start + trace.active.nbytes + 8 * sum(_held(name, lay) for name, _, _ in _STORED[1:])
        if size != expected:
            raise ValueError(
                f"{path}: damaged trace: {size} bytes where the header and columns take {expected}"
            )
        for name, dtype, _ in _STORED[1:]:  # each column allocated as it is read
            column = _stacked(trace.config, 1, [name])[name][0]
            setattr(trace, name, column)
            for at, k in _pieces(name, lay):
                part = np.frombuffer(fh.read(at.size * (k or 1) * 8), dtype)
                if k is None:
                    column.reshape(-1)[at] = part
                else:
                    column.reshape(-1, trace.kmax)[at, :k] = part.reshape(-1, k)
            if name == "chosen":  # it places the others
                try:
                    _cells(trace, lay)
                except ValueError as exc:
                    raise ValueError(f"{path}: damaged trace: {exc}") from None
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
