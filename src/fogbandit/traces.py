"""Game traces: the per-round columns of one replication, and trace files.

A GameTrace holds one array per ``_COLUMNS`` entry, or some of them as
the sections of its trace file (see ``GameTrace``).  Trace files hold the
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

    A trace need not hold every column.  A trace with ``sections`` (a kept
    game's of ``run_games``, or ``read_trace``'s) holds every ``_STORED``
    column, some whole and the others as ``sections``: each the flat array
    of the values its trace file holds of the column, in file order (see
    ``_split``).  A kept game's trace holds ``active`` and ``task_size``
    whole, a read one ``active``.  Such a trace unpacks a section to its
    column, and derives a ``_DERIVED`` column it lacks by the rule a trace
    file derives it by, the first time the column is read, and then keeps
    the column.  Any other trace of ``run_games`` holds
    ``active`` plus the columns its caller asked for, and reading any other
    column raises ``AttributeError``, also where those are every ``_STORED``
    column: no check compared the values its file would give back with the
    loop's.  Among those may be ``cf_best``, which no trace file holds:
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
                 cost_cap: float | None = None, sections: dict | None = None):
        self.config = config
        self.run_id = run_id
        self.cost_cap = cost_cap
        self.sections = sections
        vars(self).update(columns or {name: col[0] for name, col in _stacked(config, 1).items()})
        self.kmax = _kmax(config)

    def __getattr__(self, name: str):
        # reached only for a column the trace does not hold
        sections = vars(self).get("sections")
        if sections is None or name not in sections and name not in _DERIVED:
            raise AttributeError(f"trace has no column {name!r}")
        value = _unpack(self, name, sections[name], _layout(self)) if name in sections else _derive(self, name)
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
# the columns a trace file holds, in file order: active whole, then each at its cells
_STORED = tuple(column for column in _COLUMNS if column[0] not in _DERIVED)


def _header(trace: GameTrace, **extra) -> str:
    header = {"config": trace.config.to_dict(), "run_id": trace.run_id,
              "config_sha256": trace.config.digest(), **extra}
    return "# " + json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"


def _extent(config: GameConfig, active: np.ndarray) -> tuple[int, int]:
    """How many agent-rounds a trace file of a game with [round, agent]
    ``active`` holds, and how many ``probs`` (or ``cf_raw``) values: each
    active agent-round's slots within its epoch's largest candidate set."""
    schedule = config.candidates
    held = [(int(np.count_nonzero(active[lo : hi + 1])), max(map(len, sets)))
            for (lo, hi), (_, sets) in zip(schedule.epoch_bounds(config.horizon), schedule.epochs)]
    return sum(n for n, _ in held), sum(n * k for n, k in held)


def _split(body: np.ndarray, cells: int, slots: int, names) -> dict[str, np.ndarray]:
    """The sections of the named stored columns past ``active`` in a trace
    file's order, as views of the bytes ``body``: ``cells`` values of each
    [round, agent] column, ``slots`` of ``probs`` and ``cf_raw`` (see
    ``_extent``).  ``body`` holds them all and nothing else."""
    out, lo = {}, 0
    for name, dtype, _ in _STORED[1:]:
        if name in names:
            hi = lo + 8 * (slots if name in _PER_SLOT else cells)
            out[name] = body[lo:hi].view(dtype)
            lo = hi
    return out


def _body_bytes(cells: int, slots: int, names=None) -> int:
    """Bytes of the sections ``_split`` gives."""
    return 8 * sum(slots if name in _PER_SLOT else cells for name, _, _ in _STORED[1:]
                   if names is None or name in names)


def _layout(trace: GameTrace) -> SimpleNamespace:
    """Where a trace file holds a trace's cells, from ``active`` alone.

    ``at`` holds the flat [round, agent] indices of the active agent-rounds
    (row 0, the padding, left out) in (round, agent) order, ``cuts`` where
    in it each epoch starts, then its length, and ``widths`` each epoch's
    largest candidate set: a file holds ``probs`` and ``cf_raw`` over that
    many slots of each of the epoch's agent-rounds, from ``starts`` on in
    their sections, ``slots`` values in all.
    """
    n = trace.num_agents
    live = np.array(trace.active, dtype=bool).reshape(-1)
    live[:n] = False
    at = np.flatnonzero(live)
    del live
    epochs = trace.epochs()
    cuts = np.searchsorted(at, [lo * n for lo, _, _ in epochs] + [n * (trace.horizon + 1)]).tolist()
    widths = [max(map(len, sets)) for _, _, sets in epochs]
    starts = np.cumsum([0] + [(b - a) * k for a, b, k in zip(cuts, cuts[1:], widths)]).tolist()
    return SimpleNamespace(at=at, cuts=cuts, widths=widths, starts=starts, slots=starts[-1])


def _epochs(lay: SimpleNamespace):
    """Per epoch of a layout: its cells' span in ``at``, its width and where its slots start."""
    return zip(lay.cuts, lay.cuts[1:], lay.widths, lay.starts)


def _pack_into(section: np.ndarray, offset: int, rows: np.ndarray, at: np.ndarray) -> int:
    """Write ``rows[at]`` into a section from ``offset`` on, as a trace file
    holds them: ``rows`` holds [round * agent(, slot)] values, a per-slot
    column's over the largest candidate set of the one epoch ``at`` lies
    in, and ``at`` the flat indices of active agent-rounds in (round,
    agent) order.  The offset past them."""
    shape = (at.size,) + rows.shape[1:]
    end = offset + int(np.prod(shape))
    np.take(rows, at, axis=0, out=section[offset:end].reshape(shape), mode="clip")  # at is in range
    return end


def _section(trace: GameTrace, name: str, lay: SimpleNamespace) -> np.ndarray:
    """A stored column past ``active`` as a trace file holds it, in file
    order: the trace's section, or, where the trace holds the column
    itself, the column packed (a copy, of the column's ``_COLUMNS`` dtype)."""
    if name not in vars(trace) and trace.sections is not None:
        return trace.sections[name]
    dtype = next(dtype for column, dtype, _ in _STORED if column == name)
    values = np.asarray(getattr(trace, name), dtype=dtype)
    if name not in _PER_SLOT:
        out = np.empty(lay.at.size, dtype)
        _pack_into(out, 0, values.reshape(-1), lay.at)
        return out
    rows, out = values.reshape(-1, trace.kmax), np.empty(lay.slots, dtype)
    for a, b, k, s in _epochs(lay):
        _pack_into(out, s, rows[:, :k], lay.at[a:b])
    return out


def _unpack(trace: GameTrace, name: str, values: np.ndarray, lay: SimpleNamespace) -> np.ndarray:
    """Column ``name`` from ``values`` laid out as its section, each cell a
    trace file leaves out at the column's fill."""
    out = _stacked(trace.config, 1, [name])[name][0]
    if name not in _PER_SLOT:
        out.reshape(-1)[lay.at] = values
        return out
    rows = out.reshape(-1, trace.kmax)
    for a, b, k, s in _epochs(lay):
        rows[lay.at[a:b], :k] = values[s : s + (b - a) * k].reshape(-1, k)
    return out


# active agent-rounds that ``_cells`` places, or whose learner rules
# ``_derive`` applies, at a time, at most
_PIECE = 1 << 12


def _cells(trace: GameTrace, lay: SimpleNamespace, chosen: np.ndarray) -> np.ndarray:
    """Where the chosen arms of the active agent-rounds (``lay.at``), given
    as a ``chosen`` section, sit: the index of each one's chosen slot in a
    ``probs`` or ``cf_raw`` section, placed ``_PIECE`` at a time.  A chosen
    arm outside its agent's candidate set raises ValueError.
    """
    n = trace.num_agents
    ids = np.sort(trace.config.env.arm_ids())  # distinct; an arm's rank is its index here
    ranks = {arm: i for i, arm in enumerate(ids.tolist())}
    out = np.empty_like(lay.at)
    for (a, b, k, s), (_, _, sets) in zip(_epochs(lay), trace.epochs()):
        slot_of = np.full((n, ids.size), -1)  # [agent, arm rank] the arm's slot, -1 outside the set
        for agent, arms in enumerate(sets):
            slot_of[agent, [ranks[arm] for arm in arms]] = range(len(arms))
        for lo in range(a, b, _PIECE):
            hi = min(lo + _PIECE, b)
            rank = np.minimum(np.searchsorted(ids, chosen[lo:hi]), ids.size - 1)
            slot = slot_of.reshape(-1)[lay.at[lo:hi] % n * ids.size + rank]
            stray = (ids[rank] != chosen[lo:hi]) | (slot < 0)
            if stray.any():
                i = lo + int(stray.argmax())
                raise ValueError(f"chosen holds arm {chosen[i]} at round {lay.at[i] // n}, "
                                 f"outside agent {lay.at[i] % n}'s candidate set")
            out[lo:hi] = slot + np.arange(s + (lo - a) * k, s + (hi - a) * k, k)
    return out


def _congestion(trace: GameTrace, lay: SimpleNamespace, chosen: np.ndarray) -> np.ndarray:
    """The number of active agents on each chosen arm of a ``chosen`` section in its round."""
    ids = np.sort(trace.config.env.arm_ids())
    key = lay.at // trace.num_agents  # the (round, arm) each chosen arm counts toward
    key *= ids.size
    key += np.searchsorted(ids, chosen)
    return np.bincount(key)[key]


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
    """Column ``name`` of a trace by its ``_DERIVED`` rule, from the trace's stored values."""
    if name == "clock":
        out = _stacked(trace.config, 1, [name])[name][0]
        _clock(trace.active, out)
        return out
    lay, n = _layout(trace), trace.num_agents
    raw, chosen = _section(trace, "cf_raw", lay), _section(trace, "chosen", lay)
    if name == "cf_norm":
        return _unpack(trace, name, normalized(raw, trace.cost_cap), lay)
    if name == "congestion":
        return _unpack(trace, name, _congestion(trace, lay, chosen), lay)
    if name in ("cost_norm", "cost_real"):
        at_chosen = raw[_cells(trace, lay, chosen)]
        return _unpack(trace, name, at_chosen if name == "cost_real" else normalized(at_chosen, trace.cost_cap), lay)
    # learner columns: one step per epoch, candidate-set size and piece of _PIECE agent-rounds
    probs, task, clock = _section(trace, "probs", lay), _section(trace, "task_size", lay), trace.clock.reshape(-1)
    values = np.full(lay.slots if name in _PER_SLOT else lay.at.size, np.nan)
    for (a, b, w, s), (_, _, sets) in zip(_epochs(lay), trace.epochs()):
        sizes = np.array([len(arms) for arms in sets])
        for k in sorted(set(sizes.tolist())):
            agents = np.flatnonzero(sizes == k)
            ours = np.flatnonzero(sizes[lay.at[a:b] % n] == k)  # the epoch's cells of these agents
            for lo in range(0, ours.size, _PIECE):
                i = ours[lo : lo + _PIECE]
                at, slots = lay.at[a + i], (s + i * w)[:, None] + np.arange(k)
                held = {"clock": clock[at], "task_size": task[a + i], "chosen": chosen[a + i],
                        "probs": probs[slots], "cf_raw": raw[slots]}
                rule = _rules(k, np.searchsorted(agents, at % n), _params(trace.config.learners[j] for j in agents),
                              np.array([sets[j] for j in agents]), held, trace.config.task_size, trace.cost_cap)
                values[slots if name == "estimates" else a + i] = rule[name]
    return _unpack(trace, name, values, lay)


def write_trace(trace: GameTrace, path) -> None:
    """The magic line, a JSON header line, then the values the rest of the file does not determine.

    The header holds ``GameConfig.to_dict()``, the run id, the config
    digest and the trace's ``cost_cap``.  The ``_STORED`` columns follow in
    order with their explicit little-endian dtypes and nothing between
    them: ``active`` whole, [horizon + 1, agents], then ``chosen``,
    ``task_size``, ``cost_a``, ``cost_c`` and ``outlier`` at the active
    agent-rounds, in (round, agent) order, then ``probs`` and ``cf_raw``
    over the same agent-rounds' slots within their epoch's largest
    candidate set.  The ``_DERIVED`` columns are not written.  A section
    the trace holds (see ``GameTrace``) is written as it is; a stored
    column the trace holds whole is packed, and every value it leaves out
    must be its ``_COLUMNS`` fill, bit for bit.  So must each derived
    column the trace holds be the value of its ``_DERIVED`` rule.  (A kept
    game of ``game.run_games`` holds sections, and few derived columns: the
    round loop checked its derived values block by block.)  If one is not,
    the file is removed and a ValueError names the column.
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
    active = np.ascontiguousarray(trace.active, dtype="|b1")
    lay = _layout(trace)
    body = {name: _section(trace, name, lay) for name, _, _ in _STORED[1:]}
    for name, dtype, fill in _STORED[1:]:
        if name in vars(trace):  # packed: as many fills as the column holds past the written ones
            values, bits = np.asarray(getattr(trace, name), dtype=dtype), "<u8"
            blank = np.array(fill, dtype=dtype).view(bits)
            left = np.count_nonzero(values.view(bits) == blank) - np.count_nonzero(body[name].view(bits) == blank)
            if left != values.size - body[name].size:
                raise ValueError(f"{name} holds a value other than {_left_out(name, fill)}")
    if "chosen" in vars(trace):
        _cells(trace, lay, body["chosen"])  # a chosen arm outside its candidate set raises
    # each derived column the trace holds, against its rule on the written values alone, one at a time
    stored = GameTrace(trace.config, trace.run_id, {"active": active}, trace.cost_cap, sections=body)
    for name in _DERIVED:
        if name in vars(trace) and not _same_bits(_derive(stored, name), vars(trace)[name]):
            raise ValueError(f"{name} holds a value other than {_left_out(name, None)}")
    fh.write(_TRACE_MAGIC + _header(trace, cost_cap=trace.cost_cap).encode())
    fh.write(active)
    for name, _, _ in _STORED[1:]:
        fh.write(body[name])


def _left_out(name: str, fill) -> str:
    """What a trace file gives a column back in the cells it leaves out."""
    if name in _DERIVED:
        return f"{_DERIVED[name]}, which a trace file derives"
    return (f"{fill} in a cell that a trace file leaves out (an inactive agent-round, or a slot "
            f"past its epoch's largest candidate set)")


def read_trace(path) -> GameTrace:
    """Read a trace file into a fresh GameTrace: its ``cost_cap``, ``active``
    and the sections of the other ``_STORED`` columns.  A stored column is
    unpacked, each cell the file leaves out at its fill, and a
    ``_DERIVED`` column derived, by the rules ``write_trace`` holds them
    to, when first read."""
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
                              sections={})
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: damaged trace header: {exc}") from None
        size, start = os.fstat(fh.fileno()).st_size, fh.tell()
        fh.readinto(memoryview(active).cast("B"))  # a short read leaves the size check failing
        lay = _layout(trace)
        expected = start + active.nbytes + _body_bytes(lay.at.size, lay.slots)
        if size != expected:
            raise ValueError(f"{path}: damaged trace: {size} bytes where the header and columns take {expected}")
        # a section each: one buffer of them all, once freed, would raise the
        # allocator's mmap threshold and leave later arrays on its heap
        trace.sections.update((name, np.empty(lay.slots if name in _PER_SLOT else lay.at.size, dtype))
                              for name, dtype, _ in _STORED[1:])
        chosen, *rest = trace.sections.values()
        fh.readinto(chosen)
        try:
            _cells(trace, lay, chosen)  # the chosen arms place the others; checked before they are read
        except ValueError as exc:
            raise ValueError(f"{path}: damaged trace: {exc}") from None
        for section in rest:
            fh.readinto(section)
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
