"""Ground-truth environment for the offloading game.

Produces everything the learners play against: uplink rates from a pathloss +
Rayleigh channel, CPU shares that shrink with congestion, an oblivious
adversary that rescales per-arm costs in phases, outlier-blended realized
costs, and volatile per-agent candidate sets.

Two cost models share one pipeline:

* ``physical`` -- per-bit delay (seconds/bit) from the channel and CPU model,
  normalized into [0, 1] by ``cost_cap``.
* ``synthetic`` -- adversary phase means *are* the collision-free normalized
  cost; congestion couples either as ``sqrt`` (compute share ~ 1/sqrt(c)) or
  ``linear`` (slope ``theta`` per extra client).  Used by verification
  instances that need exact mean gaps.

Everything random comes from named streams keyed by (config, run_id), so the
cost stream is a pure function of them and counterfactual replay is exact.
The per-replication draws (distances, generated adversary phases, CPU
fractions) are taken at construction; the per-round draws (fades, adversary
noise, outlier weights) are taken a block of rounds at a time, in stream
order, as ``Environment.cost_inputs`` asks for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .streams import stream_rng

if TYPE_CHECKING:  # pragma: no cover
    from .configio import GameConfig

FADING_FLOOR = 1e-9  # small-scale power gain clamped at 1e-9 of its mean
MIN_DISTANCE_M = 1.0


class ProtocolError(RuntimeError):
    """An agent acted outside its candidate set (caller bug)."""


class ConfigError(ValueError):
    """A configuration value violates a documented constraint."""


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VfnSpec:
    """One fog node: identity, peak CPU and the share range it may grant."""

    id: int
    max_cpu_freq: float  # cycles/second
    alloc_fraction_range: tuple[float, float] = (0.2, 0.5)

    def validate(self) -> None:
        lo, hi = self.alloc_fraction_range
        if not self.max_cpu_freq > 0:
            raise ConfigError(f"vfn {self.id}: max_cpu_freq must be > 0")
        if not (0 < lo <= hi <= 1):
            raise ConfigError(
                f"vfn {self.id}: alloc_fraction_range must satisfy 0 < lo <= hi <= 1"
            )


@dataclass(frozen=True)
class ChannelParams:
    """Uplink channel constants (orthogonal allocation, zero interference)."""

    bandwidth_hz: float = 10e6
    num_subchannels: int = 10
    tx_power_dbm: float = 24.0
    noise_psd_dbm_hz: float = -174.0
    comm_range_m: float = 400.0
    pathloss_a: float = 128.1  # dB at 1 km
    pathloss_b: float = 37.6  # dB per decade (distance in km)
    interference_w: float = 0.0

    def validate(self) -> None:
        for name in ("bandwidth_hz", "comm_range_m"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"channel.{name} must be > 0")
        if self.num_subchannels < 1:
            raise ConfigError("channel.num_subchannels must be >= 1")
        if self.interference_w != 0.0:
            raise ConfigError("channel.interference_w must be 0 (orthogonal allocation)")
        for name in ("tx_power_dbm", "noise_psd_dbm_hz", "pathloss_a", "pathloss_b"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"channel.{name} must be finite")

    def tx_power_w(self) -> float:
        return 10.0 ** ((self.tx_power_dbm - 30.0) / 10.0)

    def allocated_bandwidth_hz(self, num_agents: int) -> float:
        return self.bandwidth_hz / self.num_subchannels / num_agents

    def noise_power_w(self, num_agents: int) -> float:
        psd_w = 10.0 ** ((self.noise_psd_dbm_hz - 30.0) / 10.0)
        return psd_w * self.allocated_bandwidth_hz(num_agents)


@dataclass(frozen=True)
class AdversaryPhaseSchedule:
    """Oblivious cost rescaling: piecewise-constant per-arm means plus noise.

    ``phases`` holds (start_round, end_round, means) with inclusive 1-based
    bounds partitioning [1, horizon]; ``means`` maps every arm id to the
    phase's mean scaling.
    """

    phases: tuple[tuple[int, int, dict[int, float]], ...]
    noise_halfwidth: float = 0.0
    mean_range: tuple[float, float] = (0.0, float("inf"))

    def validate(self, horizon: int, arm_ids: Iterable[int]) -> None:
        if not self.phases:
            raise ConfigError("adversary schedule needs at least one phase")
        expect = 1
        for lo, hi, means in self.phases:
            if lo != expect or hi < lo:
                raise ConfigError(
                    f"adversary phases must partition [1, {horizon}] without "
                    f"gaps or overlaps (got phase [{lo}, {hi}], expected start {expect})"
                )
            for k in arm_ids:
                if k not in means:
                    raise ConfigError(f"adversary phase [{lo},{hi}] is missing arm {k}")
                m = means[k]
                if not (self.mean_range[0] <= m <= self.mean_range[1]):
                    raise ConfigError(
                        f"adversary mean {m} for arm {k} outside {self.mean_range}"
                    )
            expect = hi + 1
        if expect != horizon + 1:
            raise ConfigError(f"adversary phases end at {expect - 1}, horizon is {horizon}")
        if self.noise_halfwidth < 0:
            raise ConfigError("adversary noise_halfwidth must be >= 0")

    @staticmethod
    def generate(
        horizon: int,
        arm_ids: Sequence[int],
        num_phases: int,
        mean_range: tuple[float, float],
        noise_halfwidth: float,
        rng: np.random.Generator,
    ) -> "AdversaryPhaseSchedule":
        """Random phases of unequal lengths, means drawn before the run starts."""
        if num_phases < 1 or num_phases > horizon:
            raise ConfigError("num_phases must be in [1, horizon]")
        lo, hi = mean_range
        if not (0 < lo <= hi):
            raise ConfigError("adversary mean_range must satisfy 0 < lo <= hi")
        min_len = max(1, horizon // (4 * num_phases))
        free = horizon - min_len * num_phases
        cuts = np.sort(rng.integers(0, free + 1, size=num_phases - 1)) if num_phases > 1 else np.array([], dtype=int)
        lengths = np.diff(np.concatenate(([0], cuts, [free]))) + min_len
        phases = []
        start = 1
        for length in lengths:
            end = start + int(length) - 1
            means = {int(k): float(rng.uniform(lo, hi)) for k in arm_ids}
            phases.append((start, end, means))
            start = end + 1
        return AdversaryPhaseSchedule(
            phases=tuple(phases), noise_halfwidth=noise_halfwidth, mean_range=(lo, hi)
        )


@dataclass(frozen=True)
class CandidateSchedule:
    """Per-agent candidate arm sets, piecewise constant over epochs.

    ``epochs`` holds (start_round, per-agent tuple of arm ids); starts are
    ascending and begin at 1.  Every subset must be non-empty.
    """

    epochs: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]

    def validate(self, horizon: int, num_agents: int, arm_ids: Iterable[int]) -> None:
        known = set(arm_ids)
        if not self.epochs or self.epochs[0][0] != 1:
            raise ConfigError("candidate schedule must start at round 1")
        prev = 0
        for start, sets in self.epochs:
            if start <= prev:
                raise ConfigError("candidate epoch starts must be strictly ascending")
            if start > horizon:
                raise ConfigError(f"candidate epoch start {start} beyond horizon {horizon}")
            if len(sets) != num_agents:
                raise ConfigError("candidate schedule needs one arm set per agent")
            for n, arms in enumerate(sets):
                if len(arms) == 0:
                    raise ConfigError(f"agent {n}: empty candidate set at round {start}")
                if len(set(arms)) != len(arms):
                    raise ConfigError(f"agent {n}: duplicate arms at round {start}")
                bad = set(arms) - known
                if bad:
                    raise ConfigError(f"agent {n}: unknown arm ids {sorted(bad)}")
            prev = start

    def epoch_index(self, rnd: int) -> int:
        idx = 0
        for i, (start, _) in enumerate(self.epochs):
            if rnd >= start:
                idx = i
        return idx

    def sets_at(self, rnd: int) -> tuple[tuple[int, ...], ...]:
        return self.epochs[self.epoch_index(rnd)][1]

    def epoch_bounds(self, horizon: int) -> list[tuple[int, int]]:
        """Inclusive (start, end) rounds of each epoch."""
        starts = [s for s, _ in self.epochs]
        ends = [s - 1 for s in starts[1:]] + [horizon]
        return list(zip(starts, ends))


@dataclass(frozen=True)
class EnvConfig:
    """Environment half of a game configuration."""

    model: str = "physical"  # "physical" | "synthetic"
    vfns: tuple[VfnSpec, ...] = ()
    channel: ChannelParams = field(default_factory=ChannelParams)
    adversary: AdversaryPhaseSchedule | None = None  # explicit phases
    adversary_num_phases: int = 3  # used when adversary is None
    adversary_mean_range: tuple[float, float] = (1.0, 2.5)
    adversary_noise_halfwidth: float = 0.0
    cost_cap: float | None = None  # physical only; None -> analytic worst case
    coupling: str = "sqrt"  # synthetic only: "sqrt" | "linear"
    theta: float = 0.1  # synthetic "linear" slope per extra client

    def arm_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.vfns)

    def validate(self, num_agents: int, horizon: int) -> None:
        if self.model not in ("physical", "synthetic"):
            raise ConfigError(f"env.model must be physical|synthetic, got {self.model!r}")
        if not self.vfns:
            raise ConfigError("env.vfns must list at least one arm")
        ids = [v.id for v in self.vfns]
        if len(set(ids)) != len(ids):
            raise ConfigError("env.vfns ids must be unique")
        for v in self.vfns:
            v.validate()
        self.channel.validate()
        if self.adversary is not None:
            self.adversary.validate(horizon, ids)
        else:
            lo, hi = self.adversary_mean_range
            if not (0 < lo <= hi):
                raise ConfigError("env.adversary_mean_range must satisfy 0 < lo <= hi")
            if self.model == "synthetic" and hi > 1.0:
                raise ConfigError("synthetic arm means are normalized costs; mean_range hi must be <= 1")
        if self.model == "synthetic":
            if self.coupling not in ("sqrt", "linear"):
                raise ConfigError("env.coupling must be sqrt|linear")
            if self.coupling == "linear" and self.theta < 0:
                raise ConfigError("env.theta must be >= 0")
        if self.cost_cap is not None and not self.cost_cap > 0:
            raise ConfigError("env.cost_cap must be > 0")


# ---------------------------------------------------------------------------
# channel / allocation primitives
# ---------------------------------------------------------------------------


def pathloss_db(distance_m: float, params: ChannelParams) -> float:
    """Large-scale loss in dB; the model's distance argument is in km."""
    d_km = max(distance_m, MIN_DISTANCE_M) / 1000.0
    return params.pathloss_a + params.pathloss_b * math.log10(d_km)


def link_rate(
    distance_m: float,
    fading_power: float,
    params: ChannelParams,
    num_agents: int,
) -> float:
    """Shannon rate (bits/s) over the agent's bandwidth share.

    ``fading_power`` is the unit-mean small-scale power gain, clamped at
    FADING_FLOOR so the per-bit cost stays bounded.
    """
    gain = 10.0 ** (-pathloss_db(distance_m, params) / 10.0) * max(fading_power, FADING_FLOOR)
    b = params.allocated_bandwidth_hz(num_agents)
    noise = params.noise_power_w(num_agents)
    snr = params.tx_power_w() * gain / (noise + params.interference_w)
    return b * math.log2(1.0 + snr)


def allocate_cpu(max_cpu_freq: float, base_fraction: float, congestion: int) -> float:
    """CPU share granted to one client: F * fraction / sqrt(c)."""
    if congestion < 1:
        raise ProtocolError(f"congestion degree must be >= 1, got {congestion}")
    return max_cpu_freq * base_fraction / math.sqrt(congestion)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

# Log-spaced Simpson grid for E_x[...] over the clamped Exp(1) fading gain.
_QUAD_NODES = 2049
_QUAD_LO = math.log(FADING_FLOOR)
_QUAD_HI = math.log(48.0)


def _fading_quadrature() -> tuple[np.ndarray, np.ndarray]:
    u = np.linspace(_QUAD_LO, _QUAD_HI, _QUAD_NODES)
    x = np.exp(u)
    w = np.exp(-x) * x  # pdf * Jacobian of u = ln x
    simpson = np.ones(_QUAD_NODES)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    h = (u[-1] - u[0]) / (_QUAD_NODES - 1)
    return x, w * simpson * (h / 3.0)


_QUAD_X, _QUAD_W = _fading_quadrature()
_QUAD_MASS_BELOW = 1.0 - math.exp(-FADING_FLOOR)  # clamped point mass at the floor


class CostInputs(NamedTuple):
    """Cost ingredients that do not depend on the joint action.

    ``adversary`` is the collision-free cost and ``outlier`` the blend
    weight toward the congested cost.  The physical model's congested cost
    also needs the inverse uplink rate, the adversary-scaled compute load
    ``w * s`` and the CPU share at congestion 1.
    """

    adversary: np.ndarray
    outlier: np.ndarray
    inv_rate: np.ndarray | None = None
    load: np.ndarray | None = None
    cpu: np.ndarray | None = None


def normalized(real, cost_cap: float) -> np.ndarray:
    """Realized costs normalized into [0, 1]: ``clip(real / cost_cap, 0, 1)``,
    NaN kept.  The one normalization of the cost formula; a trace file
    derives ``cf_norm`` from ``cf_raw`` with it."""
    out = np.divide(real, cost_cap)
    return np.clip(out, 0.0, 1.0, out=out)


class Environment:
    """Deterministic cost ground truth for one replication.

    All randomness comes from named streams ("channel", "adversary",
    "outlier", "allocation") keyed by (master_seed, run_id), so two
    environments with identical inputs emit bit-identical cost streams.
    Distances, generated adversary phases and CPU fractions are drawn at
    construction.  Each round's fades, adversary noise and outlier weights
    are drawn when ``cost_inputs`` first asks for the round, in stream order
    and row 0 first, so they equal one whole-horizon draw bit for bit.
    ``fading``, ``outliers`` and ``adv_noise`` hold the rows from the last
    request's first round on ([round - lo, ...]); a request for an earlier
    round restarts the streams from the states saved at construction.
    """

    def __init__(self, config: "GameConfig", run_id: int = 0):
        self.config = config
        self.run_id = run_id
        env = config.env
        self.num_agents = config.num_agents
        self.horizon = config.horizon
        self.arm_ids = env.arm_ids()
        self.arm_pos = {k: i for i, k in enumerate(self.arm_ids)}
        n_arms = len(self.arm_ids)

        adv_rng = stream_rng(config.master_seed, run_id, "adversary")
        if env.adversary is not None:
            self.adversary = env.adversary
        else:
            self.adversary = AdversaryPhaseSchedule.generate(
                config.horizon,
                self.arm_ids,
                env.adversary_num_phases,
                env.adversary_mean_range,
                env.adversary_noise_halfwidth,
                adv_rng,
            )
        self.adversary.validate(config.horizon, self.arm_ids)
        self.num_phases = len(self.adversary.phases)
        self._phase_of_round = np.empty(config.horizon + 1, dtype=np.int64)
        for i, (lo, hi, _) in enumerate(self.adversary.phases):
            self._phase_of_round[lo : hi + 1] = i
        # means laid out as [phase, arm_pos]
        self.phase_means = np.array(
            [[means[k] for k in self.arm_ids] for (_, _, means) in self.adversary.phases]
        )

        self.candidates = config.candidates
        self.epoch_bounds = self.candidates.epoch_bounds(config.horizon)
        self.num_epochs = len(self.epoch_bounds)
        self._epoch_of_round = np.empty(config.horizon + 1, dtype=np.int64)
        for i, (lo, hi) in enumerate(self.epoch_bounds):
            self._epoch_of_round[lo : hi + 1] = i
        # per epoch, [agent, slot] arm positions of the candidate sets in
        # candidate order, -1 past the end of a set
        self.slot_pos = []
        for _, sets in self.candidates.epochs:
            table = np.full((config.num_agents, max(len(s) for s in sets)), -1, dtype=np.int64)
            for n, arms in enumerate(sets):
                table[n, : len(arms)] = [self.arm_pos[k] for k in arms]
            self.slot_pos.append(table)

        N, K = config.num_agents, n_arms
        ch_rng = stream_rng(config.master_seed, run_id, "channel")
        self.distances = ch_rng.uniform(
            MIN_DISTANCE_M, env.channel.comm_range_m, size=(self.num_epochs, N, K)
        )
        # The per-round draws, each stream positioned after its eager draws:
        # attribute, generator (None: zeros), its state there, method,
        # arguments and the shape of one round's row.  Rayleigh fades enter
        # only the physical model's uplink rate; the synthetic model draws none.
        h = self.adversary.noise_halfwidth
        out_rng = stream_rng(config.master_seed, run_id, "outlier")
        self._draws = [
            (name, rng, None if rng is None else rng.bit_generator.state, method, args, shape)
            for name, rng, method, args, shape in (
                ("fading", ch_rng, "exponential", (1.0,), (N, K)),
                ("adv_noise", adv_rng if h > 0 else None, "uniform", (-h, h), (K,)),
                ("outliers", out_rng, "uniform", (0.0, 1.0), (N, K)),
            )
            if name != "fading" or env.model == "physical"
        ]
        self.fading = np.empty((0, N, K))
        self.adv_noise = np.empty((0, K))
        self.outliers = np.empty((0, N, K))
        self._held = (0, 0)  # the windows hold rounds [lo, end) of the draws
        alloc_rng = stream_rng(config.master_seed, run_id, "allocation")
        self.fractions = np.array(
            [
                [alloc_rng.uniform(*v.alloc_fraction_range) for v in env.vfns]
                for _ in range(self.num_phases)
            ]
        )

        self.max_freqs = np.array([v.max_cpu_freq for v in env.vfns])
        self.w = config.computation_intensity
        if env.model == "physical":
            self.cost_cap = env.cost_cap if env.cost_cap is not None else self.worst_case_cost()
            # per (epoch, agent, arm): mean SNR at the epoch distance
            pl = np.vectorize(lambda d: pathloss_db(d, env.channel))(self.distances)
            mean_gain = 10.0 ** (-pl / 10.0)
            noise = env.channel.noise_power_w(N)
            self._snr_mean = env.channel.tx_power_w() * mean_gain / noise
            self._b_alloc = env.channel.allocated_bandwidth_hz(N)
        else:
            self.cost_cap = 1.0
        self._mean_table_cache: dict[tuple[int, int], np.ndarray] = {}

    # -- config-level facts ------------------------------------------------

    def worst_case_cost(self) -> float:
        """Analytic per-bit worst case: floored rate + minimal CPU share.

        Deliberately conservative; bundled configs override ``cost_cap`` with
        a calibrated value so normalized costs occupy a useful range.
        """
        env = self.config.env
        worst_rate = link_rate(env.channel.comm_range_m, 0.0, env.channel, self.num_agents)
        s_max = self.adversary.mean_range[1]
        if not math.isfinite(s_max):
            s_max = float(self.phase_means.max()) + self.adversary.noise_halfwidth
        else:
            s_max += self.adversary.noise_halfwidth
        f_min = min(
            allocate_cpu(v.max_cpu_freq, v.alloc_fraction_range[0], self.num_agents)
            for v in env.vfns
        )
        return 1.0 / worst_rate + self.w * s_max / f_min

    def epoch_index(self, rnd: int) -> int:
        return int(self._epoch_of_round[rnd])

    # -- realization, one block of rounds at a time ----------------------------

    def _block_epoch(self, lo: int, hi: int) -> int:
        if not (1 <= lo <= hi <= self.horizon):
            raise ValueError(f"rounds [{lo}, {hi}] outside [1, {self.horizon}]")
        epoch = int(self._epoch_of_round[lo])
        if int(self._epoch_of_round[hi]) != epoch:
            raise ValueError(f"rounds [{lo}, {hi}] span candidate epochs")
        return epoch

    def _hold(self, lo: int, hi: int) -> None:
        """Make the windows hold rounds [lo, hi], and none before lo.

        Rows are drawn forward in stream order, at most hi - lo + 1 rows per
        draw; rows before lo that were never held are drawn and dropped.
        """
        if lo < self._held[0]:  # restart every stream at its saved state
            for name, rng, state, *_ in self._draws:
                if rng is not None:
                    rng.bit_generator.state = state
                setattr(self, name, getattr(self, name)[:0])
            self._held = (0, 0)
        first, end = self._held
        while end < lo:
            rows = min(hi + 1 - lo, lo - end)
            self._draw(rows)
            end += rows
        new = self._draw(hi + 1 - end) if end <= hi else {}
        for name, *_ in self._draws:
            kept = getattr(self, name)[lo - first :]
            if name in new:
                kept = np.concatenate([kept, new[name]]) if kept.shape[0] else new[name]
            setattr(self, name, kept)
        self._held = (lo, max(end, hi + 1))

    def _draw(self, rows: int) -> dict[str, np.ndarray]:
        """The next ``rows`` rows of every per-round stream."""
        return {
            name: np.zeros((rows,) + shape) if rng is None else getattr(rng, method)(*args, size=(rows,) + shape)
            for name, rng, _, method, args, shape in self._draws
        }

    def cost_inputs(self, lo: int, hi: int) -> CostInputs:
        """The cost ingredients of rounds [lo, hi] that no joint action changes.

        Arrays are [round - lo, agent, slot] over each agent's candidate slots
        (``slot_pos``) in the one candidate epoch that [lo, hi] must lie in;
        entries past the end of a set are NaN.  Uses the rounds' stream
        draws, so counterfactual replay is exact; a request for rounds in
        order draws each round once.
        """
        epoch = self._block_epoch(lo, hi)
        self._hold(lo, hi)
        valid = self.slot_pos[epoch] >= 0
        pos = np.where(valid, self.slot_pos[epoch], 0)  # [N, slot]
        rounds, held = slice(lo, hi + 1), slice(0, hi + 1 - lo)
        phase = self._phase_of_round[rounds]
        s = self.phase_means[phase][:, pos] + self.adv_noise[held][:, pos]
        o = np.take_along_axis(self.outliers[held], pos[None], axis=2)
        if self.config.env.model == "physical":
            fade = np.take_along_axis(self.fading[held], pos[None], axis=2)
            snr = np.take_along_axis(self._snr_mean[epoch], pos, axis=1)
            inv_r = 1.0 / (self._b_alloc * np.log2(1.0 + snr * np.maximum(fade, FADING_FLOOR)))
            cpu = self.max_freqs[pos] * self.fractions[phase][:, pos]
            load = self.w * s
            la = inv_r + load / cpu
            inputs = CostInputs(la, o, inv_r, load, cpu)
        else:
            inputs = CostInputs(np.maximum(s, 0.0), o)
        inputs.adversary[:, ~valid] = np.nan
        inputs.outlier[:, ~valid] = np.nan
        return inputs

    def congestion(self, lo: int, chosen: np.ndarray, active: np.ndarray) -> np.ndarray:
        """Counterfactual congestion degrees [..., round - lo, agent, slot].

        ``chosen`` holds the arm ids played in rounds lo, lo + 1, ... as a
        [..., rounds, agent] array, read where ``active`` is set; each
        index of the leading axes (say, a replication) is a separate game.
        Entry (r, n, i) is the number of agents on slot i's arm had agent n
        sat there while every other agent kept its arm: the realized degree
        at the chosen slot.  NaN for inactive agents and past the end of a set.
        """
        chosen = np.asarray(chosen)
        active = np.asarray(active, dtype=bool)
        epoch = self._block_epoch(lo, lo + chosen.shape[-2] - 1)
        valid = self.slot_pos[epoch] >= 0
        pos = np.where(valid, self.slot_pos[epoch], 0)
        here = valid & (np.asarray(self.arm_ids)[pos] == chosen[..., None])  # [..., round, agent, slot]
        stray = active & ~here.any(axis=-1)
        if stray.any():
            at = tuple(np.argwhere(stray)[0])
            raise ProtocolError(
                f"agent {at[-1]} chose arm {chosen[at]} outside its candidate set"
                f" at round {lo + at[-2]}"
            )
        n_arms = len(self.arm_ids)
        cells = np.where(here, pos, 0).sum(axis=-1)  # chosen arm position [..., round, agent]
        games = cells.shape[:-1]
        cells += np.arange(math.prod(games)).reshape(games)[..., None] * n_arms  # its cell in counts
        counts = np.bincount(cells[active], minlength=math.prod(games) * n_arms).reshape(games + (n_arms,))
        del stray, cells  # few temporaries at once: a batch's block holds many cells
        degree = counts[..., pos]  # 1 + counts[..., pos] - here
        degree -= here
        degree += 1
        del counts
        return np.where(active[..., None] & valid, degree, np.nan)

    def cost_vectors(self, inputs: CostInputs, congestion) -> dict[str, np.ndarray]:
        """Costs at the given congestion degrees: the one cost formula.

        ``congestion`` broadcasts against the ``inputs`` arrays.  With
        ``Environment.congestion`` degrees entry (r, n, i) is what agent n
        pays (or would pay) on its i-th candidate arm holding every other
        agent's arm fixed; the round loop looks the chosen arm's cost up in
        a table over every degree (inputs with a trailing axis of length 1).
        """
        c = np.asarray(congestion, dtype=np.float64)
        env = self.config.env
        la, o = inputs.adversary, inputs.outlier
        # in-place steps keep the temporaries few; each is the same IEEE
        # operation as the plain expression in the comment above it
        if env.model == "physical":
            # lc = inv_rate + load * sqrt(c) / cpu
            lc = inputs.load * np.sqrt(c)
            lc /= inputs.cpu
            lc += inputs.inv_rate
        elif env.coupling == "sqrt":
            lc = la * np.sqrt(c)
        else:
            lc = la + env.theta * (c - 1.0)
        # real = la + (lc - la) * o
        real = lc - la
        real *= o
        real += la
        return {
            "congestion": c,
            "adversary": la,
            "collision": lc,
            "outlier": o,
            "realized": real,
            "normalized": normalized(real, self.cost_cap),
        }

    # -- mean cost ground truth ----------------------------------------------

    def _mean_table_cell(self, epoch: int, phase: int) -> np.ndarray:
        """Expected normalized cost [agent, arm_pos, congestion-1].

        Outlier weight sits at its mean 0.5 and adversary noise at 0; for the
        physical model the Rayleigh fade is integrated out by quadrature.
        """
        key = (epoch, phase)
        cached = self._mean_table_cache.get(key)
        if cached is not None:
            return cached
        N, K = self.num_agents, len(self.arm_ids)
        env = self.config.env
        cs = np.arange(1, N + 1, dtype=np.float64)
        means = self.phase_means[phase]  # [K]
        if env.model == "synthetic":
            if env.coupling == "sqrt":
                factor = 1.0 + (np.sqrt(cs) - 1.0) * 0.5  # o at mean 0.5
                cell = means[None, :, None] * factor[None, None, :]
            else:
                cell = means[None, :, None] + env.theta * (cs - 1.0)[None, None, :] * 0.5
            cell = np.clip(np.broadcast_to(cell, (N, K, N)).copy(), 0.0, 1.0)
        else:
            f1 = self.max_freqs * self.fractions[phase]  # [K]
            comp = (
                self.w
                * means[None, :, None]
                * (1.0 + (np.sqrt(cs) - 1.0) * 0.5)[None, None, :]
                / f1[None, :, None]
            )  # [1, K, C]
            snr = self._snr_mean[epoch]  # [N, K]
            # in place, the same IEEE operations as
            # vals = min((1 / (b_alloc * log2(1 + snr * x)) + comp) / cost_cap, 1)
            rate = snr[:, :, None] * _QUAD_X[None, None, :]  # [N, K, Q]
            rate += 1.0
            np.log2(rate, out=rate)
            rate *= self._b_alloc
            inv_r = np.divide(1.0, rate, out=rate)
            vals = np.add(inv_r[:, :, None, :], comp[..., None])  # [N, K, C, Q]
            vals /= self.cost_cap
            np.minimum(vals, 1.0, out=vals)
            cell = vals @ _QUAD_W + _QUAD_MASS_BELOW * vals[..., 0]
        self._mean_table_cache[key] = cell
        return cell

    def mean_cost_table(self, lo: int, hi: int) -> np.ndarray:
        """Segment-averaged expected normalized cost [agent, arm_pos, c-1].

        The segment [lo, hi] (inclusive rounds) must lie within one candidate
        epoch; adversary phases inside it are weighted by coverage.
        """
        if not (1 <= lo <= hi <= self.horizon):
            raise ValueError(f"segment [{lo}, {hi}] outside [1, {self.horizon}]")
        epochs = set(int(e) for e in self._epoch_of_round[lo : hi + 1])
        if len(epochs) != 1:
            raise ValueError(f"segment [{lo}, {hi}] spans candidate epochs {sorted(epochs)}")
        epoch = epochs.pop()
        total = np.zeros((self.num_agents, len(self.arm_ids), self.num_agents))
        length = hi - lo + 1
        for phase in range(self.num_phases):
            plo, phi, _ = self.adversary.phases[phase]
            cover = max(0, min(hi, phi) - max(lo, plo) + 1)
            if cover:
                total += self._mean_table_cell(epoch, phase) * (cover / length)
        return total
