"""Experiment configuration: the one config format, validation, baselines.

A config describes one experiment: a base game, learner variants to compare,
replication seeds, and which metrics to persist.  The ``game:`` section's
format is defined here once: ``parse_game`` reads it from config files and
trace headers, ``GameConfig.to_dict`` writes it back for trace headers and
the manifest's config hashes.  Validation failures name the offending key and
the violated constraint; ``--strict`` additionally rejects unknown keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
from dataclasses import dataclass, field

import yaml

from .bandit import LearnerParams
from .env import (
    AdversaryPhaseSchedule,
    CandidateSchedule,
    ChannelParams,
    ConfigError,
    EnvConfig,
    VfnSpec,
)
from .oracle import check_enumerable

TASK_LAWS = ("fixed", "uniform", "truncnorm")
# horizon * agents * arms limit.  It bounds the [round, agent(, slot)] trace
# stacks a game holds (an Environment holds one block of rounds of its
# draws), until a bound on what a batch really holds replaces it.
MAX_DRAW_CELLS = 50_000_000


@dataclass(frozen=True)
class TaskSizeLaw:
    """Per-task input size q in bits, bounded by [q_lo, q_hi]."""

    law: str = "fixed"
    q_lo: float = 0.2e6
    q_hi: float = 1.0e6
    fixed: tuple[float, ...] | None = None  # per-agent sizes for law "fixed"

    def validate(self, num_agents: int) -> None:
        if self.law not in TASK_LAWS:
            raise ConfigError(f"task_size.law must be one of {TASK_LAWS}")
        if not (0 < self.q_lo < self.q_hi):
            raise ConfigError("task sizes must satisfy 0 < q_lo < q_hi")
        if self.fixed is not None:
            if len(self.fixed) != num_agents:
                raise ConfigError("task_size.fixed needs one size per agent")
            for q in self.fixed:
                if not (self.q_lo <= q <= self.q_hi):
                    raise ConfigError(f"fixed task size {q} outside [q_lo, q_hi]")


@dataclass(frozen=True)
class GameConfig:
    """Everything one replication needs; validated before any run."""

    num_agents: int
    horizon: int
    env: EnvConfig
    candidates: CandidateSchedule
    learners: tuple[LearnerParams, ...]
    task_size: TaskSizeLaw = field(default_factory=TaskSizeLaw)
    activation: tuple[float, ...] = ()  # empty -> always on
    computation_intensity: float = 1000.0  # cycles/bit
    master_seed: int = 0

    def activation_probs(self) -> tuple[float, ...]:
        return self.activation if self.activation else (1.0,) * self.num_agents

    def validate(self) -> None:
        if self.num_agents < 1:
            raise ConfigError("num_agents must be >= 1")
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if not self.computation_intensity > 0:
            raise ConfigError("computation_intensity must be > 0")
        if len(self.learners) != self.num_agents:
            raise ConfigError("learners must list one LearnerParams per agent")
        self.env.validate(self.num_agents, self.horizon)
        cells = self.horizon * self.num_agents * len(self.env.vfns)
        if cells > MAX_DRAW_CELLS:
            raise ConfigError(
                f"game.horizon * game.num_agents * len(game.env.vfns) = {self.horizon} * "
                f"{self.num_agents} * {len(self.env.vfns)} = {cells} exceeds the limit of "
                f"{MAX_DRAW_CELLS} round x agent x arm cells"
            )
        self.candidates.validate(self.horizon, self.num_agents, self.env.arm_ids())
        self.task_size.validate(self.num_agents)
        for rho in self.activation_probs():
            if not (0.0 < rho <= 1.0):
                raise ConfigError("activation probabilities must be in (0, 1]")
        for n, lp in enumerate(self.learners):
            lp.validate()
            self._check_rate_conditions(n, lp)

    def _check_rate_conditions(self, agent: int, lp: LearnerParams) -> None:
        """Divergence conditions for the sqrt schedule on this horizon.

        The exploration rate must dominate 1/clock from some round on; with
        gamma = ratio * sqrt(a log K / (K clock)) that happens once
        clock > K / (ratio^2 a log K).  Reject configs whose horizon never
        reaches that point (baselines with ratio 0 are exempt).
        """
        if lp.gamma_ratio == 0.0 or lp.feedback == "full":
            return
        worst = 0.0
        for _, sets in self.candidates.epochs:
            k = len(sets[agent])
            log_k = max(math.log(k), math.log(2.0))
            worst = max(worst, k / (lp.gamma_ratio**2 * lp.schedule_a * log_k))
        if worst >= self.horizon:
            raise ConfigError(
                f"agent {agent}: gamma_ratio={lp.gamma_ratio}, schedule_a="
                f"{lp.schedule_a} keep the exploration rate below 1/round for "
                f"the whole horizon (needs ~{int(worst) + 1} rounds)"
            )

    def to_dict(self) -> dict:
        """A config file's ``game:`` section plus ``master_seed``.

        Fully explicit (per-agent ``learners``, ``activation`` and candidate
        ``sets``), so ``parse_game`` reads it back to the same digest.
        """
        env = self.env
        if env.adversary is None:
            adversary = {
                "num_phases": env.adversary_num_phases,
                "mean_range": list(env.adversary_mean_range),
                "noise_halfwidth": env.adversary_noise_halfwidth,
            }
        else:
            adversary = {
                "mean_range": list(env.adversary.mean_range),
                "noise_halfwidth": env.adversary.noise_halfwidth,
                "phases": [
                    {"start": lo, "end": hi, "means": {str(k): m for k, m in means.items()}}
                    for lo, hi, means in env.adversary.phases
                ],
            }
        task = self.task_size
        return {
            "master_seed": self.master_seed,
            "num_agents": self.num_agents,
            "horizon": self.horizon,
            "computation_intensity": self.computation_intensity,
            "activation": list(self.activation_probs()),
            "task_size": {
                "law": task.law,
                "q_lo": task.q_lo,
                "q_hi": task.q_hi,
                "fixed": list(task.fixed) if task.fixed else None,
            },
            "learners": [dataclasses.asdict(lp) for lp in self.learners],
            "candidates": [
                {"start": start, "sets": [list(s) for s in sets]}
                for start, sets in self.candidates.epochs
            ],
            "env": {
                "model": env.model,
                "cost_cap": env.cost_cap,
                "vfns": [
                    {"id": v.id, "max_cpu_freq": v.max_cpu_freq,
                     "alloc_fraction": list(v.alloc_fraction_range)}
                    for v in env.vfns
                ],
                "channel": dataclasses.asdict(env.channel),
                "adversary": adversary,
                "coupling": env.coupling,
                "theta": env.theta,
            },
        }

    def digest(self) -> str:
        """Hash that changes iff any config field changes."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


# Named baselines: overrides applied on top of the base learner parameters.
BASELINES: dict[str, dict] = {
    "perturbed": {},
    "vanilla-ix": {"use_demand_weight": False, "patch_mode": "reset_all"},
    "explicit": {
        "use_demand_weight": False,
        "patch_mode": "reset_all",
        "gamma_ratio": 0.0,
        "uniform_mix": 0.1,
    },
    "full-feedback": {
        "feedback": "full",
        "use_demand_weight": False,
        "patch_mode": "reset_all",
    },
    "full-reset": {"patch_mode": "reset_all"},
}

METRIC_NAMES = ("cost", "pota", "regret")
TRACE_POLICIES = ("none", "first", "all")

_KEYS_TOP = {
    "name", "replications", "master_seed", "seeds", "metrics", "xi_window",
    "traces", "workers", "variants", "game",
}
_KEYS_GAME = {
    "num_agents", "horizon", "computation_intensity", "activation",
    "task_size", "learner", "learners", "candidates", "env",
}
_KEYS_ENV = {
    "model", "cost_cap", "vfns", "channel", "adversary", "coupling", "theta",
}
_KEYS_CHANNEL = {
    "bandwidth_hz", "num_subchannels", "tx_power_dbm", "noise_psd_dbm_hz",
    "comm_range_m", "pathloss_a", "pathloss_b", "interference_w",
}
_KEYS_LEARNER = {
    "schedule_a", "gamma_ratio", "use_demand_weight", "patch_mode",
    "uniform_mix", "feedback",
}
_KEYS_TASK = {"law", "q_lo", "q_hi", "fixed"}
_KEYS_ADVERSARY = {"num_phases", "mean_range", "noise_halfwidth", "phases"}
_KEYS_VARIANT = {"name", "baseline", "learner"}
_KEYS_VFN = {"id", "max_cpu_freq", "alloc_fraction"}
_KEYS_CANDIDATE_EPOCH = {"start", "all", "sets"}


@dataclass(frozen=True)
class Variant:
    name: str
    learners: tuple[LearnerParams, ...]


@dataclass(frozen=True)
class ExperimentSpec:
    """A named batch: base game, learner variants, seeds, outputs."""

    name: str
    base: GameConfig
    variants: tuple[Variant, ...]
    run_ids: tuple[int, ...]
    metrics: tuple[str, ...] = ("cost", "regret")
    xi_window: float | None = None
    trace_policy: str = "first"
    workers: int = 1

    def game_for(self, variant: Variant) -> GameConfig:
        return dataclasses.replace(self.base, learners=variant.learners)

    def validate(self) -> None:
        if not re.fullmatch(r"[A-Za-z0-9._-]+", self.name):
            raise ConfigError(f"name {self.name!r} is not filesystem-safe")
        if not self.run_ids:
            raise ConfigError("replications must be >= 1")
        if len(set(self.run_ids)) != len(self.run_ids):
            raise ConfigError("seeds must be distinct")
        for m in self.metrics:
            if m not in METRIC_NAMES:
                raise ConfigError(f"metrics entry {m!r}; known: {METRIC_NAMES}")
        if self.trace_policy not in TRACE_POLICIES:
            raise ConfigError(f"traces must be one of {TRACE_POLICIES}")
        if self.xi_window is not None and not (0.0 < self.xi_window <= 1.0):
            raise ConfigError("xi_window must be a fraction in (0, 1]")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not self.variants:
            raise ConfigError("at least one variant is required")
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigError("variant names must be unique")
        self.base.validate()
        for v in self.variants:
            self.game_for(v).validate()
        if "pota" in self.metrics:  # PoTA needs every epoch's stage-game optimum
            self.require_enumerable("metrics: pota")

    def require_enumerable(self, needs: str) -> None:
        """Raise a ConfigError naming the first candidate epoch whose stage
        game is too large to enumerate, for what ``needs`` it."""
        for start, sets in self.base.candidates.epochs:
            try:
                check_enumerable(sets)
            except ValueError as exc:
                raise ConfigError(
                    f"{needs} needs an enumerable stage game, but the candidate "
                    f"epoch starting at round {start} has a {exc}"
                ) from None


def _check_keys(mapping: dict, allowed: set[str], path: str, strict: bool) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected a mapping")
    unknown = set(mapping) - allowed
    if unknown and strict:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _num(value, path: str) -> float:
    """YAML 1.1 floats need a signed exponent; accept '1.0e7' spellings too."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a number, got {value!r}") from None


_LEARNER_NUMERIC = {"schedule_a", "gamma_ratio", "uniform_mix"}


def _learner_from(d: dict, path: str, strict: bool, base: LearnerParams | None = None) -> LearnerParams:
    _check_keys(d, _KEYS_LEARNER, path, strict)
    params = dataclasses.replace(base or LearnerParams(), **{
        k: (_num(d[k], f"{path}.{k}") if k in _LEARNER_NUMERIC else d[k])
        for k in d if k in _KEYS_LEARNER
    })
    try:
        params.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return params


def _candidates_from(entries: list, num_agents: int, path: str, strict: bool) -> CandidateSchedule:
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"{path}: candidates must be a non-empty list of epochs")
    epochs = []
    for i, ep in enumerate(entries):
        _check_keys(ep, _KEYS_CANDIDATE_EPOCH, f"{path}[{i}]", strict)
        if "start" not in ep:
            raise ConfigError(f"{path}[{i}]: missing 'start'")
        if "all" in ep:
            sets = tuple(tuple(int(a) for a in ep["all"]) for _ in range(num_agents))
        elif "sets" in ep:
            sets = tuple(tuple(int(a) for a in s) for s in ep["sets"])
        else:
            raise ConfigError(f"{path}[{i}]: needs 'all' or per-agent 'sets'")
        epochs.append((int(ep["start"]), sets))
    return CandidateSchedule(epochs=tuple(epochs))


def _env_from(d: dict, path: str, strict: bool) -> EnvConfig:
    _check_keys(d, _KEYS_ENV, path, strict)
    vfn_list = d.get("vfns")
    if not vfn_list:
        raise ConfigError(f"{path}.vfns: at least one arm is required")
    vfns = []
    for i, v in enumerate(vfn_list):
        _check_keys(v, _KEYS_VFN, f"{path}.vfns[{i}]", strict)
        vfns.append(
            VfnSpec(
                id=int(v["id"]),
                max_cpu_freq=_num(v["max_cpu_freq"], f"{path}.vfns[{i}].max_cpu_freq"),
                alloc_fraction_range=tuple(
                    _num(x, f"{path}.vfns[{i}].alloc_fraction")
                    for x in v.get("alloc_fraction", (0.2, 0.5))
                ),
            )
        )
    channel_d = d.get("channel", {})
    _check_keys(channel_d, _KEYS_CHANNEL, f"{path}.channel", strict)
    channel = ChannelParams(**{
        k: (int(v) if k == "num_subchannels" else _num(v, f"{path}.channel.{k}"))
        for k, v in channel_d.items()
    })

    adv = d.get("adversary", {})
    _check_keys(adv, _KEYS_ADVERSARY, f"{path}.adversary", strict)
    schedule = None
    mean_range = tuple(_num(x, f"{path}.adversary.mean_range") for x in adv.get("mean_range", (1.0, 2.5)))
    halfwidth = _num(adv.get("noise_halfwidth", 0.0), f"{path}.adversary.noise_halfwidth")
    if "phases" in adv:
        schedule = AdversaryPhaseSchedule(
            phases=tuple(
                (int(p["start"]), int(p["end"]),
                 {int(k): float(m) for k, m in p["means"].items()})
                for p in adv["phases"]
            ),
            noise_halfwidth=halfwidth,
            mean_range=mean_range,
        )
    return EnvConfig(
        model=d.get("model", "physical"),
        vfns=tuple(vfns),
        channel=channel,
        adversary=schedule,
        adversary_num_phases=int(adv.get("num_phases", 3)),
        adversary_mean_range=mean_range,
        adversary_noise_halfwidth=halfwidth,
        cost_cap=_num(d["cost_cap"], f"{path}.cost_cap") if d.get("cost_cap") is not None else None,
        coupling=d.get("coupling", "sqrt"),
        theta=_num(d.get("theta", 0.1), f"{path}.theta"),
    )


def parse_game(g: dict, master_seed: int | None = None, strict: bool = False) -> GameConfig:
    """Build a GameConfig from a ``game:`` section or ``GameConfig.to_dict()``.

    ``master_seed`` is the config file's top-level key; left out, it is read
    from ``g`` itself, where ``to_dict`` puts it.
    """
    _check_keys(g, _KEYS_GAME, "game", strict)
    for key in ("num_agents", "horizon", "candidates", "env"):
        if key not in g:
            raise ConfigError(f"game: missing required key {key!r}")
    num_agents = int(g["num_agents"])
    horizon = int(g["horizon"])

    base_learner = _learner_from(g.get("learner", {}), "game.learner", strict)
    if "learners" in g:
        if len(g["learners"]) != num_agents:
            raise ConfigError("game.learners must list one entry per agent")
        learners = tuple(
            _learner_from(dd, f"game.learners[{i}]", strict, base_learner)
            for i, dd in enumerate(g["learners"])
        )
    else:
        learners = (base_learner,) * num_agents

    task_d = g.get("task_size", {})
    _check_keys(task_d, _KEYS_TASK, "game.task_size", strict)
    task = TaskSizeLaw(
        law=task_d.get("law", "fixed"),
        q_lo=float(task_d.get("q_lo", 0.2e6)),
        q_hi=float(task_d.get("q_hi", 1.0e6)),
        fixed=tuple(float(q) for q in task_d["fixed"]) if task_d.get("fixed") else None,
    )

    activation = g.get("activation", 1.0)
    if isinstance(activation, (int, float)):
        act = (float(activation),) * num_agents
    else:
        act = tuple(float(a) for a in activation)

    return GameConfig(
        num_agents=num_agents,
        horizon=horizon,
        env=_env_from(g["env"], "game.env", strict),
        candidates=_candidates_from(g["candidates"], num_agents, "game.candidates", strict),
        learners=learners,
        task_size=task,
        activation=act,
        computation_intensity=float(g.get("computation_intensity", 1000.0)),
        master_seed=int(g.get("master_seed", 0) if master_seed is None else master_seed),
    )


def parse_spec(doc: dict, strict: bool = False) -> ExperimentSpec:
    """Build and validate an ExperimentSpec from a parsed YAML document."""
    _check_keys(doc, _KEYS_TOP, "<top>", strict)
    for key in ("name", "game"):
        if key not in doc:
            raise ConfigError(f"<top>: missing required key {key!r}")
    base = parse_game(doc["game"], doc.get("master_seed", 0), strict)

    variants = []
    for i, v in enumerate(doc.get("variants", [{"name": "default"}])):
        _check_keys(v, _KEYS_VARIANT, f"variants[{i}]", strict)
        if "name" not in v:
            raise ConfigError(f"variants[{i}]: missing 'name'")
        overrides: dict = {}
        if "baseline" in v:
            if v["baseline"] not in BASELINES:
                raise ConfigError(
                    f"variants[{i}].baseline {v['baseline']!r}; known: {sorted(BASELINES)}"
                )
            overrides.update(BASELINES[v["baseline"]])
        overrides.update(v.get("learner", {}))
        vl = tuple(
            _learner_from(overrides, f"variants[{i}].learner", strict, lp)
            for lp in base.learners
        )
        variants.append(Variant(name=str(v["name"]), learners=vl))

    if "seeds" in doc:
        run_ids = tuple(int(s) for s in doc["seeds"])
    else:
        run_ids = tuple(range(int(doc.get("replications", 1))))

    metrics = tuple(doc.get("metrics", ["cost", "regret"]))
    spec = ExperimentSpec(
        name=str(doc["name"]),
        base=base,
        variants=tuple(variants),
        run_ids=run_ids,
        metrics=metrics,
        xi_window=doc.get("xi_window"),
        trace_policy=doc.get("traces", "first"),
        workers=int(doc.get("workers", 1)),
    )
    spec.validate()
    return spec


# PyYAML's C parser where it was built with libyaml: the same documents, several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path, strict: bool = False) -> ExperimentSpec:
    """Parse and fully validate an experiment config file."""
    with open(path) as fh:
        try:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: YAML parse error: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    try:
        return parse_spec(doc, strict=strict)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


SCHEMA_TEXT = """\
fogbandit experiment config (YAML)

Top level:
  name: str                     experiment name (filesystem-safe)   [required]
  replications: int             number of runs (default 1)
  seeds: [int, ...]             explicit run ids (overrides replications)
  master_seed: int              entropy root for all named RNG streams
  metrics: [cost|pota|regret]   CSV series to aggregate (default cost,regret);
                                pota needs every candidate epoch to have at
                                most 10^6 joint actions
  xi_window: float              tail fraction for equilibrium certification
  traces: none|first|all        per-run trace retention (default first)
  workers: int                  most processes run and verify play on, each
                                itself included and capped at its task
                                count; run uses one where a split would play
                                a game alone (default 1)
  variants:                     learner variants to compare
    - name: str                 [required]
      baseline: str             one of perturbed|vanilla-ix|explicit|
                                full-feedback|full-reset
      learner: {...}            explicit overrides (see game.learner)

game:
  num_agents: int               [required]
  horizon: int                  rounds                               [required]
                                horizon * num_agents * len(env.vfns) <= 5e7
  computation_intensity: float  cycles/bit (default 1000)
  activation: float | [float]   per-round activation probability (default 1.0)
  task_size:
    law: fixed|uniform|truncnorm
    q_lo, q_hi: float           input size bounds in bits (0 < q_lo < q_hi)
    fixed: [float, ...]         per-agent sizes for law=fixed
  learner:                      defaults for every agent
    schedule_a: float > 0       learning-rate scale
    gamma_ratio: float in [0, .5]  implicit exploration / learning rate
    use_demand_weight: bool     task-size sharpening
    patch_mode: patch|reset_all|reset_new
    uniform_mix: float in [0,1) explicit exploration mixing
    feedback: bandit|full
  learners: [{...}, ...]        optional per-agent overrides
  candidates:                   epochs of candidate arm sets [required]
    - start: int                first round of the epoch (1-based)
      all: [arm, ...]           same set for every agent, or
      sets: [[arm, ...], ...]   one set per agent
  env:
    model: physical|synthetic
    vfns: [{id, max_cpu_freq, alloc_fraction: [lo, hi]}]  [required]
    channel:                    physical model only
      bandwidth_hz, num_subchannels, tx_power_dbm, noise_psd_dbm_hz,
      comm_range_m, pathloss_a, pathloss_b, interference_w (must be 0)
    adversary:
      num_phases: int           auto-generated phases, or
      phases: [{start, end, means: {arm: mean}}]
      mean_range: [lo, hi]      cost scaling (physical) / normalized mean
                                cost in (0, 1] (synthetic)
      noise_halfwidth: float    uniform noise around the phase mean
    cost_cap: float             normalization cap, seconds/bit (physical);
                                omit for the analytic worst case (very
                                conservative -- bundled configs calibrate it)
    coupling: sqrt|linear       synthetic congestion coupling
    theta: float                slope for coupling=linear

Exit codes: 0 ok, 1 config error, 2 runtime error, 3 verification failure.
Environment: FOGBANDIT_OUT sets the default output root.
"""
