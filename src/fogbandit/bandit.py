"""One agent's decision rule: demand-weighted softmin over cumulative
implicit-exploration cost estimates, with score patching for appearing arms.

The learner owns nothing but its own scores and clock ("completely
uncoupled"): it never sees opponents, only its realized normalized cost.
Baselines (vanilla IX, explicit exploration, full feedback, full reset) are
the same machinery with parameters switched off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .env import ConfigError

PATCH_MODES = ("patch", "reset_all", "reset_new")
FEEDBACK_MODES = ("bandit", "full")


@dataclass(frozen=True)
class LearnerParams:
    """Configuration of one learner; defaults give the full perturbed rule."""

    schedule_a: float = 1.0  # 'a' in the sqrt learning-rate schedule
    gamma_ratio: float = 0.5  # implicit exploration rate / learning rate
    use_demand_weight: bool = True  # task-size sharpening (zeta = 1 + delta)
    patch_mode: str = "patch"  # appearing-arm score handling
    uniform_mix: float = 0.0  # explicit-exploration mixing (baseline only)
    feedback: str = "bandit"

    def validate(self) -> None:
        if not self.schedule_a > 0:
            raise ConfigError("learner.schedule_a must be > 0")
        if not (0.0 <= self.gamma_ratio <= 0.5):
            raise ConfigError(
                "learner.gamma_ratio must be in [0, 0.5] (exploration/learning"
                " rate ratio above 0.5 voids the stability condition)"
            )
        if self.patch_mode not in PATCH_MODES:
            raise ConfigError(f"learner.patch_mode must be one of {PATCH_MODES}")
        if not (0.0 <= self.uniform_mix < 1.0):
            raise ConfigError("learner.uniform_mix must be in [0, 1)")
        if self.feedback not in FEEDBACK_MODES:
            raise ConfigError(f"learner.feedback must be one of {FEEDBACK_MODES}")
        if self.feedback == "bandit" and self.gamma_ratio == 0.0 and self.uniform_mix == 0.0:
            raise ConfigError(
                "learner with bandit feedback needs gamma_ratio > 0 or uniform_mix > 0"
            )


@dataclass(frozen=True)
class LearningRates:
    eta: float
    gamma: float


@dataclass
class AgentState:
    """The learner's entire memory.

    ``scores`` doubles as cold storage: arms that vanish keep their entries
    and feed the max branch of the patch rule if they re-appear.
    """

    params: LearnerParams
    scores: dict[int, float] = field(default_factory=dict)
    known_arms: tuple[int, ...] = ()
    activation_clock: int = 0
    demand_weight: float = 1.0

    def score_vector(self, arms: tuple[int, ...]) -> np.ndarray:
        return np.array([self.scores.get(k, 0.0) for k in arms])


def learning_rates(
    activation_clock: int,
    num_arms: int,
    schedule_a: float,
    gamma_ratio: float,
) -> LearningRates:
    """Inverse-sqrt schedule sqrt(a * log K / (K * clock)), gamma = ratio * eta.

    ``log K`` is floored at log 2 so a single-arm candidate set stays defined.
    """
    if activation_clock < 1:
        raise ValueError(f"activation_clock must be >= 1, got {activation_clock}")
    if num_arms < 1:
        raise ValueError(f"num_arms must be >= 1, got {num_arms}")
    log_k = max(math.log(num_arms), math.log(2.0))
    eta = math.sqrt(schedule_a * log_k / (num_arms * activation_clock))
    return LearningRates(eta=eta, gamma=gamma_ratio * eta)


def patch_scores(
    state: AgentState,
    new_candidates: tuple[int, ...],
    appearing: tuple[int, ...],
) -> None:
    """Initialize appearing arms at max(own stored score, min over persisting).

    With no persisting arm the rule is undefined; fall back to a full reset.
    Persisting arms are untouched and vanished arms stay in cold storage.
    """
    appearing_set = set(appearing)
    if not appearing_set <= set(new_candidates):
        raise ValueError("appearing arms must be a subset of the new candidate set")
    if not appearing_set:
        return
    persisting = [k for k in new_candidates if k not in appearing_set]
    if not persisting:
        state.scores.clear()
        for k in new_candidates:
            state.scores[k] = 0.0
        return
    floor = min(state.scores.get(k, 0.0) for k in persisting)
    for k in appearing:
        state.scores[k] = max(state.scores.get(k, 0.0), floor)


def sync_candidates(state: AgentState, new_candidates: tuple[int, ...]) -> tuple[int, ...]:
    """Bring the state up to date with this round's candidate set.

    Returns the appearing arms.  Dispatches on the configured patch mode:
    ``patch`` applies the score-patch rule, ``reset_all`` wipes the whole
    score memory on any set change, ``reset_new`` zeroes only appearing arms.
    """
    if new_candidates == state.known_arms:
        return ()
    appearing = tuple(k for k in new_candidates if k not in state.known_arms)
    mode = state.params.patch_mode
    if mode == "patch":
        patch_scores(state, new_candidates, appearing)
    elif mode == "reset_all":
        state.scores.clear()
        for k in new_candidates:
            state.scores[k] = 0.0
    else:  # reset_new
        for k in appearing:
            state.scores[k] = 0.0
    state.known_arms = new_candidates
    return appearing


def demand_weight(task_size: float, q_lo: float, q_hi: float) -> float:
    """zeta = 1 + (q - q_lo) / (q_hi - q_lo), clipped into [1, 2]."""
    if q_hi <= q_lo:
        return 1.0
    delta = (task_size - q_lo) / (q_hi - q_lo)
    return 1.0 + min(max(delta, 0.0), 1.0)


def choice_probabilities(
    scores: np.ndarray, zeta: float, uniform_mix: float = 0.0
) -> np.ndarray:
    """Softmin of zeta * scores, computed shift-invariantly.

    Subtracting the minimum before exponentiation keeps the map stable as
    scores grow linearly with the horizon.
    """
    w = zeta * scores
    e = np.exp(-(w - w.min()))
    p = e / e.sum()
    if uniform_mix > 0.0:
        p = (1.0 - uniform_mix) * p + uniform_mix / len(p)
    return p


def select_arm(
    state: AgentState,
    task_size_bits: float,
    candidate_set: tuple[int, ...],
    rng: np.random.Generator,
    *,
    q_lo: float = 0.0,
    q_hi: float = 0.0,
) -> tuple[int, np.ndarray]:
    """Draw an arm from the softmin distribution over patched scores.

    A single-arm candidate set short-circuits to probability one without
    touching the learning-rate schedule.
    """
    if not candidate_set:
        raise ValueError("candidate set is empty (non-empty supply is assumed)")
    zeta = (
        demand_weight(task_size_bits, q_lo, q_hi)
        if state.params.use_demand_weight
        else 1.0
    )
    state.demand_weight = zeta
    if len(candidate_set) == 1:
        return candidate_set[0], np.array([1.0])
    probs = choice_probabilities(
        state.score_vector(candidate_set), zeta, state.params.uniform_mix
    )
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    idx = min(idx, len(candidate_set) - 1)
    return candidate_set[idx], probs


def estimate_cost(
    realized_normalized: float,
    chosen_index: int,
    probs: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """Implicit-exploration estimate: l / (p + gamma) at the chosen arm, 0 elsewhere."""
    if not (0.0 <= realized_normalized <= 1.0):
        raise ValueError(
            f"normalized cost {realized_normalized} outside [0, 1]; "
            "normalization upstream is broken"
        )
    if gamma < 0.0:
        raise ValueError("gamma must be >= 0")
    est = np.zeros(len(probs))
    est[chosen_index] = realized_normalized / (probs[chosen_index] + gamma)
    return est


def update_scores(
    state: AgentState,
    estimates: np.ndarray,
    eta: float,
    candidate_set: tuple[int, ...],
) -> None:
    """Accumulate eta-weighted estimates into the scores of current arms."""
    for i, k in enumerate(candidate_set):
        e = estimates[i]
        if e != 0.0:
            state.scores[k] = state.scores.get(k, 0.0) + eta * e
        elif k not in state.scores:
            state.scores[k] = 0.0
