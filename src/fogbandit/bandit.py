"""The learners' decision rule: demand-weighted softmin over cumulative
implicit-exploration cost estimates, with score patching for appearing arms.

Each learner owns nothing but its own scores and clock ("completely
uncoupled"): it never sees opponents, only its realized normalized cost.  So
within a round the N learners are independent given the previous round, and
every function here steps a batch of them at once: one row per agent, one
column per candidate slot.  Baselines (vanilla IX, explicit exploration,
full feedback, full reset) are the same machinery with parameters switched
off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    eta: float | np.ndarray
    gamma: float | np.ndarray


@dataclass
class LearnerState:
    """The entire memory of N learners.

    ``scores[n, a]`` is agent n's cumulative cost estimate on the arm at
    global position a.  A row doubles as cold storage: positions outside the
    agent's current candidate set keep their value and feed the max branch
    of the patch rule if the arm re-appears.  ``known[n]`` holds the
    positions of the candidate set agent n last synced to (empty before its
    first activation).
    """

    params: tuple[LearnerParams, ...]
    scores: np.ndarray
    known: list[tuple[int, ...]]

    @staticmethod
    def fresh(params: tuple[LearnerParams, ...], num_arms: int) -> "LearnerState":
        return LearnerState(tuple(params), np.zeros((len(params), num_arms)), [()] * len(params))


def learning_rates(
    activation_clock,
    num_arms: int,
    schedule_a,
    gamma_ratio,
) -> LearningRates:
    """Inverse-sqrt schedule sqrt(a * log K / (K * clock)), gamma = ratio * eta.

    ``activation_clock`` is one clock or an array of clocks played on
    candidate sets of the same size; ``schedule_a`` and ``gamma_ratio`` may
    be per-agent arrays that broadcast against it.  ``log K`` is floored at
    log 2 so a single-arm candidate set stays defined.
    """
    clock = np.asarray(activation_clock)
    if clock.size and clock.min() < 1:
        raise ValueError(f"activation_clock must be >= 1, got {clock.min()}")
    if num_arms < 1:
        raise ValueError(f"num_arms must be >= 1, got {num_arms}")
    log_k = max(math.log(num_arms), math.log(2.0))
    eta = np.sqrt(schedule_a * log_k / (num_arms * clock))
    return LearningRates(eta=eta, gamma=gamma_ratio * eta)


def patch_scores(
    row: np.ndarray,
    new_candidates: tuple[int, ...],
    appearing: tuple[int, ...],
) -> None:
    """Initialize appearing arms at max(own stored score, min over persisting).

    ``row`` is one agent's score row, indexed by arm position like the
    candidate tuples.  With no persisting arm the rule is undefined; fall
    back to a full reset.  Persisting arms are untouched and vanished arms
    stay in cold storage.
    """
    appearing_set = set(appearing)
    if not appearing_set <= set(new_candidates):
        raise ValueError("appearing arms must be a subset of the new candidate set")
    if not appearing_set:
        return
    persisting = [k for k in new_candidates if k not in appearing_set]
    if not persisting:
        row[:] = 0.0
        return
    new = list(appearing)
    row[new] = np.maximum(row[new], row[persisting].min())


def sync_candidates(
    state: LearnerState, agents, candidate_sets: list[tuple[int, ...]]
) -> tuple[int, ...]:
    """Bring the given agents' rows up to date with their candidate sets.

    ``candidate_sets[n]`` is agent n's current set as arm positions.
    Returns the agents that saw arms appear.  Dispatches on each agent's
    patch mode: ``patch`` applies the score-patch rule, ``reset_all`` wipes
    the whole row on any set change, ``reset_new`` zeroes only appearing arms.
    """
    patched = []
    for n in agents:
        new, old = candidate_sets[n], state.known[n]
        if new == old:
            continue
        appearing = tuple(k for k in new if k not in old)
        row = state.scores[n]
        mode = state.params[n].patch_mode
        if mode == "patch":
            patch_scores(row, new, appearing)
        elif mode == "reset_all":
            row[:] = 0.0
        else:  # reset_new
            row[list(appearing)] = 0.0
        state.known[n] = new
        if appearing:
            patched.append(int(n))
    return tuple(patched)


def demand_weight(task_size, q_lo: float, q_hi: float):
    """zeta = 1 + (q - q_lo) / (q_hi - q_lo), clipped into [1, 2]."""
    if q_hi <= q_lo:
        return np.ones(np.shape(task_size))
    return 1.0 + np.clip((np.asarray(task_size) - q_lo) / (q_hi - q_lo), 0.0, 1.0)


def choice_probabilities(scores: np.ndarray, zeta, uniform_mix=0.0, out=None) -> np.ndarray:
    """Softmin of zeta * scores along the last axis, computed shift-invariantly.

    ``zeta`` and ``uniform_mix`` broadcast against ``scores`` (per-agent
    values of a batch come as [agent, 1] columns).  Subtracting the row
    minimum before exponentiation keeps the map stable as scores grow
    linearly with the horizon.  ``out``, when given, receives the
    probabilities and serves as the work array.
    """
    p = np.multiply(zeta, scores, out=out)
    np.subtract(np.minimum.reduce(p, axis=-1, keepdims=True), p, out=p)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    if isinstance(uniform_mix, np.ndarray) or uniform_mix > 0.0:
        p *= 1.0 - uniform_mix
        p += uniform_mix / scores.shape[-1]
    return p


def select_arm(
    scores: np.ndarray,
    zeta: np.ndarray,
    uniform_mix,
    u: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one candidate slot per agent from the softmin over its scores.

    ``scores`` is [agent, slot] over candidate sets of one size; ``zeta``,
    ``uniform_mix`` and the selection-stream uniforms ``u`` broadcast
    against it.  Agent n takes the first slot whose cumulative probability
    exceeds its uniform (the last slot if rounding leaves none).  Returns
    the chosen slots and the [agent, slot] probabilities, written to
    ``out`` when it is given.  A single-arm candidate set short-circuits to
    probability one and consumes no uniform.
    """
    m, k = scores.shape
    if k == 0:
        raise ValueError("candidate set is empty (non-empty supply is assumed)")
    if k == 1:
        probs = np.empty((m, 1)) if out is None else out
        probs.fill(1.0)
        return np.zeros(m, dtype=np.int64), probs
    probs = choice_probabilities(scores, zeta, uniform_mix, out)
    beyond = np.add.accumulate(probs, axis=1) > u
    beyond[:, -1] = True
    return beyond.argmax(axis=1), probs


def check_losses(loss: np.ndarray) -> None:
    """Raise ValueError unless every normalized cost lies in [0, 1]."""
    if not (np.minimum.reduce(loss, axis=None) >= 0.0 and np.maximum.reduce(loss, axis=None) <= 1.0):
        raise ValueError(
            f"normalized cost outside [0, 1] in {loss}; normalization upstream is broken"
        )


def check_gamma(gamma: np.ndarray) -> None:
    """Raise ValueError if an implicit-exploration rate is negative."""
    if np.minimum.reduce(gamma, axis=None) < 0.0:
        raise ValueError("gamma must be >= 0")


def estimate_cost(
    realized_normalized: np.ndarray,
    chosen_index: np.ndarray,
    probs: np.ndarray,
    gamma: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Implicit-exploration estimates, one [agent, slot] row per agent:
    l / (p + gamma) at the agent's chosen slot, 0 elsewhere.

    Without ``out`` the losses and ``gamma`` are checked here
    (``check_losses``, ``check_gamma``).  A caller that passes ``out``, the
    array to write the estimates to, checks them itself: the round loop
    checks a block's losses and each group's rates once per block.
    """
    loss = np.asarray(realized_normalized)
    if out is None:
        check_losses(loss)
        check_gamma(gamma)
        out = np.empty(probs.shape)
    rows = np.arange(len(loss))
    out.fill(0.0)
    out[rows, chosen_index] = loss / (probs[rows, chosen_index] + gamma)
    return out


def update_scores(scores: np.ndarray, estimates: np.ndarray, eta) -> None:
    """Accumulate eta-weighted estimates into [agent, slot] scores, in place.

    ``scores`` holds the agents' scores on their current candidate slots
    (the round loop keeps them apart from ``LearnerState.scores`` through a
    candidate epoch); ``eta`` broadcasts against ``estimates``.  A zero
    estimate leaves its score unchanged.
    """
    scores += eta * estimates
