"""Brute-force ground truth on desk-scale stage games.

Exhaustive enumeration over joint actions: pure Nash equilibria, social
optimum, hindsight-best fixed arms, and smoothness constants yielding the
robust price-of-anarchy bound.  Nothing here is meant to scale; it exists to
check the learning dynamics against exact answers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .env import Environment

if TYPE_CHECKING:  # pragma: no cover
    from .traces import GameTrace

MAX_JOINT_ACTIONS = 10**6
LAMBDA_GRID = (1.0, 10.0, 0.01)
MU_GRID = (0.0, 0.99, 0.01)


def check_enumerable(candidate_sets: Sequence[Sequence[int]]) -> None:
    """Raise ValueError if the joint actions of these candidate sets exceed
    ``MAX_JOINT_ACTIONS``; cheap, so callers check before building a table."""
    size = math.prod(len(s) for s in candidate_sets)
    if size > MAX_JOINT_ACTIONS:
        raise ValueError(f"joint action space {size} too large to enumerate")


@dataclass(frozen=True)
class SmallGame:
    """Stage game with expected-cost tensor l(agent, arm, congestion).

    ``table[n, arm_pos, c-1]`` is agent n's expected normalized cost on an
    arm when c agents (n included) sit on it; ``arm_pos`` indexes ``arm_ids``.
    """

    candidate_sets: tuple[tuple[int, ...], ...]
    arm_ids: tuple[int, ...]
    table: np.ndarray
    linear_coupling: bool = False

    def __post_init__(self):
        check_enumerable(self.candidate_sets)

    @property
    def num_agents(self) -> int:
        return len(self.candidate_sets)

    def arm_pos(self, arm: int) -> int:
        return self.arm_ids.index(arm)

    def joint_actions(self):
        return itertools.product(*self.candidate_sets)

    def cost(self, agent: int, joint: Sequence[int]) -> float:
        arm = joint[agent]
        c = sum(1 for a in joint if a == arm)
        return float(self.table[agent, self.arm_pos(arm), c - 1])

    def social_cost(self, joint: Sequence[int]) -> float:
        return sum(self.cost(n, joint) for n in range(self.num_agents))

    @staticmethod
    def from_environment(env: Environment, lo: int, hi: int) -> "SmallGame":
        sets = env.candidates.sets_at(lo)
        check_enumerable(sets)  # before the table, which a refused game would waste
        return SmallGame(
            candidate_sets=sets,
            arm_ids=tuple(env.arm_ids),
            table=env.mean_cost_table(lo, hi),
            linear_coupling=(env.config.env.model == "synthetic"
                             and env.config.env.coupling == "linear"),
        )


def stage_games(env: Environment) -> list[tuple[tuple[int, int], SmallGame]]:
    """One enumerable stage game per candidate epoch of a replication."""
    return [
        ((lo, hi), SmallGame.from_environment(env, lo, hi))
        for lo, hi in env.epoch_bounds
    ]


def find_pure_nash(game: SmallGame, eps: float = 0.0) -> list[tuple[int, ...]]:
    """All joint actions where no unilateral deviation strictly improves.

    ``eps`` relaxes the improvement test: a deviation counts only if it
    lowers the deviator's cost by more than eps.  Equilibria come in
    ``joint_actions`` order.
    """
    joints = _joints(game)
    stable = np.ones(joints.shape[0], dtype=bool)
    for n, arms in enumerate(game.candidate_sets):
        here = _seat_costs(game, joints, n, joints[:, n]) - eps
        for alt in map(game.arm_pos, arms):
            there = _seat_costs(game, joints, n, np.full(joints.shape[0], alt))
            stable &= (joints[:, n] == alt) | ~(there < here)
    return [tuple(game.arm_ids[p] for p in j) for j in joints[stable].tolist()]


def _joints(game: SmallGame) -> np.ndarray:
    """Every joint action as [joint, agent] arm positions, in ``joint_actions`` order."""
    pos = [[game.arm_pos(a) for a in s] for s in game.candidate_sets]
    return np.stack([g.ravel() for g in np.meshgrid(*pos, indexing="ij")], axis=1)


def _seat_costs(game: SmallGame, joints: np.ndarray, n: int, seat: np.ndarray) -> np.ndarray:
    """Per joint, agent n's cost on arm position ``seat`` while every other
    agent m stays on ``joints[:, m]``."""
    others = (joints == seat[:, None]).sum(axis=1) - (joints[:, n] == seat)
    return game.table[n, seat, others]


def _total_costs(game: SmallGame, joints: np.ndarray, seats: np.ndarray) -> np.ndarray:
    """Per joint, sum over agents n of n's cost on arm ``seats[:, n]`` while each
    other agent m stays on ``joints[:, m]`` (``seats = joints``: the social cost).
    Agents add up in index order from 0, as in ``SmallGame.social_cost``, bit for bit.
    """
    total = np.zeros(joints.shape[0])
    for n in range(game.num_agents):
        total += _seat_costs(game, joints, n, seats[:, n])
    return total


def social_optimum(game: SmallGame) -> tuple[tuple[int, ...], float]:
    """Exhaustive minimizer of total cost; ties break lexicographically."""
    joints = _joints(game)
    social = _total_costs(game, joints, joints)
    best = int(np.argmin(social))  # the first minimum in joint_actions order
    return tuple(game.arm_ids[p] for p in joints[best].tolist()), float(social[best])


def best_fixed_arm(
    trace: "GameTrace", agent: int, segment: tuple[int, int]
) -> tuple[int, float]:
    """Hindsight-optimal fixed arm over a segment, via logged counterfactuals.

    The agent's candidate set must be identical across the whole segment;
    sums run over the agent's active rounds.  Ties break toward the lowest
    arm id (candidate-set order).
    """
    lo, hi = segment
    if not (1 <= lo <= hi <= trace.horizon):
        raise ValueError(f"segment {segment} outside [1, {trace.horizon}]")
    sets = {s[agent] for e_lo, e_hi, s in trace.epochs() if e_lo <= hi and e_hi >= lo}
    if len(sets) != 1:
        raise ValueError(
            f"segment {segment} spans candidate-set changes for agent {agent}"
        )
    arms = sets.pop()
    act = trace.active[lo : hi + 1, agent]
    cf = trace.cf_norm[lo : hi + 1, agent, : len(arms)]
    sums = np.where(act[:, None], cf, 0.0).sum(axis=0)
    best = int(np.argmin(sums))
    return arms[best], float(sums[best])


@dataclass(frozen=True)
class SmoothnessResult:
    """Grid-fitted (lambda, mu) smoothness and the implied robust PoA."""

    feasible: bool
    lam: float
    mu: float
    rho: float
    optimum: tuple[int, ...]
    optimum_cost: float
    worst_joint: tuple[int, ...] | None = None
    worst_required_lambda: float = math.nan


def smoothness_constants(game: SmallGame) -> SmoothnessResult:
    """Best (lambda, mu) on the documented grid minimizing lambda/(1-mu).

    Enforces sum_n l_n(k*_n; k_-n) <= lambda*C* + mu*C(k) over every joint
    action k, with k* the social optimum.  Infeasible grids report the joint
    action demanding the largest lambda.
    """
    k_star, c_star = social_optimum(game)
    if c_star <= 0:
        return SmoothnessResult(False, math.nan, math.nan, math.nan, k_star, c_star)
    joints = _joints(game)
    star = np.array([game.arm_pos(a) for a in k_star])
    deviation = _total_costs(game, joints, np.broadcast_to(star, joints.shape))
    social = _total_costs(game, joints, joints)

    lam_lo, lam_hi, lam_step = LAMBDA_GRID
    mu_lo, mu_hi, mu_step = MU_GRID
    best: SmoothnessResult | None = None
    worst_lam = -math.inf
    worst_joint = None
    n_mu = int(round((mu_hi - mu_lo) / mu_step)) + 1
    for i in range(n_mu):
        mu = mu_lo + i * mu_step
        required = (deviation - mu * social) / c_star
        j = int(np.argmax(required))
        lam_req = float(required[j])
        # snap upward onto the grid without float fuzz
        lam = max(lam_lo, math.ceil((lam_req - 1e-12) / lam_step) * lam_step)
        if lam_req > worst_lam:
            worst_lam, worst_joint = lam_req, tuple(game.arm_ids[p] for p in joints[j].tolist())
        if lam > lam_hi + 1e-12:
            continue
        rho = lam / (1.0 - mu)
        if best is None or rho < best.rho:
            best = SmoothnessResult(True, lam, mu, rho, k_star, c_star)
    if best is None:
        return SmoothnessResult(
            False, math.nan, math.nan, math.inf, k_star, c_star,
            worst_joint=worst_joint, worst_required_lambda=worst_lam,
        )
    return best
