"""Continuous-time verification layer.

Integrates the mean replicator field implied by the learning rule, checks
the softmin-map contraction condition, and measures how closely discrete
traces track the mean ODE on the learning-rate clock.

Stage games here are small (2-3 agents, at most 10 arms each), so numpy's
per-call overhead outweighs the arithmetic.  ``MeanCostField`` therefore
evaluates from a plan built once per game, on Python floats, and
``ode_path`` (one step per round of a trace) and ``integrate_to_rest`` run
their whole loops on lists of floats through one ``_euler_step``.  Both
agree with the array code they replaced (``tests/reference_impls.py``) to
within 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .bandit import choice_probabilities
from .oracle import SmallGame

if TYPE_CHECKING:  # pragma: no cover
    from .traces import GameTrace

SIMPLEX_TOL = 1e-9
# local error allowed per step of integrate_to_rest; at 1e-4 its rest points
# stay within 1e-3 of a fixed 1e-2 step's (tests/test_dynamics.py)
STEP_ERROR_TOL = 1e-4
ZETA_MAX = 2.0  # check_contraction's demand weight, the cap of bandit.demand_weight
CONTRACTION_PAIRS = 50  # score pairs check_contraction samples, from a generator seeded with 0
SCORE_BOX = 4.0  # each sampled score is uniform in [0, SCORE_BOX)


@dataclass(frozen=True)
class MixedProfile:
    """One probability vector per agent, aligned with its candidate set."""

    vectors: tuple[np.ndarray, ...]

    def validate(self) -> None:
        for i, p in enumerate(self.vectors):
            if (p < -SIMPLEX_TOL).any():
                raise ValueError(f"agent {i}: negative probability")
            if abs(p.sum() - 1.0) > SIMPLEX_TOL:
                raise ValueError(f"agent {i}: probabilities sum to {p.sum()}")

    @staticmethod
    def uniform(game: SmallGame) -> "MixedProfile":
        return MixedProfile(
            tuple(np.full(len(s), 1.0 / len(s)) for s in game.candidate_sets)
        )

    @staticmethod
    def random(game: SmallGame, rng: np.random.Generator) -> "MixedProfile":
        vecs = []
        for s in game.candidate_sets:
            v = rng.dirichlet(np.ones(len(s)))
            vecs.append(v / v.sum())
        return MixedProfile(tuple(vecs))


class MeanCostField:
    """Expected normalized cost of every (agent, arm) under a mixed profile.

    Opponent congestion is integrated out exactly: the number of other
    agents on an arm is Poisson-binomial in their probabilities, so field
    values match exhaustive enumeration.

    The constructor builds a plan once per game.  For each (agent, slot) it
    holds the agent's table row for the slot's arm and the (opponent,
    opponent slot) pairs that share the arm; opponents that cannot use the
    arm do not widen the pmf.  ``evaluate`` folds the pmf over those pairs
    on Python floats, with no ``np.convolve`` and no ``index`` lookups.  On
    paper-fig2's final stage game (3 agents x 10 arms) one evaluation takes
    50-75 us, against 190-350 us for one ``np.convolve`` per opponent
    (2-core x86, Python 3.11, numpy 2.4).  Values stay within 1e-12 of that
    convolution (``tests/reference_impls.ref_expected_costs``); the largest
    difference seen is 2.2e-16, from the order in which the products add up.
    """

    def __init__(self, game: SmallGame):
        self.game = game
        sets = game.candidate_sets
        # per (agent, slot): its table row, the first (opponent, opponent
        # slot) pair on the slot's arm, whose [1 - q, q] starts the pmf (one
        # fold fewer halves a 2-agent evaluation), and the other pairs
        plan = []
        for n, arms in enumerate(sets):
            slots = []
            for arm in arms:
                sharers = [(u, s.index(arm)) for u, s in enumerate(sets) if u != n and arm in s]
                row = game.table[n, game.arm_pos(arm)].tolist()
                slots.append((row, sharers[0] if sharers else None, tuple(sharers[1:])))
            plan.append(tuple(slots))
        self._plan = tuple(plan)

    def evaluate(self, probs: Sequence[Sequence[float]]) -> list[list[float]]:
        """The field on per-agent lists of floats, aligned with the candidate sets."""
        out = []
        for slots in self._plan:
            costs = []
            for row, first, rest in slots:
                if first is None:  # nobody else can sit on the arm
                    costs.append(row[0])
                    continue
                q = probs[first[0]][first[1]]
                pmf = [1.0 - q, q]
                for u, j in rest:
                    q = probs[u][j]
                    r = 1.0 - q
                    pmf = [a * r + b * q for a, b in zip(pmf + [0.0], [0.0] + pmf)]
                costs.append(sum(map(mul, pmf, row)))
            out.append(costs)
        return out

    def expected_costs(self, profile: MixedProfile) -> tuple[np.ndarray, ...]:
        return tuple(np.array(c) for c in self.evaluate([v.tolist() for v in profile.vectors]))


def _euler_step(p: list[float], l: list[float], c: float) -> tuple[list[float], float]:
    """One explicit Euler step of p_k' = w * p_k * (mean cost - cost_k), with c = dt * w.

    ``l`` is the field at ``p``.  A raw update below zero is clipped at zero
    and renormalized, so faces are invariant (zero entries stay zero).
    Returns the new vector and the smallest entry of the raw update.
    """
    mean = sum(map(mul, p, l))
    q = [x + c * x * (mean - y) for x, y in zip(p, l)]
    low = min(q)
    if low < 0.0:
        q = [x if x > 0.0 else 0.0 for x in q]
    total = sum(q)
    return [x / total for x in q], low


def integrate_to_rest(
    profile0: MixedProfile,
    field: MeanCostField,
    weights: Sequence[float],
    dt: float = 1e-2,
    tol: float = 1e-6,
    max_steps: int = 200_000,
) -> tuple[MixedProfile, bool]:
    """Error-controlled Euler steps until the sup-norm velocity drops below tol.

    ``dt`` is the initial step.  The field is evaluated once per iteration,
    at the current point p, and ``max_steps`` bounds those evaluations.  The
    same evaluation gives the local error of the step h that reached p,
    ``h/2 * ||v(p) - v(p_prev)||_inf``.  Above ``STEP_ERROR_TOL`` the step is
    rejected: p_prev (whose field is kept) is stepped again with h/2.
    Otherwise the next step is ``h * min(2, 0.9 * sqrt(STEP_ERROR_TOL / err))``
    and convergence is tested at p.  A step that would leave the simplex
    (a raw entry below -1e-15) is halved (locally, up to 30 times).  Hitting
    max_steps returns converged=False: limit cycles are a legal outcome in
    general games, not an error.  Like ``ode_path``, the search runs on
    lists of floats through ``field.evaluate`` and ``_euler_step``.
    """
    p, h = [v.tolist() for v in profile0.vectors], dt
    last = None  # (point, field, velocity) at the last accepted point
    for _ in range(max_steps):
        costs = field.evaluate(p)
        # the replicator field w * p * (p @ l - l), all agents' entries in one list
        vel = [w * x * (mean - y) for v, l, w in zip(p, costs, weights)
               for mean in (sum(map(mul, v, l)),) for x, y in zip(v, l)]
        rejected = False
        if last is not None:
            err = 0.5 * h * max(abs(a - b) for a, b in zip(vel, last[2]))
            rejected = err > STEP_ERROR_TOL
            if rejected:
                p, costs, vel = last
                h /= 2.0
            else:
                h *= min(2.0, 0.9 * math.sqrt(STEP_ERROR_TOL / err)) if err > 0.0 else 2.0
        if not rejected:
            if max(map(abs, vel)) < tol:
                return _profile(p), True
            last = (p, costs, vel)
        for _ in range(30):
            steps = [_euler_step(v, l, h * w) for v, l, w in zip(p, costs, weights)]
            if min(low for _, low in steps) >= -1e-15:
                break
            h /= 2.0
        p = [q for q, _ in steps]
    return _profile(p), False


def _profile(vecs: list[list[float]]) -> MixedProfile:
    return MixedProfile(tuple(np.array(v) for v in vecs))


@dataclass(frozen=True)
class ContractionReport:
    condition_holds: bool
    analytic_bound: float
    empirical_factor: float
    theta: float
    linear_cost: bool


def estimate_theta(game: SmallGame) -> float:
    """Lipschitz bound of cost in the congestion degree.

    Exhaustive over single-client changes: the largest cost jump any client
    can see on its arm when one more or fewer opponent sits on it.  Only
    rows of arms the agent can actually use count; a table of congestion
    degree 0 gives 0.0.
    """
    rows = [(n, game.arm_pos(arm)) for n, arms in enumerate(game.candidate_sets) for arm in arms]
    agents, arms = zip(*rows)
    diffs = np.abs(np.diff(game.table[list(agents), list(arms)], axis=1))
    return float(diffs.max()) if diffs.size else 0.0


def check_contraction(game: SmallGame, theta: float | None = None) -> ContractionReport:
    """Analytic contraction condition plus an empirical factor, at zeta = ``ZETA_MAX``.

    The analytic test is 2*zeta*theta < 1, tightened to theta*zeta/2 < 1
    when the cost is linear in the congestion degree.  The empirical factor
    samples ``CONTRACTION_PAIRS`` score pairs, maps them through the softmin
    choice rule, and measures
    ||cost(profile) - cost(profile')||_inf / ||scores - scores'||_inf.
    """
    if theta is None:
        theta = estimate_theta(game)
    if game.linear_coupling:
        bound = theta * ZETA_MAX / 2.0
    else:
        bound = 2.0 * ZETA_MAX * theta
    holds = bound < 1.0

    rng = np.random.default_rng(0)
    field = MeanCostField(game)
    factor = 0.0
    for _ in range(CONTRACTION_PAIRS):
        scores = [rng.uniform(0.0, SCORE_BOX, size=len(s)) for s in game.candidate_sets]
        other = [rng.uniform(0.0, SCORE_BOX, size=len(s)) for s in game.candidate_sets]
        prof_a = MixedProfile(tuple(choice_probabilities(s, ZETA_MAX) for s in scores))
        prof_b = MixedProfile(tuple(choice_probabilities(s, ZETA_MAX) for s in other))
        la = np.concatenate(field.expected_costs(prof_a))
        lb = np.concatenate(field.expected_costs(prof_b))
        ds = max(
            float(np.abs(a - b).max()) for a, b in zip(scores, other)
        )
        if ds > 1e-12:
            factor = max(factor, float(np.abs(la - lb).max()) / ds)
    return ContractionReport(
        condition_holds=holds,
        analytic_bound=bound,
        empirical_factor=factor,
        theta=theta,
        linear_cost=game.linear_coupling,
    )


# ---------------------------------------------------------------------------
# discrete-vs-ODE tracking
# ---------------------------------------------------------------------------


def discrete_probability_path(trace: "GameTrace") -> np.ndarray:
    """[T+1, N, Kmax] selection probabilities, frozen through inactive rounds.

    Rounds before an agent's first activation carry the uniform distribution
    over that round's candidate set.
    """
    T, N = trace.horizon, trace.num_agents
    path = np.full((T + 1, N, trace.kmax), np.nan)
    for n in range(N):
        last: np.ndarray | None = None  # at the latest active round so far
        for lo, hi, sets in trace.epochs():
            k = len(sets[n])
            epoch = path[lo : hi + 1, n, :k]
            # the latest active round up to each round of the epoch; 0 before the first
            rounds = np.arange(lo, hi + 1)
            seen = np.maximum.accumulate(np.where(trace.active[rounds, n], rounds, 0))
            played = seen > 0
            epoch[played] = trace.probs[seen[played], n, :k]
            # before its first activation in the epoch an agent keeps what it
            # last played on a set of the same size, else plays uniformly
            epoch[~played] = last if last is not None and last.size == k else 1.0 / k
            if played.any():
                last = trace.probs[seen[-1], n, :k]
    return path


def ode_path(
    field: MeanCostField,
    weights: Sequence[float],
    dt_matrix: np.ndarray,
    profile0: MixedProfile,
) -> np.ndarray:
    """Euler path of the mean ODE on per-agent learning-rate clocks.

    ``dt_matrix[t, n]`` is agent n's step at round t (its rate if active,
    zero otherwise); row 0 is ignored.  Returns [T+1, N, Kmax] aligned with
    discrete_probability_path.

    The step is ``_euler_step``'s: clip at zero, renormalize, and keep the
    vector where ``dt <= 0``.  The whole loop, field and step, runs on lists
    of floats through ``field.evaluate`` (a subclass's ``expected_costs`` is
    not called).  The fast field alone is not enough: on the 4,000 rounds of
    acceptance-small's run 0, array steps over the fast field take
    130-150 ms, the loop on floats 30-65 ms, and array steps over the
    convolution field 120-250 ms (2-core x86, Python 3.11, numpy 2.4).
    Entries stay within 1e-12 of the array loop
    (``tests/reference_impls.ref_ode_path``).
    """
    T, n_agents = dt_matrix.shape[0] - 1, dt_matrix.shape[1]
    kmax = max(len(v) for v in profile0.vectors)
    out = np.full((T + 1, n_agents, kmax), np.nan)
    rows = [out[:, n, : len(v)] for n, v in enumerate(profile0.vectors)]
    vecs = [v.tolist() for v in profile0.vectors]
    for rnd in range(1, T + 1):
        for row, v in zip(rows, vecs):
            row[rnd] = v
        costs = field.evaluate(vecs)
        for n, (p, l, w, dt) in enumerate(zip(vecs, costs, weights, dt_matrix[rnd].tolist())):
            if dt > 0.0:
                vecs[n] = _euler_step(p, l, dt * w)[0]
    return out


def path_deviation(discrete: np.ndarray, ode: np.ndarray) -> np.ndarray:
    """Per-round sup-norm deviation between two probability paths."""
    d = np.abs(discrete - ode)
    return np.nanmax(d, axis=(1, 2))


def tracking_error(trace: "GameTrace", field: MeanCostField) -> np.ndarray:
    """Per-round sup deviation of one trace from the mean ODE.

    The ODE advances on each agent's realized learning-rate clock (its eta
    at active rounds), weighted by the agent's mean demand weight over the
    trace (1 if it never plays).  Only single-epoch traces have a
    well-defined mean field to track.
    """
    if len(trace.config.candidates.epochs) != 1:
        raise ValueError("tracking_error needs a single candidate epoch")
    with np.errstate(invalid="ignore"):
        weights = [float(np.nanmean(trace.zeta[1:, n])) for n in range(trace.num_agents)]
    weights = [1.0 if np.isnan(w) else w for w in weights]
    dt = np.where(trace.active, np.nan_to_num(trace.eta), 0.0)
    arms0 = trace.config.candidates.sets_at(1)
    profile0 = MixedProfile(tuple(np.full(len(a), 1.0 / len(a)) for a in arms0))
    ode = ode_path(field, weights, dt, profile0)
    disc = discrete_probability_path(trace)
    return path_deviation(disc[1:], ode[1:])
