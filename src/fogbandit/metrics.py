"""Reported quantities and bound checks over game traces.

Regret against the hindsight-best fixed arm (per candidate segment), social
cost and price-of-total-anarchy series, approximate-equilibrium
certification of tail play, the quasi-exponential convergence bound, the
asynchronous learning-rate conditions, and the smoothness PoTA bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import MeanCostField, MixedProfile
from .oracle import SmallGame, SmoothnessResult, best_fixed_arm, smoothness_constants, social_optimum

if TYPE_CHECKING:  # pragma: no cover
    from .traces import GameTrace


def agent_segments(trace: "GameTrace", agent: int) -> list[tuple[int, int]]:
    """Maximal round ranges over which the agent's candidate set is constant.

    Adjacent epochs that leave this agent's set unchanged are merged, so
    hindsight comparisons use the longest valid horizon.
    """
    bounds = trace.config.candidates.epoch_bounds(trace.horizon)
    segments: list[tuple[int, int]] = []
    prev_set = None
    for lo, hi in bounds:
        arms = trace.candidate_set(lo, agent)
        if prev_set == arms:
            segments[-1] = (segments[-1][0], hi)
        else:
            segments.append((lo, hi))
            prev_set = arms
    return segments


@dataclass(frozen=True)
class RegretSeries:
    """Cumulative regret vs the hindsight-best fixed arm, per segment.

    Index t holds the regret after round t (index 0 is zero), in normalized
    costs.  ``per_round`` is that regret divided by the number of the agent's
    active rounds.
    """

    agent: int
    normalized: np.ndarray
    per_round: np.ndarray

    def final(self) -> float:
        return float(self.normalized[-1])


def running_best_sums(active: np.ndarray, cf: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """Per round, the least over slots of the running counterfactual cost sums.

    ``cf`` is [round, ..., slot] normalized counterfactual costs and
    ``active`` the matching [round, ...] activations; an inactive round or
    a NaN cost adds 0.  ``carry`` [..., slot] holds the sums before the
    first round and is advanced past the last one.  The sums grow one round
    at a time from the carry, so consecutive blocks chained through one
    carry give the sums of a single call bit for bit.
    """
    sums = np.nan_to_num(np.where(active[..., None], cf, 0.0), copy=False)
    sums[0] += carry
    np.cumsum(sums, axis=0, out=sums)
    carry[...] = sums[-1]
    return sums.min(axis=-1)


def regret_series(trace: "GameTrace", agent: int) -> RegretSeries:
    """The agent's regret against its best fixed arm of each segment.

    A trace that carries the best arm's running sums, per round, as
    ``cf_best`` gives them; any other gives them from ``cf_norm`` through
    ``running_best_sums`` per segment.  ``cf_best`` is looked up first, as
    a kept game's trace would derive ``cf_norm`` to answer.
    """
    T = trace.horizon
    cum_norm = np.zeros(T + 1)
    base_norm = 0.0
    for lo, hi in agent_segments(trace, agent):
        act = trace.active[lo : hi + 1, agent]
        real_n = np.where(act, np.nan_to_num(trace.cost_norm[lo : hi + 1, agent]), 0.0).cumsum()
        if hasattr(trace, "cf_best"):
            best = trace.cf_best[lo : hi + 1, agent]
        else:
            k = len(trace.candidate_set(lo, agent))
            best = running_best_sums(act, trace.cf_norm[lo : hi + 1, agent, :k], np.zeros(k))
        cum_norm[lo : hi + 1] = base_norm + real_n - best
        base_norm = cum_norm[hi]
    plays = np.concatenate(([1.0], np.maximum(trace.active[1:, agent].cumsum(), 1.0)))
    return RegretSeries(
        agent=agent,
        normalized=cum_norm,
        per_round=cum_norm / plays,
    )


def social_cost_series(trace: "GameTrace", normalized: bool = True) -> np.ndarray:
    """Cumulative social cost (active agents only); index t = through round t."""
    src = trace.cost_norm if normalized else trace.cost_real
    per_round = np.where(trace.active, np.nan_to_num(src), 0.0).sum(axis=1)
    per_round[0] = 0.0
    return per_round.cumsum()


def pota_series(
    trace: "GameTrace", games: list[tuple[tuple[int, int], SmallGame]]
) -> np.ndarray:
    """Running price of total anarchy, using each epoch's own optimum cost.

    Index t is the average over rounds <= t of realized social cost divided
    by the epoch's optimum cost; rounds with no active agent are skipped.
    Entry 0 and any leading skipped rounds are NaN.
    """
    T = trace.horizon
    c_star = np.full(T + 1, np.nan)
    for (lo, hi), game in games:
        _, cs = social_optimum(game)
        if cs <= 0:
            raise ValueError(f"undefined PoTA: optimum social cost {cs} in [{lo},{hi}]")
        c_star[lo : hi + 1] = cs
    per_round = np.where(trace.active, np.nan_to_num(trace.cost_norm), 0.0).sum(axis=1)
    played = trace.active.any(axis=1)
    ratio = np.where(played, per_round / c_star, 0.0)
    counts = played.cumsum()
    with np.errstate(invalid="ignore", divide="ignore"):
        series = ratio.cumsum() / counts
    series[counts == 0] = np.nan
    return series


# ---------------------------------------------------------------------------
# xi-equilibrium certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XiCertificate:
    xi_bound: float
    max_gap: float
    certified: bool
    gaps: tuple[float, ...]
    window: tuple[int, int]
    profile: MixedProfile


def empirical_tail_profile(
    trace: "GameTrace", lo: int, hi: int, min_samples: int = 100
) -> MixedProfile:
    """Action frequencies of each agent over [lo, hi] as a mixed profile."""
    vecs = []
    for n in range(trace.num_agents):
        arms = trace.candidate_set(lo, n)
        act = trace.active[lo : hi + 1, n]
        chosen = trace.chosen[lo : hi + 1, n][act]
        if chosen.size < min_samples:
            raise ValueError(
                f"window [{lo},{hi}] has {chosen.size} samples for agent {n}; "
                f"need >= {min_samples} for frequency estimation"
            )
        counts = np.array([(chosen == k).sum() for k in arms], dtype=np.float64)
        vecs.append(counts / counts.sum())
    return MixedProfile(tuple(vecs))


def xi_certificate(
    trace: "GameTrace",
    window: float,
    game: SmallGame,
    min_samples: int = 100,
) -> XiCertificate:
    """Check tail play against the logit-map equilibrium slack.

    The slack is max_n log|K_n| / zeta_n; certification holds when every
    agent's best-response gap at the empirical tail profile stays within it.
    ``window`` is the tail fraction of the final candidate epoch.
    """
    if not (0.0 < window <= 1.0):
        raise ValueError("window must be a fraction in (0, 1]")
    lo_e, hi_e = trace.config.candidates.epoch_bounds(trace.horizon)[-1]
    length = hi_e - lo_e + 1
    lo = hi_e - max(int(math.ceil(window * length)), 1) + 1
    profile = empirical_tail_profile(trace, lo, hi_e, min_samples)
    field = MeanCostField(game)
    costs = field.expected_costs(profile)
    gaps = []
    xi_terms = []
    for n in range(trace.num_agents):
        arms = trace.candidate_set(lo, n)
        with np.errstate(invalid="ignore"):
            zeta_n = float(np.nanmean(trace.zeta[lo : hi_e + 1, n]))
        if math.isnan(zeta_n):
            zeta_n = 1.0
        own = float(profile.vectors[n] @ costs[n])
        gaps.append(own - float(costs[n].min()))
        xi_terms.append(math.log(len(arms)) / zeta_n)
    xi_bound = max(xi_terms)
    max_gap = max(gaps)
    return XiCertificate(
        xi_bound=xi_bound,
        max_gap=max_gap,
        certified=bool(max_gap <= xi_bound + 1e-12),
        gaps=tuple(gaps),
        window=(lo, hi_e),
        profile=profile,
    )


# ---------------------------------------------------------------------------
# quasi-exponential convergence bound
# ---------------------------------------------------------------------------


def dominant_arm_bound(
    zeta: float,
    num_arms: int,
    delta_l: float,
    delta_beta: float,
    rate_sums: np.ndarray,
) -> np.ndarray:
    """1 - (K-1) exp(-zeta (delta_beta + delta_l * sum of rates))."""
    return 1.0 - (num_arms - 1) * np.exp(-zeta * (delta_beta + delta_l * rate_sums))


@dataclass(frozen=True)
class ConvergenceRateReport:
    skipped: bool
    reason: str = ""
    dominant_arm: int = -1
    delta_l: float = math.nan
    bounds: np.ndarray | None = None
    realized: np.ndarray | None = None
    violations: int = 0


def strict_gap(config, agent: int) -> tuple[int, float]:
    """Ground-truth dominant arm and its worst-case realized cost gap.

    The quasi-exponential bound presumes one arm beats every alternative in
    every round, so the gap compares realized-cost ranges: the dominant
    arm's most expensive realization (full congestion, outlier weight 1,
    adversary noise up) against the cheapest realization of any other arm.
    Computable only for synthetic environments with explicit adversary
    phases; anything else returns (-1, 0.0) and callers skip the check.
    """
    env = config.env
    if env.model != "synthetic" or env.adversary is None:
        return -1, 0.0
    h = env.adversary.noise_halfwidth
    n_agents = config.num_agents
    arm_sets = [sets[agent] for _, sets in config.candidates.epochs]
    common = set(arm_sets[0]).intersection(*arm_sets[1:]) if arm_sets else set()
    if not common:
        return -1, 0.0

    def hi_cost(mean: float) -> float:
        base = mean + h
        if env.coupling == "sqrt":
            return min(base * math.sqrt(n_agents), 1.0)
        return min(base + env.theta * (n_agents - 1), 1.0)

    means = {k: [m[k] for _, _, m in env.adversary.phases] for k in env.arm_ids()}
    worst_hi = {k: max(hi_cost(m) for m in means[k]) for k in common}
    dominant = min(sorted(common), key=lambda k: worst_hi[k])
    gap = math.inf
    for arms in arm_sets:
        for k in arms:
            if k == dominant:
                continue
            lo = min(max(m - h, 0.0) for m in means[k])
            gap = min(gap, lo - worst_hi[dominant])
    if not math.isfinite(gap) or gap <= 0:
        return -1, 0.0
    return dominant, gap


def convergence_rate_check(
    trace: "GameTrace",
    agent: int,
    tolerance: float = 0.0,
) -> ConvergenceRateReport:
    """Compare the agent's dominant-arm probability to the exponential bound.

    The bound holds for seed-averaged probabilities; on a single trace this
    reports violations beyond ``tolerance`` for diagnostic use.  Skips (with
    notice) when the configuration has no strict-gap dominant arm.
    """
    dominant, delta_l = strict_gap(trace.config, agent)
    if dominant < 0:
        return ConvergenceRateReport(True, "no strict-gap dominant arm in config")
    sets = {s[agent] for _, _, s in trace.epochs()}
    if len(sets) != 1:
        return ConvergenceRateReport(True, "candidate set changes over horizon")
    arms = sets.pop()
    k = len(arms)
    pos = arms.index(dominant)
    act = trace.active[1:, agent]
    eta = np.where(act, np.nan_to_num(trace.eta[1:, agent]), 0.0)
    rate_sums = np.concatenate(([0.0], eta.cumsum()[:-1]))  # sum before each round
    with np.errstate(invalid="ignore"):
        zeta = float(np.nanmean(trace.zeta[1:, agent]))
    if math.isnan(zeta):
        zeta = 1.0
    bounds = dominant_arm_bound(zeta, k, delta_l, 0.0, rate_sums)
    realized = trace.probs[1:, agent, pos]
    mask = act & ~np.isnan(realized)
    violations = int((realized[mask] < bounds[mask] - tolerance).sum())
    return ConvergenceRateReport(
        False, "", dominant, delta_l, bounds, realized, violations
    )


# ---------------------------------------------------------------------------
# asynchronous rate conditions
# ---------------------------------------------------------------------------


_ASYNC_CHUNK = 2**14  # rounds per chunk of async_condition_check's partial sums


@dataclass(frozen=True)
class AsyncConditionReport:
    horizon: int
    rate_sums_diverge: bool
    square_sums_bounded: bool
    reference_diverges: bool
    reference_squares_bounded: bool
    threshold: float
    threshold_round: int
    final_rate_sums: tuple[float, ...]
    final_reference_sum: float
    final_reference_square_sum: float

    def all_hold(self) -> bool:
        return (
            self.rate_sums_diverge
            and self.square_sums_bounded
            and self.reference_diverges
            and self.reference_squares_bounded
        )


def _carry_cumsum(last: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """``chunk``'s running sums along axis 0, continuing from the row ``last``.

    ``add.accumulate`` adds one row at a time, so chained chunks give the
    full-length cumsum bit for bit.
    """
    return np.add.accumulate(np.concatenate([last[None], chunk]), axis=0)[1:]


def async_condition_check(
    schedules: list[tuple[float, int]],
    horizon: int,
    activations: np.ndarray | None = None,
    threshold: float = 50.0,
) -> AsyncConditionReport:
    """Numerically evidence the divergence/summability pair for the max rate.

    ``schedules`` holds (schedule_a, num_arms) per agent; ``activations`` is
    a [horizon, N] boolean matrix (always-on when omitted).  Verifies, on
    partial sums: every agent's rate sum passes ``threshold`` within the
    horizon (closed-form sqrt growth), square sums stay under the analytic
    a*logK/K * (1 + log t) tail bound, and both derived conditions for the
    per-round max rate across active agents.  The partial sums stream over
    ``_ASYNC_CHUNK`` rounds at a time, so memory does not grow with the horizon.
    Always-on agents whose schedules give the same rate coefficient (those
    sharing (schedule_a, K), in particular) have the same rate sequence, so
    each distinct coefficient is summed once and ``final_rate_sums`` is
    expanded back to one entry per agent.

    Only the threshold can fail: the sqrt lower bound, the square-sum bound,
    max^2 <= sum of squares and sum of max >= max of sums hold for every
    input.  With always-on activations -- ``cli.verify`` passes none, so the
    config's activation probabilities are not checked -- the verdict
    depends only on the coefficients, the horizon and the threshold.
    """
    coeff = np.array(
        [
            math.sqrt(a * max(math.log(k), math.log(2.0)) / k)
            for a, k in schedules
        ]
    )
    if activations is None:
        rounds = horizon
        coeff, agent_column, weight = np.unique(coeff, return_inverse=True, return_counts=True)
    else:
        rounds = activations.shape[0]
        agent_column, weight = np.arange(len(schedules)), np.ones(len(schedules), dtype=np.int64)
    n_cols = coeff.shape[0]
    # running sums carried across chunks, one column per agent (per distinct
    # coefficient when always on): theta(t), rate and square sums, and the
    # max rate's sum and square sum
    clock = np.zeros(n_cols, dtype=np.int64)
    rate_sum, sq_sum = np.zeros(n_cols), np.zeros(n_cols)
    ref_sum = ref_sq_sum = np.zeros(())
    above_lower = squares_ok = ref_squares_ok = True
    first_past = None
    for lo in range(0, rounds, _ASYNC_CHUNK):
        hi = min(lo + _ASYNC_CHUNK, rounds)
        act = np.ones((hi - lo, n_cols), dtype=bool) if activations is None else activations[lo:hi]
        clocks = _carry_cumsum(clock, act)
        with np.errstate(divide="ignore"):
            rates = np.where(act, coeff[None, :] / np.sqrt(np.maximum(clocks, 1)), 0.0)
        rate_sums = _carry_cumsum(rate_sum, rates)
        # closed-form: sum_{v<=V} c/sqrt(v) >= 2c(sqrt(V+1)-1)
        lower = 2.0 * coeff[None, :] * (np.sqrt(clocks + 1.0) - 1.0)
        above_lower = above_lower and bool((rate_sums >= lower - 1e-9).all())
        past = (rate_sums >= threshold).all(axis=1)
        if first_past is None and past.any():
            first_past = lo + int(np.argmax(past)) + 1

        sq_sums = _carry_cumsum(sq_sum, rates**2)
        sq_bound = (coeff**2)[None, :] * (1.0 + np.log(np.maximum(clocks, 1)))
        squares_ok = squares_ok and bool((sq_sums <= sq_bound + 1e-9).all())

        ref = rates.max(axis=1)
        ref_sums = _carry_cumsum(ref_sum, ref)
        ref_sq = _carry_cumsum(ref_sq_sum, ref**2)
        ref_sq_bound = (sq_sums * weight).sum(axis=1)  # max^2 <= sum of squares
        ref_squares_ok = ref_squares_ok and bool((ref_sq <= ref_sq_bound + 1e-9).all())
        clock, rate_sum, sq_sum = clocks[-1], rate_sums[-1], sq_sums[-1]
        ref_sum, ref_sq_sum = ref_sums[-1], ref_sq[-1]

    diverge = bool((rate_sum >= threshold).all()) and above_lower
    ref_diverges = bool(ref_sum >= threshold) and bool(ref_sum >= rate_sum.max() - 1e-9)
    return AsyncConditionReport(
        horizon=horizon,
        rate_sums_diverge=diverge,
        square_sums_bounded=squares_ok,
        reference_diverges=ref_diverges,
        reference_squares_bounded=ref_squares_ok,
        threshold=threshold,
        threshold_round=first_past if diverge else horizon,
        final_rate_sums=tuple(float(x) for x in rate_sum[agent_column]),
        final_reference_sum=float(ref_sum),
        final_reference_square_sum=float(ref_sq_sum),
    )


# ---------------------------------------------------------------------------
# smoothness PoTA bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PotaBoundCheck:
    segment: tuple[int, int]
    vacuous: bool
    measured: float = math.nan
    rho: float = math.nan
    regret_term: float = math.nan
    bound: float = math.nan
    holds: bool = False
    slack: float = math.nan
    smoothness: SmoothnessResult | None = None


def pota_bound_check(
    trace: "GameTrace",
    games: list[tuple[tuple[int, int], SmallGame]],
    tolerance: float = 1e-9,
    smoothness: list[SmoothnessResult] | None = None,
) -> list[PotaBoundCheck]:
    """Per-epoch check of PoTA <= rho + sum_n R_n / (T (1-mu') C*).

    ``smoothness`` holds each game's ``smoothness_constants`` when the caller
    checks many traces of the same games; they are fitted here otherwise.
    """
    if smoothness is None:
        smoothness = [smoothness_constants(game) for _, game in games]
    checks = []
    for ((lo, hi), _), smooth in zip(games, smoothness):
        if not smooth.feasible:
            checks.append(PotaBoundCheck((lo, hi), vacuous=True, smoothness=smooth))
            continue
        c_star = smooth.optimum_cost
        length = hi - lo + 1
        per_round = np.where(
            trace.active[lo : hi + 1], np.nan_to_num(trace.cost_norm[lo : hi + 1]), 0.0
        ).sum(axis=1)
        measured = float(per_round.mean() / c_star)
        regret_total = 0.0
        for n in range(trace.num_agents):
            act = trace.active[lo : hi + 1, n]
            realized = float(np.where(act, np.nan_to_num(trace.cost_norm[lo : hi + 1, n]), 0.0).sum())
            _, best = best_fixed_arm(trace, n, (lo, hi))
            regret_total += realized - best
        regret_term = regret_total / (length * (1.0 - smooth.mu) * c_star)
        bound = smooth.rho + regret_term
        checks.append(
            PotaBoundCheck(
                segment=(lo, hi),
                vacuous=False,
                measured=measured,
                rho=smooth.rho,
                regret_term=regret_term,
                bound=bound,
                holds=bool(measured <= bound + tolerance),
                slack=bound - measured,
                smoothness=smooth,
            )
        )
    return checks

