"""Straight-line reference implementations used as test oracles.

Everything here recomputes the simulator's math from first principles with
scalar Python code: costs from raw draws of the named streams, the learner's
score recursion from logged actions, and a full game loop that shares only
the named RNG streams with the real implementation.  No vectorized code or
helper from the package's hot paths is reused.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from fogbandit.dynamics import MixedProfile
from fogbandit.env import AdversaryPhaseSchedule
from fogbandit.oracle import LAMBDA_GRID, MU_GRID, SmoothnessResult
from fogbandit.streams import stream_rng

FADE_FLOOR = 1e-9

_DRAWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def ref_draws(env) -> dict:
    """An environment's raw draws over its whole horizon, each stream drawn
    here in one call per quantity and in stream order: ``distances`` [epoch,
    agent, arm], then ``fading`` [round, agent, arm] (None on the synthetic
    model) from "channel"; generated phases, then ``adv_noise`` [round, arm]
    (zeros without noise) from "adversary"; ``outliers`` [round, agent, arm]
    from "outlier".  Row 0 of a per-round draw is drawn and unused."""
    draws = _DRAWS.get(env)
    if draws is None:
        cfg = env.config
        T, N, K = cfg.horizon, cfg.num_agents, len(cfg.env.vfns)
        channel = stream_rng(cfg.master_seed, env.run_id, "channel")
        adversary = stream_rng(cfg.master_seed, env.run_id, "adversary")
        if cfg.env.adversary is None:
            AdversaryPhaseSchedule.generate(
                T, cfg.env.arm_ids(), cfg.env.adversary_num_phases, cfg.env.adversary_mean_range,
                cfg.env.adversary_noise_halfwidth, adversary,
            )
        h = env.adversary.noise_halfwidth
        draws = {
            "distances": channel.uniform(1.0, cfg.env.channel.comm_range_m, size=(len(cfg.candidates.epochs), N, K)),
            "fading": channel.exponential(1.0, size=(T + 1, N, K)) if cfg.env.model == "physical" else None,
            "adv_noise": adversary.uniform(-h, h, size=(T + 1, K)) if h > 0 else np.zeros((T + 1, K)),
            "outliers": stream_rng(cfg.master_seed, env.run_id, "outlier").uniform(0.0, 1.0, size=(T + 1, N, K)),
        }
        _DRAWS[env] = draws
    return draws


def ref_cost_entry(env, rnd: int, agent: int, arm: int, congestion: int) -> dict:
    """One (agent, arm, congestion) cost from the raw draws of the environment's streams."""
    cfg = env.config
    draws = ref_draws(env)
    phase = next(i for i, (lo, hi, _) in enumerate(env.adversary.phases) if lo <= rnd <= hi)
    epoch = env.epoch_index(rnd)
    pos = env.arm_pos[arm]
    s = float(env.phase_means[phase][pos]) + float(draws["adv_noise"][rnd, pos])
    o = float(draws["outliers"][rnd, agent, pos])
    if cfg.env.model == "physical":
        ch = cfg.env.channel
        d = max(float(draws["distances"][epoch, agent, pos]), 1.0)
        pl_db = ch.pathloss_a + ch.pathloss_b * math.log10(d / 1000.0)
        gain = 10.0 ** (-pl_db / 10.0) * max(float(draws["fading"][rnd, agent, pos]), FADE_FLOOR)
        b = ch.bandwidth_hz / ch.num_subchannels / cfg.num_agents
        noise = 10.0 ** ((ch.noise_psd_dbm_hz - 30.0) / 10.0) * b
        power = 10.0 ** ((ch.tx_power_dbm - 30.0) / 10.0)
        rate = b * math.log2(1.0 + power * gain / noise)
        f1 = cfg.env.vfns[pos].max_cpu_freq * float(env.fractions[phase, pos])
        la = 1.0 / rate + cfg.computation_intensity * s / f1
        lc = 1.0 / rate + cfg.computation_intensity * s * math.sqrt(congestion) / f1
    else:
        base = max(s, 0.0)
        la = base
        if cfg.env.coupling == "sqrt":
            lc = base * math.sqrt(congestion)
        else:
            lc = base + cfg.env.theta * (congestion - 1)
    real = la + (lc - la) * o
    norm = min(max(real / env.cost_cap, 0.0), 1.0)
    return {"la": la, "lc": lc, "o": o, "real": real, "norm": norm}


def ref_cost_vectors(env, rnd: int, joint_action: dict[int, int]) -> dict[int, dict]:
    """Per-agent candidate cost vectors recomputed with scalar arithmetic."""
    sets = env.candidates.sets_at(rnd)
    counts: dict[int, int] = {}
    for a in joint_action.values():
        counts[a] = counts.get(a, 0) + 1
    out = {}
    for n, chosen in joint_action.items():
        rows = []
        for k in sets[n]:
            c = 1 + counts.get(k, 0) - (1 if k == chosen else 0)
            rows.append(ref_cost_entry(env, rnd, n, k, c))
        out[n] = {
            "arms": list(sets[n]),
            "la": [r["la"] for r in rows],
            "lc": [r["lc"] for r in rows],
            "o": [r["o"] for r in rows],
            "real": [r["real"] for r in rows],
            "norm": [r["norm"] for r in rows],
        }
    return out


def ref_softmin(scores: list[float], zeta: float) -> list[float]:
    lo = min(zeta * s for s in scores)
    e = [math.exp(-(zeta * s - lo)) for s in scores]
    z = sum(e)
    return [x / z for x in e]


def ref_rates(clock: int, num_arms: int, a: float, ratio: float) -> tuple[float, float]:
    log_k = max(math.log(num_arms), math.log(2.0))
    eta = math.sqrt(a * log_k / (num_arms * clock))
    return eta, ratio * eta


def ref_replay_learner(trace, agent: int) -> dict:
    """Replay the score recursion from the trace's logged actions and costs.

    Recomputes probabilities, estimates and cumulative scores independently;
    the trace's choices and realized costs are inputs, not trusted math.
    Only valid for always-active bandit-feedback agents with a fixed
    candidate set (no patch events).
    """
    params = trace.config.learners[agent]
    sets = {trace.candidate_set(r, agent) for r in range(1, trace.horizon + 1)}
    assert len(sets) == 1, "reference replay expects a fixed candidate set"
    arms = sets.pop()
    scores = {k: 0.0 for k in arms}
    probs_log = []
    est_log = []
    ts = trace.config.task_size
    for rnd in range(1, trace.horizon + 1):
        clock = int(trace.clock[rnd, agent])
        eta, gamma = ref_rates(clock, len(arms), params.schedule_a, params.gamma_ratio)
        if params.use_demand_weight and ts.q_hi > ts.q_lo:
            delta = (float(trace.task_size[rnd, agent]) - ts.q_lo) / (ts.q_hi - ts.q_lo)
            zeta = 1.0 + min(max(delta, 0.0), 1.0)
        else:
            zeta = 1.0
        p = ref_softmin([scores[k] for k in arms], zeta)
        chosen = int(trace.chosen[rnd, agent])
        i = arms.index(chosen)
        est = [0.0] * len(arms)
        est[i] = float(trace.cost_norm[rnd, agent]) / (p[i] + gamma)
        scores[chosen] += eta * est[i]
        probs_log.append(p)
        est_log.append(est)
    return {"probs": probs_log, "estimates": est_log, "scores": scores}


def ref_learner_column(name: str, trace) -> np.ndarray:
    """``zeta``, ``eta``, ``gamma`` or ``estimates`` of a trace as trace
    format v6 first derived them: one agent's active rounds of one epoch at
    a time, with the ``bandit`` functions that loop called (the one
    exception to this module's rule).  Reads the trace's ``clock``,
    ``task_size``, ``chosen``, ``probs``, ``cost_norm`` and ``cf_norm``;
    the estimates take gamma from this function too."""
    from fogbandit import bandit

    config = trace.config
    shape = (config.horizon + 1, config.num_agents) + ((trace.kmax,) if name == "estimates" else ())
    out = np.full(shape, np.nan)
    gamma = ref_learner_column("gamma", trace) if name == "estimates" else None
    ts = config.task_size
    for lo, hi, sets in trace.epochs():
        rounds = slice(lo, hi + 1)
        for agent, (learner, arms) in enumerate(zip(config.learners, sets)):
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
                                                     gamma[rounds, agent][act], out=np.empty(probs.shape))
    return out


def ref_pick(probs: list[float], u: float) -> int:
    cum = 0.0
    for i, p in enumerate(probs):
        cum += p
        if u < cum:
            return i
    return len(probs) - 1


def ref_run_game(config, run_id: int) -> dict:
    """Full independent game loop sharing only the named RNG streams.

    Always-on agents, fixed candidate sets, bandit feedback; returns per
    round lists of choices, probabilities and normalized costs.
    """
    from fogbandit.env import Environment

    env = Environment(config, run_id)
    n_agents = config.num_agents
    arms_per = config.candidates.sets_at(1)
    # consume the activation/task streams exactly as the real loop does
    act_rng = stream_rng(config.master_seed, run_id, "activation")
    act_rng.random((config.horizon + 1, n_agents))
    task_rng = stream_rng(config.master_seed, run_id, "task")
    ts = config.task_size
    if ts.law == "fixed":
        fixed = ts.fixed or ((ts.q_lo + ts.q_hi) / 2.0,) * n_agents
        tasks = np.broadcast_to(np.array(fixed), (config.horizon + 1, n_agents)).copy()
    elif ts.law == "uniform":
        tasks = task_rng.uniform(ts.q_lo, ts.q_hi, size=(config.horizon + 1, n_agents))
    else:
        raise NotImplementedError("reference loop supports fixed/uniform tasks")
    sel_rng = stream_rng(config.master_seed, run_id, "selection")

    scores = [{k: 0.0 for k in arms_per[n]} for n in range(n_agents)]
    chosen_log, probs_log, cost_log = [], [], []
    for rnd in range(1, config.horizon + 1):
        joint = {}
        round_probs = []
        rates = []
        for n in range(n_agents):
            params = config.learners[n]
            eta, gamma = ref_rates(rnd, len(arms_per[n]), params.schedule_a, params.gamma_ratio)
            if params.use_demand_weight and ts.q_hi > ts.q_lo:
                delta = (float(tasks[rnd, n]) - ts.q_lo) / (ts.q_hi - ts.q_lo)
                zeta = 1.0 + min(max(delta, 0.0), 1.0)
            else:
                zeta = 1.0
            p = ref_softmin([scores[n][k] for k in arms_per[n]], zeta)
            u = sel_rng.random()
            i = ref_pick(p, u)
            joint[n] = arms_per[n][i]
            round_probs.append(p)
            rates.append((eta, gamma))
        vectors = ref_cost_vectors(env, rnd, joint)
        for n in range(n_agents):
            arms = arms_per[n]
            i = arms.index(joint[n])
            p = round_probs[n]
            eta, gamma = rates[n]
            est = vectors[n]["norm"][i] / (p[i] + gamma)
            scores[n][joint[n]] += eta * est
        chosen_log.append(dict(joint))
        probs_log.append(round_probs)
        cost_log.append([vectors[n]["norm"][arms_per[n].index(joint[n])] for n in range(n_agents)])
    return {"chosen": chosen_log, "probs": probs_log, "norm": cost_log, "scores": scores}


def ref_expected_costs(game, profile) -> tuple[np.ndarray, ...]:
    """``MeanCostField.expected_costs`` with one ``np.convolve`` per opponent.

    Every opponent widens the pmf, with probability zero on arms outside its
    candidate set, and the dot product runs over the whole pmf.
    """
    out = []
    for n, arms in enumerate(game.candidate_sets):
        costs = np.empty(len(arms))
        for i, arm in enumerate(arms):
            pmf = np.array([1.0])
            for u, arms_u in enumerate(game.candidate_sets):
                if u == n:
                    continue
                q = 0.0
                if arm in arms_u:
                    q = float(profile.vectors[u][arms_u.index(arm)])
                pmf = np.convolve(pmf, [1.0 - q, q])
            row = game.table[n, game.arm_pos(arm), : len(pmf)]
            costs[i] = float(pmf @ row)
        out.append(costs)
    return tuple(out)


class RefMeanCostField:
    """``MeanCostField``'s ``expected_costs`` and ``evaluate`` interface over ``ref_expected_costs``."""

    def __init__(self, game):
        self.game = game

    def expected_costs(self, profile) -> tuple[np.ndarray, ...]:
        return ref_expected_costs(self.game, profile)

    def evaluate(self, probs) -> list[list[float]]:
        profile = MixedProfile(tuple(np.array(p, dtype=float) for p in probs))
        return [c.tolist() for c in ref_expected_costs(self.game, profile)]


def ref_euler_step(profile, costs, weights, dts):
    """One explicit Euler step of the replicator field on arrays, per agent
    step ``dts``; a zero step keeps the vector.  The raw update is clipped at
    zero and renormalized.  Returns the profile and whether the raw update
    stayed inside the simplex (no entry below -1e-15)."""
    vecs = []
    inside = True
    for p, l, w, dt in zip(profile.vectors, costs, weights, dts):
        if dt <= 0.0:
            vecs.append(p)
            continue
        q = p + dt * w * p * (float(p @ l) - l)
        inside = inside and bool(q.min() >= -1e-15)
        q = np.maximum(q, 0.0)
        vecs.append(q / q.sum())
    return MixedProfile(tuple(vecs)), inside


def ref_ode_path(game, weights, dt_matrix, profile0) -> np.ndarray:
    """``dynamics.ode_path`` on arrays: the convolution field and one
    ``ref_euler_step`` per round over every agent."""
    field = RefMeanCostField(game)
    T, n_agents = dt_matrix.shape[0] - 1, dt_matrix.shape[1]
    kmax = max(len(v) for v in profile0.vectors)
    out = np.full((T + 1, n_agents, kmax), np.nan)
    prof = profile0
    for rnd in range(1, T + 1):
        for n, v in enumerate(prof.vectors):
            out[rnd, n, : len(v)] = v
        costs = field.expected_costs(prof)
        prof = ref_euler_step(prof, costs, weights, dt_matrix[rnd].tolist())[0]
    return out


def ref_estimate_theta(game) -> float:
    """``dynamics.estimate_theta`` one candidate (agent, arm) row at a time."""
    diffs = np.abs(np.diff(game.table, axis=2))
    worst = 0.0
    for n, arms in enumerate(game.candidate_sets):
        for arm in arms:
            worst = max(worst, float(diffs[n, game.arm_pos(arm)].max()) if diffs.shape[2] else 0.0)
    return worst


def replicator_velocity(profile, costs, weights) -> float:
    """Sup-norm of the replicator field ``w * p * (p @ l - l)``, given the field l at the profile."""
    return max(float(np.abs(w * p * (float(p @ l) - l)).max())
               for p, l, w in zip(profile.vectors, costs, weights))


def ref_integrate_fixed_step(
    profile0,
    field,
    weights,
    dt: float = 1e-2,
    tol: float = 1e-6,
    max_steps: int = 200_000,
):
    """The fixed-step rest-point search ``integrate_to_rest`` used to run.

    Iterate Euler steps until the field's sup-norm velocity drops below tol.
    The field is evaluated once per step.  The step halves (locally, up to
    30 times) whenever the raw Euler update would leave the simplex.
    Hitting max_steps returns converged=False.  It steps on arrays with
    ``ref_euler_step``, not with the package's kernel.
    """
    p = profile0
    n = len(p.vectors)
    for _ in range(max_steps):
        costs = field.expected_costs(p)
        if replicator_velocity(p, costs, weights) < tol:
            return p, True
        step = dt
        for _ in range(30):
            nxt, inside = ref_euler_step(p, costs, weights, [step] * n)
            if inside:
                break
            step /= 2.0
        p = nxt
    return p, False


def ref_discrete_probability_path(trace) -> np.ndarray:
    """``discrete_probability_path`` one agent-round at a time.

    Each round takes the agent's probabilities when it plays, else the ones
    it last played on a candidate set of the same size, else uniform.
    """
    path = np.full((trace.horizon + 1, trace.num_agents, trace.kmax), np.nan)
    for n in range(trace.num_agents):
        last, last_k = None, 0
        for rnd in range(1, trace.horizon + 1):
            k = len(trace.candidate_set(rnd, n))
            if trace.active[rnd, n]:
                last, last_k = trace.probs[rnd, n, :k].copy(), k
            path[rnd, n, :k] = last if last is not None and last_k == k else 1.0 / k
    return path


def ref_social_optimum(game) -> tuple[tuple[int, ...], float]:
    """``oracle.social_optimum`` as a loop over joint actions: the first
    strict minimum of ``game.social_cost`` in ``joint_actions`` order."""
    best_joint = None
    best_cost = math.inf
    for joint in game.joint_actions():
        c = game.social_cost(joint)
        if c < best_cost:
            best_cost = c
            best_joint = tuple(joint)
    assert best_joint is not None
    return best_joint, best_cost


def ref_find_pure_nash(game, eps: float = 0.0) -> list[tuple[int, ...]]:
    """``oracle.find_pure_nash`` as a loop over joint actions, agents and
    their alternative arms through ``game.cost``."""
    equilibria = []
    for joint in game.joint_actions():
        joint = tuple(joint)
        if all(
            not game.cost(n, joint[:n] + (alt,) + joint[n + 1 :]) < game.cost(n, joint) - eps
            for n in range(game.num_agents)
            for alt in game.candidate_sets[n]
            if alt != joint[n]
        ):
            equilibria.append(joint)
    return equilibria


def ref_smoothness_constants(game) -> SmoothnessResult:
    """``oracle.smoothness_constants`` with its deviation and social-cost
    sums taken one joint action at a time through ``game.cost``."""
    k_star, c_star = ref_social_optimum(game)
    if c_star <= 0:
        return SmoothnessResult(False, math.nan, math.nan, math.nan, k_star, c_star)
    joints = [tuple(j) for j in game.joint_actions()]
    deviation = np.array(
        [
            sum(
                game.cost(n, j[:n] + (k_star[n],) + j[n + 1 :])
                for n in range(game.num_agents)
            )
            for j in joints
        ]
    )
    social = np.array([game.social_cost(j) for j in joints])

    lam_lo, lam_hi, lam_step = LAMBDA_GRID
    mu_lo, mu_hi, mu_step = MU_GRID
    best = None
    worst_lam = -math.inf
    worst_joint = None
    n_mu = int(round((mu_hi - mu_lo) / mu_step)) + 1
    for i in range(n_mu):
        mu = mu_lo + i * mu_step
        required = (deviation - mu * social) / c_star
        j = int(np.argmax(required))
        lam_req = float(required[j])
        lam = max(lam_lo, math.ceil((lam_req - 1e-12) / lam_step) * lam_step)
        if lam_req > worst_lam:
            worst_lam, worst_joint = lam_req, joints[j]
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


def ref_cuts(weights, bound, most=None) -> list[range]:
    """Contiguous ranges over ``weights``, each of at most ``most`` items
    summing to at most ``bound``, cut greedily; an item heavier than the
    bound stands alone."""
    cuts, lo, total = [], 0, 0
    for i, w in enumerate(weights):
        if i > lo and (total + w > bound or i - lo == most):
            cuts.append(range(lo, i))
            lo, total = i, 0
        total += w
    return cuts + [range(lo, len(weights))] if weights else []


def ref_async_condition_check(schedules, horizon, activations=None, threshold=50.0):
    """``metrics.async_condition_check`` on whole [horizon, N] arrays of partial sums."""
    from fogbandit.metrics import AsyncConditionReport

    n_agents = len(schedules)
    if activations is None:
        activations = np.ones((horizon, n_agents), dtype=bool)
    coeff = np.array([math.sqrt(a * max(math.log(k), math.log(2.0)) / k) for a, k in schedules])
    clocks = activations.cumsum(axis=0)
    with np.errstate(divide="ignore"):
        rates = np.where(activations, coeff[None, :] / np.sqrt(np.maximum(clocks, 1)), 0.0)
    rate_sums = rates.cumsum(axis=0)
    lower = 2.0 * coeff[None, :] * (np.sqrt(clocks + 1.0) - 1.0)
    diverge = bool((rate_sums[-1] >= threshold).all()) and bool(
        (rate_sums >= lower - 1e-9).all()
    )
    t_thresh = int(np.argmax((rate_sums >= threshold).all(axis=1))) + 1 if diverge else horizon

    sq_sums = (rates**2).cumsum(axis=0)
    sq_bound = (coeff**2)[None, :] * (1.0 + np.log(np.maximum(clocks, 1)))
    squares_ok = bool((sq_sums <= sq_bound + 1e-9).all())

    ref = rates.max(axis=1)
    ref_sums = ref.cumsum()
    ref_diverges = bool(ref_sums[-1] >= threshold) and bool(
        ref_sums[-1] >= rate_sums[-1].max() - 1e-9
    )
    ref_sq = (ref**2).cumsum()
    ref_squares_ok = bool((ref_sq <= sq_sums.sum(axis=1) + 1e-9).all())

    return AsyncConditionReport(
        horizon=horizon,
        rate_sums_diverge=diverge,
        square_sums_bounded=squares_ok,
        reference_diverges=ref_diverges,
        reference_squares_bounded=ref_squares_ok,
        threshold=threshold,
        threshold_round=t_thresh,
        final_rate_sums=tuple(float(x) for x in rate_sums[-1]),
        final_reference_sum=float(ref_sums[-1]),
        final_reference_square_sum=float(ref_sq[-1]),
    )
