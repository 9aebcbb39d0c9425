"""Traced pass of one CLI verb, in-process, with spans per layer.

    python3 perfbench/tracer.py run|verify CONFIG.yaml OUT_DIR STATS.json

Wraps each layer's public functions from outside the package: every module
binding that holds the original function is replaced, so calls through
``from .x import f`` copies fire too.  Methods are wrapped on their class.
Nothing under ``src/`` changes.  Writes every span's durations, self time
and the boundary counts to STATS.json; run.py turns them into metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans in memory: per-name durations and self time, plus boundary counts."""

    def __init__(self):
        self.stack: list[list[int]] = []
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.self_ns: Counter = Counter()
        self.extra: Counter = Counter()
        self.games: dict[str, set] = defaultdict(set)

    def wrap(self, name, fn, after=None):
        perf = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [0]
            self.stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += dt
                self.durations[name].append(dt)
                self.self_ns[name] += dt - frame[0]
            if after is not None:
                after(self, out, args)
            return out

        return traced


# -- after-hooks: counts taken at the layer boundary ---------------------------


def _agent_rounds(config) -> int:
    return config.horizon * config.num_agents


def _after_env_init(tr, _out, args):
    env = args[0]
    nbytes = sum(getattr(env, a).nbytes for a in ("fading", "outliers", "adv_noise", "distances"))
    tr.extra["env.init.predraw_bytes"] = max(tr.extra["env.init.predraw_bytes"], nbytes)


def _after_run_game(tr, _out, args):
    tr.extra["game.run_game.agent_rounds"] += _agent_rounds(args[0])


def _after_write_trace(tr, _out, args):
    tr.extra["game.write_trace.agent_rounds"] += _agent_rounds(args[0].config)
    tr.extra["game.write_trace.bytes"] += os.path.getsize(args[1])


def _after_read_trace(tr, out, _args):
    tr.extra["game.read_trace.agent_rounds"] += _agent_rounds(out.config)


def _after_sync(tr, out, _args):
    tr.extra["bandit.sync_candidates.patch_events"] += bool(out)


def _after_regret(tr, _out, args):
    tr.extra["metrics.regret_series.agent_rounds"] += args[0].horizon


def _after_integrate(tr, out, _args):
    tr.extra["dynamics.integrate_to_rest.runs"] += 1
    tr.extra["dynamics.integrate_to_rest.converged"] += bool(out[1])


def _game_key(game) -> str:
    h = hashlib.sha1(game.table.tobytes())
    h.update(repr(game.candidate_sets).encode())
    return h.hexdigest()


def _after_game_fn(name):
    def hook(tr, _out, args):
        tr.games[name].add(_game_key(args[0]))
    return hook


def install(tracer: Tracer) -> None:
    """Wrap the layer functions in every fogbandit module binding."""
    from fogbandit import bandit, cli, configio, dynamics, env, game, metrics, oracle

    functions = [
        (configio, "load_config", "configio.load_config", None),
        (bandit, "select_arm", "bandit.select_arm", None),
        (bandit, "update_scores", "bandit.update_scores", None),
        (bandit, "estimate_cost", "bandit.estimate_cost", None),
        (bandit, "sync_candidates", "bandit.sync_candidates", _after_sync),
        (game, "run_game", "game.run_game", _after_run_game),
        (game, "write_trace", "game.write_trace", _after_write_trace),
        (game, "read_trace", "game.read_trace", _after_read_trace),
        (oracle, "stage_games", "oracle.stage_games", None),
        (oracle, "social_optimum", "oracle.social_optimum", _after_game_fn("oracle.social_optimum")),
        (oracle, "smoothness_constants", "oracle.smoothness_constants",
         _after_game_fn("oracle.smoothness_constants")),
        (dynamics, "integrate_to_rest", "dynamics.integrate_to_rest", _after_integrate),
        (dynamics, "check_contraction", "dynamics.check_contraction", None),
        (dynamics, "tracking_error", "dynamics.tracking_error", None),
        (metrics, "regret_series", "metrics.regret_series", _after_regret),
        (metrics, "pota_series", "metrics.pota_series", None),
        (metrics, "pota_bound_check", "metrics.pota_bound_check", None),
        (metrics, "xi_certificate", "metrics.xi_certificate", None),
        (cli, "run_experiment", "cli.run_experiment", None),
        (cli, "verify", "cli.verify", None),
    ]
    modules = [m for n, m in sys.modules.items() if n == "fogbandit" or n.startswith("fogbandit.")]
    for home, attr, name, after in functions:
        original = getattr(home, attr)
        wrapped = tracer.wrap(name, original, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    methods = [
        (env.Environment, "__init__", "env.init", _after_env_init),
        (env.Environment, "cost_vectors", "env.cost_vectors", None),
        (env.Environment, "mean_cost_table", "env.mean_cost_table", None),
        (dynamics.MeanCostField, "expected_costs", "dynamics.expected_costs", None),
    ]
    for cls, attr, name, after in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), after))


def main(verb: str, config: str, out_dir: str, stats_path: str) -> int:
    from fogbandit import cli

    tracer = Tracer()
    install(tracer)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([verb, config, "--workers", "1", "--out", out_dir])
    result = {
        "exit": code,
        "stdout": buf.getvalue(),
        "durations_ns": tracer.durations,
        "self_ns": tracer.self_ns,
        "extra": tracer.extra,
        "games": {k: sorted(v) for k, v in tracer.games.items()},
    }
    with open(stats_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:5]))
