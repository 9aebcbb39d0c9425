"""Batch experiment runner and verification CLI.

Verbs: ``run`` (replications -> traces + aggregated metric CSVs + manifest),
``verify`` (re-derives every applicable property/bound check and prints one
verdict per line), ``oracle`` (dump equilibria / optimum / smoothness for
each epoch's stage game), ``inspect`` (a trace file as text), ``schema``
(config key reference).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, dynamics, metrics
from .configio import SCHEMA_TEXT, ExperimentSpec, Variant, load_config
from .env import ConfigError, Environment
from .game import batches, iter_games, run_game, run_games
from .oracle import SmallGame, find_pure_nash, smoothness_constants, social_optimum, stage_games
from .traces import format_trace, read_trace, write_trace

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


def default_out_root() -> Path:
    return Path(os.environ.get("FOGBANDIT_OUT", "fogbandit-out"))


# ---------------------------------------------------------------------------
# replication fan-out
# ---------------------------------------------------------------------------


def _run_replications(args: tuple) -> list[list[dict]]:
    """Worker: a batch of run ids, played by every variant -> per variant, per-run metric arrays.

    Variants differ only in learners, which an Environment does not read, so
    each run id's Environment and stage games are built once for every
    variant, and every (variant, run id) game plays in lockstep, in as few
    ``iter_games`` batches as the memory bound allows (one, unless a run
    id's games alone exceed it).  Every game stacks only what the metrics
    read, and the games whose traces are written stream their files into
    sinks as they play; each game's file is put at its path and the game
    is reduced to small picklable series as its batch ends.
    """
    configs, run_ids, want_pota, want_regret, trace_paths = args
    envs = [Environment(configs[0], rid) for rid in run_ids]
    games = [stage_games(env) for env in envs] if want_pota else None
    keep = {(v, rid) for v, paths in enumerate(trace_paths)
            for rid, path in zip(run_ids, paths) if path is not None}
    parts: list[list] = [[None] * len(run_ids) for _ in configs]
    for v, i, trace in iter_games(configs, run_ids, envs, keep, _run_columns(want_regret)):
        if trace_paths[v][i] is not None:
            write_trace(trace, trace_paths[v][i])
        out: dict = {"cost": metrics.social_cost_series(trace)[1:]}
        if want_pota:
            out["pota"] = metrics.pota_series(trace, games[i])[1:]
        if want_regret:
            out["regret"] = np.stack(
                [metrics.regret_series(trace, n).normalized[1:] for n in range(trace.num_agents)]
            )
        parts[v][i] = out
    return parts


def _run_columns(want_regret: bool) -> tuple[str, ...]:
    """What ``run`` reads of a game whose trace it does not write: ``cost_norm``
    for every metric, and ``cf_best`` for regret."""
    return ("cost_norm", "cf_best") if want_regret else ("cost_norm",)


def run_batch(fn, args: list, workers: int = 1) -> list:
    """``[fn(a) for a in args]`` on up to ``workers`` processes, the caller included.

    With w = min(workers, len(args)) > 1, a pool of w - 1 child processes
    plays every task whose index is not a multiple of w, one task at a time,
    while the caller plays tasks 0, w, 2w, ... itself.  Results keep task
    order.  An exception on either side propagates, and the pool is
    terminated first, so no child outlives the call.  ``_plan`` sizes
    ``run``'s tasks and ``workers``.
    """
    workers = min(workers, len(args))
    if workers <= 1:
        return [fn(a) for a in args]
    from multiprocessing import Pool  # loaded only by a call that starts a pool

    out = [None] * len(args)
    theirs = [i for i in range(len(args)) if i % workers]
    with Pool(processes=workers - 1) as pool:
        pending = pool.map_async(fn, [args[i] for i in theirs], chunksize=1)
        for i in range(0, len(args), workers):
            out[i] = fn(args[i])
        for i, result in zip(theirs, pending.get()):
            out[i] = result
        pool.close()
        pool.join()
    return out


def _plan(configs, ids, workers: int, columns) -> tuple[list[list[int]], int]:
    """The lockstep batches ``ids`` are played in, and on how many processes.

    Of one process's plan, at most w = min(``workers``, its batch count)
    processes can play a share each.  The w-way plan, whose batches each
    stack 1/w of ``_BATCH_BYTES``, is taken only if it plays no game alone
    that one process plays in a batch with others: a lone game forfeits the
    lockstep amortization, and each process costs its own RSS.  ``configs``
    lists the variants each run id is played by.
    """
    plan = batches(configs, ids, 1, columns)
    workers = min(workers, len(plan))
    if workers > 1:
        split = batches(configs, ids, workers, columns)
        if all(len(batch) * len(configs) > 1 or batch in plan for batch in split):
            return split, workers
    return plan, 1


def _write_series_csv(path: Path, rows: np.ndarray) -> None:
    """rows: [T] x series stack -> round,mean,std,ci_lo,ci_hi."""
    mean = rows.mean(axis=0)
    std = rows.std(axis=0, ddof=1) if rows.shape[0] > 1 else np.zeros(rows.shape[1])
    half = 1.96 * std / math.sqrt(rows.shape[0])
    columns = zip(mean.tolist(), std.tolist(), (mean - half).tolist(), (mean + half).tolist())
    with open(path, "w") as fh:
        fh.write("round,mean,std,ci_lo,ci_hi\n")
        fh.writelines(
            f"{t},{m!r},{s!r},{lo!r},{hi!r}\n" for t, (m, s, lo, hi) in enumerate(columns, 1)
        )


def _trace_name(variant: Variant, rid: int) -> str:
    """Where ``run`` writes a variant's trace of run ``rid``, within the output directory."""
    return f"{variant.name}/traces/run_{rid:04d}.trace"


def run_experiment(spec: ExperimentSpec, out_root: Path | None = None, workers: int | None = None) -> int:
    """Run all replications of all variants; write traces, CSVs, manifest.

    The sorted run ids play in the batches, and on the processes, of ``_plan``.
    """
    out_root = out_root or default_out_root()
    workers = spec.workers if workers is None else workers
    out_dir = out_root / spec.name
    out_dir.mkdir(parents=True, exist_ok=True)
    want_pota = "pota" in spec.metrics
    want_regret = "regret" in spec.metrics

    manifest: dict = {
        "experiment": spec.name,
        "artifact_version": __version__,
        "run_ids": list(spec.run_ids),
        "trace_policy": spec.trace_policy,
        "metrics": list(spec.metrics),
        "variants": {},
        "files": [],
    }
    summary: dict = {}
    configs = [spec.game_for(variant) for variant in spec.variants]
    keep = {"none": (), "all": spec.run_ids}.get(spec.trace_policy, spec.run_ids[:1])
    trace_paths = [{rid: out_dir / _trace_name(v, rid) for rid in keep} for v in spec.variants]
    for variant in spec.variants:
        (out_dir / variant.name / ("traces" if keep else "")).mkdir(parents=True, exist_ok=True)
    # one task per batch of run ids plays every variant (variants share horizon,
    # agents and candidate sets); the CSVs aggregate rows in ascending run-id order
    plan, workers = _plan(configs, sorted(spec.run_ids), workers, _run_columns(want_regret))
    parts = run_batch(
        _run_replications,
        [(configs, task, want_pota, want_regret, [[paths.get(rid) for rid in task] for paths in trace_paths])
         for task in plan],
        workers,
    )
    for v, (variant, config, paths) in enumerate(zip(spec.variants, configs, trace_paths)):
        vdir = out_dir / variant.name
        manifest["files"].extend(str(t.relative_to(out_dir)) for t in paths.values())
        results = [r for part in parts for r in part[v]]

        cost = np.stack([r["cost"] for r in results])
        _write_series_csv(vdir / "cost.csv", cost)
        manifest["files"].append(f"{variant.name}/cost.csv")
        var_summary = {
            "final_cost_mean": float(cost[:, -1].mean()),
            "final_cost_std": float(cost[:, -1].std(ddof=1)) if cost.shape[0] > 1 else 0.0,
        }
        if want_pota:
            pota = np.stack([r["pota"] for r in results])
            _write_series_csv(vdir / "pota.csv", pota)
            manifest["files"].append(f"{variant.name}/pota.csv")
            var_summary["final_pota_mean"] = float(np.nanmean(pota[:, -1]))
            var_summary["final_pota_std"] = (
                float(np.nanstd(pota[:, -1], ddof=1)) if pota.shape[0] > 1 else 0.0
            )
        if want_regret:
            regret = np.stack([r["regret"] for r in results])  # [R, N, T]
            for n in range(config.num_agents):
                _write_series_csv(vdir / f"regret_agent{n}.csv", regret[:, n, :])
                manifest["files"].append(f"{variant.name}/regret_agent{n}.csv")
            var_summary["final_regret_mean"] = [
                float(regret[:, n, -1].mean()) for n in range(config.num_agents)
            ]
        manifest["variants"][variant.name] = {"config_sha256": config.digest()}
        summary[variant.name] = var_summary

    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    manifest["files"].append("summary.json")
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    print(f"wrote {out_dir} ({len(manifest['files'])} files)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


class _Verdicts:
    def __init__(self):
        self.failed = False

    def emit(self, status: str, name: str, detail: str) -> None:
        if status == "FAIL":
            self.failed = True
        print(f"{status:5s} {name}: {detail}")


def _sigma_band(values: np.ndarray) -> float:
    if values.shape[0] < 2:
        return 0.0
    return 3.0 * values.std(axis=0, ddof=1).max() / math.sqrt(values.shape[0])


_COMPARE_CHUNK = 1 << 16  # bytes of each file a replay comparison holds at once


def _same_bytes(a: Path, b: Path) -> bool:
    """Whether two files hold the same bytes, read ``_COMPARE_CHUNK`` at a time."""
    size = a.stat().st_size
    if b.stat().st_size != size:
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        for lo in range(0, size, _COMPARE_CHUNK):
            n = min(_COMPARE_CHUNK, size - lo)  # read(n) allocates n bytes up front
            if fa.read(n) != fb.read(n):
                return False
    return True


@dataclasses.dataclass(frozen=True)
class _SampleChecks:
    """What ``verify`` keeps of a sample trace: its part of each check, small and picklable.

    ``pos`` is the dominant arm's slot in agent 0's first candidate set when
    ``convergence-rate`` applies, else None.  Run ``first`` (``sample[0]``)
    also gives the convergence-rate bounds and, with one candidate epoch,
    the ODE tracking deviation, so its game is kept (``keep``) and derives
    from its sink whatever those read; of any other sample game only
    ``columns`` are stacked.
    """

    games: list
    fits: list
    xi_window: float | None
    pos: int | None
    first: int

    @property
    def columns(self) -> tuple[str, ...]:
        """The trace columns the checks read of a sample trace other than run ``first``'s."""
        return (("cost_norm", "cf_norm") + (("chosen", "zeta") if self.xi_window else ())
                + (("probs",) if self.pos is not None else ()))

    @property
    def keep(self) -> set:
        return {(0, self.first)}

    def __call__(self, trace) -> dict:
        out: dict = {"pota": metrics.pota_bound_check(trace, self.games, smoothness=self.fits)}
        if self.xi_window:
            try:
                cert = metrics.xi_certificate(trace, self.xi_window, self.games[-1][1])
            except ValueError as exc:
                out["xi"] = str(exc)
            else:
                out["xi"] = (cert.certified, cert.max_gap - cert.xi_bound)
        if self.pos is not None:
            out["probs"] = dynamics.discrete_probability_path(trace)[1:, 0, self.pos].copy()
            if trace.run_id == self.first:
                out["bounds"] = metrics.convergence_rate_check(trace, 0).bounds
        if trace.run_id == self.first and len(trace.config.candidates.epochs) == 1:
            dev = dynamics.tracking_error(trace, dynamics.MeanCostField(self.games[0][1]))
            out["ode"] = float(np.nanmax(dev))
        return out


def _verify_task(args: tuple) -> tuple[list, dict]:
    """Worker: a contiguous share of ``verify``'s round loops -> (failures, sample reductions).

    A loop is a stored trace, (variant, run id, path), or a lockstep batch
    of sampled run ids with no stored sample trace, (0, run ids, None).  A
    stored trace is read only to check that it parses, replayed as the game
    its name says (which streams its file into a sink as it plays), put at
    ``buf_path`` by ``write_trace`` and compared with the file (an
    unreadable file is replayed but not compared, and a replay that its
    own play or ``write_trace`` refuses fails determinism; one its play
    refuses is played again, unkept, only if it is a sample trace).  A
    batch stacks only what ``checks`` reads.  Each sample trace, a run id of ``sample`` played by
    variant 0, is reduced by ``checks`` and dropped as soon as it is
    played, so a task holds one trace at a time.  Failures come back as
    (check, detail) in file order, reductions by run id.
    """
    configs, loops, checks, sample, buf_path = args
    failures, reduced = [], {}
    for v, rid, stored in loops:
        if stored is None:
            for _, i, trace in iter_games(configs[0], rid, None, checks.keep, checks.columns):
                reduced[rid[i]] = checks(trace)
                del trace
            continue
        path = stored
        try:
            read_trace(path)
        except Exception as exc:  # a read_trace error names the file already
            failures.append(("trace-integrity", str(exc) if str(path) in str(exc) else f"{path}: {exc}"))
            path = None
        sampled = v == 0 and rid in sample
        try:
            fresh = run_game(configs[v], rid)
        except ValueError as exc:  # the replay used a value its trace file would not give back
            failures.append(("determinism", f"replay of {stored} has no trace file: {exc}"))
            path = fresh = None
            if sampled:  # played unkept, so unchecked, stacking what the checks read of run ``first`` too
                fresh = run_games(configs[0], [rid], keep=(), columns=checks.columns + ("eta", "zeta", "probs"))[0]
        if path is not None:  # before the checks, which derive columns it would check again
            try:
                write_trace(fresh, buf_path)  # removes the file if it refuses the trace
            except ValueError as exc:
                refusal = str(exc).removeprefix(f"{buf_path}: ")
                failures.append(("determinism", f"replay of {path} has no trace file: {refusal}"))
                path = None
        if sampled:
            reduced[rid] = checks(fresh)
        del fresh
        if path is not None:
            same = _same_bytes(buf_path, path)
            buf_path.unlink()  # ext4 flushes a truncated and rewritten file on close
            if not same:
                failures.append(("determinism", f"replay of {path} differs from stored bytes"))
    return failures, reduced


def verify(spec: ExperimentSpec, out_root: Path | None = None, workers: int | None = None) -> int:
    """Re-derive every applicable check against the stored experiment.

    Each stored trace is replayed as the game its manifest name says, and
    the sampled run ids with no stored trace of the first variant play in
    one lockstep loop, or one per batch where ``_plan`` splits them among
    processes.  The loops, in that order, are cut into at most ``workers``
    contiguous tasks of about equal loop counts and played by
    ``run_batch`` (see ``_verify_task``); the verdicts are emitted from the
    tasks' failures and sample reductions, in the same order and with the
    same text for any ``workers``.  A replay is written to a temporary
    file and compared with the stored file ``_COMPARE_CHUNK`` bytes at a
    time.  ``async-rates`` runs without activations, so of its conditions
    only the threshold can fail (see ``metrics.async_condition_check``).
    """
    out_root = out_root or default_out_root()
    workers = spec.workers if workers is None else workers
    out_dir = out_root / spec.name
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.exists():
        print(f"missing outputs: {manifest_path} not found (run the experiment first)")
        return EXIT_RUNTIME
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    v = _Verdicts()

    configs = [spec.game_for(variant) for variant in spec.variants]
    config = configs[0]
    sample = list(spec.run_ids[: min(len(spec.run_ids), 25)])
    ok = True
    named = {_trace_name(variant, rid): (i, rid)
             for rid in spec.run_ids for i, variant in enumerate(spec.variants)}
    loops = []  # stored traces in manifest order, then the sample batches
    for rel in manifest["files"]:
        if rel in named:
            loops.append((*named[rel], out_dir / rel))
        elif rel.endswith(".trace"):
            v.emit("FAIL", "trace-integrity", f"{out_dir / rel}: not a trace this experiment writes")
            ok = False
    env = Environment(config, sample[0])
    try:
        games, why = stage_games(env), None
    except ValueError as exc:  # too large to enumerate
        games, why = None, str(exc)
    del env
    checks = None
    if games:
        dom, _ = metrics.strict_gap(config, 0)
        rated = dom >= 0 and config.learners[0].feedback == "full"
        checks = _SampleChecks(games, [smoothness_constants(game) for _, game in games], spec.xi_window,
                               games[0][1].candidate_sets[0].index(dom) if rated else None, sample[0])
        stored = {rid for i, rid, _ in loops if i == 0}
        missing = [rid for rid in sample if rid not in stored]
        if missing:
            split, processes = _plan([config], missing, workers, checks.columns)
            loops += [(0, ids, None) for ids in (split if processes > 1 else [missing])]

    # stored trace files parse and replay byte-identically, written outside the output tree
    size = max(1, -(-len(loops) // max(workers, 1)))
    with tempfile.TemporaryDirectory() as scratch:
        parts = run_batch(_verify_task, [
            (configs, loops[lo:lo + size], checks, set(sample) if checks else set(),
             Path(scratch) / f"replay-{lo}.trace")
            for lo in range(0, len(loops), size)
        ], workers)
    reduced: dict = {}
    for failures, part in parts:
        for name, detail in failures:
            v.emit("FAIL", name, detail)
            ok = False
        reduced.update(part)
    if ok:
        v.emit("PASS", "determinism", "stored traces replay byte-identically")

    if why is not None:
        v.emit("SKIP", "stage-games", f"not enumerable: {why}")

    if games:
        sampled = [reduced[rid] for rid in sample]

        # replicator integration reaches a rest point with equal support costs
        field = dynamics.MeanCostField(games[-1][1])
        prof, converged = dynamics.integrate_to_rest(
            dynamics.MixedProfile.uniform(games[-1][1]), field,
            [1.0] * config.num_agents, tol=1e-5,
        )
        if converged:
            costs = field.expected_costs(prof)
            gap = max(
                float((c[p > 0.1].max() - c[p > 0.1].min())) if (p > 0.1).sum() else 0.0
                for p, c in zip(prof.vectors, costs)
            )
            v.emit("PASS", "replicator-rest", f"converged; support cost spread {gap:.2e}")
        else:
            v.emit("NOTE", "replicator-rest", "no rest point within step budget (legal)")

        report = dynamics.check_contraction(games[-1][1])
        if report.condition_holds and report.empirical_factor >= 1.0:
            v.emit("FAIL", "contraction", f"factor {report.empirical_factor:.3f} >= 1")
        else:
            v.emit(
                "PASS",
                "contraction",
                f"analytic {report.analytic_bound:.3f} (holds={report.condition_holds}), "
                f"empirical {report.empirical_factor:.3f}",
            )

        if spec.xi_window:
            errors = [r["xi"] for r in sampled if isinstance(r["xi"], str)]
            if errors:
                v.emit("SKIP", "xi-equilibrium", errors[0])
            else:
                certified = sum(r["xi"][0] for r in sampled)
                if certified == len(sampled):
                    v.emit("PASS", "xi-equilibrium", f"certified on {certified}/{len(sampled)} seeds")
                else:
                    worst = max(r["xi"][1] for r in sampled)
                    v.emit(
                        "NOTE", "xi-equilibrium",
                        f"not certified on {len(sampled) - certified}/{len(sampled)} seeds "
                        f"(worst excess {worst:.3g})",
                    )

        if dom < 0:
            v.emit("SKIP", "convergence-rate", "no strict-gap dominant arm in config")
        elif checks.pos is None:
            v.emit(
                "SKIP", "convergence-rate",
                "bound presumes per-round score gaps >= the cost gap, which only "
                "full feedback guarantees; IX estimates void it beyond early rounds",
            )
        else:
            probs = np.stack([r["probs"] for r in sampled])
            band = _sigma_band(probs)
            bad = int((probs.mean(axis=0) < sampled[0]["bounds"] - band - 1e-12).sum())
            if bad:
                v.emit("FAIL", "convergence-rate", f"{bad} rounds below the bound (3-sigma)")
            else:
                v.emit("PASS", "convergence-rate", "seed-mean prob >= bound at every round")

        checked = [check for r in sampled for check in r["pota"]]
        violations = sum(not check.vacuous and not check.holds for check in checked)
        vacuous = sum(check.vacuous for check in checked)
        if violations:
            v.emit("FAIL", "pota-bound", f"{violations} per-epoch violations across seeds")
        elif vacuous:
            v.emit("NOTE", "pota-bound", f"holds where feasible; {vacuous} vacuous epochs")
        else:
            v.emit("PASS", "pota-bound", f"holds on every epoch of {len(sampled)} seeds")

        if "ode" in sampled[0]:
            v.emit("NOTE", "ode-tracking", f"sup deviation {sampled[0]['ode']:.3f} (reported, no bound)")

    schedules = [(lp.schedule_a, len(config.candidates.epochs[0][1][n]))
                 for n, lp in enumerate(config.learners)]
    # divergence needs room beyond short experiment horizons
    act_h = min(max(config.horizon, 100_000), 1_000_000)
    scope = "(always-on activations; the other conditions hold for any input)"
    if metrics.async_condition_check(schedules, act_h).all_hold():
        v.emit("PASS", "async-rates", f"threshold condition holds to horizon {act_h} {scope}")
    else:
        v.emit("FAIL", "async-rates", f"threshold condition fails to horizon {act_h} {scope}")

    return EXIT_VERIFY if v.failed else EXIT_OK


def oracle_dump(spec: ExperimentSpec, out_root: Path | None = None) -> int:
    """Print and persist NE / optimum / smoothness for each epoch's game."""
    spec.require_enumerable("oracle")
    config = spec.game_for(spec.variants[0])
    games = stage_games(Environment(config, spec.run_ids[0]))
    payload = []
    for (lo, hi), game in games:
        nes = find_pure_nash(game)
        opt, c_star = social_optimum(game)
        smooth = smoothness_constants(game)
        entry = {
            "segment": [lo, hi],
            "pure_nash": [list(j) for j in nes],
            "optimum": list(opt),
            "optimum_cost": c_star,
            "smoothness": {
                "feasible": smooth.feasible,
                "lambda": smooth.lam,
                "mu": smooth.mu,
                "rho": smooth.rho,
            },
        }
        payload.append(entry)
        poa = max((game.social_cost(j) / c_star for j in nes), default=float("nan"))
        print(
            f"[{lo},{hi}] NE={len(nes)} C*={c_star:.6g} PoA(worst NE)={poa:.4g} "
            f"rho={smooth.rho:.4g} (lambda={smooth.lam:.3g}, mu={smooth.mu:.3g})"
        )
    out_root = out_root or default_out_root()
    out_dir = out_root / spec.name
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "oracle.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def bundled_config(name: str) -> Path:
    return Path(__file__).parent / "configs" / f"{name}.yaml"


def _resolve_config(arg: str) -> Path:
    p = Path(arg)
    if p.exists():
        return p
    bundled = bundled_config(arg)
    if bundled.exists():
        return bundled
    raise ConfigError(f"config {arg!r} not found (no file, no bundled config)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fogbandit",
        description="Decentralized task-offloading game simulator and verifier",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for verb in ("run", "verify", "oracle"):
        sp = sub.add_parser(verb)
        sp.add_argument("config", help="config file path or bundled config name")
        sp.add_argument("--seeds", type=int, default=None, help="override replication count")
        sp.add_argument(
            "--workers", type=int, default=None,
            help="most processes run and verify play on, this one included; "
                 "neither starts more than its tasks can use, and run uses one "
                 "where a split would play a game alone (>= 1)",
        )
        sp.add_argument("--out", type=Path, default=None, help="output root directory")
        sp.add_argument("--strict", action="store_true", help="reject unknown config keys")
    sub.add_parser("inspect").add_argument("trace", type=Path, help="trace file written by run")
    sub.add_parser("schema")
    args = parser.parse_args(argv)

    if args.command == "schema":
        print(SCHEMA_TEXT)
        return EXIT_OK
    if args.command == "inspect":
        try:
            format_trace(read_trace(args.trace), sys.stdout)
        except (OSError, ValueError) as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK

    try:
        if args.workers is not None and args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        spec = load_config(_resolve_config(args.config), strict=args.strict)
        if args.seeds is not None:
            spec = dataclasses.replace(spec, run_ids=tuple(range(args.seeds)))
            spec.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "run":
            return run_experiment(spec, args.out, args.workers)
        if args.command == "verify":
            return verify(spec, args.out, args.workers)
        return oracle_dump(spec, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures carry context from below
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
