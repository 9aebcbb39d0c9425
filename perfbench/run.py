"""Benchmark of `fogbandit run` + `fogbandit verify`, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload is a closed loop driven from
this one process, one CLI command at a time: `fogbandit run`, then
`fogbandit verify`, then the output checks, repeated until S seconds have
passed.  ``--trace 0`` prints the end-to-end metrics (medians over the
loop); ``--trace 1`` runs one untraced pair and then one traced pass
(in-process, ``workers=1``, see tracer.py) and prints the per-layer metrics.
The last line of stdout is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, document  # noqa: E402

SRC = Path("src")
WORK = HERE / ".work"
SETUP_REPEATS = 11
DEFAULT_SEED = 0
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.resolve()) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- process measurement -------------------------------------------------------


def _descendants(root: int) -> set[int]:
    """A process and all its descendants, from one scan of /proc."""
    parent: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        parent[int(entry)] = int(stat[stat.rindex(")") + 2 :].split()[1])
    tree, frontier = {root}, [root]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p and c not in tree]
        tree.update(kids)
        frontier.extend(kids)
    return tree


def _rss_kb(pids: set[int]) -> int:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as fh:
                total += int(fh.read().split()[1]) * PAGE_KB
        except OSError:
            pass
    return total


def measure(argv: list[str], stdout_path: Path, sample_tree: bool) -> tuple[int, float, float]:
    """Run a command; return (exit code, wall seconds, peak RSS in MB).

    Peak RSS is the largest single process in the tree (``wait4``); with
    ``sample_tree`` it is also the largest summed RSS of the tree, sampled
    every 20 ms by a thread, so concurrent pool workers add up.  The tree is
    re-discovered every 100 ms: a full /proc scan costs about 1 ms of CPU,
    which would otherwise take 5% of a core from the measured command.
    """
    peak_kb = [0]
    done = threading.Event()

    def sample(pid: int) -> None:
        tick, tree = 0, {pid}
        while not done.wait(0.02):
            if tick % 5 == 0:
                tree = _descendants(pid)
            tick += 1
            peak_kb[0] = max(peak_kb[0], _rss_kb(tree))

    with open(stdout_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=_env())
        sampler = threading.Thread(target=sample, args=(proc.pid,), daemon=True)
        if sample_tree:
            sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            wall = time.perf_counter() - t0
            done.set()
            if sample_tree:
                sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, max(peak_kb[0], usage.ru_maxrss) / 1024.0


def setup_seconds(config: Path) -> float:
    """Median wall time of a fresh interpreter importing the CLI and loading the config."""
    code = "import sys; from fogbandit.cli import load_config; load_config(sys.argv[1])"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(config)], check=True, env=_env())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- output checks ---------------------------------------------------------------


def tree_files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def digests(root: Path) -> dict[str, str]:
    """SHA-256 of summary.json and every metric CSV (traces left out)."""
    return {
        rel: hashlib.sha256(data).hexdigest()
        for rel, data in tree_files(root).items()
        if rel == "summary.json" or rel.endswith(".csv")
    }


def expected(key: str, workload: str):
    """The recorded value of ``key`` ("digests" or "verdicts") for a workload, or None."""
    path = HERE / "expected.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)[key].get(workload)


def check_run(code: int, exp_dir: Path, workload: str, seed: int) -> list[str]:
    errors = []
    if code != 0:
        errors.append(f"run exited {code}")
    manifest = exp_dir / "manifest.json"
    if not manifest.exists():
        return errors + ["manifest.json missing"]
    files = json.loads(manifest.read_text())["files"]
    missing = [f for f in files if not (exp_dir / f).is_file()]
    if missing:
        errors.append(f"{len(missing)} manifest files missing, e.g. {missing[0]}")
    if seed == DEFAULT_SEED:
        want = expected("digests", workload)
        if want is None:
            errors.append("no recorded digests for the default seed")
        elif digests(exp_dir) != want:
            errors.append("summary.json / CSV bytes differ from the recorded digests")
    return errors


def verdict_counts(text: str) -> dict[str, int]:
    counts = {s: 0 for s in ("pass", "fail", "skip", "note")}
    for line in text.splitlines():
        status = line.split(" ", 1)[0].lower()
        if status in counts:
            counts[status] += 1
    return counts


def check_verify(code: int, text: str, workload: str) -> list[str]:
    errors = []
    if code not in (0, 3):
        errors.append(f"verify exited {code}")
    if not any(line.startswith("PASS  determinism") for line in text.splitlines()):
        errors.append("verify did not print 'PASS  determinism'")
    want, got = expected("verdicts", workload), verdict_counts(text)
    if want is None:
        errors.append("no recorded verdict counts")
    elif got != want:
        errors.append(f"verify verdict counts {got} differ from the recorded {want}")
    return errors


# -- the closed loop ---------------------------------------------------------------


class Loop:
    """Workload state shared by both modes: config file, counters, errors."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.doc = document(WORKLOADS[name], seed)
        self.config = self.dir / "config.yaml"
        self.config.write_text(yaml.safe_dump(self.doc, sort_keys=False))
        game = self.doc["game"]
        self.agent_rounds = (
            len(self.doc["variants"]) * len(self.doc["seeds"]) * game["horizon"] * game["num_agents"]
        )
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.printed_only: dict[str, int] = {}

    def op(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    def cli(self, verb: str, out_root: Path, tag: str) -> tuple[int, float, float, str]:
        log = self.dir / f"{tag}-{verb}.log"
        argv = [sys.executable, "-m", "fogbandit.cli", verb, str(self.config), "--out", str(out_root)]
        code, wall, rss = measure(argv, log, sample_tree=(verb == "run"))
        return code, wall, rss, log.read_text()

    def iteration(self, tag: str) -> dict:
        out_root = self.dir / tag
        shutil.rmtree(out_root, ignore_errors=True)
        exp_dir = out_root / self.name
        code, run_s, run_rss, _ = self.cli("run", out_root, tag)
        self.op(check_run(code, exp_dir, self.name, self.seed))
        output_mb = sum(len(b) for b in tree_files(exp_dir).values()) / 1e6 if exp_dir.exists() else 0.0
        code, verify_s, verify_rss, text = self.cli("verify", out_root, tag)
        self.op(check_verify(code, text, self.name))
        return {
            "run_s": run_s,
            "verify_s": verify_s,
            "run_agent_rounds_per_s": self.agent_rounds / run_s,
            "run_peak_rss_mb": run_rss,
            "verify_peak_rss_mb": verify_rss,
            "output_mb": output_mb,
            "verify_fail_verdicts": verdict_counts(text)["fail"],
            "out_root": out_root,
        }


END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "verify_s": "s",
    "run_agent_rounds_per_s": "1/s",
    "run_peak_rss_mb": "MB",
    "verify_peak_rss_mb": "MB",
    "output_mb": "MB",
}


def end_to_end(loop: Loop, seconds: float) -> dict:
    setup = setup_seconds(loop.config)
    samples = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        samples.append(loop.iteration(f"iter{len(samples)}"))
        shutil.rmtree(samples[-1].pop("out_root"), ignore_errors=True)
    if len({s["output_mb"] for s in samples}) > 1:
        loop.errors.append("output_mb differs between iterations of the same seed")
    values = {"setup_s": setup}
    for key in END_TO_END_UNITS:
        if key != "setup_s":
            values[key] = statistics.median(s[key] for s in samples)
    print(f"{loop.name} seed={loop.seed}: {len(samples)} iterations; run_s "
          + " ".join(f"{s['run_s']:.3f}" for s in samples) + "; verify_s "
          + " ".join(f"{s['verify_s']:.3f}" for s in samples))
    # Printed, not in the JSON result: it is 0 on two workloads, and an
    # end-to-end metric must never be 0.  check_verify compares every
    # iteration's verdict counts with expected.json; the traced run reports
    # them as cli.verify.verdicts_*.
    loop.printed_only["verify_fail_verdicts"] = max(s["verify_fail_verdicts"] for s in samples)
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


# -- traced run ---------------------------------------------------------------------


def traced_pass(loop: Loop, tag: str) -> tuple[dict, Path]:
    """`run` then `verify`, each in a fresh traced interpreter; merged span stats."""
    out_root = loop.dir / tag
    shutil.rmtree(out_root, ignore_errors=True)
    merged: dict = {"wall_s": {}, "exit": {}, "stdout": {}, "extra": {}}
    durations: dict[str, list] = {}
    self_ns: dict[str, float] = {}
    by_verb: dict[str, dict] = {}
    games: dict[str, set] = {}
    for verb in ("run", "verify"):
        stats_path = loop.dir / f"{tag}-{verb}.json"
        argv = [sys.executable, str(HERE / "tracer.py"), verb, str(loop.config), str(out_root), str(stats_path)]
        code, wall, _ = measure(argv, loop.dir / f"{tag}-{verb}.log", sample_tree=False)
        if code != 0 or not stats_path.exists():
            loop.op([f"traced {verb} crashed: {(loop.dir / f'{tag}-{verb}.log').read_text()[-2000:]}"])
            return {}, out_root
        with open(stats_path) as fh:
            stats = json.load(fh)
        merged["wall_s"][verb], merged["exit"][verb], merged["stdout"][verb] = wall, stats["exit"], stats["stdout"]
        for name, durs in stats["durations_ns"].items():
            durations.setdefault(name, []).extend(durs)
            self_ns[name] = self_ns.get(name, 0) + stats["self_ns"][name]
            by_verb.setdefault(name, {})[verb] = len(durs)
        for key, value in stats["extra"].items():
            combine = max if key.endswith("predraw_bytes") else (lambda a, b: a + b)
            merged["extra"][key] = combine(merged["extra"].get(key, 0), value)
        for name, keys in stats["games"].items():
            games.setdefault(name, set()).update(keys)
    loop.op(check_run(merged["exit"]["run"], out_root / loop.name, loop.name, loop.seed))
    loop.op(check_verify(merged["exit"]["verify"], merged["stdout"]["verify"], loop.name))
    merged["spans"] = {
        name: {
            "calls": len(durs),
            "calls_by_verb": by_verb[name],
            "total_ns": float(sum(durs)),
            "self_ns": float(self_ns[name]),
            "p50_ns": statistics.median(durs),
            # p99 only where at least ten samples lie beyond it; 0 otherwise
            "p99_ns": statistics.quantiles(durs, n=100)[98] if len(durs) >= 1000 else 0.0,
        }
        for name, durs in durations.items()
    }
    merged["distinct_games"] = {name: len(keys) for name, keys in games.items()}
    return merged, out_root


NS_PER = {"s": 1e9, "ms": 1e6, "us": 1e3}


def layer_metrics(stats: dict, loop: Loop, untraced_verify_s: float) -> dict:
    spans, extra = stats["spans"], stats["extra"]
    reps = len(loop.doc["variants"]) * len(loop.doc["seeds"])
    busy_ns = (stats["wall_s"]["run"] + stats["wall_s"]["verify"]) * 1e9

    def calls(name, verb=None):
        s = spans.get(name, {})
        return s.get("calls", 0) if verb is None else s.get("calls_by_verb", {}).get(verb, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def t(name, key, unit):
        return (spans.get(name, {}).get(key, 0.0) / NS_PER[unit], unit)

    def per_round(name):
        total = spans.get(name, {}).get("total_ns", 0.0) / NS_PER["us"]
        return (ratio(total, extra.get(f"{name}.agent_rounds", 0)), "us")

    def count(value):
        return (value, "count")

    verdicts = verdict_counts(stats["stdout"]["verify"])
    run_game_self = spans.get("game.run_game", {}).get("self_ns", 0.0) / NS_PER["us"]
    m = {
        "configio.load_config.ms": t("configio.load_config", "p50_ns", "ms"),
        "env.init.calls": count(calls("env.init")),
        "env.init.calls_per_rep": count(ratio(calls("env.init", "run"), reps)),
        "env.init.calls_per_rep_verify": count(ratio(calls("env.init", "verify"), reps)),
        "env.init.ms_p50": t("env.init", "p50_ns", "ms"),
        "env.init.predraw_mb": (extra.get("env.init.predraw_bytes", 0) / 1e6, "MB-computed"),
        "env.cost_vectors.calls": count(calls("env.cost_vectors")),
        "env.cost_vectors.us_p50": t("env.cost_vectors", "p50_ns", "us"),
        "env.cost_vectors.us_p99": t("env.cost_vectors", "p99_ns", "us"),
        "env.cost_vectors.share": (ratio(spans.get("env.cost_vectors", {}).get("total_ns", 0), busy_ns), "ratio"),
        "env.mean_cost_table.ms_total": t("env.mean_cost_table", "total_ns", "ms"),
        "bandit.select_arm.calls": count(calls("bandit.select_arm")),
        "bandit.select_arm.us_p50": t("bandit.select_arm", "p50_ns", "us"),
        "bandit.select_arm.us_p99": t("bandit.select_arm", "p99_ns", "us"),
        "bandit.select_arm.share": (ratio(spans.get("bandit.select_arm", {}).get("total_ns", 0), busy_ns), "ratio"),
        "bandit.update_scores.us_p50": t("bandit.update_scores", "p50_ns", "us"),
        "bandit.estimate_cost.us_p50": t("bandit.estimate_cost", "p50_ns", "us"),
        "bandit.sync_candidates.patch_events": count(extra.get("bandit.sync_candidates.patch_events", 0)),
        "game.run_game.calls": count(calls("game.run_game")),
        "game.run_game.calls_per_rep": count(ratio(calls("game.run_game", "run"), reps)),
        "game.run_game.calls_per_rep_verify": count(ratio(calls("game.run_game", "verify"), reps)),
        "game.run_game.us_per_agent_round": per_round("game.run_game"),
        "game.run_game.self_us_per_agent_round": (
            ratio(run_game_self, extra.get("game.run_game.agent_rounds", 0)), "us"),
        "game.write_trace.calls": count(calls("game.write_trace")),
        "game.write_trace.mb": (extra.get("game.write_trace.bytes", 0) / 1e6, "MB"),
        "game.write_trace.us_per_agent_round": per_round("game.write_trace"),
        "game.read_trace.calls": count(calls("game.read_trace")),
        "game.read_trace.us_per_agent_round": per_round("game.read_trace"),
        "oracle.stage_games.calls": count(calls("oracle.stage_games")),
        "oracle.stage_games.ms_total": t("oracle.stage_games", "total_ns", "ms"),
        "oracle.social_optimum.calls": count(calls("oracle.social_optimum")),
        "oracle.social_optimum.calls_per_game": count(ratio(
            calls("oracle.social_optimum"), stats["distinct_games"].get("oracle.social_optimum", 0))),
        "oracle.smoothness_constants.calls": count(calls("oracle.smoothness_constants")),
        "oracle.smoothness_constants.calls_per_game": count(ratio(
            calls("oracle.smoothness_constants"),
            stats["distinct_games"].get("oracle.smoothness_constants", 0))),
        "oracle.smoothness_constants.ms_total": t("oracle.smoothness_constants", "total_ns", "ms"),
        "dynamics.integrate_to_rest.s": t("dynamics.integrate_to_rest", "total_ns", "s"),
        "dynamics.integrate_to_rest.converged": (ratio(
            extra.get("dynamics.integrate_to_rest.converged", 0),
            extra.get("dynamics.integrate_to_rest.runs", 0)), "ratio"),
        "dynamics.expected_costs.calls": count(calls("dynamics.expected_costs")),
        "dynamics.expected_costs.us_p50": t("dynamics.expected_costs", "p50_ns", "us"),
        "dynamics.expected_costs.us_p99": t("dynamics.expected_costs", "p99_ns", "us"),
        "dynamics.check_contraction.ms": t("dynamics.check_contraction", "total_ns", "ms"),
        "dynamics.tracking_error.ms": t("dynamics.tracking_error", "total_ns", "ms"),
        "metrics.regret_series.us_per_agent_round": per_round("metrics.regret_series"),
        "metrics.pota_series.ms_total": t("metrics.pota_series", "total_ns", "ms"),
        "metrics.pota_bound_check.ms_total": t("metrics.pota_bound_check", "total_ns", "ms"),
        "metrics.xi_certificate.ms_total": t("metrics.xi_certificate", "total_ns", "ms"),
        "cli.run_experiment.self_s": t("cli.run_experiment", "self_ns", "s"),
        "cli.verify.self_s": t("cli.verify", "self_ns", "s"),
        "cli.verify.verdicts_pass": count(verdicts["pass"]),
        "cli.verify.verdicts_fail": count(verdicts["fail"]),
        "cli.verify.verdicts_skip": count(verdicts["skip"]),
        "cli.verify.verdicts_note": count(verdicts["note"]),
        "tracing.overhead.verify": (stats["wall_s"]["verify"] / untraced_verify_s, "ratio"),
    }
    return {key: {"value": float(value), "unit": unit} for key, (value, unit) in m.items()}


def span_checks(workload, stats: dict, replications: int) -> list[str]:
    """Every span the workload should exercise fired; none that should not did."""
    spans, extra = stats["spans"], stats["extra"]

    def calls(name):
        return extra.get(name, 0) if name in extra else spans.get(name, {}).get("calls", 0)

    errors = [f"span {n} never fired" for n in workload.fired if not calls(n)]
    errors += [f"span {n} fired {calls(n)} times, expected none" for n in workload.silent if calls(n)]
    errors += [
        f"span {n} fired {calls(n)} times, expected {f(replications)}"
        for n, f in workload.exact.items() if calls(n) != f(replications)
    ]
    return errors


def per_layer(loop: Loop) -> dict:
    ref = loop.iteration("untraced")
    stats, traced_out = traced_pass(loop, "traced")
    if not stats:
        return {}
    loop.errors.extend(span_checks(WORKLOADS[loop.name], stats, len(loop.doc["seeds"])))
    if tree_files(traced_out / loop.name) != tree_files(ref["out_root"] / loop.name):
        loop.errors.append("traced output tree differs from the untraced one")
    return layer_metrics(stats, loop, ref["verify_s"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "fogbandit" / "cli.py").is_file():
        print(f"no fogbandit sources under {SRC.resolve()}; run from the repository root",
              file=sys.stderr)
        return 2

    loop = Loop(args.workload, args.seed)
    metrics = per_layer(loop) if args.trace else end_to_end(loop, args.seconds)
    for err in loop.errors:
        print(f"check failed: {err}", file=sys.stderr)
    for key, m in metrics.items():
        print(f"{key:45s} {m['value']:14.6g} {m['unit']}")
    for key, value in loop.printed_only.items():
        print(f"{key:45s} {value:14d} count")
    result = {
        "correct": bool(metrics) and not loop.errors,
        "attempted": max(loop.attempted, 1),
        "failed": loop.failed if loop.attempted else 1,
        "metrics": metrics,
    }
    print(json.dumps(result))
    shutil.rmtree(loop.dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
