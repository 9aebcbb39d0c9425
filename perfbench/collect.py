"""Run the benchmark over ten seeds and record the baseline.

    python3 perfbench/collect.py

Run from the repository root.  For each workload, makes one untraced run per
seed (seeds 0..9), a second untraced run and two traced runs on the default
seed; the deterministic counts of the repeated runs must agree exactly.
Then writes the machine facts, each end-to-end metric's median, quartiles,
sample count and spread (quartile distance over median), the exact counts
and the traced run's other per-layer metrics to perfbench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = range(10)
# Per-layer counts that must repeat exactly between two traced runs; output_mb
# is compared between two untraced runs.
EXACT_SUFFIXES = (".calls", ".calls_per_rep", ".calls_per_rep_verify", ".calls_per_game",
                  ".patch_events", "game.write_trace.mb", ".verdicts_pass", ".verdicts_fail",
                  ".verdicts_skip", ".verdicts_note")


def bench(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: incorrect result {result}")
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    import numpy

    record = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "loadavg_at_start": os.getloadavg(),
        },
        "run_seconds": BENCHMARK["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in BENCHMARK["workloads"]:
        name = workload["name"]
        runs = [bench(name, seed, 0) for seed in SEEDS]
        end_to_end = {}
        for m in BENCHMARK["end_to_end"]:
            end_to_end[m["name"]] = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            end_to_end[m["name"]]["unit"] = m["unit"]
            s = end_to_end[m["name"]]
            print(f"{name:14s} {m['name']:24s} median {s['median']:10.4g}  spread {s['spread']:.4f}"
                  f"  (bound {m['bound']})  " + " ".join(f"{v:.4g}" for v in s["values"]), flush=True)
        untraced = bench(name, DEFAULT_SEED, 0)
        traced, again = bench(name, DEFAULT_SEED, 1), bench(name, DEFAULT_SEED, 1)
        counts = {k: m["value"] for k, m in traced["metrics"].items() if k.endswith(EXACT_SUFFIXES)}
        repeat = {k: again["metrics"][k]["value"] for k in counts}
        counts["output_mb"] = runs[SEEDS.index(DEFAULT_SEED)]["metrics"]["output_mb"]["value"]
        repeat["output_mb"] = untraced["metrics"]["output_mb"]["value"]
        if counts != repeat:
            diff = {k: (v, repeat[k]) for k, v in counts.items() if v != repeat[k]}
            raise SystemExit(f"{name}: counts differ between two runs of the default seed: {diff}")
        checked = runs + [untraced, traced, again]
        record["workloads"][name] = {
            "why": workload["why"],
            "ops_attempted": sum(r["attempted"] for r in checked),
            "ops_failed": sum(r["failed"] for r in checked),
            "end_to_end": end_to_end,
            "exact_counts_default_seed": counts,
            "per_layer_default_seed": {
                k: m for k, m in traced["metrics"].items() if k not in counts},
        }
    with open(HERE / "baseline.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
