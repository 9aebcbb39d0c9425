"""Record the default-seed output digests that run.py checks.

    python3 perfbench/record_digests.py

Run from the repository root.  For each workload, runs `fogbandit run` on
the default seed and stores the SHA-256 of summary.json and every metric
CSV in perfbench/expected.json.  Re-record only when a change is meant to
alter those bytes, and say so in the change.  The expected `verify` verdict
counts in the same file are kept as they are; change them by hand, and only
with a reason.
"""

from __future__ import annotations

import json
import shutil

from run import DEFAULT_SEED, HERE, Loop, digests
from workloads import WORKLOADS


def main() -> int:
    recorded = {}
    for name in WORKLOADS:
        loop = Loop(name, DEFAULT_SEED)
        code, _, _, log = loop.cli("run", loop.dir / "record", "record")
        if code != 0:
            raise SystemExit(f"{name}: fogbandit run exited {code}\n{log}")
        recorded[name] = digests(loop.dir / "record" / name)
        shutil.rmtree(loop.dir)
    path = HERE / "expected.json"
    record = json.loads(path.read_text())
    record.update(seed=DEFAULT_SEED, digests=recorded)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
