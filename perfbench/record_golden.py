"""Record golden.json: the per-instance outputs of every workload pool.

    python3 perfbench/record_golden.py

Run from the root of a source checkout. Each pool is run under two seeds; the
records must agree, because a seed only rewrites inputs into equivalent ones.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl

SEEDS = (0, 1)


def record(workload: str) -> dict[str, dict]:
    op, check = wl.operation(workload)
    pkg = run.Package()
    by_seed = []
    for seed in SEEDS:
        records = {}
        for inst in wl.make_inputs(workload, seed):
            outcome = check(inst, op(pkg, inst))
            if outcome.problems:
                raise SystemExit(f"{workload} {inst['key']}: {outcome.problems}")
            records[inst["key"]] = outcome.record
        by_seed.append(records)
    if any(r != by_seed[0] for r in by_seed[1:]):
        raise SystemExit(f"{workload}: records differ between seeds {SEEDS}")
    return dict(sorted(by_seed[0].items()))


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    golden = {w: record(w) for w in wl.WORKLOADS}
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
