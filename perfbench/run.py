"""Benchmark of the expbij analyzer: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from src/.
One operation carries one input through to a checked result. The loop makes a
fixed number of whole passes over the workload's inputs, sized from --seconds
(see PASS_S), one operation at a time on one thread, and times every
operation from outside the package. Times are corrected for the machine's speed
(clock.py); raw wall times are printed beside them. Each output is checked
against golden.json and against the independent answers that exist (see
workloads.py); a mismatch, an exception or an AssertionError counts as a
failed operation and the run goes on.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced passes
with passes that wrap the package's layers (tracing.py); it prints the per-layer metrics and the tracing
overhead, and writes the spans and a layer summary under .bench_out/. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import re
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing as tr  # noqa: E402
import workloads as wl  # noqa: E402
from clock import SpeedClock  # noqa: E402

SETUP_REPEATS = 15
WALL_LIMIT = 6  # a run also stops, at the end of a pass, after this many times --seconds of wall time

# Nominal seconds per pass over each pool. A run makes round(--seconds /
# PASS_S) whole passes, at least two: 4, 6, 4 and 5 at --seconds 15, which
# took 15-35 s of wall time on a 2-vCPU 2.0 GHz Xeon VM. The count depends
# only on --seconds, so every run of a workload, on every commit, measures the
# same operations and takes the same number of latency samples: the
# percentile behind latency_tail_ms does not move when the code gets faster
# or slower.
PASS_S = {"analyze-random": 3.4, "iii-search": 2.6, "enumerate": 3.6, "crn-networks": 3.1}
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
PACKAGE_MODULES = ("analyzer", "crn", "linalg", "lp", "matroid", "report", "signs")


class Package:
    """The expbij submodules, looked up by attribute at call time so that
    tracing wrappers installed on them take effect."""

    def __init__(self):
        for name in PACKAGE_MODULES:
            setattr(self, name, importlib.import_module(f"expbij.{name}"))


def set_up(clock: SpeedClock, workload: str, seed: int):
    """Import the package afresh and generate the inputs: (corrected_s, pkg, inputs)."""
    mark = clock.start()
    for name in [m for m in sys.modules if m == "expbij" or m.startswith("expbij.")]:
        del sys.modules[name]
    pkg = Package()
    inputs = wl.make_inputs(workload, seed)
    return clock.stop(mark)[1], pkg, inputs


class Loop:
    """Outcome of one measuring loop; latencies are (raw_s, corrected_s)."""

    def __init__(self):
        self.latencies: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.records: dict[str, dict] = {}
        self.problems: list[str] = []
        self.inconsistent = False  # one key gave two different records

    def ops_per_s(self) -> tuple[float, float]:
        """Completed operations per second of operation time: (raw, corrected)."""
        done = self.attempted - self.failed
        return (done / sum(r for r, _ in self.latencies),
                done / sum(c for _, c in self.latencies))


def measure(clock, pkg, inputs, workload, golden, passes, deadline, tracer=None, out=None) -> Loop:
    """Whole passes over the inputs, stopping early once past the deadline; adds to `out`."""
    op, check = wl.operation(workload)
    out = Loop() if out is None else out
    for _ in range(passes):
        for inst in inputs:
            key = inst["key"]
            if tracer is not None:
                tracer.begin_op(out.attempted)
            out.attempted += 1
            mark = clock.start()
            try:
                result = op(pkg, inst)
            except Exception:  # an operation that raises is a failed operation
                result = None
                out.problems.append(f"{key}: {traceback.format_exc(limit=3)}")
            finally:
                lat = clock.stop(mark)
                if tracer is not None:
                    tracer.end_op()
            out.latencies.append(lat)
            if result is None:
                out.failed += 1
                continue
            try:
                outcome = check(inst, result)
            except Exception:
                out.failed += 1
                out.problems.append(f"{key}: check raised {traceback.format_exc(limit=3)}")
                continue
            problems = list(outcome.problems)
            if golden.get(key) != outcome.record:
                problems.append(f"record {outcome.record} differs from golden {golden.get(key)}")
            if out.records.setdefault(key, outcome.record) != outcome.record:
                out.inconsistent = True
            if problems:
                out.failed += 1
                out.problems.extend(f"{key}: {p}" for p in problems)
            out.decided += outcome.decided
        if time.perf_counter() >= deadline:
            break
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, nearest rank:
    (percentile, value). Below 20 samples that percentile would not reach the
    median; the maximum stands in."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def end_to_end(setup_s: float, loop: Loop) -> tuple[dict, list[str]]:
    corrected = [c for _, c in loop.latencies]
    raw = [r for r, _ in loop.latencies]
    pct, tail_s = tail(corrected)
    raw_ops, ops = loop.ops_per_s()
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops, "1/s"),
        "latency_p50_ms": (statistics.median(corrected) * 1000, "ms"),
        "latency_tail_ms": (tail_s * 1000, "ms"),
        "decided_ratio": (loop.decided / loop.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"latency_tail_ms is p{pct:.1f} of {len(corrected)} samples",
        f"error_ratio {loop.failed / loop.attempted:.6g} ({loop.failed} of {loop.attempted} failed)",
        f"raw wall time: ops_per_s {raw_ops:.6g}, latency_p50_ms {statistics.median(raw) * 1000:.6g}, "
        f"latency_tail_ms {tail(raw)[1] * 1000:.6g}",
    ]
    return metrics, notes


def traced_run(clock, pkg, inputs, workload, golden, passes, deadline, out_dir: Path, tag: str):
    """Untraced and traced passes in turn, half as many of each as an untraced
    run makes, so that the overhead compares passes made under like conditions
    and a traced run takes about as long as an untraced one."""
    base, loop = Loop(), Loop()
    tracer = tr.Tracer(now=lambda: time.perf_counter() - clock.sampler_s)
    for _ in range(max(1, passes // 2)):
        measure(clock, pkg, inputs, workload, golden, 1, deadline, out=base)
        restore = tracer.install()
        try:
            measure(clock, pkg, inputs, workload, golden, 1, deadline, tracer, out=loop)
        finally:
            restore()
        if time.perf_counter() >= deadline:
            break
    ops = loop.attempted
    summary = tracer.summary()
    untraced, traced = base.ops_per_s()[1], loop.ops_per_s()[1]
    metrics = tr.layer_metrics(summary, ops)
    metrics["trace.ops_per_s"] = (traced, "1/s")
    metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
    metrics["trace.overhead_ops_per_s"] = (untraced - traced, "1/s")
    metrics["trace.spans"] = (len(tracer.nid) / ops, "count/op")

    top = tr.top_self(summary)
    per_op = tracer.per_op_calls(["crn.structure", "signs.composition_closure", "analyzer.analyze"])
    per_instance = {}
    for op_id, counts in sorted(per_op.items()):
        per_instance.setdefault(inputs[op_id % len(inputs)]["key"], counts)
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{tag}-spans.tsv.gz"
    tracer.write_spans(spans_path)
    (out_dir / f"{tag}-layers.json").write_text(json.dumps({
        "ops": ops,
        "top_self_time": [{"span": n, "self_s": v, "share": s} for n, v, s in top],
        "spans": summary,
        "calls_per_instance": per_instance,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, indent=1, sort_keys=True))
    notes = [f"top self time: {n} {s:.1%}" for n, _, s in top]
    notes.append(f"tracing overhead: {untraced - traced:.4g} ops/s "
                 f"({untraced:.4g} untraced, {traced:.4g} traced)")
    if workload == "crn-networks":
        for key, counts in sorted(per_instance.items()):
            notes.append(f"calls per network {key}: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    notes.append(f"spans written to {spans_path}")
    return base, loop, metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "expbij" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'expbij'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())[args.workload]

    passes = max(2, round(args.seconds / PASS_S[args.workload]))
    deadline = time.perf_counter() + WALL_LIMIT * args.seconds
    with SpeedClock() as clock:
        setups = [set_up(clock, args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        setup_s = statistics.median(s for s, _, _ in setups)
        _, pkg, inputs = setups[-1]
        self_checks = {
            "same seed gives byte-identical inputs":
                wl.inputs_bytes(inputs) == wl.inputs_bytes(wl.make_inputs(args.workload, args.seed)),
            "package imported from this checkout":
                Path(pkg.analyzer.__file__).resolve().is_relative_to(ROOT / "src"),
        }
        if args.trace:
            tag = f"{args.workload}-seed{args.seed}"
            base, loop, metrics, notes = traced_run(
                clock, pkg, inputs, args.workload, golden, passes, deadline, ROOT / ".bench_out", tag)
            self_checks["traced run gives the untraced digests"] = (
                not base.inconsistent and all(loop.records.get(k) == r for k, r in base.records.items()))
            declared = [m["name"] for m in spec["per_layer"]]
            attempted, failed = loop.attempted + base.attempted, loop.failed + base.failed
            problems = base.problems + loop.problems
        else:
            loop = measure(clock, pkg, inputs, args.workload, golden, passes, deadline)
            metrics, notes = end_to_end(setup_s, loop)
            declared = [m["name"] for m in spec["end_to_end"]]
            attempted, failed = loop.attempted, loop.failed
            problems = loop.problems
    self_checks["every record of a key is the same"] = not loop.inconsistent
    self_checks["metric names are well formed"] = all(METRIC_NAME.fullmatch(k) for k in metrics)
    self_checks["metrics are those BENCHMARK.json declares"] = sorted(metrics) == sorted(declared)
    self_checks["metric values are finite"] = all(math.isfinite(v) for v, _ in metrics.values())

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for what, ok in self_checks.items():
        if not ok:
            print(f"SELF-CHECK FAILED: {what}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": failed == 0 and all(self_checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
