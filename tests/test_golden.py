"""One pass over every benchmark pool reproduces perfbench/golden.json.

The pools, the seeded input rewriting and the per-instance records (report
digests, classifications, sign-set digests, network verdicts) come from
perfbench/workloads.py, so canonical report bytes are checked here exactly as
the benchmark checks them. Nothing under perfbench/ is written.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


wl = _load_workloads()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())
PKG = SimpleNamespace(**{name: importlib.import_module(f"expbij.{name}")
                         for name in ("analyzer", "crn", "linalg", "matroid", "report")})


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_one_pass_matches_golden(workload):
    op, check = wl.operation(workload)
    records = {}
    for inst in wl.make_inputs(workload, 0):
        outcome = check(inst, op(PKG, inst))
        assert outcome.problems == [], (inst["key"], outcome.problems)
        records[inst["key"]] = outcome.record
    assert records == GOLDEN[workload]
