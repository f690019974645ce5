"""The benchmark's tracer (perfbench/tracing.py) wraps expbij functions by
name, so a renamed or deleted function would only fail a traced run. It is
loaded from its file here, as test_golden loads workloads.py, and nothing
under perfbench/ is written.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_a_callable_of_its_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = [f"expbij.{module}.{name}"
               for module, names in tracing.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"expbij.{module}"), name, None))]
    assert missing == []
