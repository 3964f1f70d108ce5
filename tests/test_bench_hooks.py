"""The benchmark's traced run rebinds library module attributes by name
(perfbench/spans.py, REBIND).  A rename or deletion in the library would
silently break that run, so every rebinding point must resolve."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_rebind_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # spans imports its sibling gates
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.REBIND
    missing = [(module, attr) for module, attr in spans.REBIND
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []
