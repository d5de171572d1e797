"""The benchmark's span tracer patches attributes that exist."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_targets_resolve_in_the_package(monkeypatch):
    # `perfbench/run.py --trace 1` patches each TARGETS entry; a renamed
    # function would break tracing, so it should fail here first
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attr in spans.TARGETS:
        obj = importlib.import_module(f"spinconc.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"spinconc.{module}.{attr} does not exist"
            obj = getattr(obj, part)
