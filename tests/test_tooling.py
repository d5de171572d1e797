"""Static checks on the package: the benchmark's span tracer patches
attributes that exist, and no module imports a name it never uses."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


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


def test_package_modules_use_every_import():
    for path in sorted((ROOT / "src" / "spinconc").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):  # names re-exported through __all__
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                        if name not in used)
        assert not unused, f"{path.name} imports names it never uses: {unused}"
