"""Checks on the package against its tooling: the benchmark's span tracer
patches attributes that exist and every benchmark workload passes its own
gate, traced and untraced; no module imports a name it never uses, every
module-level definition is referenced, every default parameter is passed by
some call, and every committed config has its artifact stem pinned."""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import spinconc

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _perfbench_module(monkeypatch, name: str):
    """perfbench/<name>.py, imported read-only under a private module name."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve_in_the_package(monkeypatch):
    # `perfbench/run.py --trace 1` patches each TARGETS entry; a renamed
    # function would break tracing, so it should fail here first
    spans = _perfbench_module(monkeypatch, "spans")
    assert spans.TARGETS
    for module, attr in spans.TARGETS:
        obj = importlib.import_module(f"spinconc.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"spinconc.{module}.{attr} does not exist"
            obj = getattr(obj, part)


BENCHMARK_WORKLOADS = [w["name"] for w in
                       json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("name", BENCHMARK_WORKLOADS)
def test_benchmark_workload_passes_its_gate(name, tmp_path, monkeypatch):
    # a renamed sampler parameter breaks the traced call's counters, and a
    # dropped gate row fails the workload's own check
    workloads = _perfbench_module(monkeypatch, "workloads")
    spans = _perfbench_module(monkeypatch, "spans")
    workload = workloads.WORKLOADS[name](1, str(tmp_path), True, str(ROOT))
    for traced in (False, True):
        out_dir = str(tmp_path / f"traced{int(traced)}")
        tracer = spans.Tracer()
        if traced:
            tracer.install(spinconc)
        try:
            code = workload.call(out_dir)
        finally:
            tracer.uninstall()
        assert code == 0
        attempted, failed = workload.check(out_dir)
        assert attempted >= 1 and failed == 0
        assert not traced or tracer.spans


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


def _module_definitions(tree: ast.Module):
    """(name, line) of every module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno


def test_every_module_definition_is_referenced():
    # a definition that no code, test or benchmark reads is dead code; a
    # reference is a name read, an attribute, an imported name, or a string
    # constant or one of its dotted parts (the span targets name functions so)
    referenced = set()
    for top in ("src", "perfbench", "tests"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.alias):
                    referenced.add(node.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    referenced.update({node.value, *node.value.split(".")})
    dead = [f"{path.name}: {name} (line {line})"
            for path in sorted((ROOT / "src" / "spinconc").glob("*.py"))
            for name, line in _module_definitions(ast.parse(path.read_text(encoding="utf-8")))
            if name not in referenced and name != "__version__"]
    assert not dead, f"module-level definitions nothing references: {dead}"


def _defaults(path: Path):
    """(callable name, parameter, positional index or None) for every
    parameter with a default of a module-level function, a method, or a class
    `__init__` (called through the class name); the index skips `self`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = [(node, node.name, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                defs.append((node, cls.name if node.name == "__init__" else node.name,
                             0 if static else 1))
    for node, name, skip in defs:
        args = node.args
        positional = args.posonlyargs + args.args
        for j, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                len(positional) - len(args.defaults)):
            yield name, arg.arg, j - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def test_every_default_parameter_is_passed_by_some_call():
    # a default that no call overrides is a constant dressed as an option
    passed = {}  # callable name -> (most positional arguments, keywords); None: all
    for top in ("src", "perfbench", "tests"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None or passed.get(name, ()) is None:
                    continue
                if (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(kw.arg is None for kw in node.keywords)):
                    passed[name] = None
                    continue
                n_pos, keywords = passed.get(name, (0, set()))
                passed[name] = (max(n_pos, len(node.args)),
                                keywords | {kw.arg for kw in node.keywords})
    never = []
    for path in sorted((ROOT / "src" / "spinconc").glob("*.py")):
        for name, param, index in _defaults(path):
            seen = passed.get(name, (0, set()))
            if seen is None or param in seen[1] or (index is not None and index < seen[0]):
                continue
            never.append(f"{path.name}: {name}({param})")
    assert not never, f"default parameters no call passes: {never}"


def test_every_committed_config_has_a_pinned_stem():
    # a config's digest names its artifacts, so an edit to any committed
    # config must show as a stem change in test_cli's pinned stems
    from tests.test_cli import test_committed_config_stems
    mark = next(m for m in test_committed_config_stems.pytestmark if m.name == "parametrize")
    pinned = {case[1] for case in mark.args[1]}
    committed = {path.name for path in (ROOT / "configs").glob("*.json")}
    assert committed <= pinned, f"configs without a pinned stem: {sorted(committed - pinned)}"


def test_readme_layout_names_every_package_module():
    # the Layout block lists src/spinconc's modules, one a line; a module
    # added, removed or renamed must show there too
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```")[1]
    lines = block.split("src/spinconc/\n", 1)[1].splitlines()
    listed = {line.split()[0] for line in lines if line.startswith("  ") and line.strip()}
    modules = {path.name for path in (ROOT / "src" / "spinconc").glob("*.py")} - {"__init__.py"}
    assert listed == modules
