import ast
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_resolve():
    """Every function the benchmark's tracer wraps exists under its name, so
    a rename fails here and not only in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t[:2] for t in tracing.TARGETS] + [t[:2] for t in tracing.COUNTED]
    assert targets
    for module, path in targets:
        owner, attr = tracing._resolve(importlib.import_module(f"coxmulti.{module}"), path)
        assert attr in vars(owner), f"coxmulti.{module}.{path}"


def test_no_private_imports_between_modules():
    """No coxmulti module imports a `_` name from another: a helper two
    modules need is public in one of them."""
    src = Path(__file__).resolve().parents[1] / "src" / "coxmulti"
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                offenders += [f"{path.name}: from .{node.module} import {alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert not offenders
