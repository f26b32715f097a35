import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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


def test_package_imports_only_stdlib():
    """coxmulti runs on the standard library alone: every absolute import
    names a standard module, and the package declares no dependency."""
    root = Path(__file__).resolve().parents[1]
    offenders = []
    for path in sorted((root / "src" / "coxmulti").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}: {name}" for name in names
                          if name.split(".")[0] not in sys.stdlib_module_names]
    assert not offenders
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
