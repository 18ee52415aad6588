"""Every name a module exports resolves; no module imports a name it never
reads; every name the package re-exports is in its module's ``__all__``;
every name the benchmark's tracer wraps is there to wrap."""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import secondform

MODULES = sorted(m.name for m in pkgutil.iter_modules(secondform.__path__))
SOURCE = pathlib.Path(secondform.__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"secondform.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _unread_imports(path):
    """Names bound by a module-level import of `path` that the module never
    reads and does not list in ``__all__``; an import line marked ``# noqa``
    is exempt."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set(getattr(importlib.import_module(f"secondform.{path.stem}"), "__all__", ()))
    unread = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if "# noqa" in lines[alias.lineno - 1] or "# noqa" in lines[node.lineno - 1]:
                continue
            if name not in read and name not in exported:
                unread.append(f"{name} (line {alias.lineno})")
    return unread


@pytest.mark.parametrize("name", MODULES)
def test_no_module_level_import_goes_unread(name):
    # MODULES leaves out __init__, which imports only to re-export: the next
    # test holds those names
    assert _unread_imports(SOURCE / f"{name}.py") == []


def test_every_package_export_is_in_its_modules_all():
    tree = ast.parse((SOURCE / "__init__.py").read_text())
    stray = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            module = importlib.import_module(f"secondform.{node.module}")
            exported = getattr(module, "__all__", ())
            stray += [f"{node.module}.{a.name}" for a in node.names if a.name not in exported]
    assert stray == []


def test_every_traced_name_resolves():
    # perfbench/tracing.py wraps each (module, attribute) of TARGETS by
    # name: one the package no longer defines makes `run.py --trace`
    # raise AttributeError when it installs the tracer
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{m}.{a}" for m, a, _ in tracing.TARGETS
               if not hasattr(importlib.import_module(f"secondform.{m}"), a)]
    assert tracing.TARGETS and missing == []
