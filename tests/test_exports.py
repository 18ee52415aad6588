"""Every name a module exports resolves; no module imports a name it never
reads; every name the package re-exports is in its module's ``__all__``;
every name the benchmark's tracer wraps is there to wrap, with every
argument its hooks read by name."""

import ast
import importlib
import importlib.util
import inspect
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


def _hook_argument_names(tree):
    """{hook name: the string keys it subscripts} of each function defined
    in the tracer's ``_after_hooks``: the arguments a hook reads by name
    (``bound.arguments["n_steps"]``, ``kwargs["u"]``)."""
    outer = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_after_hooks")
    return {fn.name: {n.slice.value for n in ast.walk(fn) if isinstance(n, ast.Subscript)
                      and isinstance(n.slice, ast.Constant) and isinstance(n.slice.value, str)}
            for fn in outer.body if isinstance(fn, ast.FunctionDef)}


def test_every_traced_name_resolves():
    # perfbench/tracing.py wraps each (module, attribute) of TARGETS by
    # name, and its after-hooks read some of their arguments by name: a name
    # the package no longer defines makes `run.py --trace` raise when it
    # installs the tracer or runs a hook
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{m}.{a}" for m, a, _ in tracing.TARGETS
               if not hasattr(importlib.import_module(f"secondform.{m}"), a)]
    assert tracing.TARGETS and missing == []
    modules = {m: importlib.import_module(f"secondform.{m}") for m, _, _ in tracing.TARGETS}
    read = _hook_argument_names(ast.parse(path.read_text()))
    bound = {}
    for (module, attr), hook in tracing._after_hooks(None, modules).items():
        params = inspect.signature(getattr(modules[module], attr)).parameters
        bound[f"{module}.{attr}"] = read[hook.__name__]
        missing += [f"{module}.{attr}({name})" for name in read[hook.__name__] if name not in params]
    assert missing == []
    known = {"ambient.exp_map": {"n_steps", "x0_jets"}, "hypersurface.frame_jets": {"u_jets"},
             "iigeom.ii_geometry": {"imm", "u"}}
    assert all(names <= bound.get(f, set()) for f, names in known.items())  # the scan finds them
