"""The package's public surface: its export list and module boundaries."""

import ast
import importlib
from pathlib import Path

import pytest

import hopf_flow
from hopf_flow import integrator

# Generated Chebyshev coefficients, imported by name.
_GENERATED = {"_bessel_tables"}


def test_every_exported_name_resolves_once():
    names = hopf_flow.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(hopf_flow, n)]
    assert missing == []


def test_the_package_root_lists_and_resolves_its_exports_lazily():
    assert set(hopf_flow.__all__) <= set(dir(hopf_flow))
    for name in hopf_flow.__all__:
        home = importlib.import_module(
            f"hopf_flow.{hopf_flow._HOME[name]}")
        assert getattr(hopf_flow, name) is getattr(home, name), name
    assert hopf_flow.integrate is integrator.integrate
    with pytest.raises(AttributeError, match="'no_such_name'"):
        hopf_flow.no_such_name


def test_start_up_modules_import_numpy_only_where_they_use_it():
    # numpy is imported inside the functions that need it, so importing
    # these modules, and running field and trace, never loads it; fields
    # imports it nowhere.
    package = Path(hopf_flow.__file__).parent
    for stem in ("__init__", "cli", "fields", "integrator"):
        tree = ast.parse((package / f"{stem}.py").read_text(encoding="utf-8"))
        nodes = list(ast.walk(tree)) if stem == "fields" else tree.body
        modules = [a.name for node in nodes if isinstance(node, ast.Import)
                   for a in node.names]
        modules += [node.module for node in nodes
                    if isinstance(node, ast.ImportFrom) and node.module]
        assert [m for m in modules if m.split(".")[0] == "numpy"] == [], stem


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(source: str) -> list[str]:
    """Each read of a sibling module's private name, as the code spells it.

    Siblings come in through relative imports: `from . import mod` binds
    a module whose attributes are then read, `from .mod import name`
    reads names directly.
    """
    tree = ast.parse(source)
    modules, reads = set(), []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        if node.module is None:
            modules.update(a.asname or a.name for a in node.names)
        elif node.module not in _GENERATED:
            reads += [f"from .{node.module} import {a.name}"
                      for a in node.names
                      if _private(node.module) or _private(a.name)]
    reads += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules and _private(node.attr)]
    return reads


def test_no_module_reads_a_siblings_private_names():
    package = Path(hopf_flow.__file__).parent
    reads = {path.name: _private_reads(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: r for name, r in reads.items() if r} == {}


def test_only_the_run_generator_compiles_text():
    # Fields are ordinary functions; the one text compiled is the
    # generated run.
    package = Path(hopf_flow.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            calls += [(path.stem, getattr(top, "name", "<module>"),
                       node.func.id) for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id in ("exec", "compile")]
    assert sorted(calls) == [("integrator", "_run_fn", "compile"),
                             ("integrator", "_run_fn", "exec")]


@integrator.inlined_field
def looped_field(t, y):
    (a,) = y
    for _ in range(2):
        a = a + 1.0
    return (a,)


def test_integrate_refuses_a_decorated_field_it_cannot_inline():
    # A loop is none of the statements a run's stage can hold.
    with pytest.raises(ValueError,
                       match="looped_field: not a field integrate can inline"):
        integrator.integrate(looped_field, [1.0], (0.0, 1.0))


def test_inlined_field_refuses_what_is_not_a_module_level_def():
    def nested(t, y):
        (a,) = y
        return (a,)

    with pytest.raises(ValueError, match=r"\.nested: not a module-level def"):
        integrator.inlined_field(nested)
    with pytest.raises(ValueError, match="<lambda>: not a module-level def"):
        integrator.inlined_field(lambda t, y: (y[0],))
