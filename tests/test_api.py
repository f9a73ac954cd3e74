"""The package namespace is exactly the union of the modules' public names,
no public entry point takes a tolerance, private modules stay private, and
the README quick start runs."""

import ast
import dataclasses
import inspect
import re
import types
from pathlib import Path

import pytest

import spherecrit
from spherecrit import _intpoly, classify, cli, critsolve, degeneracy, genlab, polyhom
from spherecrit.cli import main

MODULES = (polyhom, critsolve, classify, degeneracy, genlab)
README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_exports_the_union_of_module_all():
    exported = {
        name
        for name, value in vars(spherecrit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set().union(*(m.__all__ for m in MODULES))
    assert len(exported) == 50


def test_every_all_entry_resolves():
    for module in MODULES:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert getattr(spherecrit, name) is getattr(module, name)


def test_solver_config_has_no_tolerance_fields():
    fields = tuple(field.name for field in dataclasses.fields(spherecrit.SolverConfig))
    assert fields == ("starts", "seed")


def test_no_public_function_takes_a_tolerance():
    for module in MODULES:
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isfunction(value):
                params = inspect.signature(value).parameters
                assert not [
                    p for p in params if p.startswith("tol") or p.endswith("radius")
                ], f"{module.__name__}.{name}"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--tol-crit", "1e-9"],
        ["classify", "--dedup-radius", "1e-6"],
        ["detect", "--point", "1,0", "--tol-crit", "1e-9"],
        ["detect", "--point", "1,0", "--tol-class", "1e-7"],
    ],
    ids=["classify --tol-crit", "classify --dedup-radius", "detect --tol-crit", "detect --tol-class"],
)
def test_retired_tolerance_flags_exit_2(argv, tmp_path, capsys):
    path = tmp_path / "f.json"
    spherecrit.write_polynomial(genlab.axis_monomial(2, 3), path)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--poly", str(path), *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_public_functions_are_defined_in_public_modules():
    # bench/tracing.py wraps every public function of these modules and takes
    # its layer from the defining module, which must be one of the six.
    modules = (*MODULES, cli)
    layers = {m.__name__ for m in modules}
    for module in modules:
        for name, value in vars(module).items():
            if name.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            if value.__module__.startswith("spherecrit."):
                assert value.__module__ in layers, f"{module.__name__}.{name}"


def test_intpoly_imports_only_polyhom_from_the_package():
    tree = ast.parse(Path(_intpoly.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "spherecrit." * bool(node.level) + (node.module or "")
            imported.update([base] if node.module else [base + a.name for a in node.names])
    assert {m for m in imported if m.startswith("spherecrit")} <= {"spherecrit.polyhom"}


def test_readme_tolerance_table_lists_every_threshold_constant():
    # Each threshold constant of the four deciding modules has a row with its
    # value, and each constant row names one of them; "inline" rows are cuts
    # written where they decide.
    modules = {m.__name__.rpartition(".")[2]: m for m in (critsolve, classify, degeneracy, genlab)}
    rows = re.findall(r"^\| (`(\w+)\.(\w+)`|inline) \| ([^|]+) \|", README.read_text(), re.M)
    table = {(mod, name): float(value) for _, mod, name, value in rows if mod}
    assert len(rows) > len(table) > 0
    constants = {
        name: value
        for module in modules.values()
        for name, value in vars(module).items()
        if isinstance(value, float) and re.search(r"TOL|_RADIUS$|_RCOND$", name)
    }
    named = {name: value for (_, name), value in table.items()}
    assert constants == named
    for (mod, name), value in table.items():
        assert getattr(modules[mod], name) == value, (mod, name)


def test_readme_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("(6, 2)")
    assert lines[-1] == "False"
