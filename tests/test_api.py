"""The package namespace is exactly the union of the modules' public names,
and no public entry point takes a tolerance."""

import dataclasses
import inspect
import types

import pytest

import spherecrit
from spherecrit import classify, critsolve, degeneracy, genlab, polyhom
from spherecrit.cli import main

MODULES = (polyhom, critsolve, classify, degeneracy, genlab)


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
