"""The package namespace is exactly the union of the modules' public names."""

import types

import spherecrit
from spherecrit import classify, critsolve, degeneracy, genlab, polyhom

MODULES = (polyhom, critsolve, classify, degeneracy, genlab)


def test_package_exports_the_union_of_module_all():
    exported = {
        name
        for name, value in vars(spherecrit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == set().union(*(m.__all__ for m in MODULES))
    assert len(exported) == 51


def test_every_all_entry_resolves():
    for module in MODULES:
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
        for name in module.__all__:
            assert getattr(spherecrit, name) is getattr(module, name)
