"""Every exported name resolves, and is exported once."""

import importlib
import pkgutil

import rbx

MODULES = [importlib.import_module(f"rbx.{m.name}") for m in pkgutil.iter_modules(rbx.__path__)]


def test_every_module_export_resolves_once():
    for module in MODULES:
        names = getattr(module, "__all__", [])
        assert len(names) == len(set(names)), module.__name__
        assert [name for name in names if not hasattr(module, name)] == [], module.__name__


def test_package_exports_resolve_and_come_from_the_modules():
    names = rbx.__all__
    assert len(names) == len(set(names))
    # the lazy CLI names resolve through the package's __getattr__
    assert [name for name in names if not hasattr(rbx, name)] == []
    listed = {name for module in MODULES for name in getattr(module, "__all__", [])}
    assert set(names) - listed - set(rbx._CLI_NAMES) == set()
    assert len(rbx._CLI_NAMES) == 4
