"""Every ``__all__`` entry of the package and its subpackages resolves.

Public names leave a package by deleting their import; an ``__all__`` entry
left behind only fails once a caller star-imports the module.
"""

import importlib
import pkgutil

import pytest

import repro

PUBLIC_MODULES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_entries_resolve_and_are_unique(module_name):
    module = importlib.import_module(module_name)
    exported = module.__all__
    assert [name for name in exported if not hasattr(module, name)] == []
    assert len(set(exported)) == len(exported)
