"""Every ``__all__`` entry of every ``repro`` module resolves.

Public names leave a module by deleting their definition or import; an
``__all__`` entry left behind only fails once a caller star-imports the
module.  ``__main__`` modules are skipped because importing one runs its CLI.
"""

import importlib
import pkgutil

import pytest

import repro

PUBLIC_MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not info.name.endswith(".__main__")
)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_entries_resolve_and_are_unique(module_name):
    module = importlib.import_module(module_name)
    exported = module.__all__
    assert [name for name in exported if not hasattr(module, name)] == []
    assert len(set(exported)) == len(exported)
