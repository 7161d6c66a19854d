"""Every third-party module that ``src/`` imports is declared in ``setup.py``.

An import missing from ``install_requires`` makes a clean ``pip install``
produce a package that cannot be imported.  SciPy has a single importer,
``repro.dsp.filters``, which loads early and so keeps the SciPy import cost
at one fixed point of ``import repro``.
"""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _imports_by_file():
    """Map each ``src/`` file, relative to the repo root, to its absolute top-level imports."""
    imports = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
        imports[path.relative_to(ROOT).as_posix()] = names
    return imports


def _imported_top_level_modules():
    names = set().union(*_imports_by_file().values())
    return names - set(sys.stdlib_module_names) - {"__future__", "repro"}


def _install_requires():
    for node in ast.walk(ast.parse((ROOT / "setup.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in ast.literal_eval(node.value)}
    raise AssertionError("setup.py passes no install_requires")


def test_every_third_party_import_is_declared():
    declared = _install_requires()
    assert sorted(name for name in _imported_top_level_modules() if name.lower() not in declared) == []


def test_every_declared_requirement_is_imported():
    imported = {name.lower() for name in _imported_top_level_modules()}
    assert sorted(_install_requires() - imported) == []


def test_scipy_is_imported_only_by_dsp_filters():
    importers = [path for path, names in _imports_by_file().items() if "scipy" in names]
    assert importers == ["src/repro/dsp/filters.py"]
