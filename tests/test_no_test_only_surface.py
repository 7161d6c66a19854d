"""No public function, method or property in ``src/`` is called only by tests.

A public definition (module level or in a class, not ``_private`` or dunder)
whose name no ``src/`` code reads as a name or attribute, and no file under
``benchmarks/``, ``examples/``, ``perfbench/`` or ``tools/`` mentions, runs
only under ``tests/``: it is surface the package ships and maintains for its
own test suite.  The scan matches names, not bound objects, so a definition
that shares its name with one in use passes unseen; it errs towards passing.

A test-only definition that stays is listed in :data:`ALLOWED` with the
reason it stays, and leaves the list once it gains a caller or is deleted.
"""

import ast
import functools
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Directories whose files count as callers outside ``src/``.
CALLER_DIRECTORIES = ("benchmarks", "examples", "perfbench", "tools")

#: Test-only definitions that stay, by qualified name, with the reason.
ALLOWED = {
    "repro.sampling.nonuniform.optimal_delay": (
        "Section II Eq. 3 delay choice that docs/paper_mapping.md cites"
    ),
    "repro.sampling.nonuniform.forbidden_delays": (
        "Section II Eq. 3 forbidden delays that docs/paper_mapping.md cites"
    ),
    "repro.sampling.nonuniform.delay_upper_bound": (
        "Section II Eq. 3 delay bound that docs/paper_mapping.md cites"
    ),
    "repro.calibration.lms.LmsSkewEstimate.estimate_trajectory": (
        "the per-iteration LMS trace that explainable verdicts (ROADMAP) will report"
    ),
    "repro.faults.models.FaultModel.apply_mimo": (
        "MIMO fault hook; running 2T2R cells as scenarios (ROADMAP) decides it"
    ),
    "repro.faults.models.TxLeakageFault.apply_mimo": (
        "MIMO fault hook; running 2T2R cells as scenarios (ROADMAP) decides it"
    ),
    "repro.faults.models.SharedLoCorrelationFault.apply_mimo": (
        "MIMO fault hook; running 2T2R cells as scenarios (ROADMAP) decides it"
    ),
    "repro.faults.models.ChannelSpreadFault.apply_mimo": (
        "MIMO fault hook; running 2T2R cells as scenarios (ROADMAP) decides it"
    ),
    "repro.faults.adaptive.SyntheticProbeBackend.grid_oracle": (
        "reference oracle the statistical acceptance tests compare the planner against"
    ),
}


def _module_name(path: pathlib.Path, src: pathlib.Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _public_definitions(tree: ast.Module):
    """``(qualified suffix, name)`` of each public module-level or class-level def."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        members = [(node.name, node)] if isinstance(node, functions) else []
        if isinstance(node, ast.ClassDef):
            members = [
                (f"{node.name}.{item.name}", item)
                for item in node.body
                if isinstance(item, functions)
            ]
        for qualified, definition in members:
            if not definition.name.startswith("_"):
                yield qualified, definition.name


@functools.lru_cache(maxsize=None)
def find_test_only_definitions(root: pathlib.Path = ROOT) -> tuple:
    """Qualified names of every public ``src/`` definition that only tests call."""
    src = root / "src"
    definitions = {}
    read_in_src = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = _module_name(path, src)
        for qualified, name in _public_definitions(tree):
            definitions[f"{module}.{qualified}"] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read_in_src.add(node.id)
            elif isinstance(node, ast.Attribute):
                read_in_src.add(node.attr)
    mentioned_outside = set()
    for directory in CALLER_DIRECTORIES:
        for path in (root / directory).rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                text = path.read_text(encoding="utf-8", errors="replace")
                mentioned_outside.update(re.findall(r"[A-Za-z_]\w*", text))
    return tuple(
        sorted(
            qualified
            for qualified, name in definitions.items()
            if name not in read_in_src and name not in mentioned_outside
        )
    )


def _package(qualified: str) -> str:
    """The package a qualified name lives in: ``repro`` or ``repro.<subpackage>``."""
    parts = qualified.split(".")
    return ".".join(parts[:2]) if (ROOT / "src" / parts[0] / parts[1]).is_dir() else parts[0]


PACKAGES = ["repro"] + sorted(
    f"repro.{path.name}"
    for path in (ROOT / "src" / "repro").iterdir()
    if (path / "__init__.py").is_file()
)


@pytest.mark.parametrize("package", PACKAGES)
def test_no_test_only_definitions(package):
    unexpected = [
        qualified
        for qualified in find_test_only_definitions()
        if _package(qualified) == package and qualified not in ALLOWED
    ]
    assert unexpected == [], (
        "called only by tests: delete these, or list each in ALLOWED with the reason it stays"
    )


@pytest.mark.parametrize("qualified", sorted(ALLOWED))
def test_allowed_definition_is_still_test_only(qualified):
    # An entry whose definition is gone or has gained a caller exempts
    # nothing any more and would hide the next definition of that name.
    assert qualified in find_test_only_definitions()


PLANTED = '''
def used_helper():
    return 1


def planted_function():
    return 2


def mentioned_by_an_example():
    return 3


class Planted:
    @property
    def planted_property(self):
        return 4

    def planted_method(self):
        return 5

    def used_method(self):
        return used_helper()

    def _private(self):
        return 6

    def __repr__(self):
        return "Planted()"
'''


@pytest.mark.parametrize(
    "qualified, flagged",
    [
        ("repro.pkg.mod.planted_function", True),
        ("repro.pkg.mod.Planted.planted_property", True),
        ("repro.pkg.mod.Planted.planted_method", True),
        ("repro.pkg.mod.used_helper", False),
        ("repro.pkg.mod.Planted.used_method", False),
        ("repro.pkg.mod.mentioned_by_an_example", False),
        ("repro.pkg.mod.Planted._private", False),
        ("repro.pkg.mod.Planted.__repr__", False),
    ],
)
def test_scan_on_a_planted_tree(tmp_path, qualified, flagged):
    package = tmp_path / "src" / "repro" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""Planted package."""\n', encoding="utf-8")
    (package / "mod.py").write_text(PLANTED, encoding="utf-8")
    # ``__all__`` strings and docstrings do not count as reads.
    (package / "caller.py").write_text(
        '"""Mentions planted_method."""\n__all__ = ["planted_function"]\n'
        "from .mod import Planted\n\nPlanted().used_method()\n",
        encoding="utf-8",
    )
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text("mentioned_by_an_example()\n", encoding="utf-8")
    assert (qualified in find_test_only_definitions(tmp_path)) is flagged
