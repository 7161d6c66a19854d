"""No public definition or setting in ``src/`` exists only for the tests.

Two scans, over the ``.py`` files of ``src/`` and of the caller directories
(``benchmarks/``, ``examples/``, ``perfbench/``, ``tools/``):

* **Definitions.**  A public function, method or property (module level or
  in a class, not ``_private`` or dunder) that no code outside ``tests/``
  reads runs only under the tests.  A method or property counts as read
  through an attribute read (``x.name``), a ``getattr(x, "name")`` or a
  ``"module:Class.name"`` trace target; a module-level function also through
  a name read and, outside ``src/``, an import.  A local variable or a
  docstring that shares the name does not count.
* **Settings.**  A parameter with a default on a public function or method
  (``__init__`` included), or an init field with a default on a public
  dataclass (``ClassVar``, ``field(init=False)`` and ``_private`` fields
  excluded), that no code outside ``tests/`` sets is a constant that only
  the tests vary.  It counts as set when some file passes a keyword of its
  name, lists the name as a string in a tuple, list or set or uses it as a
  string dict key, or calls a callable of the same name (the class, for
  ``__init__`` and fields) with enough positional arguments to reach it; a
  ``*args`` call reaches every position.

Both scans match names, not bound objects, so a definition or setting that
shares its name with one in use passes unseen; they err towards passing.
One that stays is listed in :data:`ALLOWED` or :data:`ALLOWED_SETTINGS` with
the reason it stays, and leaves the list once it gains a caller or goes.
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
    "repro.calibration.gain_offset.correct_gain_offset": (
        "Section III static gain/offset correction that docs/paper_mapping.md cites; "
        "the engine assumes matched converters, as the paper's experiments do"
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
    "repro.sampling.reconstruction.ReconstructionPlan.structure": (
        "read by the plan-structure cache tests; deleting the cache (ROADMAP) deletes it"
    ),
}

_TIMING_SEAM = "test seam for a clock or a timeout"

#: Test-only settings that stay, by qualified name, with the reason.  A field
#: is ``module.Class.field``; a parameter is ``module.function(name)``,
#: ``module.Class(name)`` for ``__init__`` or ``module.Class.method(name)``.
ALLOWED_SETTINGS = {
    "repro.service.lifecycle.run_gc(now)": _TIMING_SEAM,
    "repro.store.store.CampaignStore.put(stored_at)": _TIMING_SEAM,
    "repro.service.client.ServiceClient.wait(poll_seconds)": _TIMING_SEAM,
    "repro.service.coordinator.Coordinator(heartbeat_timeout)": _TIMING_SEAM,
    "repro.bist.engine.TransmitterBist.stream(stage)": (
        "test seam that re-streams one acquisition"
    ),
    "repro.sampling.reconstruction.reference_evaluate(kaiser_beta)": (
        "taper of the reference oracle, which the window ablation sweeps"
    ),
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: A ``"package.module:Class.name"`` or ``"package.module:function"`` trace target.
_TARGET = re.compile(r"[A-Za-z_][\w.]*:([A-Za-z_][\w.]*)")


def _module_name(path: pathlib.Path, src: pathlib.Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _trees(root: pathlib.Path):
    """``(module name or None, tree)`` of every ``src/`` and caller ``.py`` file."""
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        yield _module_name(path, src), ast.parse(path.read_text(encoding="utf-8"))
    for directory in CALLER_DIRECTORIES:
        for path in sorted((root / directory).rglob("*.py")):
            yield None, ast.parse(path.read_text(encoding="utf-8"))


# --------------------------------------------------------------------------- #
# Definitions
# --------------------------------------------------------------------------- #
def _public_definitions(tree: ast.Module):
    """``(qualified suffix, name, is member)`` of each public module- or class-level def."""
    for node in tree.body:
        members = [(node.name, node, False)] if isinstance(node, _FUNCTIONS) else []
        if isinstance(node, ast.ClassDef):
            members = [
                (f"{node.name}.{item.name}", item, True)
                for item in node.body
                if isinstance(item, _FUNCTIONS)
            ]
        for qualified, definition, is_member in members:
            if not definition.name.startswith("_"):
                yield qualified, definition.name, is_member


def _reads(tree: ast.Module, imports_count: bool) -> tuple:
    """``(function names, member names)`` this tree reads."""
    functions, members = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            functions.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            functions.add(node.attr)
            members.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and imports_count:
            functions.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            functions.add(node.args[1].value)
            members.add(node.args[1].value)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            target = _TARGET.fullmatch(node.value)
            if target is not None:
                path = target.group(1).split(".")
                (members if len(path) > 1 else functions).add(path[-1])
    return functions, members


@functools.lru_cache(maxsize=None)
def find_test_only_definitions(root: pathlib.Path = ROOT) -> tuple:
    """Qualified names of every public ``src/`` definition that only tests call."""
    definitions = {}
    functions, members = set(), set()
    for module, tree in _trees(root):
        if module is not None:
            for qualified, name, is_member in _public_definitions(tree):
                definitions[f"{module}.{qualified}"] = (name, is_member)
        # A re-export in ``src/`` is no use; an import in a caller is.
        read_functions, read_members = _reads(tree, imports_count=module is None)
        functions |= read_functions
        members |= read_members
    return tuple(
        sorted(
            qualified
            for qualified, (name, is_member) in definitions.items()
            if name not in (members if is_member else functions)
        )
    )


# --------------------------------------------------------------------------- #
# Settings
# --------------------------------------------------------------------------- #
def _decorator_names(node) -> set:
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.add(getattr(target, "attr", getattr(target, "id", None)))
    return names


def _is_classvar(annotation) -> bool:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.startswith("ClassVar")
    base = annotation.value if isinstance(annotation, ast.Subscript) else annotation
    return getattr(base, "attr", getattr(base, "id", None)) == "ClassVar"


def _init_fields(node: ast.ClassDef):
    """``(name, has default)`` of each init field of a dataclass, in order."""
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if _is_classvar(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {keyword.arg: keyword.value for keyword in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            yield item.target.id, "default" in keywords or "default_factory" in keywords
        else:
            yield item.target.id, value is not None


def _defaulted_parameters(function, is_method: bool):
    """``(name, position or None)`` of each parameter with a default; keyword-only have none."""
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    defaults = [None] * (len(positional) - len(arguments.defaults)) + list(arguments.defaults)
    skipped = 1 if is_method and "staticmethod" not in _decorator_names(function) else 0
    for index, (argument, default) in enumerate(zip(positional, defaults)):
        if default is not None and index >= skipped:
            yield argument.arg, index - skipped
    for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
        if default is not None:
            yield argument.arg, None


def _public_settings(module: str, tree: ast.Module):
    """``(qualified, callable name, setting name, position or None)`` of each setting."""
    for node in tree.body:
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, _FUNCTIONS):
            for name, position in _defaulted_parameters(node, is_method=False):
                yield f"{module}.{node.name}({name})", node.name, name, position
        elif isinstance(node, ast.ClassDef):
            if "dataclass" in _decorator_names(node):
                for position, (name, has_default) in enumerate(_init_fields(node)):
                    if has_default and not name.startswith("_"):
                        yield f"{module}.{node.name}.{name}", node.name, name, position
            for item in node.body:
                if not isinstance(item, _FUNCTIONS):
                    continue
                if item.name == "__init__":
                    for name, position in _defaulted_parameters(item, is_method=True):
                        yield f"{module}.{node.name}({name})", node.name, name, position
                elif not item.name.startswith("_"):
                    for name, position in _defaulted_parameters(item, is_method=True):
                        qualified = f"{module}.{node.name}.{item.name}({name})"
                        yield qualified, item.name, name, position


def _set_names(tree: ast.Module) -> tuple:
    """``(keywords and listed names, {callable name: positional arguments reached})``."""
    named, reach = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            named.update(keyword.arg for keyword in node.keywords if keyword.arg)
            callee = getattr(node.func, "attr", getattr(node.func, "id", None))
            if callee is not None:
                count = len(node.args)
                if any(isinstance(argument, ast.Starred) for argument in node.args):
                    count = float("inf")
                reach[callee] = max(reach.get(callee, 0), count)
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            elements = node.keys if isinstance(node, ast.Dict) else node.elts
            named.update(
                element.value
                for element in elements
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            )
    return named, reach


@functools.lru_cache(maxsize=None)
def find_test_only_settings(root: pathlib.Path = ROOT) -> tuple:
    """Qualified names of every public ``src/`` setting that only tests set."""
    settings = []
    named, reach = set(), {}
    for module, tree in _trees(root):
        if module is not None:
            settings.extend(_public_settings(module, tree))
        tree_named, tree_reach = _set_names(tree)
        named |= tree_named
        for callee, count in tree_reach.items():
            reach[callee] = max(reach.get(callee, 0), count)
    return tuple(
        sorted(
            qualified
            for qualified, callee, name, position in settings
            if name not in named and (position is None or reach.get(callee, 0) <= position)
        )
    )


# --------------------------------------------------------------------------- #
# Tier-1 checks
# --------------------------------------------------------------------------- #
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


@pytest.mark.parametrize("package", PACKAGES)
def test_no_test_only_settings(package):
    unexpected = [
        qualified
        for qualified in find_test_only_settings()
        if _package(qualified) == package and qualified not in ALLOWED_SETTINGS
    ]
    assert unexpected == [], (
        "set only by tests: make each a constant, or list it in ALLOWED_SETTINGS "
        "with the reason it stays"
    )


@pytest.mark.parametrize("qualified", sorted(ALLOWED_SETTINGS))
def test_allowed_setting_is_still_test_only(qualified):
    assert qualified in find_test_only_settings()


# --------------------------------------------------------------------------- #
# The scans on planted trees
# --------------------------------------------------------------------------- #
PLANTED = '''
from dataclasses import dataclass, field
from typing import ClassVar


def used_helper():
    return 1


def planted_function():
    return 2


def mentioned_by_an_example():
    return 3


def imported_by_a_benchmark():
    return 4


class Planted:
    @property
    def planted_property(self):
        return 4

    def planted_method(self):
        return 5

    def used_method(self):
        return used_helper()

    def local_name_in_an_example(self):
        return 6

    def traced_by_perfbench(self):
        return 7

    def _private(self):
        return 8

    def __repr__(self):
        return "Planted()"


def tuned(value, by_keyword=1, by_position=2, unreached=3, *, keyword_only=4):
    return value


def listed(in_a_tuple=1, as_a_dict_key=2):
    return in_a_tuple + as_a_dict_key


def spread(first=1, second=2):
    return first + second


def _private_function(hidden=1):
    return hidden


class Engine:
    def __init__(self, size, gain=1.0, offset=0.0):
        self.size = size

    def run(self, steps=10, trace=False):
        return steps

    def _step(self, fine=True):
        return fine


@dataclass(frozen=True)
class Config:
    required: int
    by_keyword: int = 1
    by_position: float = 2.0
    unset: str = "a"
    factory: list = field(default_factory=list)
    derived: int = field(init=False, default=0)
    constant: ClassVar[int] = 5
    _hidden: int = 0
'''

PLANTED_CALLER = '''"""Mentions planted_method, unreached and unset."""
__all__ = ["planted_function"]
from .mod import Config, Engine, Planted, listed, spread, tuned

Planted().used_method()
tuned(0, by_keyword=2)
tuned(0, 1, 5)
listed(**dict.fromkeys(("in_a_tuple",), 1), **{"as_a_dict_key": 2})
spread(*[1, 2])
Engine(4, 2.0).run(trace=True)
Config(1, by_keyword=2)
Config(1, 2, 3.0)
'''


def plant(tmp_path) -> pathlib.Path:
    package = tmp_path / "src" / "repro" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        '"""Planted package."""\nfrom .mod import planted_function\n', encoding="utf-8"
    )
    (package / "mod.py").write_text(PLANTED, encoding="utf-8")
    # ``__all__`` strings, docstrings and re-exports do not count as reads.
    (package / "caller.py").write_text(PLANTED_CALLER, encoding="utf-8")
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text(
        "mentioned_by_an_example()\nlocal_name_in_an_example = 1\nprint(local_name_in_an_example)\n",
        encoding="utf-8",
    )
    benchmarks = tmp_path / "benchmarks"
    benchmarks.mkdir()
    (benchmarks / "bench.py").write_text(
        "from repro.pkg.mod import imported_by_a_benchmark\n"
        'TARGETS = ["repro.pkg.mod:Planted.traced_by_perfbench"]\n',
        encoding="utf-8",
    )
    return tmp_path


@pytest.mark.parametrize(
    "qualified, flagged",
    [
        ("repro.pkg.mod.planted_function", True),
        ("repro.pkg.mod.Planted.planted_property", True),
        ("repro.pkg.mod.Planted.planted_method", True),
        ("repro.pkg.mod.Planted.local_name_in_an_example", True),
        ("repro.pkg.mod.used_helper", False),
        ("repro.pkg.mod.Planted.used_method", False),
        ("repro.pkg.mod.mentioned_by_an_example", False),
        ("repro.pkg.mod.imported_by_a_benchmark", False),
        ("repro.pkg.mod.Planted.traced_by_perfbench", False),
        ("repro.pkg.mod.Planted._private", False),
        ("repro.pkg.mod.Planted.__repr__", False),
    ],
)
def test_definition_scan_on_a_planted_tree(tmp_path, qualified, flagged):
    assert (qualified in find_test_only_definitions(plant(tmp_path))) is flagged


@pytest.mark.parametrize(
    "qualified, flagged",
    [
        ("repro.pkg.mod.tuned(by_keyword)", False),
        ("repro.pkg.mod.tuned(by_position)", False),
        ("repro.pkg.mod.tuned(unreached)", True),
        ("repro.pkg.mod.tuned(keyword_only)", True),
        ("repro.pkg.mod.listed(in_a_tuple)", False),
        ("repro.pkg.mod.listed(as_a_dict_key)", False),
        ("repro.pkg.mod.spread(first)", False),
        ("repro.pkg.mod.spread(second)", False),
        ("repro.pkg.mod._private_function(hidden)", False),
        ("repro.pkg.mod.Engine(gain)", False),
        ("repro.pkg.mod.Engine(offset)", True),
        ("repro.pkg.mod.Engine.run(steps)", True),
        ("repro.pkg.mod.Engine.run(trace)", False),
        ("repro.pkg.mod.Engine._step(fine)", False),
        ("repro.pkg.mod.Config.by_keyword", False),
        ("repro.pkg.mod.Config.by_position", False),
        ("repro.pkg.mod.Config.unset", True),
        ("repro.pkg.mod.Config.factory", True),
        ("repro.pkg.mod.Config.derived", False),
        ("repro.pkg.mod.Config.constant", False),
        ("repro.pkg.mod.Config._hidden", False),
    ],
)
def test_settings_scan_on_a_planted_tree(tmp_path, qualified, flagged):
    assert (qualified in find_test_only_settings(plant(tmp_path))) is flagged
