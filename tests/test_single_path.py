"""Structure of the read path: one per-device split, one batch planner.

Every reader takes a query's per-device split from
:func:`repro.core.inverse.qualified_split`.  The per-device generator
(``qualified_on_device``) is the oracle the kernel is tested against, so
outside its own definitions only that split's fallback and the ``perf``
command's iterator timing may call it.  These checks walk the source tree
so a new reader that grows its own loop fails here.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent

#: Where ``.qualified_on_device(`` may be called: file (relative to the
#: package) -> functions allowed to call it, or None for any function.
#: ``distribution/base.py``, ``core/inverse.py`` and ``analysis/box.py``
#: define the generator oracles; in ``core/inverse.py`` only the split's
#: fallback calls one.
GENERATOR_CALLERS = {
    "distribution/base.py": None,
    "analysis/box.py": None,
    "core/inverse.py": {"qualified_split"},
    "cli.py": {"_cmd_perf"},
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _calls(tree, attribute):
    """(enclosing function, line) of every ``<expr>.<attribute>(...)``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attribute
        ):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_storage_batch_module_is_gone():
    assert not (SRC / "storage" / "batch.py").exists()
    for name in ("BatchPlanner", "BatchExecutor", "BatchPlan", "BatchReport"):
        assert name not in repro.__all__
        assert not hasattr(repro, name)
        assert not hasattr(repro.storage, name)


def test_nothing_imports_storage_batch():
    offenders = []
    for relative, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                names += [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if "repro.storage.batch" in names:
                offenders.append((relative, node.lineno))
    assert offenders == []


def test_generator_is_called_only_by_the_oracle_and_the_split():
    offenders = []
    for relative, tree in _modules():
        allowed = GENERATOR_CALLERS.get(relative, set())
        for function, line in _calls(tree, "qualified_on_device"):
            if allowed is not None and function not in allowed:
                offenders.append((relative, function, line))
    assert offenders == []


@pytest.mark.parametrize(
    "relative, function",
    [("core/inverse.py", "qualified_split"), ("cli.py", "_cmd_perf")],
)
def test_allowlisted_callers_still_exist(relative, function):
    tree = ast.parse((SRC / relative).read_text())
    assert function in {caller for caller, __ in _calls(tree, "qualified_on_device")}
