"""No code under ``src/`` touches another class's private state.

A ``_name`` attribute belongs to the class that defines it. Its methods
reach it through ``self`` or ``cls``, and so may other code in the module
that defines the class: ``MetricsRegistry`` reads ``Histogram._window`` in
``observability/metrics.py``. Any other ``obj._name`` ties two modules
together so that a change to one is caught only by whatever test happens
to run both; such code goes through a public method instead. A ``# noqa:
SLF001`` marker is how such a reach used to be waved through, so none may
remain.

A module counts as defining ``_name`` when one of its classes has a method
of that name, assigns it through ``self``/``cls``, or declares it in its
body or ``__slots__``. A receiver bound by ``import`` (a module) is not an
object.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(tree: ast.Module) -> set[str]:
    """The private attribute names the classes of one module define."""
    names: set[str] = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in ast.walk(cls):
            if isinstance(node, ast.FunctionDef):
                names.add(node.name)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
            ):
                names.add(node.attr)
        for node in cls.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            if isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                    if target.id == "__slots__":
                        names.update(elt.value for elt in node.value.elts)
    return {name for name in names if _private(name)}


def _reaches(source: str, where: str) -> list[str]:
    """``file:line expr`` of each private attribute ``source`` reaches
    on an object its module's classes do not define."""
    tree = ast.parse(source)
    own = _defined(tree)
    modules = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and _private(node.attr)):
            continue
        receiver = node.value
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls", *modules):
            continue
        if node.attr not in own:
            found.append(f"{where}:{node.lineno} {ast.unparse(node)}")
    return found


def test_no_code_reaches_into_another_class_private_state():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        found += _reaches(path.read_text(encoding="utf-8"), str(path.relative_to(ROOT)))
    names = sorted({line.rsplit(".", 1)[-1] for line in found})
    assert not found, (
        f"{len(found)} reaches into {len(names)} private names of other classes:\n"
        + "\n".join(f"  {line}" for line in found)
    )


def test_no_private_access_is_waved_through():
    marked = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "noqa: SLF001" in line
    ]
    assert not marked, f"private reaches waved through with noqa: {marked}"


def test_the_scan_tells_own_state_from_another_class():
    source = '''
import os


class Histogram:
    __slots__ = ("_window",)

    def _grow(self):
        self._spare = os._exit


class Registry:
    def merge(self, other, planner):
        self._grow()
        other._window.extend(other._grow())
        return planner._config, other._spare
'''
    assert _reaches(source, "m.py") == ["m.py:16 planner._config"]
