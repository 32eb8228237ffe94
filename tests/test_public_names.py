"""Every public name in ``src/`` has a reader outside ``tests/``.

The scan walks each module of the package for its public functions and
classes and each public method or property of those classes. A name counts
as used when a module under ``src/``, ``benchmarks/``, ``examples/`` or
``perfbench/`` loads it as a name, reads it as an attribute or imports it
with ``from ... import``. A package ``__init__`` re-exporting a name, an
``__all__`` string and a docstring are not uses. The match is by bare name,
so it can only miss dead code, never flag a live name.

A name that only tests read belongs in the allowlist only when it is a
read-only view of state that has no other public path, with the reason.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "benchmarks", "examples", "perfbench")

ALLOWED = {
    # Read-only views through which tests observe state no public path shows.
    "PowerMediator.degraded_telemetry": "the telemetry watchdog's posture",
    "PowerMediator.safe_hold_remaining": "ticks left in the post-restart safe hold",
    "PowerMediator.adversary_engine": "the attack schedules a mediator runs",
    "SubtreeAgent.deferred_epoch": "the epoch of a deferred shrink",
    "ClientSession.delivered_through": "a session's delivery cursor",
    "ClusterController.reported_demand_w": "one child's heartbeat-reported demand",
    "AlsFactorizer.predict_full": "the fitted factors' reconstruction",
    "StreamingTraceBus.sealed_through": "the streaming trace's seal cursor",
    "HeartbeatMonitor.registered": "the applications a monitor tracks",
    "IngestBuffer.safety_occupancy": "the cap-safety lane's length",
    "SimulatedServer.parasitic_power_of": "the draw an attack hook declared",
    "SimulatedServer.heartbeat_inflation_of": "the report factor an attack hook set",
    # The only readers of the sensor-noise RNGs that SimulatedServer(seed=)
    # seeds; removing them is a separate decision.
    "RaplInterface.read_power_w": "reads the RAPL noise stream",
    "HeartbeatMonitor.heart_rate": "reads the heartbeat noise stream",
}


def _public_definitions() -> list[tuple[str, str]]:
    """``(qualname, file:line)`` of every public def and class in ``src/``."""
    found: list[tuple[str, str]] = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = str(path.relative_to(ROOT))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            found.append((node.name, f"{where}:{node.lineno}"))
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and member.name[0] != "_":
                        found.append((f"{node.name}.{member.name}", f"{where}:{member.lineno}"))
    return found


def _names_read_outside_tests() -> set[str]:
    used: set[str] = set()
    for folder in CALLERS:
        for path in (ROOT / folder).rglob("*.py"):
            reexports = path.name == "__init__.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_has_a_reader_outside_tests():
    used = _names_read_outside_tests()
    unread = [
        f"  {where} {name}"
        for name, where in _public_definitions()
        if name.rsplit(".", 1)[-1] not in used and name not in ALLOWED
    ]
    assert not unread, "public names only tests read (or nothing):\n" + "\n".join(unread)


def test_the_allowlist_names_live_definitions():
    definitions = {name for name, _ in _public_definitions()}
    used = _names_read_outside_tests()
    stale = [n for n in ALLOWED if n not in definitions or n.rsplit(".", 1)[-1] in used]
    assert not stale, f"allowlisted names that are gone or now read outside tests: {stale}"
