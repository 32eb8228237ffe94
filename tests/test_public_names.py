"""Every public name in ``src/`` has a reader, and every option a setter,
outside ``tests/``.

**Names.** The scan walks each module of the package for its public
functions and classes and each public method or property of those classes.
A name counts as used when a module under ``src/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` loads it as a name, reads it as an attribute
or imports it with ``from ... import``. A package ``__init__`` re-exporting a
name, an ``__all__`` string and a docstring are not uses. When more than one
``src/`` class defines a method name, a read of it counts for a class only in
a module that names that class, a subclass of it or a base class; a read
through ``self``/``cls`` counts for the enclosing class's family, one through
a class name for that class's family, and one through an imported module
(``json.load``) for none. A name that only tests read belongs in
``ALLOWED`` only when it is a read-only view of state that has no other
public path; a method whose only reader reaches its instance by duck typing
belongs in ``DUCK_TYPED`` with that reader's ``file:line``.

**Options.** The scan covers every defaulted parameter of a public function
or method (``__init__`` included) and every defaulted init field of a public
dataclass under ``src/``. A value counts as set when a call in ``src/``,
``benchmarks/`` or ``perfbench/`` passes it by keyword, by position, through
``*``/``**``, through ``cls(...)`` inside the class, through a wrapper that
takes the callee as an argument (``tracer.call``, ``benchmark.pedantic``), or
(for a dataclass field) through ``replace``; callees match by bare name. Tests and examples
are not callers. A value no caller sets belongs in ``SETTABLE`` only when a
pin sets it, when it is a deployment setting, when it is the sensor-noise
path, or when it is initial state rather than an option; every other such
value is written once as a constant.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "benchmarks", "examples", "perfbench")
OPTION_CALLERS = ("src", "benchmarks", "perfbench")

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
    "PowercapZone.position": "a zone's index on its throttle path",
    "AdversarySoakResult.report": "the byzantine soak's JSON report, which CI publishes",
    "HierarchySoakResult.report": "the hierarchy soak's JSON report, which CI publishes",
    # The only readers of the sensor-noise RNGs that SimulatedServer(seed=)
    # seeds; removing them is a separate decision.
    "RaplInterface.read_power_w": "reads the RAPL noise stream",
    "HeartbeatMonitor.heart_rate": "reads the heartbeat noise stream",
}

# Methods whose name another src class also defines, read through a variable
# the scan cannot type: the reader's file:line.
DUCK_TYPED = {
    "ChaosSoakResult.total_restarts": "src/repro/cli.py:366",
    "ChurnSchedule.at": "src/repro/service/loop.py:413",
    "VectorPerformanceModel.surface_of": "src/repro/core/utility.py:92",
    "VectorPowerModel.surface_of": "src/repro/core/utility.py:92",
    "NetStats.to_dict": "src/repro/hierarchy/runner.py:448",
    "Histogram.observe": "src/repro/core/mediator.py:1187",
    "JournalWriter.close": "src/repro/persistence/supervisor.py:262",
}

_PIN = "a pin sets it: "
_RECORD = "initial state of a record, not an option"
SETTABLE = {
    # A pin sets it, so removing it would delete a case the pin checks.
    "run_mix_experiment(adversaries=)": _PIN + "the differential suite",
    "DefenseConfig.cooldown_ticks": _PIN + "the fleet-vs-loop fuzz and fingerprint tests",
    "run_spec(defense=)": _PIN + "the golden traces' defense-invariance check",
    "run_hierarchy_chaos(trace_bus=)": _PIN + "the tree goldens",
    "run_hierarchy_chaos(metrics=)": _PIN + "the tree goldens",
    "run_budget_tree(partitions=)": _PIN + "the tree goldens",
    "PowerMediator.add_application(phased=)": _PIN
    + "the phased app's checkpoint-restore equality (the paper's E4 workload)",
    # A deployment setting: a wall-clock budget that depends on the host.
    "Supervisor(tick_deadline_s=)": "deployment setting: hang detection's wall-clock budget",
    # The sensor-noise path: perfbench's SimulatedServer(seed=) seeds only
    # these streams, so they go together in a benchmark change.
    "SimulatedServer(power_noise_std_w=)": "the sensor-noise path",
    "SimulatedServer(perf_noise_relative_std=)": "the sensor-noise path",
    # Initial state, not options.
    "main(argv=)": "the entry point's argument vector",
    "ServerSlot.apps": _RECORD,
    "ManagedApp.calibrated": _RECORD,
    "NetStats.sent": _RECORD,
    "NetStats.delivered": _RECORD,
    "NetStats.duplicated": _RECORD,
    "NetStats.dropped_loss": _RECORD,
    "NetStats.dropped_partition": _RECORD,
    "RecoveryStats.restarts": _RECORD,
    "RecoveryStats.hangs_detected": _RECORD,
    "RecoveryStats.downtime_ticks": _RECORD,
    "RecoveryStats.journal_records_replayed": _RECORD,
    "RecoveryStats.checkpoints_written": _RECORD,
    "RecoveryStats.samples_restored": _RECORD,
    "RecoveryStats.cold_relearns_avoided": _RECORD,
    "ZoneStats.throttle_steps": _RECORD,
    "ZoneStats.unthrottle_steps": _RECORD,
    "ZoneStats.violation_ticks": _RECORD,
    "ZoneStats.failed_actuations": _RECORD,
    "RaplDomain.energy_j": _RECORD,
    "RaplDomain.power_limit_w": _RECORD,
    "RaplDomain.last_power_w": _RECORD,
}


def _modules(folders):
    for folder in folders:
        for path in sorted((ROOT / folder).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _public_classes_and_definitions():
    """``({class: bases}, [(qualname, file:line)])`` over ``src/``."""
    bases: dict[str, list[str]] = {}
    found: list[tuple[str, str]] = []
    for path, tree in _modules(("src",)):
        where = str(path.relative_to(ROOT))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [
                    b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                    for b in node.bases
                ]
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            found.append((node.name, f"{where}:{node.lineno}"))
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and member.name[0] != "_":
                        found.append((f"{node.name}.{member.name}", f"{where}:{member.lineno}"))
    return bases, found


def _family(cls: str, bases: dict[str, list[str]]) -> set[str]:
    """``cls`` with its src base classes and its subclasses."""
    up, down = {cls}, {cls}
    while True:
        more_up = {b for c in up for b in bases.get(c, ()) if b in bases} - up
        more_down = {c for c, parents in bases.items() if down & set(parents)} - down
        if not (more_up or more_down):
            return up | down
        up |= more_up
        down |= more_down


def _reads(classes):
    """Per caller module: the names it loads and its attribute reads, each
    ``(attr, receiver, file:line)`` with receiver ``("module", None)``,
    ``("self", class)``, ``("class", class)`` or ``("other", None)``."""
    modules = []
    for path, tree in _modules(CALLERS):
        where = str(path.relative_to(ROOT))
        reexports = path.name == "__init__.py"
        aliases = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        names: set[str] = set()
        attrs: list[tuple[str, tuple, str]] = []

        def visit(node, enclosing):
            if isinstance(node, ast.ClassDef):
                enclosing = node.name
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
                value = node.value
                receiver = ("other", None)
                if isinstance(value, ast.Name):
                    if value.id in aliases:
                        receiver = ("module", None)
                    elif value.id in ("self", "cls") and enclosing is not None:
                        receiver = ("self", enclosing)
                    elif value.id in classes:
                        receiver = ("class", value.id)
                attrs.append((node.attr, receiver, f"{where}:{node.lineno}"))
            elif isinstance(node, ast.ImportFrom) and not reexports:
                names.update(alias.name for alias in node.names)
            for child in ast.iter_child_nodes(node):
                visit(child, enclosing)

        visit(tree, None)
        modules.append((names, attrs))
    return modules


def _unread() -> list[tuple[str, str]]:
    bases, definitions = _public_classes_and_definitions()
    owners: dict[str, set[str]] = {}
    for name, _ in definitions:
        if "." in name:
            cls, method = name.split(".")
            owners.setdefault(method, set()).add(cls)
    modules = _reads(bases)
    used = set().union(*(names for names, _ in modules))

    def read_for(cls: str, method: str) -> bool:
        family = _family(cls, bases)
        for names, attrs in modules:
            named = bool(family & names)
            for attr, (kind, target), _ in attrs:
                if attr != method or kind == "module":
                    continue
                if (target in family) if kind in ("self", "class") else named:
                    return True
        return False

    unread = []
    for name, where in definitions:
        cls, _, method = name.rpartition(".")
        shared = bool(cls) and len(owners.get(method, ())) > 1
        if not (read_for(cls, method) if shared else method in used):
            unread.append((name, where))
    return unread


def test_every_public_name_has_a_reader_outside_tests():
    unread = [
        f"  {where} {name}"
        for name, where in _unread()
        if name not in ALLOWED and name not in DUCK_TYPED
    ]
    assert not unread, "public names only tests read (or nothing):\n" + "\n".join(unread)


def test_the_allowlist_names_live_definitions():
    definitions = {name for name, _ in _public_classes_and_definitions()[1]}
    unread = {name for name, _ in _unread()}
    stale = [n for n in [*ALLOWED, *DUCK_TYPED] if n not in definitions or n not in unread]
    assert not stale, f"allowlisted names that are gone or now read outside tests: {stale}"


def test_each_duck_typed_reader_reads_its_method():
    missing = []
    for name, where in DUCK_TYPED.items():
        path, line = where.rsplit(":", 1)
        method = name.rsplit(".", 1)[-1]
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        if not any(
            isinstance(node, (ast.Attribute, ast.Constant))
            and getattr(node, "lineno", None) == int(line)
            and method in (getattr(node, "attr", None), getattr(node, "value", None))
            for node in ast.walk(tree)
        ):
            missing.append(f"{name} at {where}")
    assert not missing, f"duck-typed readers that no longer read their method: {missing}"


# ------------------------------------------------------------------ options


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", "")) == "dataclass":
            return True
    return False


def _init_false(value) -> bool:
    return (
        isinstance(value, ast.Call)
        and getattr(value.func, "attr", getattr(value.func, "id", "")) == "field"
        and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in value.keywords
        )
    )


def _parameters(fn: ast.FunctionDef, bound: bool):
    """``(name, position or None, defaulted)`` of each parameter."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0:]
    first_default = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        yield arg.arg, i, i >= first_default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        yield arg.arg, None, default is not None


def _settable_values():
    """``[(label, file:line, callee, name, position, is_field)]``."""
    values = []
    for path, tree in _modules(("src",)):
        where = str(path.relative_to(ROOT))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            if isinstance(node, ast.FunctionDef):
                for name, position, defaulted in _parameters(node, bound=False):
                    if defaulted:
                        values.append(
                            (f"{node.name}({name}=)", f"{where}:{node.lineno}",
                             node.name, name, position, False)
                        )
                continue
            if _is_dataclass(node):
                position = 0
                for member in node.body:
                    if not isinstance(member, ast.AnnAssign):
                        continue
                    if not isinstance(member.target, ast.Name):
                        continue
                    if "ClassVar" in ast.unparse(member.annotation) or _init_false(member.value):
                        continue
                    if member.value is not None:
                        values.append(
                            (f"{node.name}.{member.target.id}", f"{where}:{member.lineno}",
                             node.name, member.target.id, position, True)
                        )
                    position += 1
            for member in node.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                if member.name[0] == "_" and member.name != "__init__":
                    continue
                static = any(getattr(d, "id", "") == "staticmethod" for d in member.decorator_list)
                init = member.name == "__init__"
                for name, position, defaulted in _parameters(member, bound=not static):
                    if defaulted:
                        label = (
                            f"{node.name}({name}=)" if init
                            else f"{node.name}.{member.name}({name}=)"
                        )
                        values.append(
                            (label, f"{where}:{member.lineno}",
                             node.name if init else member.name, name, position, False)
                        )
    return values


def _mark(set_values, by_callee, callee, args, keywords) -> None:
    """Record the values of ``callee`` that ``args`` and ``keywords`` pass."""
    names = {kw.arg for kw in keywords}
    starred = any(isinstance(arg, ast.Starred) for arg in args)
    for name, position in by_callee.get(callee, ()):
        if (
            name in names
            or None in names
            or (position is not None and (position < len(args) or starred))
        ):
            set_values.add((callee, name))


def _values_set_by_callers(values) -> set[tuple[str, str]]:
    """``(callee, name)`` pairs some caller in OPTION_CALLERS passes."""
    by_callee: dict[str, list[tuple[str, int | None]]] = {}
    fields: dict[str, set[str]] = {}
    for _, _, callee, name, position, is_field in values:
        by_callee.setdefault(callee, []).append((name, position))
        if is_field:
            fields.setdefault(name, set()).add(callee)
    set_values: set[tuple[str, str]] = set()
    for _, tree in _modules(OPTION_CALLERS):

        def visit(node, enclosing):
            if isinstance(node, ast.ClassDef):
                enclosing = node.name
            if isinstance(node, ast.Call):
                func = node.func
                callee = getattr(func, "attr", getattr(func, "id", None))
                if callee == "cls" and enclosing is not None:
                    callee = enclosing
                if callee == "replace":
                    for name in {kw.arg for kw in node.keywords}:
                        set_values.update((owner, name) for owner in fields.get(name, ()))
                _mark(set_values, by_callee, callee, node.args, node.keywords)
                # A wrapper that takes the callee as an argument, such as
                # tracer.call(label, fn, *args, **kwargs) or
                # benchmark.pedantic(fn, args=(...), kwargs=dict(...)),
                # passes the arguments after it on to the callee.
                for i, arg in enumerate(node.args):
                    inner = getattr(arg, "attr", getattr(arg, "id", None))
                    if inner not in by_callee or not isinstance(arg, (ast.Name, ast.Attribute)):
                        continue
                    args, kws = list(node.args[i + 1:]), []
                    for kw in node.keywords:
                        if kw.arg == "args" and isinstance(kw.value, ast.Tuple):
                            args += kw.value.elts
                        elif kw.arg == "kwargs" and isinstance(kw.value, ast.Call):
                            kws += kw.value.keywords
                        else:
                            kws.append(kw)
                    _mark(set_values, by_callee, inner, args, kws)
            for child in ast.iter_child_nodes(node):
                visit(child, enclosing)

        visit(tree, None)
    return set_values


def _unset_values():
    values = _settable_values()
    set_values = _values_set_by_callers(values)
    unset = [(label, where) for label, where, callee, name, _, _ in values
             if (callee, name) not in set_values]
    return values, unset


def test_every_option_has_a_caller_outside_tests():
    values, unset = _unset_values()
    print(
        f"settable values: {len(values)} defaulted, {len(unset)} set by no "
        f"caller, {len(SETTABLE)} allowlisted"
    )
    loose = [f"  {where} {label}" for label, where in unset if label not in SETTABLE]
    assert not loose, (
        f"{len(loose)} values only tests set (or nothing); write each once as "
        "a constant:\n" + "\n".join(loose)
    )


def test_the_option_allowlist_names_live_unset_values():
    _, unset = _unset_values()
    labels = {label for label, _ in unset}
    stale = [label for label in SETTABLE if label not in labels]
    assert not stale, f"allowlisted values that are gone or now set by a caller: {stale}"
