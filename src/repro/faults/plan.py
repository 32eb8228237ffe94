"""Fault plans: declarative, seeded, JSON-serializable fault schedules.

A :class:`FaultPlan` is the experiment-side description of every substrate
misbehaviour one run should suffer. It is deliberately *dumb data*: the plan
says *what* breaks, *when*, *for how long* and *how hard*; the
:class:`~repro.faults.injector.FaultInjector` owns the mechanics of breaking
it and the mediator's resilience layer owns surviving it. Plans are frozen
and serializable so a faulty run is exactly reproducible from a JSON file
plus a seed (the acceptance contract: same plan + same seed => identical
timeline).

Fault classes (``FaultSpec.kind`` / ``mode``):

======== ============ ====================================================
kind      mode         effect while active
======== ============ ====================================================
rapl      drop         knob writes are silently ignored (stuck actuator)
rapl      partial      only the DVFS field of a write lands (torn write)
rapl      stale        writes land but readback reports the pre-fault knob
telemetry drop         wall-power samples are lost (no reading this tick)
telemetry stale        samples repeat the last pre-fault value, marked unfresh
telemetry noise        samples gain seeded gaussian noise of ``magnitude`` W
battery   outage       the ESD refuses all charge/discharge flows
battery   derate       max discharge power is scaled by ``magnitude``
battery   fade         capacity permanently scaled by ``1 - magnitude``
app       crash        the target exits unexpectedly (forced E3, once)
app       hang         the target stops progressing but keeps drawing power
node      outage       a whole cluster server is down (cluster scope)
pdu       outage       a whole PDU-level subtree is dark (hierarchy scope)
rack      outage       a whole rack-level subtree is dark (hierarchy scope)
======== ============ ====================================================

``target`` names the affected application for ``app`` faults (``None``
resolves to the alphabetically first managed application at fire time, which
keeps canned plans independent of any specific mix). For ``node`` faults the
target is the failed server's index as a decimal string; for ``pdu`` and
``rack`` faults it is the failure domain's dotted tree path (``"2"``,
``"2.0"``). The per-server
:class:`~repro.faults.injector.FaultInjector` skips all three entirely -
``node`` specs are consumed by the cluster layer
(:func:`~repro.cluster.cluster.outages_from_fault_plan`) and the
failure-domain specs by the hierarchy layer
(:func:`~repro.hierarchy.tree.subtree_outages_from_fault_plan`) - so one
plan file can describe single-server substrate faults, cluster-level node
kills, and datacenter failure domains together.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import FaultError
from repro.schema import Validator

#: Validator used by every fault-plan loader: malformed input fails with a
#: single :class:`FaultError` naming the offending JSON path.
_VALID = Validator(FaultError)

#: Allowed (kind, mode) combinations, mirroring the table above.
FAULT_MODES: dict[str, tuple[str, ...]] = {
    "rapl": ("drop", "partial", "stale"),
    "telemetry": ("drop", "stale", "noise"),
    "battery": ("outage", "derate", "fade"),
    "app": ("crash", "hang"),
    "node": ("outage",),
    "pdu": ("outage",),
    "rack": ("outage",),
}

#: Kinds the per-server injector never handles itself (consumed by the
#: cluster / hierarchy layers, which convert them to outage windows).
SCOPED_KINDS = frozenset({"node", "pdu", "rack"})

#: Modes that fire once at ``start_s`` instead of spanning a window.
INSTANT_MODES = {("app", "crash"), ("battery", "fade")}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes:
        kind: Fault class (see :data:`FAULT_MODES`).
        mode: Sub-mode within the class.
        start_s: Simulation time the fault begins.
        duration_s: Window length; ignored (may be 0) for instantaneous
            modes (``app/crash``, ``battery/fade``).
        target: Application name for ``app`` faults; ``None`` resolves at
            fire time.
        magnitude: Mode-specific intensity - noise std in watts for
            ``telemetry/noise``, discharge scale for ``battery/derate``,
            capacity fraction lost for ``battery/fade``. Unused otherwise.
    """

    kind: str
    mode: str
    start_s: float
    duration_s: float = 0.0
    target: str | None = None
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_MODES:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; have {sorted(FAULT_MODES)}"
            )
        if self.mode not in FAULT_MODES[self.kind]:
            raise FaultError(
                f"unknown mode {self.mode!r} for kind {self.kind!r}; "
                f"have {FAULT_MODES[self.kind]}"
            )
        if self.start_s < 0:
            raise FaultError(f"fault start must be non-negative, got {self.start_s}")
        if self.duration_s < 0:
            raise FaultError(f"fault duration must be non-negative, got {self.duration_s}")
        if not self.instantaneous and self.duration_s == 0:
            raise FaultError(
                f"windowed fault {self.kind}/{self.mode} needs a positive duration"
            )
        if self.kind == "battery" and self.mode in ("derate", "fade"):
            if not 0.0 < self.magnitude < 1.0:
                raise FaultError(
                    f"battery/{self.mode} magnitude must be in (0, 1), "
                    f"got {self.magnitude}"
                )
        if self.kind == "telemetry" and self.mode == "noise" and self.magnitude <= 0:
            raise FaultError("telemetry/noise needs a positive magnitude (watts)")
        if self.kind == "node":
            if self.target is None or not self.target.isdigit():
                raise FaultError(
                    "node/outage target must be the failed server's index "
                    f"as a decimal string, got {self.target!r}"
                )
        if self.kind in ("pdu", "rack"):
            parts = self.target.split(".") if self.target else []
            if not parts or not all(p.isdigit() for p in parts):
                raise FaultError(
                    f"{self.kind}/outage target must be the failure domain's "
                    f"dotted tree path like '2' or '2.0', got {self.target!r}"
                )

    @property
    def instantaneous(self) -> bool:
        """Whether this fault fires once instead of spanning a window."""
        return (self.kind, self.mode) in INSTANT_MODES

    @property
    def end_s(self) -> float:
        """Exclusive end of the fault window (== start for instant faults)."""
        return self.start_s + (0.0 if self.instantaneous else self.duration_s)

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "mode": self.mode,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "target": self.target,
            "magnitude": self.magnitude,
        }
        return out

    @classmethod
    def from_dict(cls, data: dict, *, where: str = "fault spec") -> "FaultSpec":
        """Build a spec from a plain dict, validating field by field.

        Args:
            data: The raw mapping, e.g. one entry of a plan's ``faults``.
            where: JSON path prefix used in error messages, so a bad field in
                the third fault of a plan reports as ``faults[2].start_s``.
        """
        obj = _VALID.as_dict(data, where)
        kind = _VALID.choice(
            _VALID.require(obj, "kind", where), f"{where}.kind", tuple(FAULT_MODES)
        )
        mode = _VALID.choice(
            _VALID.require(obj, "mode", where), f"{where}.mode", FAULT_MODES[kind]
        )
        target = obj.get("target")
        if target is not None:
            target = _VALID.as_str(target, f"{where}.target")
        try:
            return cls(
                kind=kind,
                mode=mode,
                start_s=_VALID.as_number(
                    _VALID.require(obj, "start_s", where), f"{where}.start_s"
                ),
                duration_s=_VALID.as_number(
                    obj.get("duration_s", 0.0), f"{where}.duration_s"
                ),
                target=target,
                magnitude=_VALID.as_number(
                    obj.get("magnitude", 0.0), f"{where}.magnitude"
                ),
            )
        except FaultError as exc:
            # Semantic checks in __post_init__ do not know the JSON path; add it.
            message = str(exc)
            if not message.startswith(where):
                raise FaultError(f"{where}: {message}") from None
            raise


@dataclass(frozen=True)
class FaultPlan:
    """A complete, ordered schedule of faults for one run.

    Attributes:
        specs: The faults, kept sorted by ``(start_s, kind, mode)`` so two
            plans with the same content inject identically.
        seed: Seed for every stochastic fault effect (telemetry noise).
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.specs, key=lambda s: (s.start_s, s.kind, s.mode, s.target or ""))
        )
        object.__setattr__(self, "specs", ordered)

    def __len__(self) -> int:
        return len(self.specs)

    # -------------------------------------------------------- serialization

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "faults": [s.to_dict() for s in self.specs]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"fault plan is not valid JSON: {exc}") from None
        obj = _VALID.as_dict(data, "fault plan")
        items = _VALID.as_list(_VALID.require(obj, "faults", "fault plan"), "faults")
        specs = tuple(
            FaultSpec.from_dict(item, where=f"faults[{i}]")
            for i, item in enumerate(items)
        )
        return cls(specs=specs, seed=_VALID.as_int(obj.get("seed", 0), "seed"))

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        """Read a plan from a JSON file."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        except OSError as exc:
            raise FaultError(f"cannot read fault plan {path!r}: {exc}") from None


def default_fault_plan(*, seed: int = 0) -> FaultPlan:
    """The acceptance plan: each fault class enabled once over ~50 s.

    The windows are staggered so every resilience mechanism is exercised in
    isolation before any overlap: an application hang (zero progress at full
    power), a stuck RAPL actuator, a wall-telemetry blackout, a battery
    outage mid-duty-cycle, and finally an unexpected crash.
    """
    return FaultPlan(
        specs=(
            FaultSpec(kind="app", mode="hang", start_s=6.0, duration_s=4.0),
            FaultSpec(kind="rapl", mode="drop", start_s=14.0, duration_s=4.0),
            FaultSpec(kind="telemetry", mode="drop", start_s=22.0, duration_s=3.0),
            FaultSpec(
                kind="telemetry", mode="noise", start_s=28.0, duration_s=3.0,
                magnitude=0.8,
            ),
            FaultSpec(kind="battery", mode="outage", start_s=34.0, duration_s=5.0),
            FaultSpec(kind="app", mode="crash", start_s=42.0),
        ),
        seed=seed,
    )
