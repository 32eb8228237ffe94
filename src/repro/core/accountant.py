"""Accountant: cap/app bookkeeping and event detection (Section III-C).

"The accountant keeps track of the server power cap, scheduled applications,
and the status of each application. ... The accountant periodically polls the
status of the application and the server power draw. It triggers E3, if an
application has finished execution. It triggers E4, if the power draw of an
application changes significantly from its allocated power budget."

E1 (cap change) and E2 (arrival) are explicit messages; the Accountant
stamps and logs them. E3 and E4 come out of :meth:`Accountant.poll`, which
the mediator calls once per tick. E4 detection is debounced
(:data:`DEVIATION_POLLS` consecutive deviating polls) so transient knob-switching noise and
duty-cycle edges do not thrash re-calibration, and suppressed entirely in
temporal-coordination modes, where an application's instantaneous draw is
*supposed* to swing between zero and its ON power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.observability.trace import NULL_TRACE_BUS, TraceBus
from repro.core.coordinator import AllocationPlan, CoordinationMode
from repro.core.events import (
    ArrivalEvent,
    CapChangeEvent,
    DepartureEvent,
    Event,
    FaultEvent,
    PhaseChangeEvent,
    RecoveryEvent,
    event_from_dict,
    event_to_dict,
)
from repro.server.server import SimulatedServer, TickResult
from repro.workloads.profiles import WorkloadProfile


#: Absolute per-app deviation from the allocated budget that counts as
#: "significant" for E4.
DEVIATION_THRESHOLD_W = 3.0
#: Consecutive deviating polls before E4 fires.
DEVIATION_POLLS = 5


class Accountant:
    """Polls server state and raises the E1-E4 events of the paper.

    Args:
        server: The server being watched.
    """

    def __init__(self, server: SimulatedServer) -> None:
        self._server = server
        self._p_cap_w: float | None = None
        self._plan: AllocationPlan | None = None
        self._deviation_counts: dict[str, int] = {}
        self._suppressed: set[str] = set()
        self._log: list[Event] = []
        #: Trace sink for the E1-E4/F/R stream; the mediator re-points this
        #: when a bus is attached. Not serialized - traces belong to a run.
        self.trace_bus: TraceBus = NULL_TRACE_BUS

    # ------------------------------------------------------------- messages

    @property
    def p_cap_w(self) -> float | None:
        """The cap currently being enforced (``None`` before the first E1)."""
        return self._p_cap_w

    @property
    def event_log(self) -> list[Event]:
        """All events raised so far, in order (copies are cheap views)."""
        return list(self._log)

    def notify_cap_change(self, new_cap_w: float) -> CapChangeEvent:
        """E1 message: the server's budget changed.

        Raises:
            ConfigurationError: unless ``new_cap_w`` is finite and positive.
        """
        if not (math.isfinite(new_cap_w) and new_cap_w > 0):
            raise ConfigurationError(
                f"cap must be finite and positive, got {new_cap_w!r}"
            )
        self._p_cap_w = new_cap_w
        event = CapChangeEvent(time_s=self._server.now_s, new_cap_w=new_cap_w)
        self._log.append(event)
        self.trace_bus.emit("cap-change", {"at_s": event.time_s, "new_cap_w": new_cap_w})
        return event

    def notify_arrival(self, profile: WorkloadProfile) -> ArrivalEvent:
        """E2 message: a new application was scheduled here."""
        event = ArrivalEvent(time_s=self._server.now_s, profile=profile)
        self._log.append(event)
        self.trace_bus.emit("arrival", {"at_s": event.time_s, "app": profile.name})
        return event

    def adopt_plan(self, plan: AllocationPlan) -> None:
        """Reset deviation tracking against a fresh allocation."""
        self._plan = plan
        self._deviation_counts.clear()
        self._suppressed.clear()

    def notify_fault(
        self, kind: str, target: str | None = None, detail: str = ""
    ) -> FaultEvent:
        """F message: a substrate fault was injected or detected."""
        event = FaultEvent(
            time_s=self._server.now_s, kind=kind, target=target, detail=detail
        )
        self._log.append(event)
        self.trace_bus.emit(
            "fault", {"at_s": event.time_s, "kind": kind, "target": target, "detail": detail}
        )
        return event

    def notify_recovery(
        self, kind: str, target: str | None = None, detail: str = ""
    ) -> RecoveryEvent:
        """R message: a previously raised fault cleared."""
        event = RecoveryEvent(
            time_s=self._server.now_s, kind=kind, target=target, detail=detail
        )
        self._log.append(event)
        self.trace_bus.emit(
            "recovery", {"at_s": event.time_s, "kind": kind, "target": target, "detail": detail}
        )
        return event

    # ---------------------------------------------------------- persistence

    def state_dict(self, *, log_from: int = 0) -> dict:
        """Snapshot the cap, ledgers, debounce counters, and event log.

        The adopted plan is *not* serialized here - the coordinator owns the
        canonical copy, and :meth:`load_state_dict` re-links to it so both
        components keep referring to the same object after a restore.

        Args:
            log_from: Leave the first ``log_from`` events out of ``log``, for
                a caller that already holds them; the snapshot restores only
                once they are put back in front.
        """
        if not 0 <= log_from <= len(self._log):
            raise ValueError(f"log_from must be in [0, {len(self._log)}], got {log_from}")
        return {
            "p_cap_w": self._p_cap_w,
            "deviation_counts": dict(self._deviation_counts),
            "suppressed": sorted(self._suppressed),
            "log": [event_to_dict(event) for event in self._log[log_from:]],
        }

    def load_state_dict(self, state: dict, *, plan: AllocationPlan | None) -> None:
        """Restore a :meth:`state_dict` snapshot exactly.

        Args:
            state: The snapshot.
            plan: The coordinator's restored plan; passed in (rather than
                deserialized twice) so deviation tracking and execution keep
                sharing one plan object, as they do in a live run.
        """
        cap = state["p_cap_w"]
        self._p_cap_w = None if cap is None else float(cap)
        self._plan = plan
        self._deviation_counts = {
            app: int(count) for app, count in state["deviation_counts"].items()
        }
        self._suppressed = set(state["suppressed"])
        self._log = [event_from_dict(item) for item in state["log"]]

    # -------------------------------------------------------------- polling

    def poll(self, result: TickResult, *, telemetry_fresh: bool = True) -> list[Event]:
        """Inspect one tick; returns any E3/E4 events raised.

        E3: applications whose completion this tick reported.
        E4: applications whose measured draw deviated from their allocated
        budget for :data:`DEVIATION_POLLS` consecutive polls (SPACE mode only -
        see the module docstring).

        Args:
            result: The tick to inspect.
            telemetry_fresh: Whether this tick's power samples reflect the
                current tick. E4 detection is suppressed on stale samples -
                a frozen reading that happens to deviate says nothing about
                the application's behaviour, and re-calibrating from it
                would poison the utility estimates.
        """
        events: list[Event] = []
        for name in result.completed:
            event = DepartureEvent(time_s=result.time_s, app=name, completed=True)
            self._log.append(event)
            self.trace_bus.emit(
                "departure", {"at_s": result.time_s, "app": name, "completed": True}
            )
            events.append(event)
        if (
            telemetry_fresh
            and self._plan is not None
            and self._plan.mode is CoordinationMode.SPACE
            and self._plan.allocation is not None
        ):
            for name, expected in self._plan.allocation.apps.items():
                if expected.excluded or name in self._suppressed:
                    continue
                if name in result.completed or name not in result.breakdown.app_w:
                    continue
                observed = result.breakdown.app_w[name]
                if abs(observed - expected.power_w) > DEVIATION_THRESHOLD_W:
                    self._deviation_counts[name] = self._deviation_counts.get(name, 0) + 1
                else:
                    self._deviation_counts[name] = 0
                if self._deviation_counts[name] >= DEVIATION_POLLS:
                    event = PhaseChangeEvent(
                        time_s=result.time_s,
                        app=name,
                        observed_power_w=observed,
                        allocated_power_w=expected.power_w,
                    )
                    self._log.append(event)
                    self.trace_bus.emit(
                        "phase-change",
                        {
                            "at_s": result.time_s,
                            "app": name,
                            "observed_w": observed,
                            "allocated_w": expected.power_w,
                        },
                    )
                    events.append(event)
                    # One E4 per app per plan epoch; the re-allocation it
                    # triggers resets suppression via adopt_plan().
                    self._suppressed.add(name)
                    self._deviation_counts[name] = 0
        return events
