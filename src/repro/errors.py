"""Exception hierarchy for the power-struggle mediation framework.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so callers
can catch the whole family with a single ``except`` clause. The sub-classes mirror
the major subsystems: server simulation, knob actuation, power accounting, energy
storage, learning, and allocation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class ConfigurationError(ReproError):
    """An object was constructed or reconfigured with invalid parameters.

    Examples: a negative power cap, a DVFS frequency outside the hardware's
    supported range, a workload profile with a non-positive work size.
    """


class KnobError(ReproError):
    """A power-allocation knob was actuated with an unsupported setting.

    The knob space of the paper's platform is discrete: 9 DVFS steps between
    1.2 and 2.0 GHz, 1-6 cores per application, and 3-10 W of DRAM power in
    1 W units. Any setting outside these sets raises :class:`KnobError`.
    """


class PowerBudgetError(ReproError):
    """A requested allocation cannot be satisfied within the power budget.

    Raised, for example, when the server cap is below idle power (nothing the
    controller does can help) or when an allocator is asked to divide a budget
    that cannot sustain even the cheapest configuration of any application and
    no temporal-coordination fallback was permitted.
    """


class BatteryError(ReproError):
    """An energy-storage operation violated the device's physical limits.

    Examples: discharging an empty battery, charging above the maximum charge
    power, or constructing a battery with a non-positive capacity.
    """


class LearningError(ReproError):
    """A collaborative-filtering operation could not be performed.

    Examples: folding in an application with zero sampled configurations, or
    factorizing an empty preference matrix.
    """


class SchedulingError(ReproError):
    """An application lifecycle operation was invalid.

    Examples: starting an application that is already running on the server,
    removing an application that was never admitted, or admitting more
    applications than the server has isolable core groups for.
    """


class SimulationError(ReproError):
    """The discrete-time simulation reached an inconsistent state.

    This indicates a bug in a policy or in the engine itself - e.g. the power
    model reporting a draw above the enforced cap after coordination, or time
    moving backwards.
    """


class FaultError(ReproError):
    """A fault-injection plan or operation was invalid.

    Examples: a fault spec with an unknown kind, a negative start time, or an
    injector asked to act on a server component the fault class does not
    target. Note that *injected* faults never raise - they degrade the
    substrate; this exception covers misuse of the injection machinery itself.
    """


class PersistenceError(ReproError):
    """Checkpoint/journal state could not be saved or restored.

    The message is always a single line naming what failed and where
    (schema version mismatch, offending field path, torn record index), so
    a CLI can surface it verbatim instead of a traceback.
    """


class CheckpointError(PersistenceError):
    """A checkpoint file is unreadable, corrupt, or version-incompatible."""


class JournalError(PersistenceError):
    """A run journal is corrupt beyond the torn-tail recovery rule.

    A malformed *final* record is expected after a crash (the torn tail) and
    silently dropped; a malformed record in the journal's interior means the
    file was damaged, and replaying past it would diverge from the run it
    records.
    """


class ObservabilityError(ReproError):
    """Observability data (trace or metrics JSON) is invalid or inconsistent.

    Like :class:`PersistenceError`, the message is always a single line
    naming what failed and where, so the CLI can surface it verbatim.
    """


class TraceError(ObservabilityError):
    """A trace file is unreadable, malformed, or violates a run invariant.

    Examples: a JSONL line that does not parse, a sequence-number gap, a
    tick event whose wall power exceeds the recorded cap without a breach
    flag, or a battery state of charge outside [0, 1].
    """


class ServiceError(ReproError):
    """The streaming service facade was misused or violated a stream invariant.

    Examples: submitting to a closed ingest buffer, a client session whose
    replay cursor points past the retained delivery window, or a delivery
    sequence gap detected on reconnect. Like :class:`PersistenceError`, the
    message is a single line suitable for verbatim CLI display.
    """


class NetworkError(ReproError):
    """A simulated-network or control-plane configuration is invalid.

    Examples: a loss probability outside [0, 1], a partition window that
    ends before it starts, a malformed ``--partition`` spec on the CLI, or
    a control-plane lease shorter than the heartbeat interval. Like
    :class:`PersistenceError`, the message is a single line suitable for
    verbatim CLI display.
    """


class AdversaryError(ReproError):
    """An adversary schedule or strategic-workload operation was invalid.

    Examples: an attack spec with an unknown kind, a non-positive magnitude,
    a probe whose burst is longer than its period, or registering an attack
    for an application twice. Note that *executed* attacks never raise - they
    degrade honest tenants until the defenses quarantine them; this exception
    covers misuse of the attack machinery itself. The message is a single
    line suitable for verbatim CLI display.
    """


class RetryExhaustedError(ReproError):
    """A retried operation ran out of its attempts.

    Raised by :meth:`repro.util.retry.RetryPolicy.require` when the bounded
    attempt count is spent. The message is a single line naming the
    operation, so callers that degrade gracefully (actuation escalation,
    control-plane safe-cap fallback) can log it verbatim before parking the
    work.
    """


class ChaosError(ReproError):
    """A chaos-soak run violated a recovery invariant.

    Raised when a kill/restart schedule produces a sustained cap breach, a
    non-conserved battery ledger, or a final utility outside the configured
    tolerance of the uninterrupted baseline.
    """
