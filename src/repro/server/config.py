"""Server configuration: Table I of the paper, plus the discrete knob space.

The paper's platform (Table I):

======================  =====================
Processor               Xeon-2620 (dual socket)
Cores                   12 (6 per socket)
Frequency               1.2 - 2.0 GHz
Frequency steps         9 (100 MHz grain)
LLC                     15 MB per socket
Memory                  8 GB DDR3, one DIMM + memory controller per socket
NUMA                    2 nodes
P_idle                  50 W
P_cm                    20 W
P_dynamic (max)         60 W
======================  =====================

and the per-application allocation knobs (Section II-B):

* ``f`` in {1.2, 1.3, ..., 2.0} GHz (per-core DVFS),
* ``n`` in {1, ..., 6} cores (core consolidation; one socket per app),
* ``m`` in {3, 4, ..., 10} W (DRAM RAPL power for the app's DIMM).

:class:`ServerConfig` also carries the power/performance model calibration
constants that the paper leaves implicit (peak per-core dynamic power, DRAM
bandwidth per watt, ...). The defaults are chosen so the worked examples in
Section II of the paper come out right: an application running alone draws
about 20 W of dynamic power (server total 90 W), and the cheapest runnable
configuration of an application needs about 10 W.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, KnobError


def frange(start: float, stop: float, step: float) -> list[float]:
    """Inclusive float range with stable rounding.

    Builds discrete knob spaces like the 9 DVFS steps from 1.2 to 2.0 GHz in
    0.1 GHz increments without float-accumulation drift:

    >>> frange(1.2, 2.0, 0.1)
    [1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0]
    """
    if step <= 0:
        raise ValueError("step must be positive")
    count = int(round((stop - start) / step)) + 1
    if count < 1:
        return []
    return [round(start + i * step, 10) for i in range(count)]


@dataclass(frozen=True, order=True)
class KnobSetting:
    """One point in the per-application allocation-knob space.

    Attributes:
        freq_ghz: Per-core DVFS frequency ``f`` of the app's cores.
        cores: Number of cores ``n`` the app is consolidated onto.
        dram_power_w: DRAM RAPL power allocation ``m`` for the app's DIMM.
    """

    freq_ghz: float
    cores: int
    dram_power_w: float

    def __str__(self) -> str:
        return f"(f={self.freq_ghz:.1f}GHz, n={self.cores}, m={self.dram_power_w:.0f}W)"

    def to_json(self) -> list:
        """The compact ``[f, n, m]`` form used by checkpoints and journals."""
        return [self.freq_ghz, self.cores, self.dram_power_w]

    @classmethod
    def from_json(cls, data: list) -> "KnobSetting":
        """Inverse of :meth:`to_json`."""
        f, n, m = data
        return cls(freq_ghz=float(f), cores=int(n), dram_power_w=float(m))


@dataclass(frozen=True)
class ServerConfig:
    """Immutable description of the simulated server: Table I's values, as
    constants. Only ``rapl_guard_band`` is settable (the guard-band ablation
    sweeps it).

    Structural parameters:

    Attributes:
        sockets: Number of CPU sockets (NUMA nodes).
        cores_per_socket: Cores on each socket.
        llc_mb_per_socket: Last-level cache size per socket (reporting only).
        memory_gb: Installed DRAM (reporting only).
        freq_min_ghz / freq_max_ghz / freq_step_ghz: The DVFS range; the
            defaults yield the paper's 9 steps between 1.2 and 2.0 GHz.
        cores_min / cores_max: Core-consolidation range per application.
        dram_power_min_w / dram_power_max_w / dram_power_step_w: DRAM RAPL
            allocation range per DIMM.

    Power-model calibration (see :mod:`repro.server.power_model`):

    Attributes:
        p_idle_w: Baseline server draw with all sockets in package sleep -
            fans, disks, DRAM self-refresh, LLC leakage.
        p_cm_w: Chip-maintenance power: uncore components (LLC, on-chip
            network, memory controllers, QPI) that turn on when *any* core
            runs, shared across all co-located applications.
        p_dynamic_max_w: Headroom above ``p_idle + p_cm`` at full load; with
            the defaults the server peaks at 130 W.
        p_core_peak_w: Dynamic power of one fully-active core at
            ``freq_max_ghz``.
        core_power_exponent: Exponent of ``(f / f_max)`` in per-core dynamic
            power. The 1.2-2.0 GHz knob range of the Xeon-2620 sits at or
            below the part's nominal voltage point, where voltage barely
            scales with frequency, so power is close to linear in f (~1.5).
        p_app_floor_w: Power to keep an application's core group schedulable
            at all - private-cache leakage out of sleep, core wake overhead.
            This is why the cheapest runnable configuration costs about 10 W
            (floor + one slow core + minimum DRAM), matching Section IV-B.
        dram_static_w: DRAM background power per active DIMM (always spent
            when the app's DIMM is out of self-refresh); counted against the
            app's DRAM allocation ``m``.
        dram_w_per_gbs: Incremental DRAM watts per GB/s of traffic. Together
            with ``dram_static_w`` this converts the allocation ``m`` into a
            usable bandwidth.
        core_bw_gbs: Peak DRAM bandwidth one core can generate at
            ``freq_max_ghz``; scales with frequency. Makes core consolidation
            a real trade-off for bandwidth-hungry applications.
        bottleneck_sharpness: Exponent of the smooth-min combining compute
            and memory rates in the performance model; larger is closer to a
            hard ``min``.
        rapl_guard_band: Fractional undershoot of hardware RAPL enforcement.
            RAPL meets an *average* limit with a windowed control loop and
            therefore tracks conservatively below it; policies that enforce
            budgets by direct knob selection (cpupower/taskset) do not pay
            this margin. Applied wherever the throttle-path emulation acts.

    Timing parameters:

    Attributes:
        pc6_wake_latency_s: Package deep-sleep wake latency (hundreds of
            microseconds per the paper's reference [47]).
        duty_cycle_period_s: Period of one ON/OFF duty cycle used by the
            temporal coordinator.
        resume_penalty_s: Work time lost when a suspended application
            resumes - its private-cache state was flushed during the OFF
            period (the paper's stated drawback of time coordination, R3b).
    """

    sockets: int = field(default=2, init=False)
    cores_per_socket: int = field(default=6, init=False)
    llc_mb_per_socket: float = field(default=15.0, init=False)
    memory_gb: float = field(default=8.0, init=False)

    freq_min_ghz: float = field(default=1.2, init=False)
    freq_max_ghz: float = field(default=2.0, init=False)
    freq_step_ghz: float = field(default=0.1, init=False)
    cores_min: int = field(default=1, init=False)
    cores_max: int = field(default=6, init=False)
    dram_power_min_w: float = field(default=3.0, init=False)
    dram_power_max_w: float = field(default=10.0, init=False)
    dram_power_step_w: float = field(default=1.0, init=False)

    p_idle_w: float = field(default=50.0, init=False)
    p_cm_w: float = field(default=20.0, init=False)
    p_dynamic_max_w: float = field(default=60.0, init=False)
    p_core_peak_w: float = field(default=2.5, init=False)
    core_power_exponent: float = field(default=1.5, init=False)
    p_app_floor_w: float = field(default=4.5, init=False)
    dram_static_w: float = field(default=2.5, init=False)
    dram_w_per_gbs: float = field(default=0.75, init=False)
    core_bw_gbs: float = field(default=3.0, init=False)
    bottleneck_sharpness: float = field(default=4.0, init=False)

    rapl_guard_band: float = 0.06

    pc6_wake_latency_s: float = field(default=300e-6, init=False)
    duty_cycle_period_s: float = field(default=10.0, init=False)
    resume_penalty_s: float = field(default=0.05, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.rapl_guard_band < 1.0:
            raise ConfigurationError("rapl_guard_band must be in [0, 1)")

    # ------------------------------------------------------------------ knobs

    @property
    def total_cores(self) -> int:
        """Total cores across all sockets (12 on the paper's platform)."""
        return self.sockets * self.cores_per_socket

    @property
    def frequencies_ghz(self) -> list[float]:
        """The discrete DVFS steps, ascending (9 steps by default)."""
        return frange(self.freq_min_ghz, self.freq_max_ghz, self.freq_step_ghz)

    @property
    def core_counts(self) -> list[int]:
        """The discrete core-consolidation settings, ascending."""
        return list(range(self.cores_min, self.cores_max + 1))

    @property
    def dram_powers_w(self) -> list[float]:
        """The discrete DRAM RAPL allocations, ascending (1 W grain)."""
        return frange(self.dram_power_min_w, self.dram_power_max_w, self.dram_power_step_w)

    def knob_space(self) -> list[KnobSetting]:
        """Every ``(f, n, m)`` combination, in deterministic order.

        This is the column space of the collaborative-filtering preference
        matrices; its order must be stable across runs, so it is defined once
        here (f-major, then n, then m: 9 x 6 x 8 = 432 columns by default).
        """
        return [
            KnobSetting(f, n, m)
            for f in self.frequencies_ghz
            for n in self.core_counts
            for m in self.dram_powers_w
        ]

    @property
    def max_knob(self) -> KnobSetting:
        """The uncapped setting: fastest frequency, all cores, full DRAM power."""
        return KnobSetting(self.freq_max_ghz, self.cores_max, self.dram_power_max_w)

    @property
    def min_knob(self) -> KnobSetting:
        """The cheapest runnable setting: slowest frequency, one core, min DRAM."""
        return KnobSetting(self.freq_min_ghz, self.cores_min, self.dram_power_min_w)

    def validate_knob(self, knob: KnobSetting) -> None:
        """Raise :class:`~repro.errors.KnobError` unless ``knob`` is a point
        of the discrete knob space."""
        freqs = self.frequencies_ghz
        if not any(abs(knob.freq_ghz - f) < 1e-9 for f in freqs):
            raise KnobError(
                f"frequency {knob.freq_ghz} GHz not in supported steps {freqs}"
            )
        if knob.cores not in self.core_counts:
            raise KnobError(f"core count {knob.cores} not in {self.core_counts}")
        if not any(abs(knob.dram_power_w - m) < 1e-9 for m in self.dram_powers_w):
            raise KnobError(
                f"DRAM power {knob.dram_power_w} W not in supported steps "
                f"{self.dram_powers_w}"
            )

    # ------------------------------------------------------------ power caps

    @property
    def uncapped_power_w(self) -> float:
        """Rated server power: idle + chip maintenance + full dynamic headroom."""
        return self.p_idle_w + self.p_cm_w + self.p_dynamic_max_w

    def dynamic_budget_w(self, p_cap_w: float) -> float:
        """Watts left for application dynamic power under ``p_cap_w``.

        This is the quantity the :class:`~repro.core.allocator.PowerAllocator`
        divides: ``P_cap - P_idle - P_cm`` (Eq. 2 with the ESD terms zero).
        Negative values mean not even chip-maintenance power fits, i.e. the
        server cannot run anything without an ESD.
        """
        return p_cap_w - self.p_idle_w - self.p_cm_w


#: The paper's platform, used by every experiment unless overridden.
DEFAULT_SERVER_CONFIG = ServerConfig()
