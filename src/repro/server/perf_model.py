"""Bottleneck performance model: work rate as a function of the (f, n, m) knobs.

The model is roofline-style. An application has two candidate rates:

* a **compute rate** - how fast its cores could retire work if DRAM were
  infinitely fast: ``base_rate * amdahl_speedup(n) * (f / f_max) ** s`` where
  ``s`` is the profile's DVFS sensitivity;
* a **memory rate** - how fast DRAM could feed it: the usable bandwidth under
  the DRAM allocation ``m`` (and under the cores' ability to generate requests)
  divided by the profile's bytes-per-work.

The achieved rate is a *smooth minimum* of the two. A hard ``min`` would make
utility curves piecewise-linear with a kink exactly at the crossover; real
machines overlap computation with memory traffic imperfectly, so the smooth
minimum (a p-norm blend with exponent ``bottleneck_sharpness``) produces the
rounded knees visible in the paper's Fig. 2 utility curves.

Crucially, co-located applications do **not** interact through this model:
the paper's premise (Section II-A) is that direct resources are partitioned -
each app has its own cores, LLC slice and DIMM - so all interference flows
through the shared power budget. That isolation is what makes the power
struggle the quantity under study.
"""

from __future__ import annotations

from repro.server.config import KnobSetting, ServerConfig
from repro.workloads.profiles import WorkloadProfile


class PerformanceModel:
    """Evaluates application work rates on a given server configuration.

    Args:
        config: The server whose DVFS range, DRAM calibration and bottleneck
            sharpness parameterize the model.
    """

    def __init__(self, config: ServerConfig) -> None:
        self._config = config

    @property
    def config(self) -> ServerConfig:
        """The server configuration this model was built for."""
        return self._config

    # -------------------------------------------------------------- elements

    def compute_rate(self, profile: WorkloadProfile, knob: KnobSetting) -> float:
        """Work rate (units/s) if the app were purely compute-bound.

        Scales with Amdahl speedup over ``knob.cores`` and with relative
        frequency raised to the profile's DVFS sensitivity.
        """
        cfg = self._config
        freq_factor = (knob.freq_ghz / cfg.freq_max_ghz) ** profile.dvfs_sensitivity
        return profile.base_rate * profile.amdahl_speedup(knob.cores) * freq_factor

    def usable_bandwidth_gbs(self, knob: KnobSetting) -> float:
        """DRAM bandwidth (GB/s) available under the allocation ``m``.

        The DRAM RAPL allocation first covers the DIMM's background power;
        the remainder buys bandwidth at ``dram_w_per_gbs``. Independently,
        ``n`` cores at frequency ``f`` can only generate a finite request
        stream, modelled as ``n * core_bw_gbs`` scaled by a weak frequency
        factor (memory requests issue from the core pipeline, so the slowest
        DVFS state still sustains 80% of peak per-core traffic).
        """
        cfg = self._config
        allocation_bw = max(0.0, knob.dram_power_w - cfg.dram_static_w) / cfg.dram_w_per_gbs
        freq_factor = 0.5 + 0.5 * (knob.freq_ghz / cfg.freq_max_ghz)
        core_pull_bw = knob.cores * cfg.core_bw_gbs * freq_factor
        return min(allocation_bw, core_pull_bw)

    def memory_rate(self, profile: WorkloadProfile, knob: KnobSetting) -> float:
        """Work rate (units/s) if the app were purely bandwidth-bound.

        ``float("inf")`` for profiles that generate no DRAM traffic.
        """
        if profile.mem_gb_per_work == 0.0:
            return float("inf")
        return self.usable_bandwidth_gbs(knob) / profile.mem_gb_per_work

    # -------------------------------------------------------------- combined

    def rate(self, profile: WorkloadProfile, knob: KnobSetting) -> float:
        """Achieved work rate (units/s): smooth minimum of compute and memory.

        With sharpness ``s`` the blend is ``(rc^-s + rm^-s)^(-1/s)``, which
        approaches ``min(rc, rm)`` as ``s`` grows and never exceeds it... by
        more than the overlap the exponent allows. A zero memory rate (DRAM
        allocation at or below background power for a traffic-generating app)
        yields zero.
        """
        rc = self.compute_rate(profile, knob)
        rm = self.memory_rate(profile, knob)
        if rm == float("inf"):
            return rc
        if rm <= 0.0 or rc <= 0.0:
            return 0.0
        s = self._config.bottleneck_sharpness
        return (rc ** (-s) + rm ** (-s)) ** (-1.0 / s)

    def core_utilization(self, profile: WorkloadProfile, knob: KnobSetting) -> float:
        """Fraction of compute capability actually used, in ``[0, 1]``.

        The power model scales core dynamic power by this: cores stalled on
        DRAM clock-gate and draw less. Equal to ``rate / compute_rate``.
        """
        rc = self.compute_rate(profile, knob)
        if rc <= 0.0:
            return 0.0
        return min(1.0, self.rate(profile, knob) / rc)

    def achieved_bandwidth_gbs(self, profile: WorkloadProfile, knob: KnobSetting) -> float:
        """DRAM traffic (GB/s) actually generated at the achieved rate."""
        return self.rate(profile, knob) * profile.mem_gb_per_work

    def peak_rate(self, profile: WorkloadProfile) -> float:
        """Rate at the uncapped knob setting (f_max, n_max, m_max).

        This is the paper's ``Perf_nocap`` denominator: performance on the
        consolidated server in the absence of power caps (direct resources
        are partitioned, so the uncapped co-located rate equals the uncapped
        isolated rate).
        """
        return self.rate(profile, self._config.max_knob)
