"""Fast segments behind :meth:`PowerMediator.run_for` on the vector engine.

The vector models (:mod:`repro.engine.models`) turn each model query
into a gather, but a mediated tick still walks the whole planning stack
— coordination, telemetry readback, heartbeat aggregation, cap
policing, defense scoring, event polling — in per-server Python, and
that stack, not the models, is where a tick's time goes. This module
replays those phases in closed form under the DESIGN.md §13 rules.

The key observation is that a mediator in *steady state* (no faults, no
plan epochs, no phase edges, no trust transitions, no
arrivals/departures) executes ticks whose per-tick quantities are either
constant or constant-increment accumulators:

* simulated time, per-app work done, histogram sums, battery charge
  ledgers, ESD phase elapsed, TIME slot elapsed — all of the form
  ``s += c`` with a constant ``c``;
* trust scores under zero violations — ``s *= decay``;
* RAPL energy counters — ``s = (s + c) % wrap``.

The kernels below *are* those folds, in plain Python floats:
``itertools.accumulate`` / ``functools.reduce`` over ``operator.add`` and
``operator.mul`` apply the scalar operation left to right, one IEEE
operation per tick, so they equal the scalar loop bit for bit by
construction (``tests/engine/test_planner.py`` pins each against the
literal loop). The builtin ``sum`` is never used: from CPython 3.12 it
compensates float sums and so is not the fold. A segment is a control
period or less (10 ticks on ``rack-fleet``), where a numpy call's
overhead would cost more than the arithmetic it replaces.

A vector-engine ``run_for`` therefore hands its mediator to
:func:`advance`, which moves it in *horizon segments*: it evaluates a set
of steady-state entry gates, computes a conservative tick horizon over
which no branchy decision can fire (duty-phase edge, TIME slot edge,
battery clip, E4 deviation threshold, defense cooldown expiry, cap
breach), trims it to the run window, counts exactly how many ticks each
finishing job can take before its completion tick, replays that many
ticks with the kernels, and materializes exactly the state the scalar
loop would have produced — timeline records, metrics, heartbeat
windows, trust records, accountant counters, battery ledgers and all.
With a trace bus attached, the flush also moves the bus cursor to each
replayed tick and emits that tick's ``tick`` event, and its ``battery``
event while the battery flows: all a steady scalar tick emits. Whenever
a gate fails or the horizon is short, it falls back to the scalar
:meth:`~repro.core.mediator.PowerMediator.step` for one tick and counts
the reason in the mediator's
:class:`~repro.core.mediator.FastPathCounts`, so the run is *always*
bit-identical to the scalar loop; the gates only decide how fast it gets
there. :class:`MediatedFleet` is a loop over its mediators' ``run_for``.

Kept scalar by design (DESIGN.md §13): the TIME slot edges and duty-cycle
phase edges themselves (their knob actuation and retries), the
completion tick, quarantine transitions, and every fault and adversary
path. Between edges a TIME rotation only
advances its cursor, so the slot edge is a horizon term, not an entry
gate. A changed trust fingerprint restarts the
efficiency-check cooldown on the segment's first tick, which is the
unchanged fold started one tick higher, so it is folded too. Resume debt
is checked only on running apps, since a suspended app's debt stays
frozen until it runs. :data:`MIN_FAST_TICKS` is 3 because a segment's
cost is mostly per segment: two replayed ticks already cost less than
two scalar ones.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import reduce
from itertools import accumulate, count, repeat
from operator import add, mul
from typing import Iterable, Sequence

from repro.core.accountant import DEVIATION_POLLS, DEVIATION_THRESHOLD_W
from repro.core.coordinator import CoordinationMode
from repro.core.mediator import PowerMediator, TickRecord, _tick_events
from repro.core.trust import (
    EFFICIENCY_MARGIN,
    OVERDRAW_MARGIN_W,
    SCORE_DECAY,
    SUSPECT_THRESHOLD,
    TrustState,
)
from repro.errors import ConfigurationError
from repro.esd.controller import Phase
from repro.server.heartbeats import WINDOW_S, HeartbeatRecord
from repro.server.rapl import ENERGY_WRAP_J, energy_delta_j
from repro.server.sleep import SleepState

__all__ = ["MediatedFleet", "MIN_FAST_TICKS", "MAX_SEGMENT_TICKS", "advance"]

#: Below this many safe ticks the flush overhead beats the win: go scalar.
#: A segment costs ~100 us plus ~6.5 us per tick, a steady scalar tick
#: ~105 us (rack-fleet medians, 2-vCPU x86_64 host), so one replayed tick
#: about breaks even and two win; 3 leaves a margin for host noise.
MIN_FAST_TICKS = 3

#: Upper bound on one fast segment (keeps work lists small and bounded).
MAX_SEGMENT_TICKS = 4096

#: Stop this many ticks before any predicted branch point; the scalar
#: path then walks through the edge itself.
_HORIZON_MARGIN = 2


def _seq_add(start: float, step: float, k: int) -> list[float]:
    """The fl-sequential fold ``start, start+step, ...`` (length ``k+1``).

    ``out[i]`` is exactly the float the scalar loop holds after ``i``
    repetitions of ``s += step``.
    """
    return list(accumulate(repeat(step, k), add, initial=start))


def _seq_add_final(start: float, step: float, k: int) -> float:
    """Final value of ``k`` sequential ``s += step`` folds."""
    return reduce(add, repeat(step, k), start)


def _seq_mul_final(start: float, factor: float, k: int) -> float:
    """Final value of ``k`` sequential ``s *= factor`` folds."""
    return reduce(mul, repeat(factor, k), start)


def _rapl_march(e0: float, step_j: float, wrap_j: float, k: int) -> list[float]:
    """Per-tick counter values of ``k`` folds of ``e = (e + step) % wrap``."""
    values = []
    e = e0
    for _ in range(k):
        e = (e + step_j) % wrap_j
        values.append(e)
    return values


def _clean_work_ticks(total: float, done: float, work: float, k: int) -> int:
    """How many of the next ``k`` ticks run ``done += work`` as they stand.

    ``SimulatedServer.tick`` clips a tick's work to ``max(0.0, total -
    done)`` and completes the job once that reaches zero; the count stops
    before the first tick that does either, so the scalar path walks it.
    The completion test alone finds that tick: rounding is monotone, so
    ``total - done < work`` means ``done + work`` rounds to ``total`` or
    more, and a tick that would clip also leaves nothing to do.
    """
    for i in range(k):
        done += work
        if max(0.0, total - done) <= 0.0:
            return i
    return k


def _flush_histogram(hist, value: float, k: int) -> None:
    """What ``k`` repeated ``hist.observe(value)`` calls would leave behind."""
    value = float(value)
    hist._window.extend([value] * k)  # deque(maxlen=...) keeps the tail
    hist.count += k
    hist.total = _seq_add_final(hist.total, value, k)
    if value < hist.minimum:
        hist.minimum = value
    if value > hist.maximum:
        hist.maximum = value


def advance(m: PowerMediator, end_s: float) -> None:
    """Advance ``m`` to ``end_s`` the way its vector-engine ``run_for`` does.

    Each round replays a fast segment when every gate passes, and steps
    one scalar tick otherwise, charging the tick to the first failing
    gate (or ``"short-horizon"``) in ``m.fast_path``. The loop test is
    ``run_for``'s own, so the tick sequence is the scalar loop's.
    """
    counts = m.fast_path
    while m.server.now_s < end_s - 1e-9:
        executed, reason = _try_fast_segment(m, end_s)
        if executed:
            counts.fast_ticks += executed
            counts.segments += 1
        else:
            counts.demotions[reason] = counts.demotions.get(reason, 0) + 1
            counts.scalar_ticks += 1
            m.step()


class MediatedFleet:
    """Many :class:`PowerMediator` instances advanced together.

    ``run_for`` is a loop over each mediator's own ``run_for``, and the
    counts are sums of the mediators'
    :class:`~repro.core.mediator.FastPathCounts`, as they
    stand (a mediator's counts include whatever advanced it before it
    joined the fleet).

    Args:
        mediators: The fleet; each mediator is advanced independently.
    """

    def __init__(self, mediators: Iterable[PowerMediator]) -> None:
        self._mediators: list[PowerMediator] = list(mediators)
        if not self._mediators:
            raise ConfigurationError("MediatedFleet needs at least one mediator")
        for m in self._mediators:
            if not isinstance(m, PowerMediator):
                raise ConfigurationError(
                    f"MediatedFleet manages PowerMediator instances, got {type(m).__name__}"
                )

    @property
    def mediators(self) -> Sequence[PowerMediator]:
        return self._mediators

    @property
    def fast_ticks(self) -> int:
        return sum(m.fast_path.fast_ticks for m in self._mediators)

    @property
    def scalar_ticks(self) -> int:
        return sum(m.fast_path.scalar_ticks for m in self._mediators)

    @property
    def fast_segments(self) -> int:
        return sum(m.fast_path.segments for m in self._mediators)

    @property
    def demotions(self) -> dict[str, int]:
        """``{reason: count}`` of the scalar ticks, over every mediator."""
        total: dict[str, int] = {}
        for m in self._mediators:
            for reason, n in m.fast_path.demotions.items():
                total[reason] = total.get(reason, 0) + n
        return total

    @property
    def fast_fraction(self) -> float:
        """Share of executed ticks that went through the fast path."""
        fast = self.fast_ticks
        total = fast + self.scalar_ticks
        return fast / total if total else 0.0

    def run_for(self, duration_s: float) -> None:
        """Advance every mediator by ``duration_s`` simulated seconds.

        Raises:
            ConfigurationError: on a non-positive duration.
        """
        for m in self._mediators:
            m.run_for(duration_s)


# ---------------------------------------------------------------- fast path


def _try_fast_segment(m: PowerMediator, end_s: float) -> tuple[int, str]:
    """Replay as many steady ticks as provably safe; ``(0, reason)`` if none.

    It first checks the *entry gates* — conditions under which
    a scalar tick is pure steady-state replay — then derives a
    conservative horizon from every branch the scalar loop could take,
    and finally materializes the k-tick segment in closed form.
    """
    dt = m._dt_s
    server = m._server

    # --- global entry gates: anything event-driven forces scalar ticks.
    if m._injector is not None:
        return 0, "fault-injector"
    if m._adversary.specs():
        return 0, "adversary"
    if m._safe_hold_ticks > 0:
        return 0, "safe-hold"
    if m._breach_last_tick:
        return 0, "breach-recovery"
    if m._watchdog.degraded:
        return 0, "watchdog-degraded"
    if server.knobs.failed_writes() or m._retrier._pending or m._actuation_faulted:
        return 0, "actuation-retry"
    hb = server._heartbeats
    if hb.in_blackout:
        return 0, "hb-blackout"
    plan = m._coordinator._plan
    if plan is None:
        return 0, "no-plan"
    mode = plan.mode
    if not m._timeline:
        return 0, "cold-start"
    sleep = server._sleep
    if sleep._pending_wake_penalty_s != 0.0:
        return 0, "wake-penalty"
    if server._parasitic_w or server._hb_inflation:
        return 0, "co-tenant-hooks"
    handles = server._handles
    for handle in handles.values():
        if handle.hung:
            return 0, "hung-app"
    # A suspended app's resume debt stays frozen until it runs again.
    active = server.active_applications()
    for name in active:
        if handles[name].resume_debt_s != 0.0:
            return 0, "resume-debt"
    for managed in m._managed.values():
        if managed.phased is not None:
            return 0, "phase-schedule"
    for name in handles:
        if name not in hb._last_emit_s:
            return 0, "cold-start"
    if m._last_psys_energy_j != server.rapl.read_energy_j("psys"):
        return 0, "telemetry-resync"

    battery = m._battery
    coord = m._coordinator

    # --- per-mode coordinator action + battery/phase horizon constants.
    charge_w = 0.0
    discharge_w = 0.0
    deep_sleep = False
    batt_delta_j = 0.0  # per-tick _stored_j increment (signed, exact)
    batt_charged_j = 0.0
    batt_stored_j = 0.0
    batt_discharged_j = 0.0
    phase_horizon: float = math.inf
    batt_horizon: float = math.inf
    esd = None

    if mode is CoordinationMode.SPACE:
        if sleep._state is not SleepState.ACTIVE:
            return 0, "sleep-state"
    elif mode is CoordinationMode.TIME:
        if sleep._state is not SleepState.ACTIVE:
            return 0, "sleep-state"
        # Between slot edges the rotation only advances its cursor.
        slot = plan.slots[coord._slot_index]
        phase_horizon = (
            math.floor((slot.duration_s - coord._slot_elapsed_s) / dt)
            - _HORIZON_MARGIN
        )
    elif mode is CoordinationMode.IDLE:
        if active:
            return 0, "idle-active-apps"
        if sleep._state is not SleepState.PC6:
            return 0, "sleep-state"
        deep_sleep = True
    else:  # ESD duty cycle
        esd = coord._esd
        if esd is None or battery is None or esd._battery is not battery:
            return 0, "esd-wiring"
        if not battery._available:
            return 0, "battery-unavailable"
        cycle = esd._cycle
        elapsed0 = esd._phase_elapsed_s
        if esd._phase is Phase.OFF:
            if coord._esd_on or cycle.off_s <= 0:
                return 0, "esd-edge"
            if active:
                return 0, "esd-active-in-off"
            if sleep._state is not SleepState.PC6:
                return 0, "sleep-state"
            deep_sleep = True
            phase_horizon = math.floor((cycle.off_s - elapsed0) / dt) - _HORIZON_MARGIN
            admissible = battery.admissible_charge_w(cycle.charge_w)
            eff = battery._efficiency
            storable_j = min(eff * admissible * dt, battery.headroom_j)
            if storable_j > 0.0:
                if storable_j != eff * admissible * dt:
                    return 0, "battery-clip"  # partial fill: scalar walks the edge
                wall_j = storable_j / eff
                charge_w = wall_j / dt
                batt_delta_j = storable_j
                batt_charged_j = wall_j
                batt_stored_j = storable_j
                batt_horizon = (
                    math.floor(battery.headroom_j / storable_j) - _HORIZON_MARGIN
                )
            # else: battery full (or zero admissible) — zero-flow banking.
        else:  # Phase.ON
            if not coord._esd_on:
                return 0, "esd-edge"
            if sleep._state is not SleepState.ACTIVE:
                return 0, "sleep-state"
            required_w = coord._esd_required_w(dt)
            if cycle.off_s > 0:
                phase_horizon = (
                    math.floor((cycle.on_s - elapsed0) / dt) - _HORIZON_MARGIN
                )
            if required_w > 0.0:
                if required_w > battery._max_discharge_w:
                    return 0, "esd-underpowered"
                deliverable_j = min(required_w * dt, battery.usable_j)
                if deliverable_j != required_w * dt:
                    return 0, "battery-clip"
                discharge_w = deliverable_j / dt
                batt_delta_j = -deliverable_j
                batt_discharged_j = deliverable_j
                # Extra margin: can_boost also needs usable_j/dt > target.
                batt_horizon = (
                    math.floor(battery.usable_j / deliverable_j)
                    - 2 * _HORIZON_MARGIN
                )

    # --- engine constants: running set and work rates.
    knobs = server._knobs
    running = {
        name: (handles[name].profile, knobs.knob_of(name)) for name in active
    }
    work_per_app = {
        name: server._perf.rate(profile, knob) * dt  # useful_s == dt exactly
        for name, (profile, knob) in running.items()
    }

    breakdown = server._power.server_breakdown(
        running,
        esd_charge_w=charge_w,
        esd_discharge_w=discharge_w,
        deep_sleep=deep_sleep and not active,
    )
    wall_w = breakdown.wall_w
    cap_w = m.p_cap_w
    if wall_w > cap_w + 1e-6:
        return 0, "cap-breach"

    # --- defense constants: a steady tick must be violation-free and
    # transition-free for every tenant, with the efficiency check either
    # statically unfirable or held off by the fingerprint cooldown.
    trust = m._trust
    defense_on = bool(trust.config.enabled and m._managed)
    defense_horizon: float = math.inf
    trust_flush: list[tuple[object, int, tuple]] = []  # (record, cooldown0, fp)
    if defense_on:
        cfg = trust.config
        for record in trust._records.values():
            if record.state is not TrustState.TRUSTED:
                return 0, "trust-state"
        for name in sorted(m._managed):
            managed = m._managed[name]
            knob = knobs.knob_of(name)
            run_flag = name in breakdown.app_w
            fingerprint = (knob.freq_ghz, knob.cores, knob.dram_power_w, run_flag, -1)
            record = trust._records.get(name)
            if record is None:
                return 0, "trust-cold"
            # A changed operating point resets the cooldown to
            # cooldown_ticks on the first tick, where an unchanged one
            # drains it by one: the same fold from one tick higher.
            if record.fingerprint == fingerprint:
                cooldown0 = record.cooldown
            else:
                cooldown0 = cfg.cooldown_ticks + 1
            if not record.score < SUSPECT_THRESHOLD:
                return 0, "trust-score"
            if run_flag:
                attributed = breakdown.app_w.get(name, 0.0)
                expected = server.power_model.app_power_w(managed.profile, knob)
                if attributed > expected + OVERDRAW_MARGIN_W:
                    return 0, "trust-overdraw"
                supported = server.perf_model.rate(managed.profile, knob)
                limit = supported * (1.0 + EFFICIENCY_MARGIN)
                # Worst windowed rate: every slot filled with the largest
                # beat the window can ever hold during the segment.
                beats = work_per_app.get(name, 0.0)
                history = hb._histories[name]
                peak_beats = max(
                    beats, max((r.beats for r in history), default=0.0)
                )
                slots = math.floor(WINDOW_S / dt) + 2
                if slots * peak_beats / WINDOW_S <= limit * (1.0 - 1e-9):
                    pass  # efficiency check can never fire at this knob
                elif cooldown0 > 0:
                    defense_horizon = min(defense_horizon, cooldown0 - 1)
                else:
                    return 0, "trust-efficiency"
            trust_flush.append((record, cooldown0, fingerprint))

    # --- E4 deviation accounting (SPACE plans with an allocation).
    acct = m._accountant
    acct_plan = acct._plan
    e4_horizon: float = math.inf
    e4_writes: list[tuple[str, bool, int]] = []  # (name, deviating, count0)
    if (
        acct_plan is not None
        and acct_plan.mode is CoordinationMode.SPACE
        and acct_plan.allocation is not None
    ):
        for name, expected in acct_plan.allocation.apps.items():
            if expected.excluded or name in acct._suppressed:
                continue
            if name not in breakdown.app_w:
                continue
            observed = breakdown.app_w[name]
            if abs(observed - expected.power_w) > DEVIATION_THRESHOLD_W:
                count0 = acct._deviation_counts.get(name, 0)
                e4_horizon = min(
                    e4_horizon,
                    DEVIATION_POLLS - count0 - _HORIZON_MARGIN,
                )
                e4_writes.append((name, True, count0))
            else:
                e4_writes.append((name, False, 0))

    # --- RAPL step constants: a negative power raises on the scalar path.
    domain_powers = server._domain_powers(running, breakdown)
    for name in server._rapl._domains:
        if domain_powers.get(name, 0.0) < 0:
            return 0, "rapl-step"

    # --- the horizon: stop before the first branch any phase could take.
    horizon = min(
        phase_horizon,
        batt_horizon,
        defense_horizon,
        e4_horizon,
        float(MAX_SEGMENT_TICKS),
    )
    if horizon < MIN_FAST_TICKS:
        return 0, "short-horizon"

    # End-of-run trim: tick i runs iff its start time is < end - 1e-9,
    # evaluated on the exact fl time sequence the scalar loop holds.
    limit = end_s - 1e-9
    t = server._now_s
    times = [t]
    for _ in range(int(horizon)):
        if not t < limit:
            break
        t += dt
        times.append(t)
    k = len(times) - 1
    if k < MIN_FAST_TICKS:
        return 0, "short-window"

    # Completion: a finite job whose floor estimate, less the margin,
    # ends inside the window is folded tick by tick to the tick before
    # the one that clips or completes it.
    for name, work in work_per_app.items():
        handle = handles[name]
        total = handle.profile.total_work
        if math.isfinite(total) and not (
            work > 0.0
            and math.floor(handle.remaining_work / work) - _HORIZON_MARGIN >= k
        ):
            k = _clean_work_ticks(total, handle.work_done, work, k)
    if k < MIN_FAST_TICKS:
        return 0, "short-horizon"
    del times[k + 1 :]

    _flush_segment(
        m,
        k,
        times=times,
        mode=mode,
        breakdown=breakdown,
        wall_w=wall_w,
        cap_w=cap_w,
        charge_w=charge_w,
        discharge_w=discharge_w,
        work_per_app=work_per_app,
        running=running,
        domain_powers=domain_powers,
        batt_delta_j=batt_delta_j,
        batt_charged_j=batt_charged_j,
        batt_stored_j=batt_stored_j,
        batt_discharged_j=batt_discharged_j,
        esd=esd,
        trust_flush=trust_flush,
        e4_writes=e4_writes,
    )
    return k, ""


# -------------------------------------------------------------------- flush


def _flush_segment(
    m: PowerMediator,
    k: int,
    *,
    times: list[float],
    mode: CoordinationMode,
    breakdown,
    wall_w: float,
    cap_w: float,
    charge_w: float,
    discharge_w: float,
    work_per_app: dict[str, float],
    running: dict,
    domain_powers: dict[str, float],
    batt_delta_j: float,
    batt_charged_j: float,
    batt_stored_j: float,
    batt_discharged_j: float,
    esd,
    trust_flush: list,
    e4_writes: list,
) -> None:
    """Materialize ``k`` steady ticks exactly as the scalar loop would."""
    server = m._server
    dt = m._dt_s
    battery = m._battery

    # RAPL counters: march every powered domain; psys per-tick values
    # feed the wall-power telemetry samples below.
    psys_values: list[float] = []
    for name, dom in server._rapl._domains.items():
        power = domain_powers.get(name, 0.0)
        step_j = power * dt
        if name == "psys":
            psys_values = _rapl_march(dom.energy_j, step_j, ENERGY_WRAP_J, k)
            dom.energy_j = psys_values[-1]
        elif step_j != 0.0:
            dom.energy_j = _rapl_march(dom.energy_j, step_j, ENERGY_WRAP_J, k)[-1]
        # else: (e + 0.0) % wrap is the identity on in-range counters.
        dom.last_power_w = power

    # The watchdog's readback: each tick's psys delta over dt.
    observed = [
        energy_delta_j(later, earlier) / dt
        for earlier, later in zip([m._last_psys_energy_j, *psys_values], psys_values)
    ]
    m._last_psys_energy_j = psys_values[-1]

    # The TIME slot cursor.
    if mode is CoordinationMode.TIME:
        coord = m._coordinator
        coord._slot_elapsed_s = _seq_add_final(coord._slot_elapsed_s, dt, k)

    # Watchdog saw k fresh samples; the retry loop idled k ticks.
    m._watchdog._consecutive_good += k
    m._watchdog._consecutive_bad = 0
    m._retrier._tick += k

    # Engine state: time, work ledgers, heartbeat windows.
    final_t = times[k]
    server._now_s = final_t
    for name in running:
        handle = server._handles[name]
        handle.work_done = _seq_add_final(handle.work_done, work_per_app[name], k)
    hb = server._heartbeats
    cutoff = final_t - WINDOW_S
    # Only records that survive the final cutoff are ever observed
    # again; eviction cutoffs are monotone, so appending just the
    # survivors matches emit-then-evict tick by tick.
    survivors = times[bisect_right(times, cutoff, 1) :]
    for name in server._handles:
        beats = work_per_app.get(name, 0.0)
        history = hb._histories[name]
        while history and history[0].time_s <= cutoff:
            history.popleft()
        history.extend([HeartbeatRecord(t, beats) for t in survivors])
        hb._last_emit_s[name] = final_t

    # Battery ledgers and the ESD phase cursor.
    socs: Iterable[float | None] = repeat(
        battery.soc if battery is not None else None, k
    )
    if batt_delta_j != 0.0:
        stored = _seq_add(battery._stored_j, batt_delta_j, k)
        battery._stored_j = stored[-1]
        socs = [s / battery._capacity_j for s in stored[1:]]
        if batt_charged_j != 0.0:
            battery._total_charged_j = _seq_add_final(
                battery._total_charged_j, batt_charged_j, k
            )
        if batt_stored_j != 0.0:
            battery._total_stored_j = _seq_add_final(
                battery._total_stored_j, batt_stored_j, k
            )
        if batt_discharged_j != 0.0:
            battery._total_discharged_j = _seq_add_final(
                battery._total_discharged_j, batt_discharged_j, k
            )
    if esd is not None:
        esd._phase_elapsed_s = _seq_add_final(esd._phase_elapsed_s, dt, k)

    # Timeline records — the exact TickRecords the scalar loop builds.
    # Records are frozen and nothing writes into their dicts, so the
    # segment's k records share one set.
    app_power = dict(breakdown.app_w)
    app_knobs = {name: server._knobs.knob_of(name) for name in app_power}
    progressed = {name: work_per_app[name] for name in running}
    records = [
        TickRecord(
            time_s=t,
            p_cap_w=cap_w,
            wall_w=wall_w,
            mode=mode,
            app_power_w=app_power,
            app_knobs=app_knobs,
            progressed=progressed,
            battery_soc=soc,
            observed_wall_w=observed_w,
            degraded=False,
            breach=False,
        )
        for t, soc, observed_w in zip(times[1:], socs, observed)
    ]
    first = len(m._timeline)
    m._timeline.extend(records)

    # Trace: each tick's cursor and events as the scalar loop emits them,
    # so the cursor also ends where that loop leaves it.
    bus = m._trace
    if bus.active:
        for index, start, record in zip(count(first), times, records):
            bus.begin_tick(index, start)
            for kind, payload in _tick_events(record, charge_w, discharge_w):
                bus.emit(kind, payload)

    # Metrics: k observations of constant values, in closed form.
    registry = m._metrics
    registry.counter("mediator.ticks").inc(k)
    _flush_histogram(registry.histogram("mediator.wall_w"), wall_w, k)
    _flush_histogram(registry.histogram("mediator.headroom_w"), cap_w - wall_w, k)
    if charge_w > 0:
        _flush_histogram(registry.histogram("esd.charge_w"), charge_w, k)
    if discharge_w > 0:
        _flush_histogram(registry.histogram("esd.discharge_w"), discharge_w, k)

    # Trust: zero violations — scores decay, cooldowns drain.
    for record, cooldown0, fingerprint in trust_flush:
        record.fingerprint = fingerprint
        record.cooldown = max(cooldown0 - k, 0)
        if record.score != 0.0:
            record.score = _seq_mul_final(record.score, SCORE_DECAY, k)

    # Accountant: E4 streak counters advance (or reset) per poll.
    for name, deviating, count0 in e4_writes:
        m._accountant._deviation_counts[name] = count0 + k if deviating else 0
