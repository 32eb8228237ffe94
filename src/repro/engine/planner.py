"""Fast segments behind :meth:`PowerMediator.run_for` on the vector engine.

The vector models (:mod:`repro.engine.models`) turn each model query
into a gather, but a mediated tick still walks the whole planning stack
— coordination, telemetry readback, heartbeat aggregation, cap
policing, defense scoring, event polling — in per-server Python, and
that stack, not the models, is where a tick's time goes. This module
replays those phases in closed form under the DESIGN.md §13 rules.

A mediator in *steady state* (no faults, no plan epochs, no phase edges,
no trust transitions, no arrivals/departures) executes ticks whose
per-tick quantities are either constant or constant-increment
accumulators: simulated time, work done, histogram sums, battery
ledgers, the ESD phase and TIME slot cursors (``s += c``), trust scores
(``s *= decay``) and RAPL counters (``s = (s + c) % wrap``). Each
component owns its part: beside each scalar method sits the steady query
that says whether, and for how many ticks, the method repeats unchanged,
and the fold that applies ``k`` such calls in closed form with the
kernels of :mod:`repro.util.folds`. This module only calls them in
order, through the components' public API.

A vector-engine ``run_for`` hands its mediator to :func:`advance`, which
moves it in *horizon segments*. :func:`_try_fast_segment` asks the
components, in a fixed order, for the first reason the next tick is not
steady, takes the smallest of their horizons (duty-phase edge, TIME slot
edge, battery clip, E4 deviation threshold, defense cooldown expiry),
trims it to the run window and to the tick before any job completes, and
:func:`_flush_segment` calls one fold per component: together they leave
exactly the state the scalar loop would have produced — timeline, trace,
metrics, heartbeat windows, trust records, battery ledgers and all.
DESIGN.md §13 lists which class owns each gate and fold. Whenever a gate
fails or the horizon is short, it falls back to the scalar
:meth:`~repro.core.mediator.PowerMediator.step` for one tick and counts
the reason in the mediator's :class:`~repro.core.mediator.FastPathCounts`,
so the run is *always* bit-identical to the scalar loop; the gates only
decide how fast it gets there. Each attempt runs inside the mediator
profiler's ``segments`` phase. :class:`MediatedFleet` is a loop over its
mediators' ``run_for``.

Kept scalar by design (DESIGN.md §13): the TIME slot edges and duty-cycle
phase edges themselves (their knob actuation and retries), the
completion tick, quarantine transitions, and every fault and adversary
path. :data:`MIN_FAST_TICKS` is 3 because a segment's cost is mostly per
segment: two replayed ticks already cost less than two scalar ones.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.mediator import PowerMediator
from repro.errors import ConfigurationError

__all__ = ["MediatedFleet", "MIN_FAST_TICKS", "MAX_SEGMENT_TICKS", "advance"]

#: Below this many safe ticks the flush overhead beats the win: go scalar.
#: A segment costs ~100 us plus ~6.5 us per tick, a steady scalar tick
#: ~105 us (rack-fleet medians, 2-vCPU x86_64 host), so one replayed tick
#: about breaks even and two win; 3 leaves a margin for host noise.
MIN_FAST_TICKS = 3

#: Upper bound on one fast segment (keeps work lists small and bounded).
MAX_SEGMENT_TICKS = 4096


def advance(m: PowerMediator, end_s: float) -> None:
    """Advance ``m`` to ``end_s`` the way its vector-engine ``run_for`` does.

    Each round replays a fast segment when every gate passes, and steps
    one scalar tick otherwise, charging the tick to the first failing
    gate (or ``"short-horizon"``) in ``m.fast_path``. The loop test is
    ``run_for``'s own, so the tick sequence is the scalar loop's. Each
    attempt, replayed or not, is timed as the ``segments`` phase.
    """
    counts = m.fast_path
    phase = m.profiler.phase
    while m.server.now_s < end_s - 1e-9:
        with phase("segments"):
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

    The components' steady queries say whether the next tick is steady
    and for how many ticks each stays so; the segment is the shortest of
    those horizons, trimmed to the run window and to the tick before any
    job completes.
    """
    reason = m.steady_reason()
    if reason:
        return 0, reason
    dt = m.dt_s
    server = m.server
    reason, action, horizon = m.coordinator.steady_step(dt)
    if reason:
        return 0, reason
    work, breakdown, powers = server.steady_tick(
        dt, action.esd_charge_w, action.esd_discharge_w, action.deep_sleep
    )
    reason, defense_horizon, observations = m.steady_defense(breakdown, work)
    if reason:
        return 0, reason
    e4_horizon = m.accountant.steady_polls(breakdown.app_w)
    if not server.rapl.steady_advance(powers):
        return 0, "rapl-step"
    horizon = min(horizon, defense_horizon, e4_horizon, float(MAX_SEGMENT_TICKS))
    if horizon < MIN_FAST_TICKS:
        return 0, "short-horizon"

    # End-of-run trim: tick i runs iff its start time is < end - 1e-9,
    # evaluated on the exact fl time sequence the scalar loop holds.
    limit = end_s - 1e-9
    t = server.now_s
    times = [t]
    for _ in range(int(horizon)):
        if not t < limit:
            break
        t += dt
        times.append(t)
    k = len(times) - 1
    if k < MIN_FAST_TICKS:
        return 0, "short-window"
    k = server.clean_ticks(work, k)
    if k < MIN_FAST_TICKS:
        return 0, "short-horizon"
    del times[k + 1 :]
    _flush_segment(
        m,
        k,
        times=times,
        action=action,
        breakdown=breakdown,
        work=work,
        powers=powers,
        observations=observations,
    )
    return k, ""


def _flush_segment(
    m: PowerMediator, k: int, *, times, action, breakdown, work, powers, observations
) -> None:
    """Materialize ``k`` steady ticks exactly as the scalar loop would:
    one fold per component, each fed what its steady query saw."""
    socs = m.coordinator.fold_steps(m.dt_s, k)
    psys_j = m.server.fold_ticks(m.dt_s, times, work, powers)
    m.fold_records(times, psys_j, socs, breakdown, work, action)
    m.trust.fold_clean(observations, k)
    m.accountant.fold_polls(breakdown.app_w, k)
