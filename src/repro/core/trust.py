"""Mediator-side defenses against strategic tenants.

The mediator's whole value proposition rests on two reports it normally takes
at face value: each application's *heartbeat rate* (claimed progress) and its
*attributed power draw*. An adversarial tenant can lie on either axis - see
:mod:`repro.adversary.plan` for the attack classes. The
:class:`TrustScorer` cross-checks the two reports against the physics the
mediator already carries (the power and performance models it uses to plan),
and drives a quarantine state machine the allocator consumes:

* **Overdraw check** - the attributed draw of an app must match the draw its
  in-force knob implies. Honest apps match to float precision (the engine
  computes power from the same model and knob); any excess beyond
  ``OVERDRAW_MARGIN_W`` is a parasitic thread. Because the check is
  structurally exact, each violation is a high-confidence *strike*.
* **Efficiency check** - the claimed heart rate must be achievable at the
  app's in-force knob. An inflating tenant reports more progress than its
  power supports; honest windowed rates can only exceed the knob's rate
  transiently after a knob/phase change, so the check observes a cooldown
  after any such change and feeds a *decaying anomaly score* rather than
  strikes.

State machine::

    TRUSTED --score>=suspect--> SUSPECT --score>=quarantine--> QUARANTINED
       ^                          |  ^                              |
       |   <--score<suspect/2-----+  |                       (timer expires)
       |                             |                              v
       +------(clean probation)---- PROBATION <---------------------+
                                      |
                                      +--any violation--> QUARANTINED

``strikes >= STRIKE_LIMIT`` quarantines from *any* live state - overdraw is
unambiguous. Quarantined apps are suspended (omitted from plans) and excluded
from allocation; SUSPECT/PROBATION apps keep running at reduced allocation
weight. While anyone is distrusted the planner also shaves a guard band off
the cap, covering the watts an undetected accomplice might still be burning.

Everything here is deterministic and draws no RNG: with an all-honest
population and zero violations the scorer is pure bookkeeping, which is what
keeps defense-enabled honest runs bit-identical to defense-free ones (the
golden-trace regression pins this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro.errors import ConfigurationError
from repro.util.folds import _seq_mul_final


class TrustState(Enum):
    """Posture of one application in the quarantine state machine."""

    TRUSTED = "trusted"
    SUSPECT = "suspect"
    QUARANTINED = "quarantined"
    PROBATION = "probation"


# The scorer's tuning, one value each.
#: Fractional slack on the efficiency check: a claimed rate up to
#: ``1 + EFFICIENCY_MARGIN`` times the knob-supported rate passes. Covers
#: windowing and measurement noise.
EFFICIENCY_MARGIN = 0.25
#: Absolute slack on the overdraw check, in watts.
OVERDRAW_MARGIN_W = 1.5
#: Per-tick multiplicative decay of the anomaly score.
SCORE_DECAY = 0.9
#: Score at which TRUSTED becomes SUSPECT.
SUSPECT_THRESHOLD = 2.0
#: Score at which SUSPECT becomes QUARANTINED.
QUARANTINE_THRESHOLD = 4.0
#: Overdraw strikes that quarantine outright.
STRIKE_LIMIT = 2
#: Ticks an app sits suspended before probation.
QUARANTINE_TICKS = 120
#: Clean ticks required to regain full trust.
PROBATION_TICKS = 80
#: Allocation weight multiplier while SUSPECT.
SUSPECT_WEIGHT = 0.5
#: Allocation weight multiplier while on PROBATION.
PROBATION_WEIGHT = 0.5
#: Fractional cap reduction while any app is distrusted.
GUARD_BAND = 0.05


@dataclass(frozen=True)
class DefenseConfig:
    """Whether the TrustScorer runs, and its efficiency-check holdoff.

    Attributes:
        enabled: Master switch; disabled scorers observe nothing.
        cooldown_ticks: Efficiency-check holdoff after a knob, profile, or
            run-state change - long enough for the heartbeat window to flush
            (``WINDOW_S / dt_s`` ticks), or stale beats read as violations.
    """

    enabled: bool = True
    cooldown_ticks: int = 25

    def __post_init__(self) -> None:
        if self.cooldown_ticks < 0:
            raise ConfigurationError("cooldown_ticks must be non-negative")


@dataclass
class TrustRecord:
    """Mutable per-application trust bookkeeping."""

    state: TrustState = TrustState.TRUSTED
    score: float = 0.0
    strikes: int = 0
    timer: int = 0  # quarantine countdown / probation clean-tick count
    cooldown: int = 0
    fingerprint: tuple | None = None  # (knob json, profile key, running)

    def to_dict(self) -> dict:
        return {
            "state": self.state.value,
            "score": self.score,
            "strikes": self.strikes,
            "timer": self.timer,
            "cooldown": self.cooldown,
            "fingerprint": None
            if self.fingerprint is None
            else list(self.fingerprint),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrustRecord":
        fingerprint = data["fingerprint"]
        return cls(
            state=TrustState(data["state"]),
            score=float(data["score"]),
            strikes=int(data["strikes"]),
            timer=int(data["timer"]),
            cooldown=int(data["cooldown"]),
            fingerprint=None if fingerprint is None else tuple(fingerprint),
        )


@dataclass(frozen=True)
class TrustTransition:
    """One state-machine edge, for traces and detection-latency metrics."""

    tick: int
    app: str
    from_state: TrustState
    to_state: TrustState
    score: float
    strikes: int


@dataclass
class AppObservation:
    """One tick's evidence about one application, as the mediator sees it.

    Attributes:
        app: Application name.
        running: Whether the app executed this tick.
        claimed_rate: Its reported heartbeat rate (beats/s).
        attributed_w: Its attributed power draw this tick.
        expected_w: Model-implied draw at the in-force knob.
        supported_rate: Model-implied rate at the in-force knob.
        fingerprint: Hashable key of (knob, profile, run-state); a change
            restarts the efficiency-check cooldown.
        observable: Whether the heartbeat reading is trustworthy this tick
            (False during telemetry blackouts - frozen rates would read as
            violations against a moving knob).
    """

    app: str
    running: bool
    claimed_rate: float
    attributed_w: float
    expected_w: float
    supported_rate: float
    fingerprint: tuple
    observable: bool = True


class TrustScorer:
    """Cross-checks tenant reports against physics; drives quarantines.

    The scorer is pure bookkeeping: it never touches the server, draws no
    RNG, and emits no trace events itself. The mediator feeds it one
    :class:`AppObservation` per managed app per tick via :meth:`observe`
    and acts on the returned transitions (trace, metrics, re-allocation).
    """

    def __init__(self, config: DefenseConfig | None = None) -> None:
        self._config = config if config is not None else DefenseConfig()
        self._records: dict[str, TrustRecord] = {}
        self._transitions: list[TrustTransition] = []

    @property
    def config(self) -> DefenseConfig:
        return self._config

    @property
    def transitions(self) -> list[TrustTransition]:
        """Every state-machine edge so far (live list; treat as read-only)."""
        return self._transitions

    # ------------------------------------------------------------- queries

    def state_of(self, app: str) -> TrustState:
        record = self._records.get(app)
        return record.state if record is not None else TrustState.TRUSTED

    def score_of(self, app: str) -> float:
        record = self._records.get(app)
        return record.score if record is not None else 0.0

    def quarantined_apps(self) -> list[str]:
        """Apps currently suspended by the defense, sorted."""
        return sorted(
            app
            for app, record in self._records.items()
            if record.state is TrustState.QUARANTINED
        )

    def distrusted(self) -> bool:
        """Whether any app is currently off full trust (guard-band driver)."""
        return any(
            record.state is not TrustState.TRUSTED
            for record in self._records.values()
        )

    def weights(self) -> dict[str, float]:
        """Allocation weight multipliers for apps off full trust."""
        weights: dict[str, float] = {}
        for app, record in self._records.items():
            if record.state is TrustState.SUSPECT:
                weights[app] = SUSPECT_WEIGHT
            elif record.state is TrustState.PROBATION:
                weights[app] = PROBATION_WEIGHT
        return weights

    def detection_latency(self, app: str, attack_start_tick: int) -> int | None:
        """Ticks from ``attack_start_tick`` to ``app``'s first quarantine."""
        for tr in self._transitions:
            if tr.app == app and tr.to_state is TrustState.QUARANTINED:
                return max(0, tr.tick - attack_start_tick)
        return None

    # ------------------------------------------------------------ lifecycle

    def forget(self, app: str) -> None:
        """Drop an app's record on departure."""
        self._records.pop(app, None)

    # ------------------------------------------------------------- stepping

    def observe(
        self, tick: int, observations: list[AppObservation]
    ) -> list[TrustTransition]:
        """Score one tick of evidence; return the transitions it caused."""
        if not self._config.enabled:
            return []
        emitted: list[TrustTransition] = []
        for obs in observations:
            transition = self._observe_one(tick, obs)
            if transition is not None:
                emitted.append(transition)
        return emitted

    def steady_observe(self, observations: list[AppObservation]) -> tuple[str, float]:
        """How many ticks :meth:`observe` stays quiet at ``observations``
        (each ``claimed_rate`` the window's worst), or why it may not."""
        if any(record.state is not TrustState.TRUSTED for record in self._records.values()):
            return "trust-state", 0.0
        horizon = math.inf
        for obs in observations:
            record = self._records.get(obs.app)
            if record is None:
                return "trust-cold", 0.0
            # A changed operating point resets the cooldown on the first
            # tick, where an unchanged one drains it: the same fold from
            # one tick higher.
            cooldown = self._steady_cooldown(record, obs)
            if not record.score < SUSPECT_THRESHOLD:
                return "trust-score", 0.0
            if not obs.running:
                continue
            if obs.attributed_w > obs.expected_w + OVERDRAW_MARGIN_W:
                return "trust-overdraw", 0.0
            limit = obs.supported_rate * (1.0 + EFFICIENCY_MARGIN)
            if not obs.claimed_rate <= limit * (1.0 - 1e-9):
                # The efficiency check can fire at this knob: fold only
                # while the cooldown holds it off.
                if not cooldown > 0:
                    return "trust-efficiency", 0.0
                horizon = min(horizon, cooldown - 1)
        return "", horizon

    def fold_clean(self, observations: list[AppObservation], k: int) -> None:
        """What ``k`` quiet :meth:`observe` calls leave: scores decay,
        cooldowns drain."""
        for obs in observations:
            record = self._records[obs.app]
            cooldown = self._steady_cooldown(record, obs)
            record.fingerprint = obs.fingerprint
            record.cooldown = max(cooldown - k, 0)
            if record.score != 0.0:
                record.score = _seq_mul_final(record.score, SCORE_DECAY, k)

    def _steady_cooldown(self, record: TrustRecord, obs: AppObservation) -> int:
        """The cooldown a quiet fold at ``obs`` drains from."""
        if record.fingerprint == obs.fingerprint:
            return record.cooldown
        return self._config.cooldown_ticks + 1

    def _observe_one(
        self, tick: int, obs: AppObservation
    ) -> TrustTransition | None:
        record = self._records.get(obs.app)
        if record is None:
            record = TrustRecord(fingerprint=obs.fingerprint)
            self._records[obs.app] = record

        if record.state is TrustState.QUARANTINED:
            record.timer -= 1
            if record.timer <= 0:
                # Rehabilitation: a clean slate under tightened scrutiny.
                record.score = 0.0
                record.strikes = 0
                record.timer = PROBATION_TICKS
                record.cooldown = self._config.cooldown_ticks
                record.fingerprint = obs.fingerprint
                return self._move(tick, obs.app, record, TrustState.PROBATION)
            return None

        # Restart the efficiency-check cooldown whenever the app's operating
        # point changes - the heartbeat window still reflects the old one.
        if obs.fingerprint != record.fingerprint:
            record.fingerprint = obs.fingerprint
            record.cooldown = self._config.cooldown_ticks
        elif record.cooldown > 0:
            record.cooldown -= 1

        violation = 0.0
        if obs.running:
            if obs.attributed_w > obs.expected_w + OVERDRAW_MARGIN_W:
                record.strikes += 1
                violation += 1.0
            if (
                obs.observable
                and record.cooldown == 0
                and obs.claimed_rate
                > obs.supported_rate * (1.0 + EFFICIENCY_MARGIN)
            ):
                violation += 1.0
        record.score = record.score * SCORE_DECAY + violation

        if record.state is TrustState.PROBATION:
            if violation > 0.0 or record.score >= SUSPECT_THRESHOLD:
                return self._quarantine(tick, obs.app, record)
            record.timer -= 1
            if record.timer <= 0:
                record.score = 0.0
                record.strikes = 0
                return self._move(tick, obs.app, record, TrustState.TRUSTED)
            return None

        if (
            record.strikes >= STRIKE_LIMIT
            or record.score >= QUARANTINE_THRESHOLD
        ):
            return self._quarantine(tick, obs.app, record)
        if record.state is TrustState.TRUSTED:
            if record.score >= SUSPECT_THRESHOLD:
                return self._move(tick, obs.app, record, TrustState.SUSPECT)
        elif record.state is TrustState.SUSPECT:
            if record.score < SUSPECT_THRESHOLD / 2.0:
                return self._move(tick, obs.app, record, TrustState.TRUSTED)
        return None

    def _quarantine(
        self, tick: int, app: str, record: TrustRecord
    ) -> TrustTransition:
        record.timer = QUARANTINE_TICKS
        return self._move(tick, app, record, TrustState.QUARANTINED)

    def _move(
        self, tick: int, app: str, record: TrustRecord, to_state: TrustState
    ) -> TrustTransition:
        transition = TrustTransition(
            tick=tick,
            app=app,
            from_state=record.state,
            to_state=to_state,
            score=record.score,
            strikes=record.strikes,
        )
        record.state = to_state
        self._transitions.append(transition)
        return transition

    # ---------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        return {
            "records": {
                app: record.to_dict() for app, record in self._records.items()
            },
            "transitions": [
                {
                    "tick": tr.tick,
                    "app": tr.app,
                    "from_state": tr.from_state.value,
                    "to_state": tr.to_state.value,
                    "score": tr.score,
                    "strikes": tr.strikes,
                }
                for tr in self._transitions
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self._records = {
            app: TrustRecord.from_dict(data)
            for app, data in state["records"].items()
        }
        self._transitions = [
            TrustTransition(
                tick=int(tr["tick"]),
                app=tr["app"],
                from_state=TrustState(tr["from_state"]),
                to_state=TrustState(tr["to_state"]),
                score=float(tr["score"]),
                strikes=int(tr["strikes"]),
            )
            for tr in state["transitions"]
        ]
