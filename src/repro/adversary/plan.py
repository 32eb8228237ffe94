"""Adversary schedules: declarative, seeded attack plans.

An :class:`AdversarySchedule` is the experiment-side description of every
strategic behaviour one run's tenants exhibit. Like a
:class:`~repro.faults.plan.FaultPlan` it is deliberately *dumb data*: the
schedule says *who* misbehaves, *how*, *when* and *how hard*; the
:class:`~repro.adversary.engine.AdversaryEngine` owns the mechanics of
misbehaving and the mediator's :class:`~repro.core.trust.TrustScorer` owns
catching it. Schedules are frozen, and each spec serializes (the engine's
checkpoint state carries them), so an adversarial run is exactly
reproducible from its specs plus a seed.

Attack classes (``AdversarySpec.kind``):

========= ==============================================================
kind       effect while the window is active
========= ==============================================================
inflate    the app reports ``(1 + magnitude)`` times its true heartbeat
           progress, and its calibration samples claim proportionally
           more performance at high-power knobs - the classic "lie to
           the utility-aware allocator" play
probe      Shadow-Hunting-style contention probes: a parasitic thread
           drawing ``magnitude`` extra watts for ``burst_s`` out of
           every ``period_s``, crowding co-tenants through the breach
           response it provokes
spike      duty-cycle-timed coordinated power spikes: like ``probe``
           but with the period locked to the server's duty-cycle period,
           so the bursts land exactly when temporal coordination is most
           sensitive
freeride   free-riding under ESD discharge: the parasitic draw fires on
           the first ``burst_s`` of every battery-covered ON phase, when
           the wall meter is blind to who is spending the bank
========= ==============================================================

``magnitude`` is a progress-inflation *fraction* for ``inflate`` and
parasitic *watts* for the three power attacks. Every spec carries its own
``seed``: probe-burst phase jitter draws from a per-spec
``np.random.default_rng`` stream, so attack schedules never touch the
simulation's own RNG streams (the determinism audit covers this).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AdversaryError
from repro.schema import Validator

#: Validator used by the spec loader: malformed input fails with a single
#: :class:`AdversaryError` naming the offending JSON path.
_VALID = Validator(AdversaryError)

#: The strategic-workload classes, mirroring the table above.
ADVERSARY_KINDS = ("inflate", "probe", "spike", "freeride")

#: Attack kinds that inject parasitic power (vs lying about progress).
POWER_KINDS = frozenset({"probe", "spike", "freeride"})


@dataclass(frozen=True)
class AdversarySpec:
    """One application's scheduled strategic behaviour.

    Attributes:
        app: The adversarial application's name.
        kind: Attack class (see :data:`ADVERSARY_KINDS`).
        start_s: Simulation time the attack window opens.
        duration_s: Window length; the app behaves honestly outside it.
        magnitude: Inflation fraction (``inflate``) or parasitic watts
            (``probe`` / ``spike`` / ``freeride``).
        period_s: Burst repetition period for ``probe`` (``spike`` locks to
            the server's duty-cycle period instead; ignored otherwise).
        burst_s: Burst length within each period (power attacks only).
        seed: Per-spec RNG stream seed (probe phase jitter).
    """

    app: str
    kind: str
    start_s: float
    duration_s: float
    magnitude: float
    period_s: float = 1.5
    burst_s: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.app:
            raise AdversaryError("adversary spec needs a non-empty app name")
        if self.kind not in ADVERSARY_KINDS:
            raise AdversaryError(
                f"unknown adversary kind {self.kind!r}; have {list(ADVERSARY_KINDS)}"
            )
        if self.start_s < 0:
            raise AdversaryError(
                f"attack start must be non-negative, got {self.start_s}"
            )
        if self.duration_s <= 0:
            raise AdversaryError(
                f"attack duration must be positive, got {self.duration_s}"
            )
        if self.magnitude <= 0:
            raise AdversaryError(
                f"attack magnitude must be positive, got {self.magnitude}"
            )
        if self.kind in POWER_KINDS:
            if self.magnitude > 50.0:
                raise AdversaryError(
                    f"parasitic draw {self.magnitude} W is beyond any single "
                    "tenant's plausible reach (limit 50 W)"
                )
            if self.period_s <= 0:
                raise AdversaryError(
                    f"burst period must be positive, got {self.period_s}"
                )
            if self.burst_s <= 0:
                raise AdversaryError(
                    f"burst length must be positive, got {self.burst_s}"
                )
            if self.kind == "probe" and self.burst_s > self.period_s:
                raise AdversaryError(
                    f"probe burst {self.burst_s} s exceeds its period "
                    f"{self.period_s} s"
                )
        elif self.magnitude > 10.0:
            raise AdversaryError(
                f"inflation fraction {self.magnitude} is implausible (limit 10)"
            )

    @property
    def end_s(self) -> float:
        """Exclusive end of the attack window."""
        return self.start_s + self.duration_s

    def active_at(self, now_s: float) -> bool:
        """Whether the attack window covers simulation time ``now_s``."""
        return self.start_s <= now_s < self.end_s

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "kind": self.kind,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "magnitude": self.magnitude,
            "period_s": self.period_s,
            "burst_s": self.burst_s,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict, *, where: str = "adversary spec") -> "AdversarySpec":
        """Build a spec from a plain dict, validating field by field.

        Args:
            data: The raw mapping, e.g. one entry of a schedule's
                ``adversaries`` array.
            where: JSON path prefix used in error messages, so a bad field in
                the third spec reports as ``adversaries[2].magnitude``.
        """
        obj = _VALID.as_dict(data, where)
        try:
            return cls(
                app=_VALID.as_str(_VALID.require(obj, "app", where), f"{where}.app"),
                kind=_VALID.choice(
                    _VALID.require(obj, "kind", where), f"{where}.kind", ADVERSARY_KINDS
                ),
                start_s=_VALID.as_number(
                    _VALID.require(obj, "start_s", where), f"{where}.start_s"
                ),
                duration_s=_VALID.as_number(
                    _VALID.require(obj, "duration_s", where), f"{where}.duration_s"
                ),
                magnitude=_VALID.as_number(
                    _VALID.require(obj, "magnitude", where), f"{where}.magnitude"
                ),
                period_s=_VALID.as_number(obj.get("period_s", 1.5), f"{where}.period_s"),
                burst_s=_VALID.as_number(obj.get("burst_s", 0.3), f"{where}.burst_s"),
                seed=_VALID.as_int(obj.get("seed", 0), f"{where}.seed"),
            )
        except AdversaryError as exc:
            # Semantic checks in __post_init__ do not know the JSON path; add it.
            message = str(exc)
            if not message.startswith(where):
                raise AdversaryError(f"{where}: {message}") from None
            raise


@dataclass(frozen=True)
class AdversarySchedule:
    """A complete, ordered attack schedule for one run.

    Attributes:
        specs: The attacks, kept sorted by ``(start_s, app, kind)`` so two
            schedules with the same content execute identically. At most one
            spec per application: a tenant has one strategy.
        seed: Base seed mixed into every spec's jitter stream.
    """

    specs: tuple[AdversarySpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.specs, key=lambda s: (s.start_s, s.app, s.kind))
        )
        seen: set[str] = set()
        for spec in ordered:
            if spec.app in seen:
                raise AdversaryError(
                    f"application {spec.app!r} appears in more than one "
                    "adversary spec; a tenant has one strategy"
                )
            seen.add(spec.app)
        object.__setattr__(self, "specs", ordered)

    def __len__(self) -> int:
        return len(self.specs)

    def apps(self) -> list[str]:
        """The adversarial application names, sorted."""
        return sorted(spec.app for spec in self.specs)

    def spec_for(self, app: str) -> AdversarySpec | None:
        """The spec targeting ``app``, or ``None``."""
        for spec in self.specs:
            if spec.app == app:
                return spec
        return None


def default_adversary_schedule(
    app: str, kind: str = "inflate", *, start_s: float = 2.0, seed: int = 0
) -> AdversarySchedule:
    """A single-attacker schedule with the acceptance-suite magnitudes.

    The magnitudes are chosen to sit comfortably past the TrustScorer's
    margins (so detection is a question of *when*, not *whether*) while
    staying inside what one tenant's core group could physically pull.
    """
    if kind == "inflate":
        spec = AdversarySpec(
            app=app, kind="inflate", start_s=start_s, duration_s=20.0,
            magnitude=0.6, seed=seed,
        )
    elif kind == "probe":
        spec = AdversarySpec(
            app=app, kind="probe", start_s=start_s, duration_s=20.0,
            magnitude=6.0, period_s=1.5, burst_s=0.3, seed=seed,
        )
    elif kind == "spike":
        spec = AdversarySpec(
            app=app, kind="spike", start_s=start_s, duration_s=20.0,
            magnitude=6.0, burst_s=0.3, seed=seed,
        )
    elif kind == "freeride":
        spec = AdversarySpec(
            app=app, kind="freeride", start_s=start_s, duration_s=20.0,
            magnitude=4.0, burst_s=0.1, seed=seed,
        )
    else:
        raise AdversaryError(
            f"unknown adversary kind {kind!r}; have {list(ADVERSARY_KINDS)}"
        )
    return AdversarySchedule(specs=(spec,), seed=seed)
