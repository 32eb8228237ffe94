"""Mediator-level defense integration: honest-run transparency, quarantine
posture, trace/metrics emission, and checkpoint fidelity mid-quarantine."""

import json

import pytest

from repro.adversary.plan import default_adversary_schedule
from repro.core.simulation import run_mix_experiment
from repro.core.trust import DefenseConfig, TrustState
from repro.observability.trace import TraceBus
from repro.workloads.catalog import CATALOG


def probe_schedule(start_s=2.0):
    return default_adversary_schedule("stream", kind="probe", start_s=start_s, seed=0)


def adversarial_mediator(make_mediator, *, adversaries=probe_schedule(), **kwargs):
    mediator = make_mediator(cap=108.0, adversaries=adversaries, **kwargs)
    mediator.add_application(CATALOG["stream"])
    mediator.add_application(CATALOG["kmeans"])
    return mediator


class TestHonestTransparency:
    def test_defense_is_invisible_on_an_honest_run(self, config):
        """With no adversaries the trust layer must be a pure observer:
        the defended and undefended runs produce identical results."""
        apps = [CATALOG["stream"], CATALOG["kmeans"]]
        kwargs = dict(mix_id=1, config=config, duration_s=6.0, warmup_s=2.0,
                      use_oracle_estimates=True)
        on = run_mix_experiment(apps, "app+res-aware", 108.0, **kwargs)
        off = run_mix_experiment(
            apps, "app+res-aware", 108.0,
            defense=DefenseConfig(enabled=False), **kwargs,
        )
        assert on.normalized_throughput == off.normalized_throughput
        assert on.power_share == off.power_share
        assert on.mean_wall_power_w == off.mean_wall_power_w


class TestQuarantinePosture:
    def test_attacker_quarantined_and_instrumented(self, make_mediator):
        bus = TraceBus()
        mediator = adversarial_mediator(make_mediator, trace_bus=bus)
        mediator.run_for(10.0)

        assert mediator.trust.state_of("stream") is TrustState.QUARANTINED
        assert mediator.trust.state_of("kmeans") is TrustState.TRUSTED
        # Transitions for the attacker only.
        assert {t.app for t in mediator.trust.transitions} == {"stream"}

        kinds = {e.kind for e in bus.events if not e.is_meta}
        assert "adv-attack-start" in kinds
        assert "adv-quarantine" in kinds

        metrics = mediator.export_metrics()
        assert metrics["counters"]["defense.transitions.quarantined"] >= 1
        assert metrics["gauges"]["defense.quarantined_apps"] == 1.0

    def test_quarantine_suspends_the_attacker(self, make_mediator):
        mediator = adversarial_mediator(make_mediator)
        mediator.run_for(10.0)
        # Quarantined tenants are dropped from the plan: the attacker draws
        # nothing while the honest app keeps running under the cap.
        record = mediator.timeline[-1]
        assert "stream" not in record.app_power_w
        assert record.app_power_w["kmeans"] > 0.0
        assert record.wall_w <= 108.0 + 1e-6

    def test_register_adversary_is_idempotent(self, make_mediator):
        mediator = adversarial_mediator(make_mediator)
        (spec,) = probe_schedule().specs
        mediator.register_adversary(spec)  # same spec again: journal replay
        assert mediator.adversary_engine.specs() == [spec]


class TestCheckpointFidelity:
    def test_round_trip_mid_quarantine(self, make_mediator):
        """A checkpoint taken while the attacker sits in quarantine restores
        onto a mediator built *without* the adversaries kwarg - the engine
        specs and trust records travel in the state - and the continuation
        is bit-identical."""
        live = adversarial_mediator(make_mediator)
        live.run_for(6.0)
        assert live.trust.state_of("stream") is TrustState.QUARANTINED

        state = json.loads(json.dumps(live.state_dict()))
        restored = adversarial_mediator(make_mediator, adversaries=None)
        restored.load_state_dict(state)
        assert restored.trust.state_of("stream") is TrustState.QUARANTINED
        assert restored.adversary_engine.specs() == live.adversary_engine.specs()

        live.run_for(4.0)
        restored.run_for(4.0)
        assert restored.state_dict() == live.state_dict()
        assert [t.to_state for t in restored.trust.transitions] == [
            t.to_state for t in live.trust.transitions
        ]
