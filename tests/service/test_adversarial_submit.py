"""Service mode and adversarial tenants: the submit-side declaration, its
codec, and the mediator defenses firing inside the event loop."""

from __future__ import annotations

import pytest

from repro.adversary.plan import AdversarySpec
from repro.core.trust import TrustState
from repro.errors import AdversaryError
from repro.service import MediatorService, ServiceConfig, ServiceKilled
from repro.service.commands import SubmitJob, command_from_dict, command_to_dict
from repro.workloads.catalog import CATALOG

ADV = {
    "app": "stream", "kind": "probe", "start_s": 2.0, "duration_s": 20.0,
    "magnitude": 12.0, "period_s": 1.0, "burst_s": 0.3, "seed": 0,
}


def submit(i=0, profile=None, adversary=None):
    return SubmitJob(
        client=0, client_seq=i,
        profile=profile or CATALOG["stream"],
        adversary=adversary,
    )


class TestCommandValidation:
    def test_adversary_field_round_trips_through_the_codec(self):
        cmd = submit(adversary=dict(ADV))
        doc = command_to_dict(cmd)
        assert doc["adversary"]["kind"] == "probe"
        restored = command_from_dict(doc)
        assert restored.adversary == cmd.adversary
        assert restored.adversary_spec() == AdversarySpec.from_dict(ADV)

    def test_honest_submit_has_no_spec(self):
        assert submit().adversary_spec() is None

    def test_app_name_mismatch_rejected(self):
        with pytest.raises(AdversaryError, match="targets"):
            submit(profile=CATALOG["kmeans"], adversary=dict(ADV))

    def test_invalid_spec_rejected_at_the_boundary(self):
        with pytest.raises(AdversaryError, match="submit.adversary"):
            submit(adversary={**ADV, "magnitude": -1.0})


class TestServiceDefense:
    def test_adversarial_submit_is_admitted_then_quarantined(self, tmp_path):
        """An adversarial tenant enters through the normal admission path;
        the declaration programs the simulation while the mediator's own
        defenses (which never read it) catch and quarantine the tenant."""
        config = ServiceConfig(
            rate_per_s=1e-9,  # effectively no background offers: we drive admission
            clients=1,
            cap_levels=(),
            checkpoint_every_ticks=200,
        )
        service = MediatorService(config, tmp_path)
        honest = SubmitJob(client=0, client_seq=0, profile=CATALOG["kmeans"])
        attacker = SubmitJob(
            client=0, client_seq=1, profile=CATALOG["stream"],
            adversary=dict(ADV),
        )
        service._offer_all(0, [honest, attacker])
        service.run_for_ticks(150)
        service.close()

        counters = dict(service.metrics.counters())
        assert counters["service.admit.admitted"] == 2
        assert counters["service.admit.adversarial"] == 1
        trust = service.mediator.trust
        assert trust.state_of("stream") is TrustState.QUARANTINED
        assert trust.state_of("kmeans") is TrustState.TRUSTED
        mediator_counters = service.mediator.export_metrics()["counters"]
        assert mediator_counters["defense.transitions.quarantined"] >= 1

    def test_adversary_declaration_survives_a_restart(self, tmp_path):
        """The admitted declaration rides the checkpoint, so a service
        killed after it was admitted recovers with the same attack armed
        (register_adversary is idempotent on re-execution)."""
        fired = []

        def kill_once(tick):
            if tick == 15 and not fired:
                fired.append(tick)
                raise ServiceKilled("chaos")

        config = ServiceConfig(
            rate_per_s=1e-9, clients=1, cap_levels=(),
            checkpoint_every_ticks=10,
        )
        service = MediatorService(config, tmp_path, tick_hook=kill_once)
        service._offer_all(0, [submit(adversary=dict(ADV))])
        service.run_for_ticks(20)
        service.close()

        assert service.metrics.counter("service.restarts").value == 1
        assert service.mediator.adversary_engine.specs() == [AdversarySpec.from_dict(ADV)]
