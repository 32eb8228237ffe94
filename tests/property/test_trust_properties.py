"""Hypothesis: the defense's zero-false-positive invariant - an all-honest
mix never trips the TrustScorer, whatever the policy, mix, cap, or seed,
and even while the fault injector is degrading telemetry."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.mediator import PowerMediator
from repro.core.policies import make_policy
from repro.core.simulation import default_battery
from repro.core.trust import TrustState
from repro.faults.plan import default_fault_plan
from repro.server.config import ServerConfig
from repro.workloads.mixes import MIXES
from repro.server.server import SimulatedServer

_CONFIG = ServerConfig()


def _run_honest(mix_id, policy, cap, seed, *, faults=None, duration_s=6.0):
    server = SimulatedServer(_CONFIG)
    policy_obj = make_policy(policy)
    mediator = PowerMediator(
        server,
        policy_obj,
        cap,
        battery=default_battery() if policy_obj.uses_esd else None,
        use_oracle_estimates=True,
        seed=seed,
        faults=faults,
    )
    for profile in MIXES[mix_id].profiles():
        mediator.add_application(profile.with_total_work(float("inf")))
    mediator.run_for(duration_s)
    return mediator


class TestHonestNeverQuarantined:
    @given(
        mix_id=st.sampled_from(sorted(MIXES)),
        cap=st.sampled_from([80.0, 95.0, 108.0]),
        policy=st.sampled_from(["app-aware", "app+res-aware"]),
        seed=st.integers(min_value=0, max_value=31),
    )
    @settings(max_examples=12, deadline=None)
    def test_space_regime_all_honest_is_all_trusted(self, mix_id, cap, policy, seed):
        mediator = _run_honest(mix_id, policy, cap, seed)
        assert mediator.trust.transitions == []
        for app in mediator.managed_apps():
            assert mediator.trust.state_of(app) is TrustState.TRUSTED
        assert mediator.trust.weights() == {}

    @given(
        mix_id=st.sampled_from(sorted(MIXES)),
        seed=st.integers(min_value=0, max_value=31),
    )
    @settings(max_examples=6, deadline=None)
    def test_esd_regime_all_honest_is_all_trusted(self, mix_id, seed):
        mediator = _run_honest(mix_id, "app+res+esd-aware", 80.0, seed)
        assert mediator.trust.transitions == []
        assert not mediator.trust.distrusted()

    @given(seed=st.integers(min_value=0, max_value=15))
    @settings(max_examples=4, deadline=None)
    def test_faulted_honest_run_is_still_all_trusted(self, seed):
        """Hangs, stuck actuators, and telemetry blackouts are faults, not
        strategy - none of them may read as adversarial evidence."""
        mediator = _run_honest(
            1, "app+res-aware", 108.0, seed,
            faults=default_fault_plan(seed=seed), duration_s=16.0,
        )
        assert mediator.trust.transitions == []
        assert not mediator.trust.distrusted()
