"""Hypothesis: the hard invariant - wall power never exceeds the cap,
whatever the policy, mix, or cap, including the learning path and the ESD."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.mediator import PowerMediator
from repro.core.policies import make_policy
from repro.core.simulation import default_battery
from repro.server.config import ServerConfig
from repro.server.server import SimulatedServer
from repro.workloads.mixes import MIXES

_CONFIG = ServerConfig()


class TestCapAdherence:
    @given(
        mix_id=st.sampled_from(sorted(MIXES)),
        cap=st.sampled_from([75.0, 80.0, 85.0, 90.0, 100.0, 110.0]),
        policy=st.sampled_from(
            ["util-unaware", "server+res-aware", "app-aware", "app+res-aware"]
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_non_esd_policies_hold_the_cap(self, mix_id, cap, policy):
        server = SimulatedServer(_CONFIG)
        mediator = PowerMediator(
            server, make_policy(policy), cap, use_oracle_estimates=True
        )
        for profile in MIXES[mix_id].profiles():
            mediator.add_application(profile.with_total_work(float("inf")))
        mediator.run_for(6.0)
        for record in mediator.timeline:
            assert record.wall_w <= cap + 1e-6

    @given(
        mix_id=st.sampled_from(sorted(MIXES)),
        cap=st.sampled_from([65.0, 72.0, 80.0, 88.0]),
    )
    @settings(max_examples=12, deadline=None)
    def test_esd_policy_holds_the_cap(self, mix_id, cap):
        server = SimulatedServer(_CONFIG)
        mediator = PowerMediator(
            server,
            make_policy("app+res+esd-aware"),
            cap,
            battery=default_battery(),
            use_oracle_estimates=True,
        )
        for profile in MIXES[mix_id].profiles():
            mediator.add_application(profile.with_total_work(float("inf")))
        mediator.run_for(12.0)
        for record in mediator.timeline:
            assert record.wall_w <= cap + 1e-6

    @given(
        mix_id=st.sampled_from([1, 3, 10, 14]),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=10, deadline=None)
    def test_learning_path_holds_the_cap(self, mix_id, seed):
        """Estimation error must never leak into a cap violation."""
        server = SimulatedServer(_CONFIG)
        mediator = PowerMediator(
            server,
            make_policy("app+res-aware"),
            100.0,
            use_oracle_estimates=False,
            seed=seed,
        )
        for profile in MIXES[mix_id].profiles():
            mediator.add_application(profile.with_total_work(float("inf")))
        mediator.run_for(4.0)
        for record in mediator.timeline:
            assert record.wall_w <= 100.0 + 1e-6
