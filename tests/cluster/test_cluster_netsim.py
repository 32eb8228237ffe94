"""The Fig. 12 cluster experiment over the lossy-network control plane.

``ClusterSimulator.run(netsim=...)`` replays the lease/epoch control plane
once per shaving level, with each server's cap clamped to its rated power
and quantized to ``cap_grid_w / n_servers``. The pins below freeze what
that path produces - every strategy's results, the trace hash and the
metrics counters - so a change to how the caps are distributed shows up
here even when the results stay plausible.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.cluster.cluster import ClusterSimulator, NodeOutage
from repro.netsim import NetConfig, PartitionWindow
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import TraceBus
from repro.workloads.mixes import all_mixes
from repro.workloads.traces import ClusterPowerTrace

LOSSY_CUT = NetConfig(
    loss=0.2,
    jitter_steps=1,
    partitions=(PartitionWindow(3, 8, (1,)),),
    seed=5,
)
LOSSY_CUT_OUTAGES = (NodeOutage(server=0, start_step=6, end_step=10),)
LOSS_SEED9 = NetConfig(loss=0.25, jitter_steps=2, seed=9)


def _small_cluster():
    sim = ClusterSimulator(mixes=all_mixes()[:3], cap_grid_w=6.0)
    trace = ClusterPowerTrace.synthetic_diurnal(
        peak_w=sim.uncapped_cluster_power_w(), days=0.15, step_s=600.0, seed=3
    )
    return sim, trace


def _results_digest(experiment) -> str:
    doc = {
        repr(shave): {
            policy: dataclasses.asdict(result)
            for policy, result in sorted(by_policy.items())
        }
        for shave, by_policy in experiment.results.items()
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "lossy-cut": {
        "results": "0a67eb1d802213867e2b9ab9e386782ab81800821244e17af2cbef38d4622dde",
        "trace": "9b4d7e86e9dbd81443b7f0dcd7e6731826741c40435e1ea96920ad6cbd8b7904",
        "counters": {
            "controlplane.acks": 27,
            "controlplane.commands": 49,
            "controlplane.lease_expiries": 2,
            "controlplane.reconciliations": 2,
            "controlplane.reintegrations": 2,
            "controlplane.retries": 20,
            "controlplane.suspects": 2,
            "netsim.delivered": 113,
            "netsim.dropped_loss": 22,
            "netsim.dropped_partition": 4,
            "netsim.duplicated": 0,
            "netsim.sent": 146,
        },
    },
    "loss-seed9": {
        "results": "771c812d4073a37a6d697742fea3dec83d4a643eb308b125dffd8138056cd595",
        "trace": "65cf794e7ca7d2c33a4b210d895ac7e627fc0be8ac20b57045610c5b08b91c0d",
        "counters": {
            "controlplane.acks": 28,
            "controlplane.commands": 54,
            "controlplane.epoch_rejections": 3,
            "controlplane.lease_expiries": 2,
            "controlplane.retries": 22,
            "netsim.delivered": 113,
            "netsim.dropped_loss": 38,
            "netsim.dropped_partition": 0,
            "netsim.duplicated": 0,
            "netsim.sent": 161,
        },
    },
}

SCENARIOS = {
    "lossy-cut": (LOSSY_CUT, LOSSY_CUT_OUTAGES),
    "loss-seed9": (LOSS_SEED9, ()),
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_netsim_path_replays_to_its_golden_values(name):
    # A fresh simulator per scenario: the bin cache counters depend on
    # what an earlier run already evaluated.
    sim, trace = _small_cluster()
    net, outages = SCENARIOS[name]
    bus, metrics = TraceBus(), MetricsRegistry()
    experiment = sim.run(
        trace=trace,
        shave_fractions=(0.15, 0.30),
        duration_s=6.0,
        warmup_s=2.0,
        seed=1,
        netsim=net,
        outages=outages,
        trace_bus=bus,
        metrics=metrics,
    )
    golden = GOLDEN[name]
    assert _results_digest(experiment) == golden["results"], f"{name}: results moved"
    assert bus.content_hash() == golden["trace"], f"{name}: trace hash moved"
    assert metrics.counters() == golden["counters"], f"{name}: counters moved"


class TestClusterIntegration:
    @pytest.fixture(scope="class")
    def small(self):
        return _small_cluster()

    def run(self, sim, trace, **kwargs):
        return sim.run(
            trace=trace,
            shave_fractions=(0.30,),
            duration_s=6.0,
            warmup_s=2.0,
            seed=1,
            **kwargs,
        )

    def test_netsim_none_is_the_oracle_path(self, small):
        sim, trace = small
        a = self.run(sim, trace)
        b = self.run(sim, trace, netsim=None)
        assert a.results == b.results

    def test_netsim_degrades_but_stays_valid(self, small):
        sim, trace = small
        oracle = self.run(sim, trace)
        lossy = self.run(sim, trace, netsim=LOSSY_CUT, outages=LOSSY_CUT_OUTAGES)
        for policy in ("equal-rapl", "equal-ours"):
            o = oracle.results[0.30][policy]
            n = lossy.results[0.30][policy]
            assert 0.0 <= n.aggregate_performance <= o.aggregate_performance + 1e-9
        # Consolidation keeps its oracle placement either way.
        assert (
            lossy.results[0.30]["consolidation-migration"].aggregate_performance
            == oracle.results[0.30]["consolidation-migration"].aggregate_performance
        )

    def test_netsim_run_is_deterministic(self, small):
        sim, trace = small
        a = self.run(sim, trace, netsim=LOSS_SEED9)
        b = self.run(sim, trace, netsim=LOSS_SEED9)
        assert a.results == b.results
