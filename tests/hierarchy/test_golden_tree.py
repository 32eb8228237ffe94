"""Golden values for the budget tree, the control plane and the network.

Four seeded scenarios pin everything a run produces: the trace hash, a
sha256 of the outcome, and every metrics counter. Together they emit every
``cp-*`` trace kind plus ``hier-fallback``, ``hier-heal``, ``hier-level``
and ``hier-restart``, so a change to :class:`~repro.netsim.network.SimNetwork`,
:class:`~repro.cluster.controlplane.ClusterController` or
:class:`~repro.hierarchy.runner.BudgetTreeSimulator` that moves any
message, RNG draw, grant or counter shows up here, not only in a test that
compares two runners sharing the same code.

Every cap and grant is a whole multiple of the 2 W quantum (or the 95 W
clamp), so every sum is exact and the values do not depend on the float
summation algorithm of the Python version.

When a change intentionally moves behaviour, print the new values with
``PYTHONPATH=src python tests/hierarchy/test_golden_tree.py`` and review
the diff.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.chaos.hierarchy import run_hierarchy_chaos
from repro.hierarchy import SubtreeOutage, TreeSpec, run_budget_tree
from repro.netsim import NetConfig, PartitionWindow
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import (
    CONTROL_PLANE_KINDS,
    TraceBus,
    verify_trace,
)

FLAT_LOADS = [4, 6, 8, 8, 8, 5, 3, 8] * 5
FLAT_NET = NetConfig(
    latency_steps=1,
    jitter_steps=2,
    loss=0.15,
    duplicate=0.05,
    seed=7,
    partitions=(PartitionWindow(10, 18, (2, 5)),),
    lossy_until_step=30,
)
FLAT_DOWN = [frozenset({0}) if 15 <= t < 25 else frozenset() for t in range(40)]


def _outcome_digest(outcome) -> str:
    doc = {
        "caps_w": outcome.caps_w,
        "leaf_epochs": outcome.leaf_epochs,
        "node_epochs": outcome.node_epochs,
        "final_epochs": outcome.final_epochs,
        "net_stats": outcome.net_stats,
        "fallbacks": outcome.fallbacks,
        "heals": outcome.heals,
        "restarts": outcome.restarts,
        "zombie_free": outcome.zombie_free,
        "max_total_cap_w": outcome.max_total_cap_w,
    }
    return _sha256(doc)


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _flat_lossy(bus: TraceBus, registry: MetricsRegistry):
    return run_budget_tree(
        TreeSpec(fanouts=(8,), budget_w=800.0),
        FLAT_LOADS,
        net=FLAT_NET,
        leaf_down_sets=FLAT_DOWN,
        drain_steps=12,
        trace_bus=bus,
        metrics=registry,
    )


def _pdu_rack(bus: TraceBus, registry: MetricsRegistry):
    return run_budget_tree(
        TreeSpec((4, 5), 2000.0),
        [20] * 10 + [12] * 10 + [20] * 10 + [5] * 10 + [17] * 20,
        net=NetConfig(jitter_steps=1, loss=0.1, duplicate=0.05, seed=3),
        partitions={"1": (PartitionWindow(20, 32, (0, 3)),)},
        subtree_outages=(SubtreeOutage((2,), 10, 22),),
        drain_steps=15,
        trace_bus=bus,
        metrics=registry,
    )


def _three_level(bus: TraceBus, registry: MetricsRegistry):
    return run_budget_tree(
        TreeSpec((3, 3, 4), 3600.0),
        [36] * 50,
        net=NetConfig(
            latency_steps=1, jitter_steps=2, loss=0.2, duplicate=0.1, seed=11
        ),
        rated_leaf_cap_w=95.0,
        subtree_outages=(SubtreeOutage((1, 2), 5, 15),),
        drain_steps=20,
        trace_bus=bus,
        metrics=registry,
    )


def _chaos_seed3(bus: TraceBus, registry: MetricsRegistry):
    return run_hierarchy_chaos(
        seed=3, fanouts=(2, 3, 2), n_steps=60, trace_bus=bus, metrics=registry
    )


SCENARIOS = {
    "flat-lossy": _flat_lossy,
    "pdu-rack": _pdu_rack,
    "three-level": _three_level,
    "chaos-seed3": _chaos_seed3,
}

GOLDEN = {
    "flat-lossy": {
        "trace": "a843f132b31842af16f1ecb80dc50570a79691bcb391f90e58333eefd3ec90c5",
        "outcome": "29f8d3faf6cab106f034351e5c79d6edcb74ed9a367cc37c50eadc17663d2640",
        "counters": {
            "controlplane.acks": 135,
            "controlplane.commands": 202,
            "controlplane.epoch_rejections": 5,
            "controlplane.lease_expiries": 2,
            "controlplane.reconciliations": 3,
            "controlplane.reintegrations": 3,
            "controlplane.retries": 58,
            "controlplane.suspects": 3,
            "netsim.delivered": 473,
            "netsim.dropped_loss": 41,
            "netsim.dropped_partition": 21,
            "netsim.duplicated": 9,
            "netsim.sent": 563,
        },
    },
    "pdu-rack": {
        "trace": "2ed49a3fbe9ed65a970e5cacb84678758fa7c165aa40e41fa4f5e69141c13d3f",
        "outcome": "2c7dfc51062d7fb20a52641e6dfed88192a19e9f2dedd4f5d06cad2adabb2375",
        "counters": {
            "controlplane.acks": 661,
            "controlplane.commands": 800,
            "controlplane.lease_expiries": 32,
            "controlplane.reconciliations": 6,
            "controlplane.reintegrations": 8,
            "controlplane.retries": 248,
            "controlplane.suspects": 8,
            "hierarchy.deferred_shrinks": 18,
            "hierarchy.fallbacks": 5,
            "hierarchy.heals": 5,
            "netsim.delivered": 2190,
            "netsim.dropped_loss": 229,
            "netsim.dropped_partition": 21,
            "netsim.duplicated": 86,
            "netsim.sent": 2390,
        },
    },
    "three-level": {
        "trace": "e0b2344ccce4d1d2d5946e7678b9023c98a9b141c89fac8ad40041e8ea57bbd2",
        "outcome": "e6b3d0fb1f2c424bd37945c9dcaa23a8ff28820fa1995355eb0fe5f1067b79ae",
        "counters": {
            "controlplane.acks": 1957,
            "controlplane.commands": 2693,
            "controlplane.epoch_rejections": 148,
            "controlplane.lease_expiries": 690,
            "controlplane.reconciliations": 2,
            "controlplane.reintegrations": 6,
            "controlplane.retries": 490,
            "controlplane.suspects": 6,
            "hierarchy.deferred_shrinks": 14,
            "hierarchy.fallbacks": 71,
            "hierarchy.heals": 71,
            "netsim.delivered": 5698,
            "netsim.dropped_loss": 1177,
            "netsim.dropped_partition": 0,
            "netsim.duplicated": 535,
            "netsim.sent": 6627,
        },
    },
    "chaos-seed3": {
        "trace": "2469bcf2c6ed1522797988bd041dbcf937527d568c744efc4fb87620bd3d4184",
        "outcome": "a6a50cb1d85ecf6d16850e5d88b03416321443a2970b94e9e15046d7320937e1",
        "counters": {
            "controlplane.acks": 722,
            "controlplane.commands": 1021,
            "controlplane.epoch_rejections": 42,
            "controlplane.lease_expiries": 115,
            "controlplane.reconciliations": 9,
            "controlplane.reintegrations": 13,
            "controlplane.restarts": 1,
            "controlplane.retries": 236,
            "controlplane.suspects": 14,
            "hierarchy.deferred_shrinks": 57,
            "hierarchy.fallbacks": 42,
            "hierarchy.heals": 33,
            "hierarchy.restarts": 1,
            "netsim.delivered": 2923,
            "netsim.dropped_loss": 679,
            "netsim.dropped_partition": 34,
            "netsim.duplicated": 299,
            "netsim.sent": 3410,
        },
    },
}


def _run(name: str):
    bus, registry = TraceBus(), MetricsRegistry()
    outcome = SCENARIOS[name](bus, registry)
    if hasattr(outcome, "caps_w"):
        digest = _outcome_digest(outcome)
    else:
        digest = _sha256(dataclasses.asdict(outcome))
    return bus, outcome, digest, registry.counters()


@pytest.fixture(scope="module")
def runs():
    return {name: _run(name) for name in SCENARIOS}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario_replays_to_its_golden_values(runs, name):
    bus, _, digest, counters = runs[name]
    verify_trace(bus.events)
    golden = GOLDEN[name]
    assert bus.content_hash() == golden["trace"], f"{name}: trace hash moved"
    assert digest == golden["outcome"], f"{name}: outcome moved"
    assert counters == golden["counters"], f"{name}: counters moved"


def test_chaos_run_exercises_restore_outages_and_heals(runs):
    _, result, _, _ = runs["chaos-seed3"]
    assert result.restarts == 1
    assert result.domain_outages == 2
    assert result.fallbacks == 21
    assert result.heals == 17


def test_scenarios_cover_every_control_plane_and_tree_kind(runs):
    kinds = set()
    for bus, _, _, _ in runs.values():
        kinds |= {event.kind for event in bus.events}
    assert CONTROL_PLANE_KINDS <= kinds
    assert {"hier-fallback", "hier-heal", "hier-level", "hier-restart"} <= kinds


if __name__ == "__main__":
    for scenario in SCENARIOS:
        bus, _, digest, counters = _run(scenario)
        print(scenario)
        print(f"  trace    {bus.content_hash()}")
        print(f"  outcome  {digest}")
        print(f"  counters {counters}")
