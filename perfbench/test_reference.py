"""The composed rack-fleet harness against its scalar reference.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.

The benchmark quotes rates for vector-engine mediators advanced by one
``MediatedFleet``. They are only worth quoting while the same episode,
replayed by scalar-engine mediators each advanced by its own ``run_for``,
produces the identical digest - the contract ``bench_mediator_throughput``
keeps for the fleet alone.
"""

from scenarios import rack_fleet
from spans import Tracer


def test_fleet_episode_matches_scalar_loop():
    kwargs = dict(fanouts=(2, 3), steps=12)
    fast = rack_fleet(7, Tracer(False), 0, fleet=True, **kwargs)
    reference = rack_fleet(7, Tracer(False), 0, fleet=False, **kwargs)
    assert all(fast.checks.values()), fast.checks
    assert all(reference.checks.values()), reference.checks
    assert fast.quality["norm_throughput"] > 0  # jobs ran, so caps and plans moved
    assert fast.quality == reference.quality
    assert fast.digest == reference.digest


def test_traced_episode_matches_untraced():
    kwargs = dict(fanouts=(2, 2), steps=6)
    tracer = Tracer(True)
    traced = rack_fleet(3, tracer, 1, **kwargs)
    plain = rack_fleet(3, Tracer(False), 0, **kwargs)
    assert traced.digest == plain.digest
    self_times = tracer.self_times({1})
    assert abs(sum(self_times.values()) - tracer.wall({1})) < 1e-9
