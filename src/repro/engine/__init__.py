"""``repro.engine``: the vectorized fast path, pinned to the scalar reference.

Two layers:

* **Vector models** (:mod:`repro.engine.models`): drop-in subclasses of the
  scalar performance/power models that serve every query from precomputed
  full-knob-space response surfaces (:mod:`repro.engine.surface`). Selected
  with ``engine="vector"`` on :class:`~repro.server.server.SimulatedServer`
  and threaded through every experiment driver and the CLI (``--engine``).
  Bit-identical to the scalar path by construction - the golden-trace suite
  pins both, and ``tests/engine/test_differential.py`` fuzzes the claim.
  ``benchmarks/bench_engine_throughput.py`` times a loop of vector servers
  against a loop of scalar ones.
* **Fast segments** (:mod:`repro.engine.planner`): whole *mediated* ticks —
  planning stack included — replayed in horizon segments with closed-form
  accumulator kernels behind a vector-engine ``PowerMediator.run_for``;
  ``MediatedFleet`` is a loop over many mediators' ``run_for``
  (``benchmarks/bench_mediator_throughput.py``). Exported lazily: the
  planner imports the mediator, which imports the server, which imports
  this package, so a top-level import here would be circular.

The scalar path remains the golden reference; the vector path exists to make
it affordable at scale, never to redefine it.
"""

from __future__ import annotations

from repro.engine.models import VectorPerformanceModel, VectorPowerModel
from repro.engine.surface import ConfigGrid, ResponseSurface, grid_for
from repro.errors import ConfigurationError

__all__ = [
    "ENGINE_KINDS",
    "ConfigGrid",
    "MediatedFleet",
    "ResponseSurface",
    "VectorPerformanceModel",
    "VectorPowerModel",
    "grid_for",
    "validate_engine",
]


def __getattr__(name: str):
    # PEP 562 lazy export: break the engine -> planner -> mediator ->
    # server -> engine import cycle by resolving MediatedFleet on first use.
    if name == "MediatedFleet":
        from repro.engine.planner import MediatedFleet

        return MediatedFleet
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: The engine switch's accepted values, in reference-first order.
ENGINE_KINDS = ("scalar", "vector")


def validate_engine(engine: str) -> str:
    """Normalize/validate an ``engine=`` argument.

    Raises:
        ConfigurationError: for anything but the supported kinds.
    """
    if engine not in ENGINE_KINDS:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINE_KINDS}"
        )
    return engine
