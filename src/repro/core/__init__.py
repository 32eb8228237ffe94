"""The paper's contribution: mediating power struggles on a shared server.

This package implements the Fig. 6 system architecture:

* **App utilities** (:mod:`~repro.core.utility` + :mod:`repro.learning`) -
  application- and resource-level power utility curves, learnt online;
* **PowerAllocator** (:mod:`~repro.core.allocator`) - apportions the server
  power budget across applications (R1) and recursively across each
  application's direct resources (R2);
* **Coordinator** (:mod:`~repro.core.coordinator`) - coordinates power draw
  in space (R3a), in time (R3b), and in space+time with energy storage (R4);
* **Accountant** (:mod:`~repro.core.accountant`) - tracks the cap, the
  scheduled applications and their status; detects events E1-E4 and triggers
  re-allocation/re-calibration;
* **Policies** (:mod:`~repro.core.policies`) - the paper's evaluated
  schemes: Util-Unaware, Server+Res-Aware, App-Aware, App+Res-Aware and
  App+Res+ESD-Aware;
* **PowerMediator** (:mod:`~repro.core.mediator`) - the top-level framework
  object tying everything to a :class:`~repro.server.server.SimulatedServer`;
* **Experiment drivers** (:mod:`~repro.core.simulation`) - steady-state and
  dynamic experiment harnesses used by the benchmarks.
"""

from repro.core.events import (
    Event,
    CapChangeEvent,
    ArrivalEvent,
    DepartureEvent,
    PhaseChangeEvent,
)
from repro.core.utility import (
    UtilityCurve,
    app_utility_curve,
    resource_marginal_utilities,
    CandidateSet,
)
from repro.core.allocator import PowerAllocator, Allocation, AppAllocation
from repro.core.coordinator import Coordinator, CoordinationMode, AllocationPlan, TimeSlot
from repro.core.policies import (
    Policy,
    UtilUnawarePolicy,
    ServerResAwarePolicy,
    AppAwarePolicy,
    AppResAwarePolicy,
    AppResEsdAwarePolicy,
    make_policy,
    POLICY_NAMES,
)
from repro.core.accountant import Accountant
from repro.core.mediator import PowerMediator
from repro.core.simulation import (
    MixExperimentResult,
    DynamicExperimentResult,
    run_mix_experiment,
    run_policy_comparison,
    run_dynamic_experiment,
)

__all__ = [
    "Event",
    "CapChangeEvent",
    "ArrivalEvent",
    "DepartureEvent",
    "PhaseChangeEvent",
    "UtilityCurve",
    "app_utility_curve",
    "resource_marginal_utilities",
    "CandidateSet",
    "PowerAllocator",
    "Allocation",
    "AppAllocation",
    "Coordinator",
    "CoordinationMode",
    "AllocationPlan",
    "TimeSlot",
    "Policy",
    "UtilUnawarePolicy",
    "ServerResAwarePolicy",
    "AppAwarePolicy",
    "AppResAwarePolicy",
    "AppResEsdAwarePolicy",
    "make_policy",
    "POLICY_NAMES",
    "Accountant",
    "PowerMediator",
    "MixExperimentResult",
    "DynamicExperimentResult",
    "run_mix_experiment",
    "run_policy_comparison",
    "run_dynamic_experiment",
]
