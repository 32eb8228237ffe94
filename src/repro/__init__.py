"""repro: a reproduction of "Mediating Power Struggles on a Shared Server"
(Narayanan & Sivasubramaniam, ISPASS 2020).

Power is an *indirectly shared* resource on a consolidated server: even when
co-located applications own disjoint cores, caches and DIMMs, they contend
for the watts under the server's power cap. This package implements the
paper's full system on a simulated substrate with the same control surface
as the authors' Linux/Xeon platform:

* :mod:`repro.server` - the simulated dual-socket server (Table I): power
  and performance models, RAPL, heartbeats, DVFS/taskset/DRAM knobs, sleep
  states, and the discrete-time engine;
* :mod:`repro.workloads` - the twelve evaluation applications, Table II
  mixes, dynamic arrival schedules, and cluster demand traces;
* :mod:`repro.learning` - the online utility learning (sparse sampling +
  collaborative filtering);
* :mod:`repro.esd` - the Lead-Acid battery model and the Eq. (5) duty-cycle
  controller;
* :mod:`repro.core` - the contribution: PowerAllocator (R1+R2), Coordinator
  (R3+R4), Accountant (E1-E4), the five evaluated policies, and the
  PowerMediator framework;
* :mod:`repro.cluster` - the 10-server peak-shaving evaluation (Fig. 12);
* :mod:`repro.analysis` - metric aggregation and report formatting.

Quickstart::

    from repro import SimulatedServer, PowerMediator, make_policy, get_mix

    server = SimulatedServer()
    mediator = PowerMediator(server, make_policy("app+res-aware"), p_cap_w=100.0)
    for profile in get_mix(10).profiles():
        mediator.add_application(profile)
    mediator.run_for(60.0)
    print(mediator.server_objective())
"""

from repro.errors import (
    ReproError,
    ConfigurationError,
    KnobError,
    PowerBudgetError,
    BatteryError,
    LearningError,
    SchedulingError,
    SimulationError,
)
from repro.server import (
    ServerConfig,
    KnobSetting,
    DEFAULT_SERVER_CONFIG,
    SimulatedServer,
    PerformanceModel,
    PowerModel,
)
from repro.workloads import (
    WorkloadProfile,
    CATALOG,
    get_application,
    MIXES,
    Mix,
    get_mix,
    ArrivalSchedule,
    PhasedProfile,
    ClusterPowerTrace,
    peak_shaving_caps,
)
from repro.esd import LeadAcidBattery, EsdController, DutyCycle, compute_duty_cycle
from repro.learning import (
    PreferenceMatrix,
    CollaborativeEstimator,
    StratifiedSampler,
    calibrate_sampling_fraction,
)
from repro.core import (
    PowerAllocator,
    Allocation,
    Coordinator,
    CoordinationMode,
    AllocationPlan,
    Policy,
    make_policy,
    POLICY_NAMES,
    Accountant,
    PowerMediator,
    CandidateSet,
    app_utility_curve,
    resource_marginal_utilities,
    run_mix_experiment,
    run_policy_comparison,
    run_dynamic_experiment,
)
from repro.cluster import ClusterSimulator, CLUSTER_POLICY_NAMES

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "KnobError",
    "PowerBudgetError",
    "BatteryError",
    "LearningError",
    "SchedulingError",
    "SimulationError",
    # server
    "ServerConfig",
    "KnobSetting",
    "DEFAULT_SERVER_CONFIG",
    "SimulatedServer",
    "PerformanceModel",
    "PowerModel",
    # workloads
    "WorkloadProfile",
    "CATALOG",
    "get_application",
    "MIXES",
    "Mix",
    "get_mix",
    "ArrivalSchedule",
    "PhasedProfile",
    "ClusterPowerTrace",
    "peak_shaving_caps",
    # esd
    "LeadAcidBattery",
    "EsdController",
    "DutyCycle",
    "compute_duty_cycle",
    # learning
    "PreferenceMatrix",
    "CollaborativeEstimator",
    "StratifiedSampler",
    "calibrate_sampling_fraction",
    # core
    "PowerAllocator",
    "Allocation",
    "Coordinator",
    "CoordinationMode",
    "AllocationPlan",
    "Policy",
    "make_policy",
    "POLICY_NAMES",
    "Accountant",
    "PowerMediator",
    "CandidateSet",
    "app_utility_curve",
    "resource_marginal_utilities",
    "run_mix_experiment",
    "run_policy_comparison",
    "run_dynamic_experiment",
    # cluster
    "ClusterSimulator",
    "CLUSTER_POLICY_NAMES",
]
