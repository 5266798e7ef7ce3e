"""repro — a reproduction of "On-Chip Networks from a Networking
Perspective: Congestion and Scalability in Many-Core Interconnects"
(Nychis, Fallin, Moscibroda, Mutlu, Seshan; SIGCOMM 2012).

A cycle-level, numpy-vectorized simulator of bufferless (BLESS) and
buffered 2D-mesh/torus networks-on-chip with closed-loop cores, the
paper's Table-1 application models, and its application-aware
source-throttling congestion-control mechanism.

Quickstart::

    import numpy as np
    from repro import (SimulationConfig, Simulator, CentralController,
                       make_category_workload)

    rng = np.random.default_rng(42)
    workload = make_category_workload("H", num_nodes=16, rng=rng)
    config = SimulationConfig(workload, controller=CentralController())
    result = Simulator(config).run(100_000)
    print(result.summary())
"""

from repro.config import SimulationConfig
from repro.control import (
    CentralController,
    ControlParams,
    Controller,
    DistributedController,
    DomainMap,
    EpochView,
    FairCentralController,
    HierarchicalController,
    MechanismHardwareCost,
    NoController,
    StaticThrottleController,
    mechanism_hardware_cost,
)
from repro.guardrails import (
    FaultConfig,
    FaultModel,
    GuardrailError,
    GuardrailReport,
    InvariantChecker,
    InvariantViolation,
    LivelockError,
    ProgressWatchdog,
    SimulationTimeout,
)
from repro.harness import (
    HarnessReport,
    JobSpec,
    ResultCache,
    run_job,
    run_jobs,
)
from repro.metrics import max_slowdown, system_throughput, weighted_speedup
from repro.network import (
    CreditFlowControl,
    DeflectFlowControl,
    HybridFlowControl,
    RouterEngine,
    build_network,
)
from repro.observability import FlitTracer, PerfCounters, PhaseTimer
from repro.power import PowerCoefficients, PowerModel, PowerReport
from repro.rng import child_rng
from repro.sim import SimulationResult, Simulator
from repro.topology import Mesh2D, Torus2D
from repro.traffic import (
    APPLICATION_CATALOG,
    ApplicationBehaviorArray,
    ApplicationSpec,
    ExponentialLocality,
    GapTrace,
    HotspotLocality,
    PowerLawLocality,
    TracedBehaviorArray,
    UniformStriping,
    Workload,
    WORKLOAD_CATEGORIES,
    intensity_class,
    make_category_workload,
    make_checkerboard_workload,
    make_homogeneous_workload,
    make_workload_batch,
)

__version__ = "1.0.0"

__all__ = [
    "SimulationConfig",
    "Simulator",
    "SimulationResult",
    "JobSpec",
    "run_job",
    "run_jobs",
    "ResultCache",
    "HarnessReport",
    "Mesh2D",
    "Torus2D",
    "RouterEngine",
    "DeflectFlowControl",
    "CreditFlowControl",
    "HybridFlowControl",
    "build_network",
    "Controller",
    "EpochView",
    "NoController",
    "StaticThrottleController",
    "CentralController",
    "ControlParams",
    "DistributedController",
    "FairCentralController",
    "DomainMap",
    "HierarchicalController",
    "MechanismHardwareCost",
    "mechanism_hardware_cost",
    "PowerModel",
    "PowerCoefficients",
    "PowerReport",
    "PhaseTimer",
    "FlitTracer",
    "PerfCounters",
    "FaultConfig",
    "FaultModel",
    "GuardrailError",
    "GuardrailReport",
    "InvariantChecker",
    "InvariantViolation",
    "LivelockError",
    "ProgressWatchdog",
    "SimulationTimeout",
    "ApplicationSpec",
    "APPLICATION_CATALOG",
    "ApplicationBehaviorArray",
    "intensity_class",
    "Workload",
    "WORKLOAD_CATEGORIES",
    "make_category_workload",
    "make_homogeneous_workload",
    "make_checkerboard_workload",
    "make_workload_batch",
    "UniformStriping",
    "ExponentialLocality",
    "PowerLawLocality",
    "HotspotLocality",
    "GapTrace",
    "TracedBehaviorArray",
    "system_throughput",
    "weighted_speedup",
    "max_slowdown",
    "child_rng",
    "__version__",
]
