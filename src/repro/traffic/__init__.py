"""Application models, workload construction, and data-locality mapping."""

from repro.traffic.applications import (
    APPLICATION_CATALOG,
    ApplicationBehaviorArray,
    ApplicationSpec,
    intensity_class,
)
from repro.traffic.workloads import (
    WORKLOAD_CATEGORIES,
    Workload,
    make_category_workload,
    make_checkerboard_workload,
    make_homogeneous_workload,
    make_workload_batch,
)
from repro.traffic.locality import (
    ExponentialLocality,
    HotspotLocality,
    PowerLawLocality,
    UniformStriping,
)
from repro.traffic.trace import GapTrace, TracedBehaviorArray

__all__ = [
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
    "HotspotLocality",
    "ExponentialLocality",
    "PowerLawLocality",
    "GapTrace",
    "TracedBehaviorArray",
]
