"""Compiled hot-path backend (``SimulationConfig.backend = "native"``).

C implementations of the four behavior-independent simulator phases
(cores, memory, network, ejection), bit-identical to the pure-numpy
reference, plus a fused entry point that runs whole cycles — behaviour
tick and RNG draws included, through numpy's own ``libnpyrandom`` — in
one call whenever nothing observes the phases.  The kernels compile on
demand from ``kernels.c``; hosts without a C compiler keep the default
numpy backend.
"""

from repro.native.accel import NativeAccel, NativeUnsupported
from repro.native.build import NativeBuildError, load_library, native_available

__all__ = [
    "NativeAccel",
    "NativeBuildError",
    "NativeUnsupported",
    "load_library",
    "native_available",
]
