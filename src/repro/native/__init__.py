"""Compiled hot-path backend (``SimulationConfig.backend = "native"``).

C implementations of the simulator's per-cycle phases (behaviour tick,
cores, memory, network, ejection), bit-identical to the pure-numpy
reference, RNG draws included (through numpy's own ``libnpyrandom``),
behind one entry point that runs whole cycles per call — or one phase
of one cycle, when something observes the phases.  The kernels compile
on demand from ``kernels.c``; hosts without a C compiler keep the
default numpy backend.
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
