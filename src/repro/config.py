"""Simulation configuration.

Defaults follow the paper's Table 2:

======================  =============================================
Network topology        2D mesh (``"mesh"``; ``"torus"`` supported)
Routing algorithm       FLIT-BLESS (``network="bless"``)
Router (link) latency   2 (1) cycles
Core model              out-of-order, 3 insns/cycle, 1 mem insn/cycle
Instruction window      128 instructions
Cache block             32 bytes (2 reply flits over 128-bit links)
L1 cache                private (its miss stream drives the traffic)
L2 cache                shared, distributed, perfect
L2 address mapping      per-block interleaving (uniform striping);
                        randomized exponential for locality studies
======================  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from repro.control.base import Controller, NoController
from repro.guardrails.faults import FaultConfig
from repro.network import NETWORK_MODELS, NETWORK_NAMES
from repro.power.model import PowerCoefficients
from repro.topology.registry import TOPOLOGY_NAMES, prepare_config
from repro.traffic.locality import LOCALITY_MODELS, LOCALITY_NAMES, check_param
from repro.traffic.workloads import Workload

__all__ = ["SimulationConfig", "BACKENDS"]

#: Hot-path execution backends ``SimulationConfig.backend`` may name:
#: the pure vectorized-Python reference, and the compiled C kernels
#: (bit-identical results; refuses configurations it does not support).
BACKENDS = ("numpy", "native")


@dataclass
class SimulationConfig:
    """Everything needed to build a :class:`~repro.sim.Simulator`.

    ``locality`` may be a name in
    :data:`repro.traffic.locality.LOCALITY_MODELS` resolved with
    ``locality_param``, or a pre-built sampler object from
    :mod:`repro.traffic.locality`.

    A field whose metadata has a ``"help"`` entry is a ``python -m
    repro`` flag: ``--field-name`` unless ``"flag"`` says otherwise, its
    type and default taken from here, ``"choices"`` the registry's own
    name tuple.
    """

    workload: Workload
    seed: int = field(default=0, metadata={
        "help": "root seed every random stream derives from"})

    # --- topology / network ------------------------------------------
    topology: str = field(default="mesh", metadata={
        "help": "fabric topology ('python -m repro --list-topologies')",
        "choices": TOPOLOGY_NAMES})
    width: int = 0  # 0: inferred (square grid / cube) from workload size
    height: int = 0
    depth: int = field(default=0, metadata={
        "help": "3D topologies: z dimension (0 = infer a cube)"})
    chiplet_tile: int = field(default=4, metadata={
        "help": "chiplet topology: cluster edge length"})
    express_stride: int = field(default=4, metadata={
        "help": "express topology: skip-link span"})
    network: str = field(default="bless", metadata={
        "help": "router model", "choices": NETWORK_NAMES})
    backend: str = field(default="numpy", metadata={
        "help": "hot-path backend: pure-numpy reference or compiled C "
                "kernels (bit-identical; requires a C compiler on first use)",
        "choices": BACKENDS})
    router_latency: int = 2
    link_latency: int = 1
    eject_width: int = 1
    arbitration: str = "oldest_first"
    buffer_capacity: int = 16  # buffered network: 4 VCs x 4 flits
    side_buffer_capacity: int = 4  # hybrid network: MinBD-style side buffer
    queue_capacity: int = 64  # NI packet queues (requests / responses)

    # --- core / memory (Table 2) --------------------------------------
    issue_width: int = 3
    window_size: int = 128
    mshr_limit: int = 16
    request_flits: int = 1
    reply_flits: int = 2  # 32-byte block over 128-bit flits
    l2_latency: int = 6

    # --- traffic -------------------------------------------------------
    locality: Union[str, object] = field(default="uniform", metadata={
        "help": "L2 destination distribution", "choices": LOCALITY_NAMES})
    locality_param: float = field(default=1.0, metadata={
        "help": "mean hop distance (exponential) or alpha (powerlaw)"})
    phase_sigma: float = 0.4
    phase_length: int = 20_000

    # --- control ---------------------------------------------------------
    controller: Controller = field(default_factory=NoController)
    epoch: int = field(default=10_000, metadata={
        "help": "controller/measurement period T"})
    model_control_traffic: bool = False

    # --- power ----------------------------------------------------------
    power: PowerCoefficients = field(default_factory=PowerCoefficients)

    # --- observability (repro.observability) -----------------------------
    profile: bool = field(default=False, metadata={
        "help": "time each simulated phase (PhaseTimer) and print the "
                "breakdown; off runs the uninstrumented loop"})
    trace: bool = field(default=False, metadata={
        "help": "record inject/hop/deflect/eject events for a sampled "
                "packet subset"})
    trace_sample: float = field(default=1 / 16, metadata={
        "help": "fraction of packet identities traced (quantized to "
                "1/65536)"})
    trace_capacity: int = field(default=65536, metadata={
        "help": "ring-buffer bound on stored trace events (oldest "
                "overwritten)"})

    # --- guardrails (repro.guardrails) -----------------------------------
    check_invariants: bool = field(default=False, metadata={
        "help": "verify the no-drop / eject-width / age-order invariants "
                "every cycle"})
    watchdog_window: int = field(default=0, metadata={
        "help": "cycles without ejection progress before the watchdog "
                "trips (0 = off)",
        "flag": "--watchdog"})
    max_flit_age: int = field(default=0, metadata={
        "help": "maximum tolerated in-flight flit age in cycles (0 = off)"})
    #: link/router fault injection; ``None`` runs a healthy network
    faults: Optional[FaultConfig] = None
    #: mid-run fault/recovery campaign (repro.chaos); ``None`` disables
    chaos: Optional[object] = None

    def __post_init__(self):
        # Topology-specific geometry: the registry entry fills zeroed
        # dimensions from the workload size and validates the shape.
        prepare_config(self)
        if self.network not in NETWORK_MODELS:
            raise ValueError(f"unknown network {self.network!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if isinstance(self.locality, str):
            if self.locality not in LOCALITY_MODELS:
                raise ValueError(f"unknown locality model {self.locality!r}")
            check_param(self.locality, self.locality_param)
        if self.buffer_capacity < 1:
            raise ValueError("buffer_capacity must be >= 1")
        if self.side_buffer_capacity < 1:
            raise ValueError("side_buffer_capacity must be >= 1")
        if self.epoch < 1:
            raise ValueError("epoch must be positive")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ValueError("trace_sample must lie in [0, 1]")
        if self.trace_capacity < 1:
            raise ValueError("trace_capacity must be positive")
        if self.watchdog_window < 0:
            raise ValueError("watchdog_window must be >= 0 (0 disables it)")
        if self.max_flit_age < 0:
            raise ValueError("max_flit_age must be >= 0 (0 disables it)")
        if self.faults is not None and not isinstance(self.faults, FaultConfig):
            raise ValueError(
                f"faults must be a FaultConfig or None, got {self.faults!r}"
            )
        if self.chaos is not None:
            # Imported lazily: repro.chaos pulls in the network stack,
            # which this module must not depend on at import time.
            from repro.chaos.schedule import ChaosConfig

            if not isinstance(self.chaos, ChaosConfig):
                raise ValueError(
                    f"chaos must be a ChaosConfig or None, got {self.chaos!r}"
                )

    @property
    def hop_latency(self) -> int:
        return self.router_latency + self.link_latency

    @property
    def num_nodes(self) -> int:
        return self.workload.num_nodes

    def with_(self, **overrides) -> "SimulationConfig":
        """A modified copy (baseline-vs-mechanism comparisons)."""
        return replace(self, **overrides)
