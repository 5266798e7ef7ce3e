"""Network substrates: flit conventions, queues, and router models.

Router models register themselves in :data:`NETWORK_MODELS` so the
simulator, CLI, and sweeps share a single source of truth for what
``config.network`` may name.  :func:`build_network` is the factory the
simulator calls; adding a router variant means registering one builder
here plus (usually) a small flow-control policy class in
:mod:`repro.network.engine` — see DESIGN.md §S21.
"""

from repro.network.flit import (
    FLIT_CONTROL,
    FLIT_REPLY,
    FLIT_REQUEST,
    KIND_NAMES,
    SEQ_RING,
)
from repro.network.queues import FlitQueueArray
from repro.network.injection import InjectionThrottleGate, StarvationMeter
from repro.network.base import EjectedFlits, NocModel
from repro.network.bless import BlessNetwork
from repro.network.buffered import BufferedNetwork
from repro.network.hybrid import HybridNetwork


def _build_bless(config, topology, rng, fault_model):
    return BlessNetwork(
        topology,
        hop_latency=config.hop_latency,
        eject_width=config.eject_width,
        queue_capacity=config.queue_capacity,
        arbitration=config.arbitration,
        rng=rng,
        fault_model=fault_model,
    )


def _build_buffered(config, topology, rng, fault_model):
    return BufferedNetwork(
        topology,
        hop_latency=config.hop_latency,
        buffer_capacity=config.buffer_capacity,
        queue_capacity=config.queue_capacity,
        fault_model=fault_model,
    )


def _build_hybrid(config, topology, rng, fault_model):
    return HybridNetwork(
        topology,
        hop_latency=config.hop_latency,
        eject_width=config.eject_width,
        queue_capacity=config.queue_capacity,
        arbitration=config.arbitration,
        side_buffer_capacity=config.side_buffer_capacity,
        rng=rng,
        fault_model=fault_model,
    )


#: name -> builder(config, topology, rng, fault_model) for every router
#: model ``SimulationConfig.network`` may select.
NETWORK_MODELS = {
    "bless": _build_bless,
    "buffered": _build_buffered,
    "hybrid": _build_hybrid,
}

#: Canonical name tuple for CLI ``choices``.
NETWORK_NAMES = tuple(NETWORK_MODELS)


def build_network(config, topology, rng=None, fault_model=None) -> NocModel:
    """Construct the router model named by ``config.network``."""
    try:
        builder = NETWORK_MODELS[config.network]
    except KeyError:
        raise ValueError(
            f"unknown network model {config.network!r}; expected one of "
            f"{sorted(NETWORK_MODELS)}"
        ) from None
    return builder(config, topology, rng, fault_model)


__all__ = [
    "FLIT_REQUEST",
    "FLIT_REPLY",
    "FLIT_CONTROL",
    "KIND_NAMES",
    "FlitQueueArray",
    "SEQ_RING",
    "StarvationMeter",
    "InjectionThrottleGate",
    "EjectedFlits",
    "NocModel",
    "BlessNetwork",
    "BufferedNetwork",
    "HybridNetwork",
    "NETWORK_MODELS",
    "NETWORK_NAMES",
    "build_network",
]
