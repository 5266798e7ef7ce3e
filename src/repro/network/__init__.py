"""Network substrates: flit conventions, queues, and router models.

There is one network class, :class:`RouterEngine`; a router model is
that engine paired with a flow control.  :data:`NETWORK_MODELS` maps
each name ``config.network`` may take to the recipe for its flow
control, so the simulator, CLI, and sweeps share a single source of
truth, and :func:`build_network` is the one factory that pairs the two.
Adding a router variant means one :class:`FlowControl` subclass in
:mod:`repro.network.engine` plus one line in the table — see DESIGN.md
§S21.
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
from repro.network.base import EjectedFlits
from repro.network.engine import (
    CreditFlowControl,
    DeflectFlowControl,
    HybridFlowControl,
    RouterEngine,
)

#: name -> recipe(config) returning the :class:`FlowControl` instance
#: that makes a :class:`RouterEngine` the router model of that name, for
#: every model ``SimulationConfig.network`` may select.
NETWORK_MODELS = {
    "bless": lambda c: DeflectFlowControl(c.eject_width),
    "buffered": lambda c: CreditFlowControl(c.buffer_capacity),
    "hybrid": lambda c: HybridFlowControl(
        c.eject_width, c.side_buffer_capacity
    ),
}

#: Canonical name tuple for CLI ``choices``.
NETWORK_NAMES = tuple(NETWORK_MODELS)


def build_network(config, topology, rng=None, fault_model=None) -> RouterEngine:
    """Construct the router model named by ``config.network``.

    The one place a :class:`RouterEngine` is constructed under ``src/``:
    every parameter the models share is forwarded here, once.
    """
    try:
        recipe = NETWORK_MODELS[config.network]
    except KeyError:
        raise ValueError(
            f"unknown network model {config.network!r}; expected one of "
            f"{sorted(NETWORK_MODELS)}"
        ) from None
    return RouterEngine(
        topology,
        recipe(config),
        hop_latency=config.hop_latency,
        queue_capacity=config.queue_capacity,
        arbitration=config.arbitration,
        rng=rng,
        fault_model=fault_model,
    )


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
    "RouterEngine",
    "DeflectFlowControl",
    "CreditFlowControl",
    "HybridFlowControl",
    "NETWORK_MODELS",
    "NETWORK_NAMES",
    "build_network",
]
