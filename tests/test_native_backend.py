"""Compiled hot-path backend: equivalence, gating, and allocation tests.

The native backend (``SimulationConfig.backend = "native"``) must be a
pure accelerator: every supported configuration produces results
bit-identical to the numpy engine, and every unsupported configuration
refuses loudly at construction instead of silently diverging.  The
allocation tests pin the PR's zero-allocation claim: after warm-up, the
network phase performs no new numpy array allocations.
"""

import json
import tracemalloc

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.control.registry import build_controller
from repro.guardrails.faults import FaultConfig
from repro.native import NativeUnsupported, native_available
from repro.sim.simulator import Simulator
from repro.traffic.workloads import make_category_workload

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native backend"
)


def _run(network, backend, nodes=16, cycles=800, seed=7, controller=None, **kw):
    workload = make_category_workload("H", nodes, np.random.default_rng(seed))
    if controller is not None:
        kw["controller"] = build_controller((controller,), epoch=200)
    config = SimulationConfig(
        workload, seed=seed, epoch=200, network=network, backend=backend, **kw
    )
    return Simulator(config).run(cycles).to_dict()


def _canon(result):
    return json.dumps(result, sort_keys=True, default=str)


EQUIVALENCE_CASES = {
    "bless-oldest": dict(network="bless"),
    "bless-youngest": dict(network="bless", arbitration="youngest_first"),
    "bless-random": dict(network="bless", arbitration="random"),
    "bless-eject-width-2": dict(network="bless", eject_width=2),
    "bless-torus": dict(network="bless", topology="torus"),
    "bless-distributed": dict(network="bless", controller="distributed"),
    "buffered-oldest": dict(network="buffered"),
    "buffered-youngest": dict(network="buffered", arbitration="youngest_first"),
    "buffered-random": dict(network="buffered", arbitration="random"),
    "buffered-distributed": dict(network="buffered", controller="distributed"),
    "bless-control-traffic": dict(network="bless", model_control_traffic=True),
    "bless-watchdog": dict(
        network="bless", watchdog_window=0, max_flit_age=100_000
    ),
}


@needs_native
@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(EQUIVALENCE_CASES))
def test_native_matches_numpy(case):
    """Full-result bit-identity between the numpy and native backends."""
    kwargs = EQUIVALENCE_CASES[case]
    assert _canon(_run(backend="numpy", **kwargs)) == _canon(
        _run(backend="native", **kwargs)
    )


@needs_native
@pytest.mark.slow
def test_native_matches_numpy_8x8():
    """The benchmark-sized grid agrees too, not just the small test mesh."""
    kwargs = dict(network="bless", nodes=64, cycles=600)
    assert _canon(_run(backend="numpy", **kwargs)) == _canon(
        _run(backend="native", **kwargs)
    )


@needs_native
@pytest.mark.parametrize(
    "kwargs",
    [
        dict(network="hybrid"),
        dict(network="bless", trace=True),
        dict(network="bless", check_invariants=True),
        dict(network="bless", faults=FaultConfig(link_fault_rate=0.05)),
    ],
    ids=["hybrid", "trace", "invariants", "faults"],
)
def test_unsupported_configs_refuse(kwargs):
    """Configurations the kernels do not model raise at construction."""
    workload = make_category_workload("H", 16, np.random.default_rng(1))
    config = SimulationConfig(workload, seed=1, backend="native", **kwargs)
    with pytest.raises(NativeUnsupported):
        Simulator(config)


def _warm_simulator(network, backend):
    workload = make_category_workload("H", 64, np.random.default_rng(3))
    sim = Simulator(
        SimulationConfig(
            workload, seed=3, epoch=1000, network=network, backend=backend
        )
    )
    sim.run(600)
    return sim


_NUMPY_DOMAIN = [
    tracemalloc.DomainFilter(inclusive=True, domain=np.lib.tracemalloc_domain)
]


@pytest.mark.parametrize("network", ["bless", "buffered"])
def test_network_phase_steady_state_allocations(network):
    """After warm-up, 100 network-phase cycles retain no new numpy arrays.

    Every cycle-lifetime buffer is preallocated, so the steady
    state must not accumulate array allocations; only small transient
    compaction outputs (index vectors from ``flatnonzero`` and friends)
    may come and go within a cycle.
    """
    sim = _warm_simulator(network, "numpy")
    net, cycle = sim.network, sim.cycle
    tracemalloc.start()
    try:
        for i in range(20):  # settle tracemalloc's own bookkeeping
            net.step(cycle + i)
        before = tracemalloc.take_snapshot().filter_traces(_NUMPY_DOMAIN)
        worst_peak = 0
        for i in range(100):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            net.step(cycle + 20 + i)
            peak = tracemalloc.get_traced_memory()[1]
            worst_peak = max(worst_peak, peak - base)
        after = tracemalloc.take_snapshot().filter_traces(_NUMPY_DOMAIN)
    finally:
        tracemalloc.stop()
    grown = [
        d for d in after.compare_to(before, "traceback") if d.size_diff > 0
    ]
    assert not grown, [d.traceback.format() for d in grown[:3]]
    # Transient churn stays far below one cycle-lifetime grid buffer
    # (the engine before PR 8 allocated hundreds of KB per cycle here).
    assert worst_peak < 64 * 1024


@needs_native
@pytest.mark.parametrize("network", ["bless", "buffered"])
def test_native_network_phase_is_allocation_free(network):
    """The compiled network phase performs zero numpy allocations."""
    sim = _warm_simulator(network, "native")
    cycle = sim.cycle
    tracemalloc.start()
    try:
        for i in range(20):
            sim._network_phase_native(cycle + i)
        before = tracemalloc.take_snapshot().filter_traces(_NUMPY_DOMAIN)
        worst_peak = 0
        for i in range(100):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            sim._network_phase_native(cycle + 20 + i)
            peak = tracemalloc.get_traced_memory()[1]
            worst_peak = max(worst_peak, peak - base)
        after = tracemalloc.take_snapshot().filter_traces(_NUMPY_DOMAIN)
    finally:
        tracemalloc.stop()
    new_blocks = [
        d for d in after.compare_to(before, "traceback") if d.size_diff > 0
    ]
    assert not new_blocks
    # Only interpreter-level churn (a few ints and frames), no arrays.
    assert worst_peak < 4 * 1024
