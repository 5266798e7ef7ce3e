"""Compiled hot-path backend: equivalence, gating, and allocation tests.

The native backend (``SimulationConfig.backend = "native"``) must be a
pure accelerator: every supported configuration produces results
bit-identical to the numpy engine, and every unsupported configuration
refuses loudly at construction instead of silently diverging.  An
unobserved native run takes the fused span (whole cycles per C call,
RNG draws in C); the generated cases pin it against the numpy engine
*and* the per-cycle native path, generator state included, for every
registered locality model.  The allocation tests pin the PR's
zero-allocation claim: after warm-up, the network phase performs no new
numpy array allocations.
"""

import json
import tracemalloc

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.control.registry import build_controller
from repro.guardrails.faults import FaultConfig
from repro.native import NativeUnsupported, accel, native_available
from repro.sim.simulator import Simulator
from repro.traffic.locality import LOCALITY_NAMES
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


# ----------------------------------------------------------------------
# Generated cases: every registered locality x fabric kind x network,
# with every RNG stream live (random arbitration, short phases)
# ----------------------------------------------------------------------
#: mesh and torus take the grid2d sampler, the chiplet graph the
#: distance-bucket one
GENERATED_TOPOLOGIES = {
    "mesh": {}, "torus": {}, "chiplet": dict(chiplet_tile=2),
}


def _no_op(cycle):
    """A post-hook: an observer, so the phases run one call per cycle."""


def _generated_sim(backend, locality="exponential", topology="mesh",
                   network="bless", epoch=200, per_cycle=False):
    workload = make_category_workload("H", 16, np.random.default_rng(7))
    sim = Simulator(SimulationConfig(
        workload, seed=7, epoch=epoch, backend=backend, network=network,
        topology=topology, locality=locality, locality_param=2.5,
        phase_length=50, arbitration="random", eject_width=2,
        controller=build_controller(("central",), epoch=epoch),
        **GENERATED_TOPOLOGIES[topology],
    ))
    if per_cycle:
        sim.pipeline.post_hook("network", _no_op)
    if backend == "native":
        fused = sim.pipeline.compiled()[2]
        assert (fused is None) == per_cycle
    return sim


def _outcome(sim):
    """Everything a run leaves behind: result and all three streams."""
    streams = (sim._rng_dest, sim._rng_phase, sim._rng_arb)
    return (
        _canon(sim.result().to_dict()),
        [rng.bit_generator.state for rng in streams],
    )


def test_every_registered_locality_is_drawn_in_c():
    assert set(accel._LOC_CODES) == set(LOCALITY_NAMES)


@needs_native
@pytest.mark.slow
@pytest.mark.parametrize("network", ["bless", "buffered"])
@pytest.mark.parametrize("topology", sorted(GENERATED_TOPOLOGIES))
@pytest.mark.parametrize("locality", LOCALITY_NAMES)
def test_numpy_fused_and_per_cycle_native_agree(locality, topology, network):
    """Full result and the state of all three generators, three ways."""
    outcomes = []
    for backend, per_cycle in (
        ("numpy", False), ("native", False), ("native", True),
    ):
        sim = _generated_sim(
            backend, locality, topology, network, per_cycle=per_cycle
        )
        sim.run(600)
        outcomes.append(_outcome(sim))
    reference, fused, per_cycle = outcomes
    assert fused == reference
    assert per_cycle == reference


@needs_native
@pytest.mark.slow
@pytest.mark.parametrize("epoch", [200, 1000])
@pytest.mark.parametrize("chunk", [1, 7, 1250])
def test_resumed_native_run_equals_unbroken(chunk, epoch):
    """Chunk ends cut fused spans anywhere, also mid-epoch."""
    cycles = 2500
    unbroken = _generated_sim("native", epoch=epoch)
    unbroken.run(cycles)
    resumed = _generated_sim("native", epoch=epoch)
    while resumed.cycle < cycles:
        resumed.run(min(chunk, cycles - resumed.cycle))
    assert _outcome(resumed) == _outcome(unbroken)


@needs_native
@pytest.mark.slow
def test_switching_fused_per_cycle_fused_mid_epoch_changes_nothing():
    """Both paths consume the same generator state, so an observer may
    come and go at any cycle boundary."""
    reference = _generated_sim("numpy")
    reference.run(900)
    sim = _generated_sim("native")
    hooks = sim.pipeline.phase("network").hooks
    sim.run(130)  # fused, stops mid-epoch
    hooks.append(_no_op)
    assert sim.pipeline.compiled()[2] is None
    sim.run(170)  # per cycle, across the epoch boundary at 200
    hooks.remove(_no_op)
    assert sim.pipeline.compiled()[2] is not None
    sim.run(600)  # fused again
    assert _outcome(sim) == _outcome(reference)


@needs_native
def test_observing_controller_and_prebuilt_locality_run_per_cycle():
    """What C cannot stand in for is never registered as a fusion."""
    from repro.traffic.locality import ExponentialLocality

    workload = make_category_workload("H", 16, np.random.default_rng(7))

    def fused(**kwargs):
        config = SimulationConfig(workload, seed=7, backend="native", **kwargs)
        return Simulator(config).pipeline.compiled()[2]

    assert fused() is not None
    assert fused(
        controller=build_controller(("distributed",), epoch=200)
    ) is None
    topology = Simulator(SimulationConfig(workload)).topology
    assert fused(locality=ExponentialLocality(topology, 1.0)) is None


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
