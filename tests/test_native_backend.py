"""Compiled hot-path backend: equivalence, gating, and allocation tests.

The native backend (``SimulationConfig.backend = "native"``) must be a
pure accelerator: every supported configuration produces results
bit-identical to the numpy engine, and every unsupported configuration
refuses loudly at construction instead of silently diverging.  There is
one compiled entry point: an unobserved native run takes it as a fused
span (whole cycles per call), an observed one phase by phase (one mask
bit, one cycle); the generated cases pin both against the numpy engine,
generator state included, for every registered locality model.  The allocation tests pin the PR's
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
from repro.network import engine
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
                   network="bless", epoch=200, per_cycle=False, nodes=16,
                   controller="central", **overrides):
    workload = make_category_workload("H", nodes, np.random.default_rng(7))
    kwargs = dict(
        locality=locality, locality_param=2.5, phase_length=50,
        arbitration="random", eject_width=2,
        **GENERATED_TOPOLOGIES.get(topology, {}),
    )
    kwargs.update(overrides)
    sim = Simulator(SimulationConfig(
        workload, seed=7, epoch=epoch, backend=backend, network=network,
        topology=topology,
        controller=build_controller((controller,), epoch=epoch), **kwargs,
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


def _three_ways(cycles=600, **kwargs):
    """numpy's outcome, after checking that the fused and the
    phase-by-phase native run leave the same result and generator states
    behind."""
    outcomes = []
    for backend, per_cycle in (
        ("numpy", False), ("native", False), ("native", True),
    ):
        sim = _generated_sim(backend, per_cycle=per_cycle, **kwargs)
        sim.run(cycles)
        outcomes.append(_outcome(sim))
    reference, fused, per_cycle = outcomes
    assert fused == reference
    assert per_cycle == reference
    return reference


def test_every_registered_locality_is_drawn_in_c():
    assert set(accel._LOC_CODES) == set(LOCALITY_NAMES)


@needs_native
@pytest.mark.slow
@pytest.mark.parametrize("network", ["bless", "buffered"])
@pytest.mark.parametrize("topology", sorted(GENERATED_TOPOLOGIES))
@pytest.mark.parametrize("locality", LOCALITY_NAMES)
def test_numpy_fused_and_per_cycle_native_agree(locality, topology, network):
    """Full result and the state of all three generators, three ways."""
    _three_ways(locality=locality, topology=topology, network=network)


@needs_native
@pytest.mark.slow
@pytest.mark.parametrize("arbitration", ["random", "oldest_first"])
@pytest.mark.parametrize("topology", sorted(GENERATED_TOPOLOGIES))
@pytest.mark.parametrize("capacity", [1, 2])
def test_credit_bound_buffers_agree_three_ways(capacity, topology, arbitration):
    """FIFOs this shallow make the credit check the binding constraint
    almost every cycle (at the default 16 it hardly ever is).  A torus
    without VCs wedges on its wrap ring at this depth; then all three
    must wedge identically."""
    _three_ways(
        cycles=500, network="buffered", buffer_capacity=capacity,
        topology=topology, arbitration=arbitration,
    )


@needs_native
@pytest.mark.slow
@pytest.mark.parametrize("network", ["bless", "buffered"])
def test_distributed_controller_agrees_three_ways(network):
    """The §6.6 scheme reads cbit_seen at epoch boundaries only, so it
    runs fused; its marks must survive both ways of taking the span."""
    result, _ = _three_ways(
        network=network, controller="distributed", locality="uniform",
        cycles=1200,
    )
    assert any(json.loads(result)["epochs"]["series"]["throttled_nodes"])


# ----------------------------------------------------------------------
# What a per-router kernel can get wrong: routes by coordinates vs by
# table, ejection order across rounds, wide routers, slow links
# ----------------------------------------------------------------------
@needs_native
@pytest.mark.slow
@pytest.mark.parametrize("network", ["bless", "buffered"])
@pytest.mark.parametrize(
    "topology, width, height",
    [("mesh", 4, 4), ("mesh", 5, 3), ("torus", 2, 4), ("torus", 4, 2),
     ("torus", 3, 3), ("torus", 4, 5), ("torus", 6, 6)],
)
def test_grid_routes_agree_with_and_without_route_tables(
    topology, width, height, network, monkeypatch
):
    """C routes grids by coordinates; numpy by table, or past the bound
    by closed form.  All of them are one function of (node, dest) — also
    on the wrap, at the half-way tie and on a 2-wide torus axis."""
    kwargs = dict(
        topology=topology, width=width, height=height, nodes=width * height,
        network=network,
    )
    tabled = _three_ways(**kwargs)
    monkeypatch.setattr(engine, "_ROUTE_TABLE_MAX_NODES", 0)
    assert _generated_sim("numpy", **kwargs).network._p0_flat is None
    assert _three_ways(**kwargs) == tabled


@needs_native
def test_graph_topology_past_the_route_table_bound_refuses(monkeypatch):
    monkeypatch.setattr(engine, "_ROUTE_TABLE_MAX_NODES", 0)
    with pytest.raises(NativeUnsupported, match="route tables"):
        _generated_sim("native", topology="chiplet")
    _generated_sim("native", topology="mesh")  # a grid needs no table


@needs_native
@pytest.mark.slow
def test_six_port_routers_ejecting_three_wide_agree():
    """mesh3d: more ports than a 2D grid's four in the free-link mask,
    and three ejection rounds whose gaps the node-major pass closes."""
    _three_ways(topology="mesh3d", nodes=27, eject_width=3)


@needs_native
@pytest.mark.slow
def test_cbit_seen_is_the_same_array_at_every_epoch_boundary():
    """What the distributed controller drains, numpy == native — with
    nodes that eject in both rounds of a cycle, out of a node-major
    loop in C."""
    seen = {}
    wide = []

    def count_wide(cycle):
        nodes = sim._ejected.node.tolist()
        wide.append(len(nodes) != len(set(nodes)))

    for backend in ("numpy", "native"):
        controller = build_controller(("distributed",), epoch=200)
        samples = seen[backend] = []
        drain = controller.drain

        def record(samples=samples, drain=drain, controller=controller):
            samples.append(controller.network.cbit_seen.tolist())
            drain()

        controller.drain = record
        workload = make_category_workload("H", 16, np.random.default_rng(7))
        sim = Simulator(SimulationConfig(
            workload, seed=7, epoch=200, backend=backend, eject_width=2,
            controller=controller,
        ))
        if backend == "numpy":
            sim.pipeline.post_hook("network", count_wide)
        sim.run(800)
    assert len(seen["numpy"]) == 4
    assert seen["native"] == seen["numpy"]
    assert any(any(sample) for sample in seen["numpy"])
    assert any(wide), "no node ejected two flits in one cycle"


@needs_native
@pytest.mark.slow
@pytest.mark.parametrize("network", ["bless", "buffered"])
def test_youngest_first_agrees_three_ways(network):
    _three_ways(network=network, arbitration="youngest_first")


@needs_native
@pytest.mark.slow
@pytest.mark.parametrize(
    "topology, nodes", [("chiplet", 16), ("express", 64)]
)
def test_links_as_slow_as_the_ring_is_deep_agree(topology, nodes):
    """A send on the slowest link lands in the ring slot the same cycle
    consumes, at a router the node loop may not have reached yet."""
    net = _generated_sim("numpy", topology=topology, nodes=nodes).network
    latency = net._lat_out[net.topology.link_exists]
    assert latency.min() < latency.max() == net._ring_depth
    _three_ways(cycles=2000, topology=topology, nodes=nodes)


@needs_native
@pytest.mark.slow
def test_4096_node_mesh_prefix_matches_numpy():
    """Past the route-table bound a grid runs native (ROADMAP 1a)."""
    outcomes = []
    for backend in ("numpy", "native"):
        workload = make_category_workload(
            "H", 4096, np.random.default_rng(7)
        )
        sim = Simulator(SimulationConfig(
            workload, seed=7, epoch=100, backend=backend, topology="mesh",
            locality="exponential", locality_param=1.0,
            model_control_traffic=True,
            controller=build_controller(
                ("hierarchical", 0, "global"), epoch=100
            ),
        ))
        assert sim.network._p0_flat is None
        sim.run(300)
        outcomes.append(_outcome(sim))
    assert outcomes[0] == outcomes[1]


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
def test_distributed_controller_fuses_and_prebuilt_locality_refuses():
    """Nothing is handed a silent slow path: every native simulator
    registers the fusion, and what C cannot draw is a named refusal."""
    from repro.traffic.locality import ExponentialLocality

    workload = make_category_workload("H", 16, np.random.default_rng(7))

    def fused(**kwargs):
        config = SimulationConfig(workload, seed=7, backend="native", **kwargs)
        return Simulator(config).pipeline.compiled()[2]

    assert fused() is not None
    assert fused(
        controller=build_controller(("distributed",), epoch=200)
    ) is not None
    topology = Simulator(SimulationConfig(workload)).topology
    with pytest.raises(NativeUnsupported, match="LOCALITY_MODELS"):
        fused(locality=ExponentialLocality(topology, 1.0))


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
    network_phase = sim.pipeline.phase("network").fn
    tracemalloc.start()
    try:
        for i in range(20):
            network_phase(cycle + i)
        before = tracemalloc.take_snapshot().filter_traces(_NUMPY_DOMAIN)
        worst_peak = 0
        for i in range(100):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            network_phase(cycle + 20 + i)
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
