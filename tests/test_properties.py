"""Property-based tests (hypothesis) for core data structures and
network invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Mesh2D, Torus2D
from repro.network import CreditFlowControl, DeflectFlowControl, RouterEngine
from repro.network.flit import (
    MAX_NODES,
    SEQ_RING,
    meta_dest,
    meta_hops,
    meta_kind,
    meta_seq,
    meta_src,
    pack_meta,
    HOP_ONE,
)
from repro.network.injection import InjectionThrottleGate, StarvationMeter
from repro.network.queues import FlitQueueArray

_slow = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ---------------------------------------------------------------------------
# Flit packing
# ---------------------------------------------------------------------------
@given(
    dest=st.integers(0, MAX_NODES - 1),
    src=st.integers(0, MAX_NODES - 1),
    kind=st.integers(0, 2),
    seq=st.integers(0, SEQ_RING - 1),
    hops=st.integers(0, 2000),
)
def test_meta_roundtrip(dest, src, kind, seq, hops):
    meta = pack_meta(dest, src, kind, seq) + hops * HOP_ONE
    assert meta_dest(meta) == dest
    assert meta_src(meta) == src
    assert meta_kind(meta) == kind
    assert meta_seq(meta) == seq
    assert meta_hops(meta) == hops


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------
@given(
    w=st.integers(2, 12),
    h=st.integers(2, 12),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_mesh_xy_route_length_equals_distance(w, h, data):
    mesh = Mesh2D(w, h)
    src = data.draw(st.integers(0, mesh.num_nodes - 1))
    dest = data.draw(st.integers(0, mesh.num_nodes - 1))
    node, hops = src, 0
    while node != dest:
        p0, _ = mesh.productive_ports(np.array([node]), np.array([dest]))
        assert mesh.link_exists[node, p0[0]]
        node = int(mesh.neighbor[node, p0[0]])
        hops += 1
        assert hops <= mesh.max_distance()
    assert hops == mesh.distance(src, dest)


@given(w=st.integers(3, 10), data=st.data())
@settings(max_examples=40, deadline=None)
def test_torus_distance_never_exceeds_mesh_distance(w, data):
    mesh, torus = Mesh2D(w), Torus2D(w)
    src = data.draw(st.integers(0, w * w - 1))
    dest = data.draw(st.integers(0, w * w - 1))
    assert torus.distance(src, dest) <= mesh.distance(src, dest)


# ---------------------------------------------------------------------------
# Queues
# ---------------------------------------------------------------------------
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 3), st.integers(1, 3)),
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=50, deadline=None)
def test_queue_matches_reference_fifo(ops):
    """The vectorized queue behaves exactly like per-node python deques."""
    q = FlitQueueArray(4, 5)
    reference = {n: [] for n in range(4)}
    for is_push, node, flits in ops:
        if is_push:
            ok = q.push(np.array([node]), pack_meta(node + 10, 0, 0), flits, 0)
            # Acceptance must track capacity exactly: an entry is taken
            # iff the reference deque has room, and never beyond it.
            assert bool(ok[0]) == (len(reference[node]) < 5)
            if ok[0]:
                reference[node].append([node + 10, flits])
        elif reference[node]:
            before = int(q.count[node])
            meta, _ = q.take_flit(np.array([node]))
            done = q.count[node] == before - 1
            head = reference[node][0]
            assert meta_dest(meta)[0] == head[0]
            head[1] -= 1
            assert done == (head[1] == 0)
            if head[1] == 0:
                reference[node].pop(0)
    for n in range(4):
        assert q.count[n] == len(reference[n])


# ---------------------------------------------------------------------------
# Starvation meter / throttle gate
# ---------------------------------------------------------------------------
@given(bits=st.lists(st.booleans(), min_size=1, max_size=300))
@settings(max_examples=50, deadline=None)
def test_starvation_meter_equals_reference_window(bits):
    window = 16
    meter = StarvationMeter(1, window)
    for i, b in enumerate(bits):
        meter.update(np.array([b]))
        recent = bits[max(0, i + 1 - window): i + 1]
        expected = sum(recent) / min(window, i + 1)
        assert meter.rate()[0] == expected


@given(rate=st.floats(0.0, 0.99), attempts=st.integers(128, 1024))
@settings(max_examples=30, deadline=None)
def test_throttle_gate_blocks_requested_fraction(rate, attempts):
    gate = InjectionThrottleGate(1)
    gate.set_rates(np.array([rate]))
    allowed = sum(int(gate.decide(np.array([True]))[0]) for _ in range(attempts))
    expected = 1.0 - rate
    # Binomial deviation: std <= 0.5/sqrt(n); 5 sigma keeps the bound
    # sound at attempts=128 where hypothesis can otherwise shrink to a
    # ~4-sigma sample and flake a fixed 0.15 tolerance.
    tolerance = 0.05 + 2.5 / np.sqrt(attempts)
    assert abs(allowed / attempts - expected) < tolerance


def _blocked_over_full_period(rate: float) -> int:
    """Blocked attempts over one full 128-attempt counter period."""
    gate = InjectionThrottleGate(1)
    gate.set_rates(np.array([rate]))
    period = InjectionThrottleGate.MAX_COUNT
    return sum(
        int(not gate.decide(np.array([True]))[0]) for _ in range(period)
    )


@given(k=st.integers(0, InjectionThrottleGate.MAX_COUNT))
@settings(max_examples=40, deadline=None)
def test_throttle_gate_period_is_exact_at_counter_resolution(k):
    """Boundary pin (Algorithm 3): over one full counter period of a
    node that tries every cycle, the gate blocks *exactly* the quantized
    requested fraction — ``ceil(rate * 128)`` attempts, i.e. ``k`` of 128
    for every representable rate ``k/128``.  This is the deterministic
    contract the 7-bit hardware counter provides; any off-by-one in the
    threshold comparison breaks it."""
    period = InjectionThrottleGate.MAX_COUNT
    assert _blocked_over_full_period(k / period) == k


@given(rate=st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_throttle_gate_quantizes_arbitrary_rates_upward(rate):
    """Rates between counter steps block ``ceil(rate * 128)`` attempts:
    the counter blocks while strictly below ``rate * 128``."""
    period = InjectionThrottleGate.MAX_COUNT
    expected = int(np.ceil(rate * period))
    assert _blocked_over_full_period(rate) == expected


def test_throttle_gate_boundary_rates_pinned():
    """The ISSUE's explicit boundary table: 0, 1/128, 1/2, 127/128, 1."""
    for rate, blocked in [(0.0, 0), (1 / 128, 1), (0.5, 64),
                          (127 / 128, 127), (1.0, 128)]:
        assert _blocked_over_full_period(rate) == blocked


# ---------------------------------------------------------------------------
# Network conservation under random traffic
# ---------------------------------------------------------------------------
@given(
    seed=st.integers(0, 10_000),
    load=st.floats(0.05, 0.8),
    eject_width=st.integers(1, 2),
)
@_slow
@pytest.mark.slow
def test_bless_conserves_and_delivers_everything(seed, load, eject_width):
    rng = np.random.default_rng(seed)
    net = RouterEngine(Mesh2D(4), DeflectFlowControl(eject_width))
    sent = 0
    for c in range(150):
        srcs = np.flatnonzero(rng.random(16) < load)
        if srcs.size:
            dests = (srcs + 1 + rng.integers(0, 15, srcs.size)) % 16
            sent += int(net.enqueue_requests(srcs, dests, 1, cycle=c).sum())
        net.step(c)
        assert net.stats.injected_flits == (
            net.stats.ejected_flits + net.in_flight_flits()
        )
    for c in range(150, 2500):
        net.step(c)
        if net.stats.ejected_flits == sent:
            break
    assert net.stats.ejected_flits == sent
    assert net.in_flight_flits() == 0


@given(seed=st.integers(0, 10_000), load=st.floats(0.05, 0.8))
@_slow
@pytest.mark.slow
def test_buffered_conserves_and_delivers_everything(seed, load):
    rng = np.random.default_rng(seed)
    net = RouterEngine(Mesh2D(4), CreditFlowControl(4))
    sent = 0
    for c in range(150):
        srcs = np.flatnonzero(rng.random(16) < load)
        if srcs.size:
            dests = (srcs + 1 + rng.integers(0, 15, srcs.size)) % 16
            sent += int(net.enqueue_requests(srcs, dests, 1, cycle=c).sum())
        net.step(c)
        assert net.buffers.count.max() <= 4
    for c in range(150, 4000):
        net.step(c)
        if net.stats.ejected_flits == sent:
            break
    assert net.stats.ejected_flits == sent


@given(seed=st.integers(0, 10_000))
@_slow
@pytest.mark.slow
def test_bless_age_invariant_oldest_never_deflected_forever(seed):
    """Livelock freedom: with Oldest-First the network always drains."""
    rng = np.random.default_rng(seed)
    net = RouterEngine(Torus2D(4), DeflectFlowControl())
    sent = 0
    for c in range(100):
        srcs = np.flatnonzero(rng.random(16) < 0.9)
        if srcs.size:
            dests = (srcs + 7 + rng.integers(0, 9, srcs.size)) % 16
            mask = dests != srcs
            sent += int(
                net.enqueue_requests(srcs[mask], dests[mask], 1, cycle=c).sum()
            )
        net.step(c)
    for c in range(100, 5000):
        net.step(c)
        if net.stats.ejected_flits == sent:
            break
    assert net.stats.ejected_flits == sent
