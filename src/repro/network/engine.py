"""Unified router engine: shared per-cycle stages + pluggable policies.

Every router model in this repo advances through the same per-cycle
stages over the packed ``(meta, birth)`` flit representation
(:mod:`repro.network.flit`):

1. **arrival** — flits land from the hop-delay ring (links stay
   pipelined at one flit per cycle regardless of ``hop_latency``),
2. **eject** — flits destined to the local node leave the network,
   arbitrated by age,
3. **allocate** — remaining flits compete for output ports,
4. **inject** — the NI admits new flits (responses first, requests
   through the Algorithm-3 throttle gate; blocked nodes count as
   starved, §3.1),
5. **send** — granted flits enter the ring toward their neighbors
   (congestion bits from the distributed controller are stamped here).

What *differs* between models is factored into two policy families:

- :class:`ArbitrationPolicy` totally orders competing flits
  (``oldest_first`` is the paper baseline; ``youngest_first`` and
  ``random`` serve the §6 arbitration ablations);
- :class:`FlowControl` decides what a router does with a flit it cannot
  forward productively: :class:`DeflectFlowControl` misroutes it
  (FLIT-BLESS, §2.2), :class:`CreditFlowControl` holds it in an input
  buffer behind credit-based backpressure (the buffered VC baseline,
  §6.3), and :class:`HybridFlowControl` buffers a small fraction of
  would-be-deflected flits in a per-router side buffer (MinBD-style,
  arXiv:2112.02516).

:class:`RouterEngine` is the one network class: it owns the shared
state (ring, NI queues, stats, starvation meter, throttle gate, tracer
hooks) and the stage helpers, and a concrete router model is the engine
paired with one flow-control instance
(:func:`repro.network.build_network` is the only place ``src/`` does
that pairing).  Adding a router variant means writing one
:class:`FlowControl` subclass and one ``NETWORK_MODELS`` line — see
DESIGN.md §S21.

The whole step is vectorized over nodes: the per-cycle cost is a fixed
number of numpy operations regardless of network size, which is what
makes 64x64 (4096-node) runs tractable in Python.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.guardrails.errors import InvariantViolation
from repro.network.base import EjectedFlits, NetworkStats
from repro.rng import child_rng
from repro.topology.graph import MAX_GRAPH_PORTS
from repro.observability.tracer import EV_DEFLECT, EV_EJECT, EV_HOP, EV_INJECT
from repro.network.flit import (
    CBIT_MASK,
    FLIT_REQUEST,
    HOP_ONE,
    _KIND_SHIFT,
    _SEQ_SHIFT,
    _SRC_SHIFT,
    meta_dest,
    meta_hops,
    meta_kind,
    meta_seq,
    meta_src,
    priority_key_into,
)
from repro.network.injection import InjectionThrottleGate, StarvationMeter
from repro.network.queues import FlitQueueArray

__all__ = [
    "ARBITRATION_POLICIES",
    "ArbitrationPolicy",
    "OldestFirst",
    "YoungestFirst",
    "RandomArbitration",
    "BufferBank",
    "FlowControl",
    "DeflectFlowControl",
    "CreditFlowControl",
    "HybridFlowControl",
    "RouterEngine",
    "lowbit",
]

_KEY_MAX = np.iinfo(np.int64).max

#: Output port k as bit k of an int64 link mask; index -1 (no port)
#: reads the trailing 0.
_PORT_BIT = np.array([1 << k for k in range(MAX_GRAPH_PORTS)] + [0], np.int64)
#: Port of an isolated bit ``x & -x``, looked up by ``x % 37``: 2 is a
#: primitive root mod 37, so 2**0 .. 2**35 leave distinct nonzero
#: residues and 0 (no bit) maps to -1.
_LOWBIT = np.full(37, -1, dtype=np.int64)
_LOWBIT[[(1 << k) % 37 for k in range(36)]] = np.arange(36)
#: Grant of a flit the hybrid side buffer captured: above every port
#: bit, so it takes no link.
_HELD = np.int64(1 << 62)


def lowbit(mask):
    """Lowest set port of each int64 link *mask*, -1 where it is 0
    (``__builtin_ctzll`` in kernels.c's ``output_port``)."""
    return _LOWBIT[(mask & -mask) % 37]


def _productive(free, b0, b1):
    """Each flit's *free* productive ports as kernels.c's ``output_port``
    ranks them: *b0* if free, else *b1* (``None``: *b0* is a fault-table
    mask).  The lowest set bit is the grant; 0 means deflect."""
    pick = free & b0
    if b1 is not None:
        pick = np.where(pick != 0, pick, free & b1)
    return pick


# ----------------------------------------------------------------------
# Arbitration policies
# ----------------------------------------------------------------------
class ArbitrationPolicy:
    """Totally orders competing flits; the smallest key wins a conflict."""

    name = ""

    def keys_into(self, engine: "RouterEngine", birth, meta, out, scratch):
        """Write each flit's key into *out* and return it (*scratch* is
        an int64 buffer of the same shape policies may clobber)."""
        raise NotImplementedError


class OldestFirst(ArbitrationPolicy):
    """The paper's baseline: age order, ties broken by source id."""

    name = "oldest_first"

    def keys_into(self, engine, birth, meta, out, scratch):
        meta_src(meta, out=scratch)
        return priority_key_into(birth, scratch, out)


class YoungestFirst(ArbitrationPolicy):
    """Inverted age order (§6 arbitration ablation)."""

    name = "youngest_first"

    def keys_into(self, engine, birth, meta, out, scratch):
        meta_src(meta, out=scratch)
        priority_key_into(birth, scratch, out)
        return np.negative(out, out=out)


class RandomArbitration(ArbitrationPolicy):
    """Uniform random keys drawn fresh every cycle (§6 ablation)."""

    name = "random"

    def keys_into(self, engine, birth, meta, out, scratch):
        # The generator draw itself allocates; size, dtype and bounds are
        # part of the RNG lineage (they fix how much of the stream one
        # cycle consumes).
        out[:] = engine._rng.integers(
            0, _KEY_MAX, size=birth.shape, dtype=np.int64
        )
        return out


ARBITRATION_POLICIES = {
    policy.name: policy
    for policy in (OldestFirst, YoungestFirst, RandomArbitration)
}


# ----------------------------------------------------------------------
# Buffer storage (credit + hybrid flow control)
# ----------------------------------------------------------------------
class BufferBank:
    """Fixed-capacity FIFO of packed flits per (node, input port)."""

    def __init__(self, num_nodes: int, num_ports: int, capacity: int):
        self.capacity = capacity
        shape = (num_nodes, num_ports, capacity)
        self.meta = np.zeros(shape, dtype=np.int64)
        self.birth = np.zeros(shape, dtype=np.int64)
        self.head = np.zeros((num_nodes, num_ports), dtype=np.int32)
        self.count = np.zeros((num_nodes, num_ports), dtype=np.int32)
        # Flat-gather machinery for the allocation-free heads_into path.
        self._flat_base = (
            np.arange(num_nodes * num_ports, dtype=np.int64) * capacity
        )
        self._flat_idx = np.empty(num_nodes * num_ports, dtype=np.int64)

    def occupancy(self) -> int:
        return int(self.count.sum())

    def push(self, fifo, meta, birth) -> None:
        """Append flits to FIFOs ``node * ports + port``; callers
        guarantee space and unique ids."""
        count = self.count.reshape(-1)
        slot = (self.head.reshape(-1)[fifo] + count[fifo]) % self.capacity
        at = fifo * self.capacity + slot
        self.meta.reshape(-1)[at] = meta
        self.birth.reshape(-1)[at] = birth
        count[fifo] += 1

    def heads_into(self, valid, meta, birth):
        """Head-of-queue view per (node, port), ``(valid, meta, birth)``,
        gathered into the preallocated buffers."""
        np.add(self._flat_base, self.head.reshape(-1), out=self._flat_idx)
        np.take(self.meta.reshape(-1), self._flat_idx, out=meta.reshape(-1))
        np.take(self.birth.reshape(-1), self._flat_idx, out=birth.reshape(-1))
        np.greater(self.count, 0, out=valid)
        return valid, meta, birth

    def pop(self, fifo):
        head = self.head.reshape(-1)
        slot = head[fifo]
        at = fifo * self.capacity + slot
        head[fifo] = (slot + 1) % self.capacity
        self.count.reshape(-1)[fifo] -= 1
        return self.meta.reshape(-1)[at], self.birth.reshape(-1)[at]

    def occupied_mask(self) -> np.ndarray:
        """Boolean mask of live slots (shape ``(nodes, ports, capacity)``)."""
        offsets = np.arange(self.capacity)
        return (
            (offsets[None, None, :] - self.head[:, :, None]) % self.capacity
            < self.count[:, :, None]
        )

    def view(self):
        """``(meta, birth)`` flat arrays of every stored flit."""
        at = np.flatnonzero(self.occupied_mask())
        return self.meta.take(at), self.birth.take(at)

    def rewrite_dest(self, old: int, new: int) -> int:
        """Re-address stored flits destined *old* to *new* (chaos remap).

        Destination occupies the low meta bits, so an additive rewrite
        preserves every other field.  Returns the number rewritten.
        """
        mask = self.occupied_mask() & (meta_dest(self.meta) == old)
        hits = int(mask.sum())
        if hits:
            self.meta[mask] += new - old
        return hits


def _refresh_fault_routing(net: "RouterEngine") -> None:
    """(Re)build the link bitmasks (bit k = port k) and fault routing.

    Runs at attach and after every chaos transition, the only times
    ``link_up`` and ``quiescing`` change.  With permanent faults or a
    drain in force, ``net._fault_table[node, dest]`` has bit k set iff
    link k is up and its neighbor is strictly closer to dest on the
    healthy graph; otherwise it is ``None`` (fault-free route tables).
    Built one port at a time, O(p·n²), in the narrowest unsigned dtype
    that holds p bits (a quarter of ``healthy_distance`` for p <= 8).
    """
    bits = _PORT_BIT[:net.num_ports]
    net._link_bits = net.link_up @ bits
    net._fault_table = net._quiesce_bits = None
    fault_model = net.fault_model
    if fault_model is None:
        return
    quiescing = fault_model.quiescing
    if quiescing.any():
        net._quiesce_bits = quiescing @ bits
    if (
        fault_model.num_failed_links
        or fault_model.num_failed_routers
        or net._quiesce_bits is not None
    ):
        dist = fault_model.healthy_distance
        dtype = np.min_scalar_type(int(bits.sum()))  # p bits, unsigned
        table = np.zeros_like(dist, dtype=dtype)
        for port in range(net.num_ports):
            up = np.flatnonzero(net.link_up[:, port])
            closer = dist[net.topology.neighbor[up, port]] < dist[up]
            table[up] |= closer.astype(dtype) << port
        net._fault_table = table


# ----------------------------------------------------------------------
# Flow-control policies
# ----------------------------------------------------------------------
class FlowControl:
    """What a router does between arrival and send.

    A flow control implements one simulated cycle in :meth:`step` out of
    the engine's stage helpers, and owns any in-router storage
    (:meth:`held_flits` / :meth:`held_view` feed the conservation and
    age guardrails).  :meth:`attach` allocates that storage *on the
    engine* so external observers (tests, invariant checker) keep their
    stable attribute names (``buffers``, ``reserved``, ``eject_width``).
    """

    def attach(self, net: "RouterEngine") -> None:
        """Allocate per-network state; called once from the engine."""

    def held_flits(self, net: "RouterEngine") -> int:
        """Flits stored inside routers (not on links)."""
        return 0

    def held_view(self, net: "RouterEngine"):
        """``(meta, birth)`` of stored flits, or ``None`` when stateless."""
        return None

    def held_at(self, net: "RouterEngine", node: int) -> int:
        """Flits stored inside router *node* (chaos drain checks)."""
        return 0

    def rewrite_dest(self, net: "RouterEngine", old: int, new: int) -> int:
        """Re-address stored flits destined *old* to *new*; returns count."""
        return 0

    def on_topology_change(self, net: "RouterEngine") -> None:
        """Refresh routing state after a mid-run topology change (chaos)."""

    def step(self, net: "RouterEngine", cycle: int) -> EjectedFlits:
        raise NotImplementedError


class DeflectFlowControl(FlowControl):
    """FLIT-BLESS (§2.2, Fig 1): never hold a flit — misroute it instead.

    Every arrival is ejected, forwarded productively, or deflected to
    *some* free link in the same cycle; a router always has at least as
    many output links as routed flits, so the network is lossless with
    zero in-router storage.  Every cycle, each router:

    1. receives at most one flit per incoming link,
    2. ejects up to ``eject_width`` flits destined to it (Oldest-First
       among locals; losers are deflected and retry next hop) — BLESS
       baselines use 1,
    3. assigns output ports to the remaining flits in arbitration order —
       each flit takes its productive XY port if free, then the other
       productive direction, and is otherwise *deflected* to any free
       link,
    4. injects at most one flit from the node's NI if an output link is
       still free — responses first (never throttled), then requests
       through the Algorithm-3 throttle gate.  A node that wanted to
       inject but did not counts as *starved* this cycle (§3.1).
    """

    def __init__(self, eject_width: int = 1):
        if eject_width < 1:
            raise ValueError("eject_width must be at least 1")
        self.eject_width = eject_width

    def attach(self, net: "RouterEngine") -> None:
        n, p = net.num_nodes, net.num_ports
        if self.eject_width > p:
            raise ValueError(
                f"eject_width must be between 1 and {p} (the router's "
                f"port count), got {self.eject_width}"
            )
        net.eject_width = self.eject_width
        # With permanent faults, XY-productive can point at a dead link
        # and the oldest flit would deflect forever (livelock).  Route by
        # healthy-graph distance instead: a port is productive iff it
        # strictly decreases the surviving-topology distance to dest.
        _refresh_fault_routing(net)
        # Scratch output arrays, reused every cycle.
        net._out_meta = np.zeros((n, p), dtype=np.int64)
        net._out_birth = np.full((n, p), -1, dtype=np.int64)
        # Per-cycle working grids, allocated once here and refilled via
        # out=/copyto every cycle.
        self._avail = np.empty(n, np.int64)
        self._ranks = np.arange(p, dtype=np.uint8)[:, None]
        self._ones = np.ones(p, np.uint8)
        self._row_base = net._node_ids * p
        self._sc_flat_t = np.empty((p, n), np.int64)
        self._sc_meta = np.empty((n, p), np.int64)
        self._sc_birth = np.empty((n, p), np.int64)
        self._sc_valid = np.empty((n, p), np.bool_)
        self._sc_invalid = np.empty((n, p), np.bool_)
        self._sc_dest = np.empty((n, p), np.int64)
        self._sc_key = np.empty((n, p), np.int64)
        self._sc_tmp = np.empty((n, p), np.int64)
        self._sc_local = np.empty((n, p), np.bool_)
        self._sc_local_key = np.empty((n, p), np.int64)
        self._sc_col = np.empty(n, np.intp)

    def on_topology_change(self, net: "RouterEngine") -> None:
        _refresh_fault_routing(net)

    # -- hybrid extension points ---------------------------------------
    def redeem(self, net, cycle, meta, birth) -> None:
        """Re-enter stored flits into the arrival grid (hybrid only)."""

    def end_allocation(self, net, rows, meta, birth, grants):
        """Commit the cycle's ``_HELD`` grants (hybrid captures); returns
        the mask of flits that take a link, ``None`` for all of them."""
        return None

    def resolve_blocked(self, net, cycle, rows, meta, birth, pick,
                        missing, free, spare):
        """Deflect the *missing* flits (no free productive port) of one
        rank to any free link of their router, else to a spare one.

        *rows*/*meta*/*birth* are the rank's flits (meta before the hop
        increment).  Returns the ports each flit may take, lowest first
        (0: none left, ``_HELD``: captured by the hybrid).
        """
        if net.tracer is not None:
            md = meta[missing]
            net.tracer.record(
                EV_DEFLECT, cycle, rows[missing], meta_src(md),
                meta_dest(md), meta_kind(md), meta_seq(md), meta_hops(md),
            )
        net.stats.deflections += int(np.count_nonzero(missing))
        pick = np.where(missing, free, pick)
        if spare is not None:
            pick = np.where(pick != 0, pick, spare[rows])
        return pick

    # ------------------------------------------------------------------
    def step(self, net: "RouterEngine", cycle: int) -> EjectedFlits:
        n, p = net.num_nodes, net.num_ports

        # --- Arrivals (copied into the preallocated scratch grids) -------
        slot_meta, slot_birth = net.arrival_slot()
        meta, birth = self._sc_meta, self._sc_birth
        np.copyto(meta, slot_meta.reshape(n, p))
        np.copyto(birth, slot_birth.reshape(n, p))
        net.retire_arrivals()
        self.redeem(net, cycle, meta, birth)

        valid = np.greater_equal(birth, 0, out=self._sc_valid)
        dest = meta_dest(meta, out=self._sc_dest)
        key = net.arbitration_keys_into(birth, meta, self._sc_key, self._sc_tmp)
        np.copyto(
            key, _KEY_MAX,
            where=np.logical_not(valid, out=self._sc_invalid),
        )

        # --- Ejection: up to eject_width oldest local flits per node ----
        local = np.equal(dest, net._node_col, out=self._sc_local)
        local &= valid
        ejected = EjectedFlits.empty()
        ej_parts = []
        if local.any():
            local_key = self._sc_local_key
            local_key.fill(_KEY_MAX)
            np.copyto(local_key, key, where=local)
            col = self._sc_col
            for _ in range(self.eject_width):
                np.argmin(local_key, axis=1, out=col)
                at = self._row_base + col
                rows = np.flatnonzero(local_key.reshape(-1)[at] != _KEY_MAX)
                if rows.size == 0:
                    break
                at = at[rows]
                m = meta.reshape(-1)[at]
                ej_parts.append((rows, m))
                net.account_ejections(
                    cycle, rows, m, cycle - birth.reshape(-1)[at]
                )
                valid.reshape(-1)[at] = False
                local_key.reshape(-1)[at] = _KEY_MAX
                key.reshape(-1)[at] = _KEY_MAX

        # --- Output-port allocation, rank by rank ------------------------
        # Free output links per router as bitmasks (bit k = port k).
        # ``spare`` marks transiently faulted links kept as a last-resort
        # fallback — a bufferless router cannot hold a flit back, so when
        # every healthy port is taken the flit crosses a degraded link
        # rather than being dropped (losslessness is a hard invariant).
        avail = self._avail
        np.copyto(avail, net._link_bits)
        spare = quiesce = None
        if net.fault_model is not None:
            t_down = net.fault_model.transient_down(cycle)
            if t_down is not None:
                down = t_down @ _PORT_BIT[:p]
                spare = avail & down
                avail &= ~down
                # Chaos-quiescing links (being drained ahead of a hard
                # down) stay *preferred* for their last hop: a flit
                # destined to the draining router must still reach it,
                # or in-flight traffic to that router livelocks while
                # the drain waits on it — only through-traffic is kept
                # off the link.  Random transient noise gets no such
                # exception (those links are unreliable for everyone).
                if net._quiesce_bits is not None:
                    quiesce = spare & net._quiesce_bits
        # Stable sort: rows are mostly tied _KEY_MAX sentinels, and the
        # default introsort's tie order is numpy-version-dependent
        # (DET004).  Live keys are unique, so ranks are unchanged.  Every
        # live flit is then gathered once, rank-major: rank r is each
        # router's r-th flit in arbitration order, routers ascending, so
        # a rank is one contiguous slice.
        order = np.argsort(key, axis=1, kind="stable")
        counts = valid.view(np.uint8) @ self._ones  # live flits per router
        flat = np.add(order.T, self._row_base, out=self._sc_flat_t)
        flat = flat[self._ranks < counts]
        rows = flat // p
        m = meta.reshape(-1)[flat]
        b = birth.reshape(-1)[flat]
        d = dest.reshape(-1)[flat]
        b0, b1 = net.route_bits(rows, d)
        if quiesce is not None:
            # Last-hop exception: a quiescing link counts as free for
            # flits addressed to its far-end router.
            last_hop = (net.topology.neighbor[rows] == d[:, None]) @ _PORT_BIT[:p]
        # Rank r holds the routers with more than r live flits.
        sizes = n - np.bincount(counts, minlength=p + 1).cumsum()[:p]
        grants = np.empty(rows.size, np.int64)
        start = 0
        for end in sizes.cumsum().tolist():
            if end == start:
                break  # ranks are sorted: later ranks are empty too
            r = rows[start:end]
            free = healthy = avail[r]
            if quiesce is not None:
                free = healthy | (quiesce[r] & last_hop[start:end])
            pick = _productive(
                free, b0[start:end], None if b1 is None else b1[start:end]
            )
            missing = pick == 0
            if np.count_nonzero(missing):
                pick = self.resolve_blocked(
                    net, cycle, r, m[start:end], b[start:end], pick,
                    missing, free, spare,
                )
            grant = pick & -pick
            taken = ~grant
            avail[r] = healthy & taken
            if spare is not None:
                spare[r] &= taken
                if quiesce is not None:
                    quiesce[r] &= taken
            grants[start:end] = grant
            start = end
        # A free link always exists: a router has >= as many healthy
        # links as routed flits (faults fail both directions of a link
        # together), and transiently faulted ones stay spare.
        if not grants.all():
            stuck = rows[grants == 0]
            raise InvariantViolation(
                "deflect_port", cycle,
                f"router {int(stuck[0])} has no free healthy or spare "
                f"output link for a flit it must forward", stuck,
            )
        sent = self.end_allocation(net, rows, m, b, grants)
        if sent is not None:
            rows, m, b, grants = rows[sent], m[sent], b[sent], grants[sent]
        at = rows * p + _LOWBIT[grants % 37]  # grants are single bits
        net._out_meta.reshape(-1)[at] = m + HOP_ONE
        net._out_birth.fill(-1)
        net._out_birth.reshape(-1)[at] = b

        # --- Injection: responses first, then throttled requests --------
        # New flits only ever enter on healthy free links (``avail``);
        # injection is optional, so degraded links are never used here.
        net.injection_stage(cycle, avail != 0, self._place)

        # --- Congestion bit + send ---------------------------------------
        net.mark_congestion(net._out_meta, net._out_birth)
        net.send_grid(cycle, net._out_meta, net._out_birth)

        if ej_parts:
            rows = np.concatenate([r for r, _ in ej_parts])
            m = np.concatenate([mm for _, mm in ej_parts])
            net.trace_ejections(cycle, rows, m)
            ejected = net.make_ejected(rows, m)
        return ejected

    # ------------------------------------------------------------------
    def _place(self, net, cycle, nodes, meta, stamp):
        """Place one new flit per node in *nodes* onto a free link."""
        # Injected flits are routed like any other (they are the
        # youngest flits, so they lost arbitration to every in-flight
        # flit already).
        free = self._avail[nodes]
        pick = _productive(free, *net.route_bits(nodes, meta_dest(meta)))
        pick = np.where(pick != 0, pick, free)
        grant = pick & -pick
        self._avail[nodes] = free & ~grant
        net.trace_injections(cycle, nodes, meta)
        # The first traversal completes upon arrival at the neighbor.
        at = nodes * net.num_ports + _LOWBIT[grant % 37]
        net._out_meta.reshape(-1)[at] = meta + HOP_ONE
        net._out_birth.reshape(-1)[at] = cycle
        net.stats.injected_flits += nodes.size
        net.stats.injected_per_node[nodes] += 1
        net.injection_latency_sum += int((cycle - stamp).sum())
        net.injection_latency_count += nodes.size


class CreditFlowControl(FlowControl):
    """Input-buffered XY routing with credit backpressure (§6.3, fn. 5).

    The paper's comparison network is a buffered NoC with 4 VCs per
    input and 4 flits of buffering per VC (16 flits per link input).
    Each router input (the links + the NI injection port) has a
    ``buffer_capacity``-flit FIFO; routing is strict XY (deterministic,
    no deflection); each output port moves at most one head-of-queue
    flit per cycle, the arbitration winner (Oldest-First by default,
    like the BLESS baseline, so the policy is not a confound), and only
    into downstream space (credits count flits on the wire), so the
    network is lossless with zero misrouting.

    A cycle is three passes, as in kernels.c's ``credit_phase``.
    *Pass 1*: arrivals drain into the FIFOs, then one grouped reduction
    picks the winner of every (router, output port) among the heads;
    a tied key goes to the lowest input port.  *Pass 2*: the credit
    walk visits output ports ``0..p-1`` in order, over that port's
    winners only.  A winner moves iff its link is up, not transiently
    down, and ``count + reserved < capacity`` downstream, where
    ``count`` includes the pops granted at lower-numbered ports this
    cycle, not those at the same port (*the same-cycle credit rule*).
    *Pass 3*: one batched send of the granted link winners in
    port-major, router-ascending order, then ejection (one flit per
    node), then injection.

    Per-VC allocation is abstracted away (see DESIGN.md §2): what the
    comparison rests on — in-network queueing that grows with load,
    extra buffering capacity, and the area/power cost of buffers — is
    preserved.
    """

    def __init__(self, buffer_capacity: int = 16):
        if buffer_capacity < 1:
            raise ValueError("buffer capacity must be positive")
        self.buffer_capacity = buffer_capacity

    def attach(self, net: "RouterEngine") -> None:
        net.buffer_capacity = self.buffer_capacity
        # One FIFO per link input plus the NI injection port (index
        # ``num_ports``, also the eject "output" id).
        net.buffers = BufferBank(
            net.num_nodes, net.num_ports + 1, self.buffer_capacity
        )
        # Flits in flight toward each link-input buffer, for credit checks.
        net.reserved = np.zeros((net.num_nodes, net.num_ports), dtype=np.int32)
        # Static permanent faults keep plain XY: a flit aimed across a
        # dead link parks in front of it and the progress watchdog
        # reports the deadlock (buffered networks cannot misroute, and
        # that failure mode is part of the §6.3 comparison).  Only a
        # *chaos* topology transition (on_topology_change) switches to
        # healthy-graph distance routing — mid-run losslessness demands
        # that every in-flight flit can still make progress.
        net._fault_table = None
        # Per-cycle head-of-queue grids, allocated once here and refilled
        # via out= every cycle.
        n, pp = net.num_nodes, net.num_ports + 1
        self._sc_h_valid = np.empty((n, pp), np.bool_)
        self._sc_h_meta = np.empty((n, pp), np.int64)
        self._sc_h_birth = np.empty((n, pp), np.int64)
        self._sc_h_dest = np.empty((n, pp), np.int64)
        self._sc_h_key = np.empty((n, pp), np.int64)
        self._sc_h_tmp = np.empty((n, pp), np.int64)
        self._sc_best = np.empty(pp * n, np.int64)
        self._sc_won = np.empty(pp * n, np.int64)
        self._fifo_node = np.repeat(np.arange(n, dtype=np.int64), pp)
        self._port_starts = np.arange(pp) * n

    def held_flits(self, net) -> int:
        return net.buffers.occupancy()

    def held_view(self, net):
        return net.buffers.view()

    def held_at(self, net, node: int) -> int:
        return int(net.buffers.count[node].sum())

    def rewrite_dest(self, net, old: int, new: int) -> int:
        return net.buffers.rewrite_dest(old, new)

    def on_topology_change(self, net) -> None:
        _refresh_fault_routing(net)

    # ------------------------------------------------------------------
    def step(self, net: "RouterEngine", cycle: int) -> EjectedFlits:
        n, p = net.num_nodes, net.num_ports
        pp, cap, stats = p + 1, self.buffer_capacity, net.stats
        count, head = net.buffers.count.reshape(-1), net.buffers.head.reshape(-1)
        reserved = net.reserved.reshape(-1)  # per (node, link input port)

        # --- Pass 1: arrivals, heads, one winner per output port --------
        slot_meta, slot_birth = net.arrival_slot()
        arrived = np.flatnonzero(slot_birth >= 0)
        if arrived.size:
            net.buffers.push(arrived + arrived // p, slot_meta[arrived],
                             slot_birth[arrived])
            reserved[arrived] -= 1
            stats.buffer_writes += arrived.size
        net.retire_arrivals()
        valid, h_meta, h_birth = net.buffers.heads_into(
            self._sc_h_valid, self._sc_h_meta, self._sc_h_birth
        )
        h_dest = meta_dest(h_meta, out=self._sc_h_dest)
        key = net.arbitration_keys_into(
            h_birth, h_meta, self._sc_h_key, self._sc_h_tmp
        ).reshape(-1)
        # A flit that is home asks for the eject port p, any other for
        # its route's first port: XY on grids (deadlock-free), shortest
        # hop on graphs, after a chaos transition the first port closer
        # on the healthy graph; -1 (dest drained mid-rewrite) waits.
        h_out = np.where(h_dest == net._node_col, np.int64(p),
                         net.first_port(net._node_col, h_dest)).reshape(-1)
        fifo = np.flatnonzero(valid.reshape(-1) & (h_out >= 0))
        # Group (output port, router), port-major.  The smallest key
        # wins it, a tied key the lowest input port (FIFO id).
        group, key = h_out[fifo] * n + self._fifo_node[fifo], key[fifo]
        best, won = self._sc_best, self._sc_won
        best.fill(_KEY_MAX)
        np.minimum.at(best, group, key)
        tie = key == best[group]
        won.fill(n * pp)
        np.minimum.at(won, group[tie], fifo[tie])
        group = np.flatnonzero(won < n * pp)
        fifo, node = won[group], group % n
        bounds = np.searchsorted(group, self._port_starts).tolist()
        links = bounds[p]  # winners of link ports, then eject winners

        # --- Pass 2: the credit walk over link winners -------------------
        at = node[:links] * p + group[:links] // n  # (router, output port)
        down = net._target_flat.reshape(-1)[at]  # ring column, reserved id
        # A faulted link grants nothing (XY has no other path).
        grant = net.link_up.reshape(-1)[at]
        t_down = (None if net.fault_model is None
                  else net.fault_model.transient_down(cycle))
        if t_down is not None:
            blocked = t_down.reshape(-1)[at]
            # Chaos-quiescing links still carry their last hop (as in the
            # deflection engine), or a drain deadlocks on its quiesce.
            quiescing = net.fault_model.quiescing
            if quiescing.any():
                blocked &= ~(quiescing.reshape(-1)[at]
                             & (h_dest.reshape(-1)[fifo[:links]] == down // p))
            grant &= ~blocked
        room = cap - reserved[down]
        down_fifo = down + down // p  # the downstream FIFO's flat id
        # The same-cycle credit rule: a port sees the pops granted at
        # lower ports, not those of its own winners.
        for lo, hi in zip(bounds, bounds[1:]):
            if lo < hi:
                moves = grant[lo:hi]
                moves &= count[down_fifo[lo:hi]] < room[lo:hi]
                count[fifo[lo:hi][moves]] -= 1

        # --- Pass 3: one batched send, then ejection and injection ------
        sent = fifo[:links][grant]
        rows, down = node[:links][grant], down[grant]
        meta = h_meta.reshape(-1)[sent] + HOP_ONE
        if net.congested_nodes.any():
            meta[net.congested_nodes[rows]] |= CBIT_MASK
        # Each directed link feeds one downstream (node, input port), so
        # these writes and the credit increment never collide.
        slot = (net.send_slot if net._uniform_latency else
                net.link_send_slot(net._lat_out.reshape(-1)[at[grant]]))
        flat = slot * net._ring_meta.shape[1] + down
        net._ring_meta.reshape(-1)[flat] = meta
        net._ring_birth.reshape(-1)[flat] = h_birth.reshape(-1)[sent]
        reserved[down] += 1
        stats.flit_hops += sent.size
        if net.tracer is not None:
            net.tracer.record(
                EV_HOP, cycle, rows, meta_src(meta), meta_dest(meta),
                meta_kind(meta), meta_seq(meta), meta_hops(meta),
            )
        home = fifo[links:]
        count[home] -= 1
        popped = np.concatenate((sent, home))
        head[popped] = (head[popped] + 1) % cap
        stats.buffer_reads += popped.size
        ejected = EjectedFlits.empty()
        if home.size:
            rows, meta = node[links:], h_meta.reshape(-1)[home]
            net.account_ejections(
                cycle, rows, meta, cycle - h_birth.reshape(-1)[home]
            )
            net.trace_ejections(cycle, rows, meta)
            ejected = net.make_ejected(rows, meta)
        net.injection_stage(cycle, net.buffers.count[:, p] < cap, self._place)
        return ejected

    # ------------------------------------------------------------------
    def _place(self, net, cycle, nodes, meta, stamp):
        net.trace_injections(cycle, nodes, meta)
        net.buffers.push(
            nodes * (net.num_ports + 1) + net.num_ports, meta, cycle
        )
        net.stats.buffer_writes += nodes.size
        net.stats.injected_flits += nodes.size
        net.stats.injected_per_node[nodes] += 1


class HybridFlowControl(DeflectFlowControl):
    """MinBD-style deflection + small side buffer (arXiv:2112.02516).

    Routes like FLIT-BLESS, but each router also has one small
    ``side_buffer_capacity``-flit FIFO.  Per cycle it may *capture* one
    flit that would otherwise deflect (buffer-eject width 1) and
    *redeem* one stored flit back into a free arrival slot, where it
    competes like any other arrival.  Captured flits neither traverse a
    link nor count as deflected — the side buffer absorbs exactly the
    misrouting that makes bufferless deflection expensive at load, with
    a fraction of the buffered baseline's storage (MinBD uses a handful
    of flits; the default is 4).  At load this puts the deflection rate
    well below BLESS and the occupancy well below the buffered baseline —
    the middle point of the buffering spectrum the paper's §6.3
    comparison spans.
    """

    def __init__(self, eject_width: int = 1, side_buffer_capacity: int = 4):
        super().__init__(eject_width)
        if side_buffer_capacity < 1:
            raise ValueError("side buffer capacity must be positive")
        self.side_buffer_capacity = side_buffer_capacity

    def attach(self, net: "RouterEngine") -> None:
        super().attach(net)
        net.side_buffer_capacity = self.side_buffer_capacity
        net.side_buffers = BufferBank(net.num_nodes, 1, self.side_buffer_capacity)
        self._can_capture = np.zeros(net.num_nodes, dtype=bool)

    def held_flits(self, net) -> int:
        return net.side_buffers.occupancy()

    def held_view(self, net):
        return net.side_buffers.view()

    def held_at(self, net, node: int) -> int:
        return int(net.side_buffers.count[node, 0])

    def rewrite_dest(self, net, old: int, new: int) -> int:
        return net.side_buffers.rewrite_dest(old, new)

    # ------------------------------------------------------------------
    def redeem(self, net, cycle, meta, birth) -> None:
        """Move one stored flit per node into a free arrival slot, then
        set the capture budget: at most one flit per router per cycle,
        and only while its side buffer has space."""
        count = net.side_buffers.count[:, 0]
        empty = birth < 0
        nodes = np.flatnonzero((count > 0) & empty.any(axis=1))
        if nodes.size:
            at = nodes * net.num_ports + np.argmax(empty[nodes], axis=1)
            meta.reshape(-1)[at], birth.reshape(-1)[at] = (
                net.side_buffers.pop(nodes)
            )
            net.stats.buffer_reads += nodes.size
        np.less(count, self.side_buffer_capacity, out=self._can_capture)

    def end_allocation(self, net, rows, meta, birth, grants):
        # One push per cycle: each router captures at most one flit, and
        # nothing reads the side buffers during allocation.
        held = grants == _HELD
        if not np.count_nonzero(held):
            return None
        rows = rows[held]
        net.side_buffers.push(rows, meta[held], birth[held])
        net.stats.buffer_writes += rows.size
        return ~held

    def resolve_blocked(self, net, cycle, rows, meta, birth, pick,
                        missing, free, spare):
        """Capture one would-be-deflected flit per node, deflect the rest."""
        cap = missing & self._can_capture[rows]
        if np.count_nonzero(cap):
            self._can_capture[rows[cap]] = False
            pick[cap] = _HELD
            missing ^= cap
            if not np.count_nonzero(missing):
                return pick
        return super().resolve_blocked(
            net, cycle, rows, meta, birth, pick, missing, free, spare
        )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class RouterEngine:
    """The network: shared router machinery, specialized by policy objects.

    Owns the injection-side state (request/response queues, starvation
    meter, throttle gate), the run-level statistics, the hop-delay ring
    (flits leaving at cycle *t* arrive ``hop_latency`` cycles later),
    the arbitration policy, and the stage helpers every flow control
    composes its cycle from.

    Parameters
    ----------
    topology:
        Any :mod:`repro.topology` layout (grids or a finalized graph).
    flow:
        The :class:`FlowControl` that makes this engine a bufferless,
        buffered or hybrid router model.
    hop_latency:
        Cycles per hop; Table 2's 2-cycle router + 1-cycle link gives the
        default of 3.  Links remain pipelined (1 flit/cycle each).
    arbitration:
        ``"oldest_first"`` (paper baseline), or ``"youngest_first"`` /
        ``"random"`` for the arbitration ablation benchmark.
    """

    def __init__(
        self,
        topology,
        flow: FlowControl,
        hop_latency: int = 3,
        queue_capacity: int = 64,
        starvation_window: int = 128,
        arbitration: str = "oldest_first",
        rng: Optional[np.random.Generator] = None,
        fault_model=None,
    ):
        self.topology = topology
        self.num_nodes = topology.num_nodes
        self.request_queue = FlitQueueArray(self.num_nodes, queue_capacity)
        self.response_queue = FlitQueueArray(self.num_nodes, queue_capacity)
        self.starvation = StarvationMeter(self.num_nodes, starvation_window)
        self.throttle = InjectionThrottleGate(self.num_nodes)
        self.stats = NetworkStats()
        self.stats.init_arrays(self.num_nodes)
        # Fault injection (repro.guardrails.faults): healthy-link mask and
        # destination re-striping around fail-stopped routers.
        self.fault_model = fault_model
        if fault_model is not None:
            if fault_model.topology is not topology:
                raise ValueError("fault model was built for a different topology")
            self.link_up = fault_model.link_up
        else:
            self.link_up = topology.link_exists
        # Distributed controller support (§6.6): nodes currently
        # asserting the congestion bit on passing flits, and nodes that
        # were delivered a marked flit since a controller last drained
        # the array (Controller.drain); all False otherwise.
        self.congested_nodes = np.zeros(self.num_nodes, dtype=bool)
        self.cbit_seen = np.zeros(self.num_nodes, dtype=bool)
        # Sampled flit-event tracing (repro.observability.FlitTracer);
        # installed by the simulator when tracing is enabled.  A None
        # tracer costs one branch per step section.
        self.tracer = None
        if arbitration not in ARBITRATION_POLICIES:
            raise ValueError(f"unknown arbitration policy: {arbitration!r}")
        if hop_latency < 1:
            raise ValueError("hop latency must be at least 1 cycle")
        self.hop_latency = hop_latency
        self.arbitration = arbitration
        self._arb = ARBITRATION_POLICIES[arbitration]()
        # Default-seed fallback for standalone construction; the
        # simulator passes its own "arbitration" stream, which this
        # label deliberately mirrors.
        self._rng = rng if rng is not None else child_rng(0, "arbitration")  # repro: noqa[RNG001]

        n, p = self.num_nodes, topology.num_ports
        self.num_ports = p
        # Per-(node, out port) hop latency: router pipeline plus that
        # link's wire cycles.  Grid topologies have uniform unit wires;
        # express/chiplet layouts stretch their long links.  The ring is
        # as deep as the slowest link; a flit entering a link with hop
        # latency L is written L-1 slots ahead of the arrival cursor, so
        # every row still retires all its flits on its arrival cycle.
        extra = topology.link_latency.astype(np.int64) - 1
        self._lat_out = np.where(topology.link_exists, hop_latency + extra,
                                 hop_latency)
        self._ring_depth = int(self._lat_out.max())
        self._uniform_latency = bool(
            (self._lat_out == hop_latency).all()
        )
        self._ring_meta = np.zeros((self._ring_depth, n * p), dtype=np.int64)
        self._ring_birth = np.full((self._ring_depth, n * p), -1, dtype=np.int64)
        self._cursor = 0
        # Static scatter map: flat arrival slot (neighbor, reverse port)
        # reached through each (node, out port).
        neighbor = topology.neighbor.astype(np.int64)
        rev = topology.reverse_port.astype(np.int64)
        self._target_flat = np.where(
            topology.link_exists, neighbor * p + rev, -1
        )
        self._node_ids = np.arange(n, dtype=np.int64)
        self._node_col = self._node_ids[:, None]
        # Every per-cycle working grid (this one and the flow control's,
        # at attach time) is preallocated and reused via out=/copyto, so
        # the steady-state cycle performs no numpy array allocations for
        # its hot buffers.
        self._sc_moving = np.empty((n, p), np.bool_)
        # Injection-queueing latency statistics (time from enqueue at the
        # NI to entering the network), the paper's "injection latency";
        # only accumulated by flow controls that inject straight onto
        # links (buffered models charge queueing to in-network latency).
        self.injection_latency_sum = 0
        self.injection_latency_count = 0
        self.flow = flow
        flow.attach(self)

    # ------------------------------------------------------------------
    # Producer-side API (used by the core/memory models)
    # ------------------------------------------------------------------
    def _sanitize_dest(self, meta: np.ndarray) -> np.ndarray:
        """Re-stripe packet words addressed to fail-stopped routers.

        The shared L2 is interleaved across nodes; when a router
        fail-stops, its slice's traffic moves to the nearest live node so
        no packet is ever addressed to a router that cannot eject it
        (dest is the low meta bits: the rewrite is additive).
        """
        if self.fault_model is None:
            return meta
        dest = meta_dest(meta)
        return meta + (self.fault_model.remap[dest] - dest)

    def enqueue_requests(
        self, nodes: np.ndarray, dest: np.ndarray, flits, cycle: int = 0, seq=0
    ) -> np.ndarray:
        """Queue L1-miss request packets; returns acceptance mask."""
        # pack_meta(dest, 0, FLIT_REQUEST, seq) without its conversions.
        meta = (FLIT_REQUEST << _KIND_SHIFT) | dest | (seq << _SEQ_SHIFT)
        return self.request_queue.push(
            nodes, self._sanitize_dest(meta), flits, cycle
        )

    def enqueue_replies(
        self, nodes: np.ndarray, meta: np.ndarray, flits, cycle: int = 0
    ) -> np.ndarray:
        """Queue reply-word packets at the serving node (never throttled)."""
        return self.response_queue.push(
            nodes, self._sanitize_dest(meta), flits, cycle
        )

    def request_backpressure(self) -> np.ndarray:
        """Mask of nodes whose request queue cannot take another packet."""
        return self.request_queue.is_full

    # ------------------------------------------------------------------
    # Control API
    # ------------------------------------------------------------------
    def set_throttle_rates(self, rates: np.ndarray) -> None:
        self.throttle.set_rates(rates)

    # ------------------------------------------------------------------
    # The cycle, and the views the guardrails read
    # ------------------------------------------------------------------
    def step(self, cycle: int) -> EjectedFlits:
        """Advance the network by one cycle; returns delivered flits."""
        self.stats.cycles += 1
        ejected = self.flow.step(self, cycle)
        self.stats.buffer_occupancy_sum += self.flow.held_flits(self)
        return ejected

    def in_flight_flits(self, occupied=None) -> int:
        """Flits currently inside the network (for conservation checks);
        *occupied* is ``_ring_birth >= 0`` when the caller has it."""
        if occupied is None:
            occupied = self._ring_birth >= 0
        return int(np.count_nonzero(occupied)) + self.flow.held_flits(self)

    def in_flight_view(self, occupied=None):
        """``(meta, birth)`` flat arrays of every in-flight flit.

        Used by the guardrails (invariant checker, watchdog) for age and
        identity checks; visits links plus any in-network buffering.
        """
        if occupied is None:
            occupied = self._ring_birth >= 0
        at = np.flatnonzero(occupied)
        meta, birth = self._ring_meta.take(at), self._ring_birth.take(at)
        held = self.flow.held_view(self)
        if held is None:
            return meta, birth
        return (
            np.concatenate([meta, held[0]]),
            np.concatenate([birth, held[1]]),
        )

    # ------------------------------------------------------------------
    # Chaos support (mid-run topology transitions, repro.chaos)
    # ------------------------------------------------------------------
    def on_topology_change(self) -> None:
        """Refresh routing tables after a chaos link/router transition."""
        self.flow.on_topology_change(self)

    def held_at(self, node: int) -> int:
        """Flits stored inside router *node* (drain-completion checks)."""
        return self.flow.held_at(self, node)

    def rewrite_dest(self, old: int, new: int) -> int:
        """Re-address every flit destined *old* to *new*, everywhere.

        Covers the hop-delay ring, flow-control buffers, and the NI
        queues (packets enqueued before the destination re-striping took
        effect).  Returns the number of *in-network* flits rewritten;
        NI-queue rewrites touch stale slots harmlessly and are not
        counted.
        """
        mask = (self._ring_birth >= 0) & (meta_dest(self._ring_meta) == old)
        hits = int(mask.sum())
        if hits:
            self._ring_meta[mask] += new - old
        hits += self.flow.rewrite_dest(self, old, new)
        for queue in (self.request_queue, self.response_queue):
            stale = meta_dest(queue.meta) == old
            if stale.any():
                queue.meta[stale] += new - old
        return hits

    def router_wire_empty(self, node: int) -> bool:
        """No flit on any wire into or out of *node*, in any ring stage."""
        p = self.num_ports
        inbound = self._ring_birth[:, node * p:(node + 1) * p]
        if (inbound >= 0).any():
            return False
        out = self._target_flat[node]
        out = out[out >= 0]
        return not (self._ring_birth[:, out] >= 0).any()

    def link_wire_empty(self, node: int, port: int) -> bool:
        """Both directions of link (node, port) are drained."""
        fwd = int(self._target_flat[node, port])
        neighbor = int(self.topology.neighbor[node, port])
        rev = int(self.topology.reverse_port[node, port])
        back = int(self._target_flat[neighbor, rev])
        slots = [s for s in (fwd, back) if s >= 0]
        return not (self._ring_birth[:, slots] >= 0).any()

    def purge_queues_at(self, node: int) -> int:
        """Drop un-injected NI packets at *node*; returns flits dropped.

        Only used by chaos when a fail-stopping router's queues refuse
        to drain (heavy throttling); the packets never entered the
        network, so flit conservation is unaffected.
        """
        return (
            self.request_queue.purge_node(node)
            + self.response_queue.purge_node(node)
        )

    # ------------------------------------------------------------------
    # Stage helpers (used by FlowControl implementations)
    # ------------------------------------------------------------------
    def arbitration_keys_into(self, birth, meta, out, scratch) -> np.ndarray:
        """Per-flit arbitration keys written into scratch *out*; the
        smallest key wins a conflict."""
        return self._arb.keys_into(self, birth, meta, out, scratch)

    def first_port(self, nodes, dest):
        """The port :meth:`route_bits` ranks first for flits at *nodes*
        bound for *dest*, without building the second (-1: none)."""
        if self._fault_table is not None:
            return lowbit(self._fault_table.take(nodes * self.num_nodes + dest))
        tables = self.topology.route_tables()
        if tables is None:
            return self.topology.productive_ports(nodes, dest)[0]
        return tables[0][nodes * self.num_nodes + dest]

    def route_bits(self, nodes, dest):
        """Productive-port masks ``(b0, b1)`` of flits at *nodes* bound
        for *dest*, as :func:`_productive` takes them: with faults in
        force, the fault table's ports and ``None``; otherwise the bits
        of the topology's first and second productive port (0: none)."""
        if self._fault_table is not None:
            return self._fault_table.take(nodes * self.num_nodes + dest), None
        tables = self.topology.route_tables()
        p0, p1 = (self.topology.productive_ports(nodes, dest) if tables is None
                  else tables.take(nodes * self.num_nodes + dest, axis=1))
        return _PORT_BIT[p0], _PORT_BIT[p1]

    def arrival_slot(self) -> Tuple[np.ndarray, np.ndarray]:
        """Raw ``(meta, birth)`` views of this cycle's arrival slot."""
        return self._ring_meta[self._cursor], self._ring_birth[self._cursor]

    def retire_arrivals(self) -> None:
        """Clear the consumed arrival slot and advance the ring cursor."""
        self._ring_birth[self._cursor] = -1
        self._cursor = (self._cursor + 1) % self._ring_depth

    @property
    def send_slot(self) -> int:
        """Ring slot whose contents arrive ``hop_latency`` cycles out
        (the uniform-latency fast path)."""
        return (self._cursor + self.hop_latency - 1) % self._ring_depth

    def link_send_slot(self, lat_sel: np.ndarray) -> np.ndarray:
        """Per-flit ring slots for links with hop latencies *lat_sel*."""
        return (self._cursor + lat_sel - 1) % self._ring_depth

    def account_ejections(self, cycle, rows, meta, latencies) -> None:
        """Latency/hop statistics for a batch of delivered flits, and
        the congestion bits their receivers were handed."""
        self.cbit_seen[rows[(meta & CBIT_MASK) != 0]] = True
        stats = self.stats
        stats.ejected_flits += rows.size
        stats.latency_sum += int(latencies.sum())
        stats.latency_count += rows.size
        stats.latency_max = max(stats.latency_max, int(latencies.max()))
        stats.record_latencies(latencies)
        stats.hops_sum += int(meta_hops(meta).sum())

    def trace_ejections(self, cycle, rows, meta) -> None:
        if self.tracer is not None:
            self.tracer.record(
                EV_EJECT, cycle, rows, meta_src(meta), rows,
                meta_kind(meta), meta_seq(meta), meta_hops(meta),
            )

    def trace_injections(self, cycle, nodes, meta) -> None:
        if self.tracer is not None:
            self.tracer.record(
                EV_INJECT, cycle, nodes, nodes, meta_dest(meta),
                meta_kind(meta), meta_seq(meta), 0,
            )

    @staticmethod
    def make_ejected(rows, meta) -> EjectedFlits:
        return EjectedFlits(rows, meta)

    def injection_stage(self, cycle, capacity, place) -> None:
        """NI admission shared by all flow controls.

        Responses inject first (they are never throttled, §3.2), then
        requests pass the Algorithm-3 throttle gate; ``place(net, cycle,
        nodes, meta, stamp)`` places one flit per node in *nodes*
        (responses first; *meta* with the source set, zero hops), the
        flow-specific part.  Every node that wanted to inject but could
        not counts as starved.
        """
        resp_has = self.response_queue.nonempty
        req_has = self.request_queue.nonempty
        wanted = resp_has | req_has
        inject_resp = resp_has & capacity
        trying_req = req_has & capacity & ~inject_resp
        inject_req = self.throttle.decide(trying_req)
        taken = [
            (nodes, *queue.take_flit(nodes)) for queue, nodes in (
                (self.response_queue, np.flatnonzero(inject_resp)),
                (self.request_queue, np.flatnonzero(inject_req)),
            ) if nodes.size
        ]
        if taken:
            nodes, meta, stamp = (
                taken[0] if len(taken) == 1
                else map(np.concatenate, zip(*taken))
            )
            # The NI sets its own node as the source, as ni_admit does.
            meta |= nodes << _SRC_SHIFT
            place(self, cycle, nodes, meta, stamp)
        starved = wanted ^ (inject_resp | inject_req)  # injected ⊆ wanted
        self.starvation.update(starved)
        self.stats.starved_cycles += starved
        self.stats.port_starved_cycles += wanted & ~capacity

    def mark_congestion(self, out_meta, out_birth) -> None:
        """Distributed-control congestion bit (§6.6) on departing flits."""
        if self.congested_nodes.any():
            mark = self.congested_nodes[:, None] & (out_birth >= 0)
            out_meta[mark] |= CBIT_MASK

    def send_grid(self, cycle, out_meta, out_birth) -> None:
        """Scatter granted ``(node, out port)`` flits into the ring."""
        moving = np.greater_equal(out_birth, 0, out=self._sc_moving)
        idx = self._target_flat[moving]
        if self._uniform_latency:
            slot = self.send_slot
        else:
            slot = self.link_send_slot(self._lat_out[moving])
        at = slot * self._ring_meta.shape[1] + idx
        self._ring_meta.reshape(-1)[at] = out_meta[moving]
        self._ring_birth.reshape(-1)[at] = out_birth[moving]
        self.stats.flit_hops += idx.size
        if self.tracer is not None and idx.size:
            hop_rows = np.nonzero(moving)[0]
            hm = out_meta[moving]
            self.tracer.record(
                EV_HOP, cycle, hop_rows, meta_src(hm), meta_dest(hm),
                meta_kind(hm), meta_seq(hm), meta_hops(hm),
            )
