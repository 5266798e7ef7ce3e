"""Runtime verification of the paper's hard network invariants (§2.2).

The BLESS argument rests on properties the simulator must uphold every
cycle — flits are never dropped, each node ejects at most
``eject_width`` flits per cycle, flits only occupy links that exist,
and ages impose a total order on in-flight flits.  The checker verifies
them after every network step, entirely with vectorized numpy
reductions so that checked runs stay within a small constant factor of
unchecked ones.

Checked invariants:

``conservation``
    injected == ejected + in-flight, every cycle (no flit is ever
    dropped or duplicated; a double-granted output port would overwrite
    a flit and trip this check).
``eject_width``
    no node ejects more flits in one cycle than its ejection width.
``ghost_link``
    no flit occupies a link that does not exist (mesh edge) or that has
    permanently failed (fault injection).
``future_birth``
    no in-flight flit claims an injection cycle later than now.
``age_order``
    the ``(birth, source)`` arbitration keys of in-flight flits are
    unique — the total order required for livelock freedom.
``dest_valid``
    every in-flight flit is addressed to a live, in-range router.
``queue_bounds``
    NI packet queues and every in-router FIFO bank (the buffered
    network's input buffers, the hybrid's side buffers) respect their
    capacity and head-pointer bounds; the input buffers also their
    credit bookkeeping.
``control_conservation``
    every modeled control flit is accounted: attempted == sent +
    dropped (a hub-queue overflow is a *counted* drop, never a silent
    loss).
"""

from __future__ import annotations

import numpy as np

from repro.guardrails.errors import InvariantViolation
from repro.network.base import EjectedFlits
from repro.network.engine import BufferBank
from repro.network.flit import meta_dest, meta_src, priority_key
from repro.network.queues import FlitQueueArray

__all__ = ["InvariantChecker"]


class InvariantChecker:
    """Per-cycle invariant verification for one network instance."""

    def __init__(self, network):
        self.network = network
        self.eject_width = int(getattr(network, "eject_width", 1))
        self.checks_run = 0
        n = network.num_nodes
        self._num_nodes = n
        self._num_ports = int(network.topology.num_ports)
        # Arrival slots a flit may legally occupy: one per healthy link.
        self._allowed_slots = network.link_up.ravel()
        fault_model = network.fault_model
        self._alive = None if fault_model is None else fault_model.alive_routers
        # Every in-router FIFO bank: the credit router's input buffers,
        # the hybrid's side buffers.
        self._banks = [
            (name, bank) for name, bank in vars(network).items()
            if isinstance(bank, BufferBank)
        ]

    # ------------------------------------------------------------------
    def after_step(self, cycle: int, ejected: EjectedFlits) -> None:
        """Verify all invariants; raises :class:`InvariantViolation`."""
        net = self.network
        # One scan of the hop-delay ring serves the ring, conservation
        # and flight checks.
        occupied = net._ring_birth >= 0
        # Structural bounds first: a corrupt occupancy count would make
        # the semantic checks below mis-report the root cause.
        self._check_ring(cycle, occupied)
        self._check_queue(cycle, net.request_queue, "request")
        self._check_queue(cycle, net.response_queue, "response")
        self._check_buffers(cycle, net)
        self._check_conservation(cycle, net, occupied)
        self._check_control(cycle, net)
        self._check_eject_width(cycle, ejected)
        self._check_flights(cycle, net, occupied)
        self.checks_run += 1

    # ------------------------------------------------------------------
    def _fail(self, invariant, cycle, message, nodes=None, **snapshot):
        stats = self.network.stats
        snapshot.setdefault("injected_flits", stats.injected_flits)
        snapshot.setdefault("ejected_flits", stats.ejected_flits)
        raise InvariantViolation(invariant, cycle, message, nodes, snapshot)

    def _check_conservation(self, cycle, net, occupied) -> None:
        in_flight = net.in_flight_flits(occupied)
        injected, ejected = net.stats.injected_flits, net.stats.ejected_flits
        if injected != ejected + in_flight:
            self._fail(
                "conservation",
                cycle,
                f"injected={injected} != ejected={ejected} + "
                f"in_flight={in_flight} (delta "
                f"{injected - ejected - in_flight:+d} flits)",
                in_flight=in_flight,
            )
        if ejected > injected:
            self._fail(
                "conservation", cycle,
                f"ejected={ejected} exceeds injected={injected}",
            )

    def _check_control(self, cycle, net) -> None:
        """Control-flit conservation: attempted == sent + dropped."""
        stats = net.stats
        attempted = stats.control_flits_attempted
        sent = stats.control_flits_sent
        dropped = stats.control_flits_dropped
        if sent < 0 or dropped < 0 or sent + dropped != attempted:
            self._fail(
                "control_conservation",
                cycle,
                f"control flits attempted={attempted} != sent={sent} + "
                f"dropped={dropped} (delta "
                f"{attempted - sent - dropped:+d})",
                control_attempted=attempted,
                control_sent=sent,
                control_dropped=dropped,
            )

    def _check_eject_width(self, cycle, ejected: EjectedFlits) -> None:
        if ejected.node.size == 0:
            return
        counts = np.bincount(ejected.node, minlength=self._num_nodes)
        if counts.max(initial=0) > self.eject_width:
            bad = np.flatnonzero(counts > self.eject_width)
            self._fail(
                "eject_width",
                cycle,
                f"node(s) ejected {int(counts.max())} flits in one cycle "
                f"(width {self.eject_width})",
                nodes=bad,
                per_node_ejections={int(b): int(counts[b]) for b in bad[:8]},
            )

    def _check_ring(self, cycle, occupied) -> None:
        """Flits on the wire only occupy healthy arrival slots."""
        ghost = occupied & ~self._allowed_slots[None, :]
        if ghost.any():
            slots = np.flatnonzero(ghost.any(axis=0))
            p = self._num_ports
            nodes = slots // p
            self._fail(
                "ghost_link",
                cycle,
                f"{int(ghost.sum())} flit(s) on nonexistent or failed "
                f"link(s) (node, port): "
                f"{[(int(s // p), int(s % p)) for s in slots[:8]]}",
                nodes=np.unique(nodes),
            )

    def _check_flights(self, cycle, net, occupied) -> None:
        meta, birth = net.in_flight_view(occupied)
        if birth.size == 0:
            return
        if int(birth.max()) > cycle:
            self._fail(
                "future_birth",
                cycle,
                f"in-flight flit with birth {int(birth.max())} > cycle {cycle}",
                max_birth=int(birth.max()),
            )
        src = meta_src(meta)
        dest = meta_dest(meta)
        if birth.size > 1:
            # Sort + adjacent-compare beats np.unique here: this runs
            # every cycle and the call overhead dominates at small sizes.
            keys = np.sort(priority_key(birth, src))
            duplicates = int((keys[1:] == keys[:-1]).sum())
            if duplicates:
                self._fail(
                    "age_order",
                    cycle,
                    f"{duplicates} duplicate (birth, src) arbitration "
                    f"key(s); Oldest-First total order broken",
                    in_flight=int(birth.size),
                )
        bad_range = (dest >= self._num_nodes) | (src >= self._num_nodes)
        if bad_range.any():
            self._fail(
                "dest_valid",
                cycle,
                f"{int(bad_range.sum())} in-flight flit(s) with out-of-range "
                f"src/dest",
            )
        if self._alive is not None and not self._alive[dest].all():
            dead = np.unique(dest[~self._alive[dest]])
            self._fail(
                "dest_valid",
                cycle,
                "in-flight flit(s) addressed to fail-stopped router(s) "
                "(destination re-striping bypassed)",
                nodes=dead,
            )

    def _check_queue(self, cycle, queue: FlitQueueArray, name: str) -> None:
        cap = queue.capacity
        for what, field, top, bound, key in (
            ("count", queue.count, cap, f"[0, {cap}]", "counts"),
            ("head pointer", queue.head, cap - 1, f"[0, {cap})", "heads"),
        ):
            # Read as unsigned, a negative int32 is above any bound.
            bad = np.flatnonzero(field.view(np.uint32) > top)
            if bad.size:
                self._fail(
                    "queue_bounds", cycle, f"{name} queue {what} outside {bound}",
                    nodes=bad, **{key: {int(b): int(field[b]) for b in bad[:8]}},
                )

    def _check_buffers(self, cycle, net) -> None:
        for name, bank in self._banks:
            cap = bank.capacity
            for what, field, top in (
                ("occupancy", bank.count, cap), ("head pointer", bank.head, cap - 1),
            ):
                # Read as unsigned, a negative int32 is above any bound.
                bad = field.view(np.uint32) > top
                if bad.any():
                    self._fail(
                        "queue_bounds", cycle,
                        f"{name} {what} outside [0, {top}]",
                        nodes=np.flatnonzero(bad.any(axis=1)),
                    )
        reserved = getattr(net, "reserved", None)
        if reserved is None:
            return
        buffers, cap = net.buffers, net.buffers.capacity
        if (reserved < 0).any():
            self._fail(
                "queue_bounds", cycle,
                "negative link credit reservation",
                nodes=np.flatnonzero((reserved < 0).any(axis=1)),
            )
        committed = buffers.count[:, :self._num_ports] + reserved
        if (committed > cap).any():
            self._fail(
                "queue_bounds",
                cycle,
                f"buffer occupancy + in-flight reservations exceed capacity {cap}",
                nodes=np.flatnonzero((committed > cap).any(axis=1)),
            )
