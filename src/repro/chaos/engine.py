"""The chaos campaign engine: applies scheduled faults to a live run.

One :class:`ChaosEngine` instance rides inside the simulator's phase
pipeline (the ``chaos`` phase, first in the cycle) and, at each event's
cycle, drives the corresponding transition through the
:class:`~repro.guardrails.faults.FaultModel`, the router engine, and
the control plane.

**Down events are two-phase** so the invariant checker's losslessness
guarantee holds through every transition:

1. *quiesce*: the target's links leave preferred allocation (they
   present like transiently faulted links — still legal for the
   bufferless deflection fallback, blocking for buffered sends) and,
   for a router, its core halts and destinations re-stripe away so the
   population of traffic bound for it strictly shrinks;
2. *hard down*: once every wire/buffer of the target is observed empty
   — and a fresh connectivity check still passes — the fault model
   mutates in place, any straggler packets in NI queues are
   re-addressed, and the routers rebuild healthy-graph routing tables.

Up events apply immediately; an ``up`` arriving while its target is
still draining simply cancels the pending down.  The engine also
closes the loop on *measurement*: per-``recovery_window`` latency and
deflection deltas feed a pre-fault baseline, and each applied event
opens a probe that records how many cycles the network needed to come
back within tolerance (the per-event recovery time in the
:class:`~repro.chaos.report.ChaosReport`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.chaos.report import ChaosEventRecord, ChaosReport
from repro.chaos.schedule import ChaosConfig, ChaosSchedule
from repro.control.registry import build_controller

__all__ = ["ChaosEngine"]


class ChaosEngine:
    """Applies one :class:`ChaosSchedule` to one simulator run."""

    def __init__(self, simulator, config: ChaosConfig):
        self.sim = simulator
        self.config = config
        self.network = simulator.network
        self.fm = simulator.fault_model
        self.schedule = ChaosSchedule(config, simulator.topology)
        self.records = [
            ChaosEventRecord(
                cycle=e.cycle, kind=e.kind, node=e.node, port=e.port,
                rate=e.rate,
            )
            for e in self.schedule.events
        ]
        self._event_ptr = 0
        self._pending = []  # down events draining toward hard-down
        self._draining = np.zeros(simulator.topology.num_nodes, dtype=bool)
        self._arm_controller()
        #: the hub's fault-free home; the live hub is remap[home]
        self._hub_home = simulator.hub
        # Recovery measurement state.
        self._window = config.recovery_window
        self._baseline = None  # (avg latency, deflection rate)
        self._win_start = self._snapshot()
        self._win_disturbed = False
        self._probes = []  # open per-event recovery probes
        # Degraded-service accounting.
        self.degraded_cycles = 0
        self.degraded_flits = 0
        self.orphaned_flits = 0
        self._noise_active = False
        self._prev_ejected = int(self.network.stats.ejected_flits)
        self._prev_disturbed = False

    def _arm_controller(self) -> None:
        """Hand the campaign's degraded policy to the controller.

        Only a campaign that fails the controller pays for a standby:
        the paper's §6.6 distributed scheme needs no central
        coordinator, which makes it the natural warm spare.
        """
        if not any(e.kind == "controller_down" for e in self.schedule.events):
            return
        standby = None
        if self.config.degraded_mode == "failover":
            standby = build_controller(
                ("distributed",), epoch=self.sim.config.epoch
            )
            standby.attach(self.network, self.sim.config)
        self.sim.controller.set_degraded_policy(
            self.config.degraded_mode, self.config.degraded_decay, standby
        )

    # ------------------------------------------------------------------
    # The per-cycle chaos phase
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        if cycle > 0 and cycle % self._window == 0:
            self._close_window(cycle)
        self._account_degraded()
        while self._event_ptr < len(self.schedule.events) and (
            self.schedule.events[self._event_ptr].cycle <= cycle
        ):
            idx = self._event_ptr
            self._event_ptr += 1
            self._apply(cycle, idx, self.schedule.events[idx])
        if self._pending:
            self._advance_drains(cycle)
        self._prev_disturbed = self._is_disturbed()
        if self._prev_disturbed:
            self._win_disturbed = True

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _apply(self, cycle: int, idx: int, event) -> None:
        handler = {
            "link_down": self._link_down,
            "link_up": self._link_up,
            "router_down": self._router_down,
            "router_up": self._router_up,
            "controller_down": self._controller_down,
            "controller_up": self._controller_up,
            "noise_start": self._noise_start,
            "noise_end": self._noise_end,
        }[event.kind]
        handler(cycle, idx, event)

    def _link_down(self, cycle, idx, event) -> None:
        node, port = event.node, event.port
        if not self.fm.topology.link_exists[node, port]:
            return self._skip(idx, "no such link")
        if self._find_pending("link", node, port) is not None:
            return self._skip(idx, "link already draining")
        if not self.fm.link_up[node, port]:
            return self._skip(idx, "link already out of service")
        if self.fm.link_would_disconnect(node, port):
            return self._skip(idx, "would disconnect live routers")
        self.fm.quiesce_link(node, port)
        # Quiescing reshapes routing (through-traffic detours around the
        # draining link), not just preference masks.
        self.network.on_topology_change()
        self._pending.append(
            {"kind": "link", "node": node, "port": port, "index": idx,
             "since": cycle}
        )

    def _link_up(self, cycle, idx, event) -> None:
        node, port = event.node, event.port
        if not self.fm.topology.link_exists[node, port]:
            return self._skip(idx, "no such link")
        pending = self._find_pending("link", node, port)
        if pending is not None:
            self.fm.unquiesce_link(node, port)
            self.network.on_topology_change()
            self._pending.remove(pending)
            self._skip(pending["index"], "cancelled by link_up before drain")
            return self._applied(idx, cycle, reason="cancelled pending down")
        if not self.fm._chaos_link_down[node, port]:
            return self._skip(idx, "link not down")
        self.fm.restore_link(node, port)
        self.network.on_topology_change()
        self._applied(idx, cycle, probe=True)

    def _router_down(self, cycle, idx, event) -> None:
        r = event.node
        if r >= self.fm.topology.num_nodes:
            return self._skip(idx, "no such router")
        if not self.fm.alive_routers[r]:
            return self._skip(idx, "router already down")
        if self._find_pending("router", r) is not None:
            return self._skip(idx, "router already draining")
        if self.fm.router_would_disconnect(r):
            return self._skip(idx, "would disconnect live routers")
        survivors = self.fm.alive_routers & ~self._draining
        survivors[r] = False
        if not survivors.any():
            return self._skip(idx, "no live router left to re-stripe to")
        # Quiesce inbound only: neighbors stop sending toward r while r
        # keeps every output preferred, so its buffers drain outward.
        self.fm.quiesce_router_inbound(r)
        self.sim.cores.halt_node(r)
        self._draining[r] = True
        # Re-stripe destinations away *now* so the population of flits
        # bound for r strictly shrinks and the drain terminates.
        self._rebuild_remap()
        self.network.on_topology_change()
        self._pending.append(
            {"kind": "router", "node": r, "index": idx, "since": cycle}
        )

    def _router_up(self, cycle, idx, event) -> None:
        r = event.node
        if r >= self.fm.topology.num_nodes:
            return self._skip(idx, "no such router")
        pending = self._find_pending("router", r)
        if pending is not None:
            self._cancel_router_drain(pending)
            return self._applied(idx, cycle, reason="cancelled pending down")
        if not self.fm._chaos_router_down[r]:
            return self._skip(idx, "router not down")
        self.fm.restore_router(r)
        self._rebuild_remap()
        self.network.on_topology_change()
        self.sim.cores.revive_node(r)
        self._applied(idx, cycle, probe=True)

    def _controller_down(self, cycle, idx, event) -> None:
        self.sim.controller.fail()
        self._applied(idx, cycle)

    def _controller_up(self, cycle, idx, event) -> None:
        self.sim.controller.restore()
        self._applied(idx, cycle)

    def _noise_start(self, cycle, idx, event) -> None:
        self.fm.set_noise(event.rate)
        self._noise_active = True
        self._applied(idx, cycle)

    def _noise_end(self, cycle, idx, event) -> None:
        self.fm.clear_noise()
        self._noise_active = False
        self._applied(idx, cycle)

    # ------------------------------------------------------------------
    # Drain progression (pending hard-downs)
    # ------------------------------------------------------------------
    def _advance_drains(self, cycle: int) -> None:
        done = []
        for pending in self._pending:
            if pending["kind"] == "link":
                if self._finish_link_down(cycle, pending):
                    done.append(pending)
            else:
                if self._finish_router_down(cycle, pending):
                    done.append(pending)
        for pending in done:
            self._pending.remove(pending)

    def _finish_link_down(self, cycle, pending) -> bool:
        node, port = pending["node"], pending["port"]
        if not self.network.link_wire_empty(node, port):
            return False
        if self.fm.link_would_disconnect(node, port):
            # Topology changed while draining; the link is critical now.
            self.fm.unquiesce_link(node, port)
            self.network.on_topology_change()
            self._skip(pending["index"], "aborted: link became critical")
            return True
        self.fm.fail_link(node, port)
        self.fm.unquiesce_link(node, port)
        self.network.on_topology_change()
        self._applied(pending["index"], cycle, probe=True)
        return True

    def _finish_router_down(self, cycle, pending) -> bool:
        r = pending["node"]
        if cycle - pending["since"] > 2 * self._window:
            # NI queues refusing to drain (e.g. hard throttling): cut
            # them loose so the fail-stop completes; the dropped packets
            # never entered the network.
            self.orphaned_flits += self.network.purge_queues_at(r)
        if not self._router_drained(r):
            return False
        if self.fm.router_would_disconnect(r):
            self._cancel_router_drain(pending)
            self._skip(pending["index"], "aborted: router became critical")
            return True
        new = int(self.fm.remap[r])
        self.orphaned_flits += self.sim.memory.drop_requester(r)
        self.sim.memory.migrate_server(r, new)
        self.network.rewrite_dest(r, new)
        self.fm.fail_router(r)
        self._draining[r] = False
        self._rebuild_remap()
        self.fm.unquiesce_router_inbound(r)
        self.network.on_topology_change()
        self._applied(pending["index"], cycle, probe=True)
        return True

    def _router_drained(self, r: int) -> bool:
        """All traffic at/owed-to router *r* has left the system."""
        net = self.network
        return (
            net.router_wire_empty(r)
            and net.held_at(r) == 0
            and int(net.request_queue.count[r]) == 0
            and int(net.response_queue.count[r]) == 0
            and self.sim.memory.pending_for_server(r) == 0
        )

    def _cancel_router_drain(self, pending) -> None:
        r = pending["node"]
        self.fm.unquiesce_router_inbound(r)
        self._draining[r] = False
        self._rebuild_remap()
        self.network.on_topology_change()
        self.sim.cores.revive_node(r)
        if pending in self._pending:
            self._pending.remove(pending)
        if not self.records[pending["index"]].skipped:
            self._skip(pending["index"], "cancelled before drain completed")

    def _rebuild_remap(self) -> None:
        """Re-stripe destinations away from dead *and* draining routers."""
        alive = self.fm.alive_routers & ~self._draining
        self.fm.remap[:] = self.fm._build_remap(alive)
        self.sim.hub = int(self.fm.remap[self._hub_home])
        if self.sim.domains is not None:
            # Per-domain control hubs re-stripe the same way the global
            # hub does: a fail-stopped hub's traffic moves to the
            # nearest live router.
            self.sim.domain_hubs = self.fm.remap[
                self.sim._domain_hub_home
            ].astype(np.int64)

    # ------------------------------------------------------------------
    # Recovery measurement + degraded accounting
    # ------------------------------------------------------------------
    def _snapshot(self):
        stats = self.network.stats
        return (
            int(stats.latency_sum), int(stats.latency_count),
            int(stats.deflections), int(stats.injected_flits),
        )

    def _close_window(self, cycle: int) -> None:
        lat_sum, lat_cnt, defl, inj = self._snapshot()
        d_sum = lat_sum - self._win_start[0]
        d_cnt = lat_cnt - self._win_start[1]
        d_defl = defl - self._win_start[2]
        d_inj = inj - self._win_start[3]
        self._win_start = (lat_sum, lat_cnt, defl, inj)
        disturbed = self._win_disturbed
        self._win_disturbed = False
        if d_cnt <= 0:
            return  # no delivered traffic: nothing to measure
        latency = d_sum / d_cnt
        defl_rate = d_defl / max(d_inj, 1)
        if self._probes:
            tol = self.config.recovery_tolerance
            if self._baseline is None:
                # No pre-fault steady state on record; the first clean
                # traffic-bearing window counts as the recovery point.
                ok = not disturbed
            else:
                base_lat, base_defl = self._baseline
                ok = latency <= base_lat * (1.0 + tol) + 2.0 and (
                    defl_rate <= base_defl + max(base_defl * tol, 0.02)
                )
            if ok:
                for probe in self._probes:
                    idx = probe["index"]
                    self.records[idx] = replace(
                        self.records[idx],
                        recovery_cycles=cycle - probe["applied"],
                    )
                self._probes = []
        if not disturbed and not self._pending:
            self._baseline = (latency, defl_rate)

    def _account_degraded(self) -> None:
        ejected = int(self.network.stats.ejected_flits)
        if self._prev_disturbed:
            self.degraded_cycles += 1
            self.degraded_flits += ejected - self._prev_ejected
        self._prev_ejected = ejected

    def _is_disturbed(self) -> bool:
        return (
            bool(self._pending)
            or self.fm.any_chaos_faults
            or self._noise_active
            or self.sim.controller.down
        )

    # ------------------------------------------------------------------
    # Record bookkeeping
    # ------------------------------------------------------------------
    def _find_pending(self, kind: str, node: int, port: int = -1):
        if kind == "link":
            neighbor = int(self.fm.topology.neighbor[node, port])
            opp = int(self.fm.topology.reverse_port[node, port])
            for pending in self._pending:
                if pending["kind"] != "link":
                    continue
                if (pending["node"], pending["port"]) in (
                    (node, port), (neighbor, opp)
                ):
                    return pending
            return None
        for pending in self._pending:
            if pending["kind"] == "router" and pending["node"] == node:
                return pending
        return None

    def _skip(self, idx: int, reason: str) -> None:
        self.records[idx] = replace(
            self.records[idx], skipped=True, reason=reason
        )

    def _applied(self, idx, cycle, probe: bool = False, reason: str = "") -> None:
        self.records[idx] = replace(
            self.records[idx], applied_cycle=cycle, reason=reason
        )
        if probe:
            self._probes.append({"index": idx, "applied": cycle})

    # ------------------------------------------------------------------
    def report(self, total_cycles: int) -> ChaosReport:
        return ChaosReport(
            events=tuple(self.records),
            degraded_cycles=self.degraded_cycles,
            degraded_flits=self.degraded_flits,
            orphaned_flits=self.orphaned_flits,
            controller_down_epochs=self.sim.controller.downtime_epochs,
            controller_failovers=self.sim.controller.failovers,
            total_cycles=int(total_cycles),
        )
