"""The closed-loop system simulator.

Wires cores, memory system, network and congestion controller together
and advances them cycle by cycle.  The model is closed-loop in the
paper's sense (§6.1): "the backpressure of the NoC and its effect on
presented load are accurately captured" — cores stall when the network
does not deliver, which feeds back into injected load.

Per-cycle order of operations (the phase-pipeline contract, see
:mod:`repro.sim.pipeline` and DESIGN.md §S21):

1. ``behavior``: application phase processes advance,
2. ``cores``: cores retire instructions and enqueue new miss requests,
3. ``memory``: the memory system enqueues data replies that finished L2
   service,
4. ``network``: the network moves/ejects/injects flits (guardrail
   post-hooks — invariant checker, livelock watchdog — run here),
5. ``ejection``: delivered request flits enter L2 service; delivered
   reply flits complete core misses,
6. ``epoch`` (periodic): on epoch boundaries the congestion controller
   observes the network (IPF + starvation, the paper's 2n control
   packets) and installs new throttling rates.

There is exactly one run loop; profiling composes per-phase timing
wrappers at compile time instead of duplicating the loop.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.chaos import ChaosEngine
from repro.config import SimulationConfig
from repro.control.base import EpochView
from repro.cpu.core import CoreArray
from repro.cpu.memory import MemorySystem
from repro.guardrails.faults import FaultModel
from repro.guardrails.invariants import InvariantChecker
from repro.guardrails.report import GuardrailReport
from repro.guardrails.watchdog import ProgressWatchdog
from repro.guardrails.errors import SimulationTimeout
from repro.metrics.collectors import EpochSeries
from repro.network import build_network
from repro.network.base import EjectedFlits
from repro.network.flit import FLIT_CONTROL, FLIT_REPLY, FLIT_REQUEST
from repro.observability import FlitTracer, PerfCounters, PhaseTimer
from repro.power.model import PowerModel
from repro.rng import child_rng
from repro.sim.pipeline import PhasePipeline
from repro.sim.results import SimulationResult
from repro.topology.registry import build_topology
from repro.traffic.applications import ApplicationBehaviorArray
from repro.traffic.locality import LOCALITY_MODELS

__all__ = ["Simulator", "PHASE_WRITES"]

#: Phase-isolation contract, checked statically by the PHASE001 rule
#: (``repro.analysis.phasecontract``): each pipeline phase method (and
#: guardrail hook) may only write the simulator attributes listed here,
#: including writes made through other ``self`` methods it calls.  An
#: undeclared write — or a stale entry for a write that no longer
#: happens — fails ``python -m repro.analysis``.
PHASE_WRITES = {
    "_chaos_phase": (),
    "_behavior_phase": (),
    "_network_phase": ("_ejected",),
    "_invariants_hook": (),
    "_watchdog_hook": (),
    "_ejection_phase": (),
    "_epoch_phase": (
        "_epoch_start_hops",
        "_epoch_start_insns",
        "control_flits_sent",
    ),
}


def _build_locality(config: SimulationConfig, topology):
    if not isinstance(config.locality, str):
        return config.locality
    return LOCALITY_MODELS[config.locality](topology, config.locality_param)


class Simulator:
    """Builds and runs the full system described by a config."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        # The config already ran the registry's geometry validation in
        # its __post_init__.
        self.topology = build_topology(config)
        self.locality = _build_locality(config, self.topology)
        self._rng_dest = child_rng(config.seed, "destinations")
        self._rng_phase = child_rng(config.seed, "phases")
        self._rng_arb = child_rng(config.seed, "arbitration")

        self.behavior = ApplicationBehaviorArray(
            config.workload.specs(),
            flits_per_miss=config.request_flits + config.reply_flits,
            phase_sigma=config.phase_sigma,
            phase_length=config.phase_length,
            seed_rng=child_rng(config.seed, "phase-init"),
        )
        chaos_on = config.chaos is not None and config.chaos.any_events
        # Chaos needs a fault model even when the run starts fault-free:
        # its mid-run transitions apply over any sampled fault set.
        self.fault_model = (
            FaultModel(self.topology, config.faults)
            if chaos_on or (config.faults is not None and config.faults.any_faults)
            else None
        )
        self.network = build_network(
            config, self.topology, rng=self._rng_arb,
            fault_model=self.fault_model,
        )
        # Observability (repro.observability): both layers default off,
        # in which case the run loop stays uninstrumented and the only
        # residual cost is a handful of is-None branches.
        self.phase_timer = PhaseTimer() if config.profile else None
        self.tracer: Optional[FlitTracer] = None
        if config.trace:
            salt = int(child_rng(config.seed, "trace").integers(0, 2**63))
            self.tracer = FlitTracer(
                capacity=config.trace_capacity,
                sample=config.trace_sample,
                salt=salt,
            )
            self.network.tracer = self.tracer
        self._wall_seconds = 0.0
        self.checker = (
            InvariantChecker(self.network) if config.check_invariants else None
        )
        self.watchdog = (
            ProgressWatchdog(config.watchdog_window, config.max_flit_age)
            if config.watchdog_window or config.max_flit_age
            else None
        )
        self.cores = CoreArray(
            self.behavior,
            self.locality,
            self.network,
            rng=self._rng_dest,
            issue_width=config.issue_width,
            window_size=config.window_size,
            mshr_limit=config.mshr_limit,
            request_flits=config.request_flits,
            reply_flits=config.reply_flits,
        )
        self.memory = MemorySystem(
            self.network,
            l2_latency=config.l2_latency,
            reply_flits=config.reply_flits,
        )
        # The one point a controller meets the built system: from here
        # on the object the caller configured is the object that runs.
        self.controller = config.controller
        self.controller.attach(self.network, config)
        self.epochs = EpochSeries()
        self.cycle = 0
        self._epoch_start_hops = 0
        self._epoch_start_insns = 0.0
        # The central coordinator's location (for control traffic): the
        # topology's center, where average distance to all nodes is
        # minimal (the grid center on a mesh).
        self.hub = self.topology.central_node()
        if self.fault_model is not None:
            # A fail-stopped hub moves to the nearest live router.
            self.hub = int(self.fault_model.remap[self.hub])
        self.control_flits_sent = 0
        # Hierarchical control plane (repro.control.hierarchical): the
        # attached controller's DomainMap plus per-domain hubs.  None
        # for single-hub controllers — the classic 2n-flits-to-one-point
        # control traffic path.
        self.domains = self.controller.domain_map
        self.domain_hubs = None
        self._domain_hub_home = None
        self.domain_control_flits = None
        if self.domains is not None:
            self._domain_hub_home = self.domains.hubs.copy()
            self.domain_hubs = self._domain_hub_home.copy()
            if self.fault_model is not None:
                # Fail-stopped hubs move to their nearest live routers.
                self.domain_hubs = self.fault_model.remap[
                    self._domain_hub_home
                ].astype(np.int64)
            self.domain_control_flits = np.zeros(
                self.domains.num_domains, dtype=np.int64
            )
        # Chaos campaign engine (mid-run fault/recovery events); built
        # last so it can observe the fully wired system.
        self.chaos = ChaosEngine(self, config.chaos) if chaos_on else None
        # Per-cycle scratch: the network phase's delivered flits, consumed
        # by the guardrail hooks and the ejection phase.
        self._ejected = EjectedFlits.empty()
        # Compiled hot-path backend (repro.native): opt-in via the
        # config; unsupported configurations raise NativeUnsupported
        # rather than silently running something slightly different.
        self._accel = None
        if config.backend == "native":
            from repro.native import NativeAccel

            self._accel = NativeAccel(self)
        self.pipeline = self._build_pipeline()

    # ------------------------------------------------------------------
    # The phase pipeline (the per-cycle order-of-operations contract)
    # ------------------------------------------------------------------
    def _build_pipeline(self) -> PhasePipeline:
        """Assemble the cycle loop's ordered phases and hooks.

        The phase *order* is the module-docstring contract; guardrails
        attach as post-hooks on the ``network`` phase (they verify its
        outcome), so disabled guardrails leave the compiled loop
        untouched.  Observability wraps phases at compile time in
        :meth:`run` — nothing here branches on it.
        """
        pipe = PhasePipeline()
        if self.chaos is not None:
            # Chaos runs first: fault transitions land on the cycle
            # boundary, before any phase observes the topology.
            pipe.append("chaos", self._chaos_phase)
        phases = (
            ("behavior", self._behavior_phase),
            ("cores", self.cores.step),
            ("memory", self.memory.step),
            ("network", self._network_phase),
            ("ejection", self._ejection_phase),
        )
        accel = self._accel
        for name, fn in phases:
            # Native backend: same names and order, each phase its bit
            # of the compiled span (chaos and the invariant checker are
            # refused at the accel's construction).
            pipe.append(name, fn if accel is None else accel.phase(name))
        if self.checker is not None:
            pipe.post_hook("network", self._invariants_hook)
        if self.watchdog is not None:
            pipe.post_hook("network", self._watchdog_hook)
        pipe.append("epoch", self._epoch_phase, every=self.config.epoch)
        if accel is not None:
            pipe.fuse([name for name, _ in phases], accel.run_span)
        return pipe

    def _chaos_phase(self, cycle: int) -> None:
        self.chaos.tick(cycle)

    def _behavior_phase(self, cycle: int) -> None:
        self.behavior.tick(self._rng_phase)

    def _network_phase(self, cycle: int) -> None:
        self._ejected = self.network.step(cycle)

    def _invariants_hook(self, cycle: int) -> None:
        assert self.checker is not None  # only registered when enabled
        self.checker.after_step(cycle, self._ejected)

    def _watchdog_hook(self, cycle: int) -> None:
        assert self.watchdog is not None  # only registered when enabled
        if self._accel is not None:
            self._accel.flush()  # the watchdog reads scalar stats
        self.watchdog.after_step(cycle, self.network)

    def _ejection_phase(self, cycle: int) -> None:
        """Deliver this cycle's ejected flits to their consumers."""
        ejected = self._ejected
        if ejected.node.size:
            kind = ejected.kind
            req = kind == FLIT_REQUEST
            if req.any():
                self.memory.on_requests(
                    ejected.node[req], ejected.src[req], ejected.seq[req]
                )
            rep = kind == FLIT_REPLY
            if rep.any():
                self.cores.on_reply_flits(ejected.node[rep], ejected.seq[rep])

    def _epoch_phase(self, cycle: int) -> None:
        if self._accel is not None:
            # Scalar stats are flushed lazily on the native backend;
            # epoch logic reads them, so sync before running it.
            self._accel.flush()
        self._run_epoch()

    # ------------------------------------------------------------------
    def run(
        self, cycles: int, deadline: Optional[float] = None
    ) -> SimulationResult:
        """Advance *cycles* cycles and return the run's results.

        ``deadline`` is an optional wall-clock budget in seconds; a run
        that exceeds it raises
        :class:`~repro.guardrails.errors.SimulationTimeout` (checked
        every 256 cycles) so a diverging run cannot stall a whole sweep.
        After an abort, :meth:`result` still returns a well-formed
        partial result for the cycles that did complete.
        """
        if isinstance(cycles, bool) or not isinstance(cycles, (int, np.integer)):
            raise ValueError(
                f"cycles must be an integer >= 1, got {cycles!r} "
                f"({type(cycles).__name__})"
            )
        if cycles < 1:
            raise ValueError(
                f"must simulate at least one cycle (got cycles={cycles})"
            )
        epoch = self.config.epoch
        if isinstance(epoch, bool) or not isinstance(epoch, (int, np.integer)):
            raise ValueError(
                f"epoch must be an integer >= 1, got {epoch!r} "
                f"({type(epoch).__name__})"
            )
        if epoch < 1:
            raise ValueError(f"epoch must be >= 1 (got epoch={epoch})")
        # Wall-clock reads below are deliberate: they enforce the run's
        # real-time budget and measure host cost; nothing they produce
        # feeds simulated state.
        start_time = (
            time.monotonic() if deadline is not None else 0.0  # repro: noqa[DET001]
        )
        end = self.cycle + cycles
        self.pipeline.set_period("epoch", epoch)
        cycle_fns, periodic, span = self.pipeline.compiled(self.phase_timer)
        # Cycle counts a fused span must stop at a multiple of: every
        # periodic phase's boundary and the deadline check's.
        stops = [every for every, _ in periodic]
        if deadline is not None:
            stops.append(256)
        wall_start = time.perf_counter()  # repro: noqa[DET001]
        try:
            cycle = self.cycle
            while cycle < end:
                if deadline is not None and cycle % 256 == 0:
                    elapsed = (
                        time.monotonic() - start_time  # repro: noqa[DET001]
                    )
                    if elapsed > deadline:
                        raise SimulationTimeout(cycle, elapsed, deadline)
                if span is None:
                    for fn in cycle_fns:
                        fn(cycle)
                    cycle = self.cycle = cycle + 1
                else:
                    stop = min(
                        [end, *(cycle - cycle % q + q for q in stops)]
                    )
                    span(cycle, stop - cycle)
                    cycle = self.cycle = stop
                for every, fn in periodic:
                    if cycle % every == 0:
                        fn(cycle)
        finally:
            self._wall_seconds += (
                time.perf_counter() - wall_start  # repro: noqa[DET001]
            )
        return self.result()

    # ------------------------------------------------------------------
    def _run_epoch(self) -> None:
        """One controller period: measure, decide, install rates."""
        hops = self.network.stats.flit_hops
        insns = float(self.cores.retired.sum())
        epoch_cycles = self.config.epoch
        util = (hops - self._epoch_start_hops) / (
            epoch_cycles * self.topology.num_links
        )
        view = EpochView(
            cycle=self.cycle,
            ipf=self.cores.measured_ipf(),
            starvation_rate=self.network.starvation.rate(),
            active=self.cores.active,
            utilization=util,
            epoch_ipc=self.cores.epoch_insns / epoch_cycles,
        )
        rates = self.controller.run_epoch(view)
        self.network.set_throttle_rates(rates)
        if self.config.model_control_traffic:
            self._inject_control_traffic()
        self.epochs.append(
            self.cycle,
            utilization=util,
            throughput=(insns - self._epoch_start_insns)
            / (epoch_cycles * max(int(self.cores.active.sum()), 1)),
            starvation=float(view.starvation_rate[view.active].mean())
            if view.active.any()
            else 0.0,
            mean_throttle=float(np.asarray(rates).mean()),
            throttled_nodes=float((np.asarray(rates) > 0).sum()),
        )
        self.cores.reset_epoch()
        self._epoch_start_hops = hops
        self._epoch_start_insns = insns

    def _inject_control_traffic(self) -> None:
        """Model the mechanism's 2n control packets per epoch (§6.6).

        Each node reports (IPF, sigma) to the hub with one flit, and the
        hub distributes one rate-update flit per node.  Enqueued
        best-effort through the response path (control traffic is never
        throttled); queue overflow defers a report to the next epoch,
        which only delays — never breaks — coordination.

        With control domains the same exchange runs per domain hub, plus
        one between the remote domain hubs and the global coordinator —
        2n intra-domain + 2·(#domains) global instead of 2n through one
        queue.

        A fail-stopped coordinator exchanges no control packets until it
        (or its standby) comes back.  With control domains that suspends
        only the summary exchange; the domains keep reporting to their
        own hubs (they coordinate locally while degraded).
        """
        net = self.network
        stats = net.stats
        active = np.flatnonzero(self.cores.active)
        # (hub, members) exchanges: the per-domain ones first, then who
        # reports to the coordinator — every active node, or with
        # domains, every domain hub.
        exchanges = []
        reporters = active
        if self.domains is not None:
            active_domain = self.domains.domain_of[active]
            exchanges = [
                (int(hub), active[active_domain == d])
                for d, hub in enumerate(self.domain_hubs)
            ]
            # Hubs can collide after fault remapping; np.unique keeps
            # push()'s unique-node contract (and the self-send filter
            # below drops the coordinator, so one whole-mesh domain
            # exchanges nothing here — exactly the central path).
            reporters = np.unique(self.domain_hubs)
        num_domains = len(exchanges)
        if not self.controller.down:
            exchanges.append((self.hub, reporters))
        attempted = 0
        total_sent = 0
        for d, (hub, members) in enumerate(exchanges):
            members = members[members != hub]
            attempted += 2 * members.size
            if members.size == 0:
                continue
            hub_dest = np.full(members.size, hub, dtype=np.int64)
            sent = int(net.response_queue.push(
                members, hub_dest, FLIT_CONTROL, 1, stamp=self.cycle
            ).sum())
            # Hub -> node updates: a burst into the hub's queue bounded
            # by its remaining space.  All entries target the same queue,
            # so "stop at the first overflow" is exactly "accept the
            # first free-space-many" — one vectorized push instead of
            # ~n single-entry pushes per epoch.
            sent += net.response_queue.push_burst(
                hub, members, FLIT_CONTROL, 1, stamp=self.cycle
            )
            if d < num_domains:
                self.domain_control_flits[d] += sent
            total_sent += sent
        self.control_flits_sent += total_sent
        stats.control_flits_attempted += attempted
        stats.control_flits_sent += total_sent
        stats.control_flits_dropped += attempted - total_sent

    # ------------------------------------------------------------------
    def result(self) -> SimulationResult:
        """The run's results so far — callable even after an abort.

        A :class:`~repro.guardrails.errors.SimulationTimeout` fires on
        a cycle boundary, before any phase of the aborted cycle runs.  A
        livelock or invariant abort is raised by a post-hook of the
        ``network`` phase: cycle ``self.cycle`` ran its cores, memory and
        network phases but not its ejection, and is not counted in
        ``cycles``.  Either way flit conservation holds in what is
        summarized here: a flit the aborted cycle delivered is counted
        ejected, one it left in the fabric is counted in flight.
        """
        if self._accel is not None:
            self._accel.flush()
        stats = self.network.stats
        cores = self.cores
        flits = cores.misses_issued * (
            self.config.request_flits + self.config.reply_flits
        )
        ipf = cores.retired / np.maximum(flits, 1)
        ipf[flits == 0] = np.inf
        inj_lat = 0.0
        inj_count = self.network.injection_latency_count
        if inj_count:
            inj_lat = self.network.injection_latency_sum / inj_count
        power = PowerModel(self.config.power).report(
            stats, self.topology.num_nodes, buffered=self.config.network == "buffered"
        )
        guardrails = GuardrailReport(
            invariant_checks=self.checker.checks_run if self.checker else 0,
            watchdog_window=self.config.watchdog_window,
            max_flit_age=self.config.max_flit_age,
            failed_links=self.fault_model.num_failed_links if self.fault_model else 0,
            failed_routers=(
                self.fault_model.num_failed_routers if self.fault_model else 0
            ),
            remapped_nodes=(
                int((~self.fault_model.alive_routers).sum())
                if self.fault_model
                else 0
            ),
            transient_fault_rate=(
                self.fault_model.config.transient_fault_rate
                if self.fault_model
                else 0.0
            ),
        )
        # Perf counters only exist when an observability layer ran: they
        # carry wall-clock times, which would break the bit-identical
        # serial/parallel/cache guarantees of default runs.
        chaos = self.chaos.report(self.cycle) if self.chaos else None
        perf = None
        if self.phase_timer is not None or self.tracer is not None:
            perf = PerfCounters(
                wall_seconds=self._wall_seconds,
                cycles=self.cycle,
                injected_flits=stats.injected_flits,
                ejected_flits=stats.ejected_flits,
                phase_seconds=(
                    dict(self.phase_timer.seconds)
                    if self.phase_timer is not None
                    else {}
                ),
                trace_events=self.tracer.recorded if self.tracer else 0,
                trace_dropped=self.tracer.dropped if self.tracer else 0,
                chaos_events=chaos.applied_events if chaos else 0,
                control_flits_sent=stats.control_flits_sent,
                control_flits_dropped=stats.control_flits_dropped,
                control_domains=(
                    self.domains.num_domains if self.domains is not None else 0
                ),
                control_epochs=len(self.epochs),
                per_domain_control_flits=(
                    [int(x) for x in self.domain_control_flits]
                    if self.domain_control_flits is not None
                    else []
                ),
            )
        return SimulationResult(
            cycles=self.cycle,
            num_nodes=self.topology.num_nodes,
            ipc=cores.ipc(self.cycle),
            active=cores.active.copy(),
            ipf=ipf,
            starvation_rate=stats.starvation_rate(),
            port_starvation_rate=stats.port_starvation_rate(),
            avg_net_latency=stats.avg_latency,
            max_net_latency=stats.latency_max,
            avg_injection_latency=inj_lat,
            avg_hops=stats.avg_hops,
            deflection_rate=stats.deflection_rate,
            network_utilization=stats.utilization(self.topology.num_links),
            injected_flits=stats.injected_flits,
            ejected_flits=stats.ejected_flits,
            power=power,
            epochs=self.epochs,
            latency_hist=stats.latency_hist.copy(),
            in_flight_flits=self.network.in_flight_flits(),
            guardrails=guardrails,
            chaos=chaos,
            perf=perf,
        )
