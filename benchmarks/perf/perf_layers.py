"""Per-layer metrics of one traced pass.

Times are summed span durations from :class:`perf_tracing.Tracer`;
``share`` divides by ``sim.run_s``.  Counts come from the returned
``SimulationResult``/``HarnessReport`` and from the counters the layers
already keep (read in ``perf_workloads.sim_counts`` when a run ends) —
never from counters added for the benchmark.  A layer a workload does
not execute reports 0 for its times.

The names are fixed: ``BENCHMARK.json`` lists them, and every later
performance or simplicity claim in this repository is stated against
them.  Which end-to-end metric each one should move is tabulated in
README.md.
"""

from __future__ import annotations

NATIVE_PHASES = ("cores", "memory", "network", "ejection")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(workload, record, pool: dict, walls: dict) -> dict:
    """``{metric name: value}`` for the traced pass in *record*.

    ``walls`` maps pass kind to the fastest timed wall of that kind in
    this round (``plain``, ``traced`` and, for ``sweep_cold``,
    ``serial``); ``pool`` is the ``HarnessReport`` summary of the
    fastest ``plain`` pass, empty unless it ran a process pool.
    """
    tracer = record.tracer
    sims = list(record.sims.values())
    results = [r for r in record.results if r is not None]
    extra = record.extra
    native = bool(sims) and all(s["backend"] == "native" for s in sims)
    numpy = bool(sims) and not native

    def total(name: str) -> float:
        return tracer.total_s(name)

    def phase(name: str, on: bool) -> float:
        return total(f"phase.{name}") if on else 0.0

    def counted(key: str) -> int:
        return sum(s[key] for s in sims)

    run_s = total("sim.run")
    cycles = counted("cycles")
    out = {}

    # --- sim -----------------------------------------------------------
    loop_self = tracer.self_s("sim.run")
    out["sim.construct_s"] = total("sim.construct")
    out["sim.run_s"] = run_s
    out["sim.loop_self_s"] = loop_self
    out["sim.loop_self_share"] = _ratio(loop_self, run_s)
    out["sim.epoch_phase_s"] = total("phase.epoch")
    out["sim.result_s"] = total("sim.result")
    out["sim.cycles"] = cycles
    out["sim.ipc_per_node"] = record.ipc_per_node
    out["sim.avg_net_latency"] = record.avg_net_latency

    # --- traffic -------------------------------------------------------
    out["traffic.workload_build_s"] = total("traffic.workload_build")
    out["traffic.behavior_s"] = total("phase.behavior")
    out["traffic.behavior_share"] = _ratio(out["traffic.behavior_s"], run_s)

    # --- cpu (reference backend; the native kernels replace it) --------
    out["cpu.cores_s"] = phase("cores", numpy)
    out["cpu.memory_s"] = phase("memory", numpy)
    out["cpu.ejection_s"] = phase("ejection", numpy)
    out["cpu.share"] = _ratio(
        out["cpu.cores_s"] + out["cpu.memory_s"] + out["cpu.ejection_s"],
        run_s,
    )
    out["cpu.insns_retired"] = counted("insns_retired")
    out["cpu.misses_issued"] = counted("misses_issued")

    # --- network (reference RouterEngine.step) -------------------------
    hops = counted("flit_hops")
    step_s = phase("network", numpy)
    out["network.step_s"] = step_s
    out["network.share"] = _ratio(step_s, run_s)
    out["network.us_per_cycle"] = _ratio(step_s * 1e6, cycles)
    out["network.ns_per_flit_hop"] = _ratio(step_s * 1e9, hops)
    out["network.flit_hops"] = hops
    out["network.injected_flits"] = sum(int(r.injected_flits) for r in results)
    out["network.ejected_flits"] = sum(int(r.ejected_flits) for r in results)
    out["network.in_flight_end"] = sum(int(r.in_flight_flits) for r in results)
    out["network.deflection_rate"] = _ratio(
        sum(float(r.deflection_rate) for r in results), len(results)
    )
    out["network.starvation_rate"] = _ratio(
        sum(r.mean_starvation for r in results), len(results)
    )
    out["network.avg_buffer_occupancy"] = _ratio(
        sum(s["avg_buffer_occupancy"] for s in sims), len(sims)
    )

    # --- native ----------------------------------------------------------
    native_s = 0.0
    calls = 0
    for name in NATIVE_PHASES:
        seconds = phase(name, native)
        out[f"native.{name}_s"] = seconds
        native_s += seconds
        if native:
            calls += tracer.count(f"phase.{name}")
    out["native.first_load_s"] = workload.first_load_s
    out["native.accel_construct_s"] = total("native.accel_construct")
    out["native.share"] = _ratio(native_s, run_s)
    out["native.calls"] = calls
    out["native.us_per_call"] = _ratio(native_s * 1e6, calls)
    out["native.flush_s"] = total("native.flush")
    out["native.flush_calls"] = tracer.count("native.flush")
    out["native.equiv_prefix_ok"] = int(extra.get("equiv_prefix_ok", 0))

    # --- control ---------------------------------------------------------
    epochs = sum(len(r.epochs) for r in results)
    attempted = counted("control_attempted")
    dropped = counted("control_dropped")
    out["control.on_epoch_s"] = total("control.on_epoch")
    out["control.epochs"] = epochs
    out["control.us_per_epoch"] = _ratio(out["control.on_epoch_s"] * 1e6, epochs)
    out["control.set_rates_s"] = total("control.set_rates")
    out["control.flits_attempted"] = attempted
    out["control.flits_sent"] = counted("control_sent")
    out["control.flits_dropped"] = dropped
    out["control.drop_share"] = _ratio(dropped, attempted)
    out["control.throttled_node_epochs"] = sum(
        float(r.epochs["throttled_nodes"].sum())
        for r in results if len(r.epochs)
    )

    # --- topology --------------------------------------------------------
    out["topology.build_s"] = total("topology.build")
    out["topology.domain_map_s"] = total("topology.domain_map")
    out["topology.nodes"] = counted("nodes")
    out["topology.links"] = counted("links")

    # --- guardrails --------------------------------------------------------
    checks = sum(int(r.guardrails.invariant_checks) for r in results)
    out["guardrails.check_s"] = total("guardrails.check")
    out["guardrails.checks_run"] = checks
    out["guardrails.us_per_check"] = _ratio(
        out["guardrails.check_s"] * 1e6, checks
    )
    out["guardrails.share"] = _ratio(out["guardrails.check_s"], run_s)
    out["guardrails.violations"] = extra.get("guardrail_errors", 0)

    # --- chaos -------------------------------------------------------------
    reports = [r.chaos for r in results if r.chaos is not None]
    out["chaos.tick_s"] = total("phase.chaos")
    out["chaos.events_applied"] = sum(c.applied_events for c in reports)
    out["chaos.events_skipped"] = sum(
        sum(1 for e in c.events if e.skipped) for c in reports
    )
    out["chaos.orphaned_flits"] = sum(c.orphaned_flits for c in reports)
    out["chaos.degraded_cycles"] = sum(c.degraded_cycles for c in reports)

    # --- harness -----------------------------------------------------------
    def mean_ms(name: str) -> float:
        return _ratio(total(name) * 1e3, tracer.count(name))

    serial_wall = walls.get("serial", 0.0)
    out["harness.spec_build_s"] = total("harness.spec_build")
    out["harness.content_hash_us"] = mean_ms("harness.content_hash") * 1e3
    out["harness.run_job_s"] = total("harness.run_job")
    out["harness.serial_wall_s"] = serial_wall
    out["harness.pool_speedup"] = _ratio(serial_wall, walls["plain"])
    out["harness.pool_overhead_ms_per_job"] = (
        _ratio(
            (pool["report_wall_s"] - pool["job_seconds"] / pool["workers"])
            * 1e3,
            pool["jobs"],
        )
        if "workers" in pool else 0.0
    )
    out["harness.cache_put_ms"] = mean_ms("harness.cache_put")
    out["harness.to_dict_ms"] = mean_ms("harness.to_dict")
    out["harness.cache_get_ms"] = mean_ms("harness.cache_get")
    out["harness.from_dict_ms"] = mean_ms("harness.from_dict")
    out["harness.cache_entry_bytes"] = extra.get("cache_entry_bytes", 0.0)
    out["harness.cache_hits"] = extra.get("cache_hits", 0)
    out["harness.cache_misses"] = extra.get("cache_misses", 0)
    out["harness.jobs_failed"] = extra.get("jobs_failed", 0)

    # --- bench (instrument cost) -------------------------------------------
    reference = serial_wall or walls["plain"]
    out["bench.trace_overhead_pct"] = (
        (walls["traced"] / reference - 1.0) * 100.0 if reference else 0.0
    )
    out["bench.spans_recorded"] = tracer.spans_recorded
    return out
