"""Fault-tolerance sweep: graceful degradation under permanent link
faults (guardrails subsystem, DESIGN.md "Guardrails & fault injection").

Deflection routing treats a dead link as one more unavailable output
port, so BLESS should degrade *gracefully* as permanent link faults
accumulate: throughput falls monotonically (within noise) while flit
conservation holds exactly — no flit is ever dropped or double-counted.
The buffered baseline routes XY, which cannot steer around a dead link:
flits whose path crosses one wedge in their buffers, so its throughput
collapses much faster.

Every run in the sweep executes with the invariant checker enabled and
under a wall-clock deadline; a guardrail abort is recorded as a
"diverged" row, so one bad configuration degrades the sweep to a partial
result instead of crashing it.  A
second experiment measures the checker's runtime overhead against the
acceptance budget (<= 25% slowdown).
"""

import functools
import time

from conftest import once
from repro.experiments import (
    format_table,
    paper_vs_measured,
    scaled_cycles,
)
from repro.guardrails import FaultConfig, GuardrailError
from repro.harness import JobSpec, run_job
from repro.rng import child_rng
from repro.traffic.workloads import make_workload_batch

FAULT_RATES = (0.0, 0.01, 0.025, 0.05)
# Fractional throughput noise two same-length runs may differ by while
# still counting as "monotone" degradation.
MONOTONE_TOLERANCE = 1.08


@functools.lru_cache(maxsize=1)
def _workload():
    rng = child_rng(91, "fault_tolerance")
    return make_workload_batch(1, 64, rng, categories=["H"])[0]


@functools.lru_cache(maxsize=1)
def _default_workload():
    # The acceptance budget for checker overhead binds the *default*
    # configuration: a 16-node mesh.
    rng = child_rng(92, "fault_tolerance_default")
    return make_workload_batch(1, 16, rng, categories=["H"])[0]


def _sweep(network: str, cycles: int):
    rows = []
    for rate in FAULT_RATES:
        faults = FaultConfig(link_fault_rate=rate, seed=17) if rate else None
        try:
            res = run_job(JobSpec.for_workload(
                _workload(), cycles, epoch=1000, seed=70, deadline=300.0,
                network=network,
                config=dict(check_invariants=True, faults=faults),
            ))
        except GuardrailError:
            rows.append((rate, None, None, None))
            continue
        assert res.flit_conservation_ok, (
            f"{network} at fault rate {rate}: flit accounting broken"
        )
        failed = res.guardrails.failed_links if res.guardrails else 0
        rows.append((rate, res.system_throughput, res.deflection_rate, failed))
    return rows


def test_fault_tolerance_sweep(benchmark, report):
    """BLESS degrades gracefully and monotonically with permanent link
    faults; the buffered XY baseline falls off faster."""

    def run():
        cycles = scaled_cycles(4000)
        return _sweep("bless", cycles), _sweep("buffered", cycles)

    bless_rows, buffered_rows = once(benchmark, run)

    bless_tp = [r[1] for r in bless_rows]
    ok_complete = all(tp is not None for tp in bless_tp)
    ok_monotone = ok_complete and all(
        later <= earlier * MONOTONE_TOLERANCE
        for earlier, later in zip(bless_tp, bless_tp[1:])
    )
    ok_alive = ok_complete and bless_tp[-1] > 0.25 * bless_tp[0]
    worst = buffered_rows[-1][1]
    ok_buffered = worst is None or worst <= bless_tp[-1] * MONOTONE_TOLERANCE

    table = [
        (f"{rate:.3f}", b[3],
         f"{b[1]:.2f}" if b[1] is not None else "diverged",
         f"{b[2]:.2f}" if b[2] is not None else "-",
         f"{f[1]:.2f}" if f[1] is not None else "diverged")
        for rate, b, f in zip(FAULT_RATES, bless_rows, buffered_rows)
    ]
    report(
        "fault_tolerance",
        paper_vs_measured(
            "Fault tolerance: permanent link faults (8x8, invariants on)",
            [
                ("BLESS completes every fault rate up to 5%",
                 "deflection routes around dead links",
                 f"{sum(tp is not None for tp in bless_tp)}/{len(FAULT_RATES)} "
                 f"rates completed", ok_complete),
                ("BLESS throughput degrades monotonically (within noise)",
                 "graceful degradation, no cliff",
                 " -> ".join(f"{tp:.2f}" for tp in bless_tp if tp is not None),
                 ok_monotone),
                ("BLESS still delivers useful throughput at 5% faults",
                 "fail-soft, not fail-stop",
                 f"{bless_tp[-1]:.2f} vs fault-free {bless_tp[0]:.2f}"
                 if ok_complete else "diverged", ok_alive),
                ("buffered XY suffers at least as much at 5% faults",
                 "XY cannot steer around a dead link",
                 f"{worst:.2f}" if worst is not None else "diverged",
                 ok_buffered),
            ],
        )
        + format_table(
            ["fault rate", "failed links", "bless tput", "bless deflect",
             "buffered tput"],
            table,
        ),
    )
    assert ok_complete and ok_monotone and ok_alive and ok_buffered


def test_invariant_checker_overhead(benchmark, report):
    """The per-cycle invariant checks must stay within the acceptance
    budget: <= 25% slowdown on the default configuration."""

    def run():
        cycles = scaled_cycles(6000)
        workload = _default_workload()
        run_job(JobSpec.for_workload(workload, 500, epoch=500, seed=70))  # warm caches
        plain_spec = JobSpec.for_workload(workload, cycles, epoch=1000, seed=70)
        checked_spec = plain_spec.with_config(check_invariants=True)
        # Interleaved paired trials; the best ratio filters out machine
        # noise (scheduler/frequency jitter on a single measurement).
        pairs = []
        for _ in range(3):
            t0 = time.perf_counter()
            run_job(plain_spec)
            plain = time.perf_counter() - t0
            t0 = time.perf_counter()
            checked = run_job(checked_spec)
            with_checks = time.perf_counter() - t0
            assert checked.guardrails.invariant_checks == cycles
            pairs.append((plain, with_checks))
        return min(pairs, key=lambda p: p[1] / p[0])

    plain, with_checks = once(benchmark, run)
    slowdown = with_checks / plain
    ok = slowdown <= 1.25
    report(
        "guardrails_overhead",
        paper_vs_measured(
            "Invariant checker runtime overhead (default 4x4 BLESS)",
            [("checked run within 1.25x of unchecked",
              "vectorized checks, acceptance budget",
              f"{plain:.2f}s -> {with_checks:.2f}s ({slowdown:.2f}x)", ok)],
        ),
    )
    assert ok
