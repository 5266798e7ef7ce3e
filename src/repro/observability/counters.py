"""Machine-readable performance counters for one simulation run.

``PerfCounters`` is the lossless snapshot the observability layer
exports on :class:`~repro.sim.results.SimulationResult` (only when
profiling or tracing was enabled — the counters carry wall-clock times,
which are inherently nondeterministic, so default runs stay bit-exact
reproducible).  :meth:`PerfCounters.table` is what ``python -m repro
--profile`` prints; speed trajectories across commits are the perf
ledger's (``benchmarks/perf/bench.py``), not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["PerfCounters"]


@dataclass
class PerfCounters:
    """Wall-clock throughput and phase attribution for one run."""

    wall_seconds: float = 0.0
    cycles: int = 0
    injected_flits: int = 0
    ejected_flits: int = 0
    #: seconds attributed per phase; empty when profiling was off
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    trace_events: int = 0
    trace_dropped: int = 0
    #: chaos campaign events applied during the run (0 when chaos off)
    chaos_events: int = 0
    #: modeled control-plane flits accepted/overflowed (0 unless
    #: model_control_traffic was on)
    control_flits_sent: int = 0
    control_flits_dropped: int = 0
    #: control-plane layout: domain count (0 = single-hub central) and
    #: epochs the controller ran
    control_domains: int = 0
    control_epochs: int = 0
    #: per-domain control flits delivered (empty without domains)
    per_domain_control_flits: List[int] = field(default_factory=list)

    @property
    def cycles_per_sec(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.cycles / self.wall_seconds

    @property
    def flits_per_sec(self) -> float:
        """Delivered-flit throughput (ejections per wall second)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.ejected_flits / self.wall_seconds

    def phase_shares(self) -> Dict[str, float]:
        total = sum(self.phase_seconds.values())
        if total <= 0.0:
            return {name: 0.0 for name in self.phase_seconds}
        return {n: s / total for n, s in self.phase_seconds.items()}

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible dict (all values finite) for the result cache."""
        return {
            "wall_seconds": float(self.wall_seconds),
            "cycles": int(self.cycles),
            "injected_flits": int(self.injected_flits),
            "ejected_flits": int(self.ejected_flits),
            "cycles_per_sec": float(self.cycles_per_sec),
            "flits_per_sec": float(self.flits_per_sec),
            "phase_seconds": {
                name: float(secs) for name, secs in self.phase_seconds.items()
            },
            "phase_shares": self.phase_shares(),
            "trace_events": int(self.trace_events),
            "trace_dropped": int(self.trace_dropped),
            "chaos_events": int(self.chaos_events),
            "control_flits_sent": int(self.control_flits_sent),
            "control_flits_dropped": int(self.control_flits_dropped),
            "control_domains": int(self.control_domains),
            "control_epochs": int(self.control_epochs),
            "per_domain_control_flits": [
                int(x) for x in self.per_domain_control_flits
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PerfCounters":
        return cls(
            wall_seconds=data["wall_seconds"],
            cycles=data["cycles"],
            injected_flits=data["injected_flits"],
            ejected_flits=data["ejected_flits"],
            phase_seconds=dict(data["phase_seconds"]),
            trace_events=data["trace_events"],
            trace_dropped=data["trace_dropped"],
            chaos_events=data.get("chaos_events", 0),
            control_flits_sent=data.get("control_flits_sent", 0),
            control_flits_dropped=data.get("control_flits_dropped", 0),
            control_domains=data.get("control_domains", 0),
            control_epochs=data.get("control_epochs", 0),
            per_domain_control_flits=list(
                data.get("per_domain_control_flits", ())
            ),
        )

    def table(self) -> str:
        """Per-phase wall-clock table plus the throughput headline."""
        shares = self.phase_shares()
        lines = [
            f"wall {self.wall_seconds:.3f}s  "
            f"{self.cycles_per_sec:,.0f} cycles/s  "
            f"{self.flits_per_sec:,.0f} flits/s"
        ]
        if self.phase_seconds:
            lines.append(f"{'phase':<10} {'seconds':>10} {'share':>8}")
            for name, secs in sorted(
                self.phase_seconds.items(), key=lambda kv: -kv[1]
            ):
                lines.append(f"{name:<10} {secs:>10.4f} {shares[name]:>7.1%}")
        if self.trace_events:
            lines.append(
                f"trace: {self.trace_events} events "
                f"({self.trace_dropped} dropped)"
            )
        if self.control_flits_sent or self.control_flits_dropped:
            layout = (
                f"{self.control_domains} domains"
                if self.control_domains
                else "single hub"
            )
            lines.append(
                f"control: {self.control_flits_sent} flits sent, "
                f"{self.control_flits_dropped} dropped over "
                f"{self.control_epochs} epochs ({layout})"
            )
        return "\n".join(lines)
