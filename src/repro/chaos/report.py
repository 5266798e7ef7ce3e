"""Per-campaign outcome report attached to :class:`SimulationResult`.

The report is a plain value object (JSON scalars only) so it survives
the same pickle / ``to_dict`` round-trips the rest of the result does —
the content-addressed result cache stores chaos runs like any other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["ChaosEventRecord", "ChaosReport"]


@dataclass(frozen=True)
class ChaosEventRecord:
    """What happened to one scheduled chaos event.

    ``cycle`` is the scheduled cycle; ``applied_cycle`` the cycle the
    event actually took effect (down events drain in-flight traffic off
    the target first, so it can trail the schedule), ``-1`` while never
    applied.  ``recovery_cycles`` is the measured time from application
    until the network's latency/deflection returned within tolerance of
    the pre-fault baseline; ``-1`` means recovery was not observed
    before the run ended (or the event needs no recovery probe).
    """

    cycle: int
    kind: str
    node: int = -1
    port: int = -1
    rate: float = 0.0
    applied_cycle: int = -1
    skipped: bool = False
    reason: str = ""
    recovery_cycles: int = -1

    def to_dict(self) -> dict:
        return {
            "cycle": int(self.cycle),
            "kind": self.kind,
            "node": int(self.node),
            "port": int(self.port),
            "rate": float(self.rate),
            "applied_cycle": int(self.applied_cycle),
            "skipped": bool(self.skipped),
            "reason": self.reason,
            "recovery_cycles": int(self.recovery_cycles),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosEventRecord":
        return cls(**data)


@dataclass(frozen=True)
class ChaosReport:
    """Aggregate outcome of one chaos campaign."""

    events: Tuple[ChaosEventRecord, ...] = ()
    #: cycles during which at least one fault was in force (or pending
    #: drain) somewhere in the system
    degraded_cycles: int = 0
    #: flits delivered during those degraded cycles
    degraded_flits: int = 0
    #: queued-but-never-injected packets discarded when their source
    #: router fail-stopped (accounting only — never in-network flits)
    orphaned_flits: int = 0
    controller_down_epochs: int = 0
    controller_failovers: int = 0
    total_cycles: int = 0

    @property
    def availability(self) -> float:
        """Fraction of the run with the full fault-free topology."""
        if self.total_cycles <= 0:
            return 1.0
        return 1.0 - self.degraded_cycles / self.total_cycles

    @property
    def applied_events(self) -> int:
        return sum(1 for e in self.events if e.applied_cycle >= 0)

    @property
    def recovered_events(self) -> int:
        return sum(1 for e in self.events if e.recovery_cycles >= 0)

    def max_recovery_cycles(self) -> int:
        """Worst observed recovery time, ``-1`` when nothing recovered."""
        times = [e.recovery_cycles for e in self.events if e.recovery_cycles >= 0]
        return max(times) if times else -1

    def to_dict(self) -> dict:
        return {
            "events": [e.to_dict() for e in self.events],
            "degraded_cycles": int(self.degraded_cycles),
            "degraded_flits": int(self.degraded_flits),
            "orphaned_flits": int(self.orphaned_flits),
            "controller_down_epochs": int(self.controller_down_epochs),
            "controller_failovers": int(self.controller_failovers),
            "total_cycles": int(self.total_cycles),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosReport":
        return cls(
            events=tuple(
                ChaosEventRecord.from_dict(e) for e in data["events"]
            ),
            degraded_cycles=data["degraded_cycles"],
            degraded_flits=data["degraded_flits"],
            orphaned_flits=data["orphaned_flits"],
            controller_down_epochs=data["controller_down_epochs"],
            controller_failovers=data["controller_failovers"],
            total_cycles=data["total_cycles"],
        )

    def table(self) -> str:
        """One line per scheduled event (target, when it applied or why
        it did not, how long recovery took), then the orphaned count."""
        lines = []
        for ev in self.events:
            target = ""
            if ev.kind.startswith("link"):
                target = f" ({ev.node}:{ev.port})"
            elif ev.kind.startswith("router"):
                target = f" ({ev.node})"
            if ev.skipped:
                status = f"skipped: {ev.reason}"
            elif ev.applied_cycle < 0:
                status = "never applied (beyond horizon?)"
            else:
                status = f"applied @{ev.applied_cycle}"
                if ev.reason:
                    status += f" ({ev.reason})"
                if ev.recovery_cycles >= 0:
                    status += f", recovered in {ev.recovery_cycles}cy"
            lines.append(f"  @{ev.cycle:>6} {ev.kind:<16}{target:<9} {status}")
        lines.append(f"  {self.orphaned_flits} orphaned pre-injection "
                     f"packet(s)")
        return "\n".join(lines)

    def summary(self) -> str:
        applied = self.applied_events
        recovered = self.recovered_events
        parts = [
            f"{applied}/{len(self.events)} events applied",
            f"{recovered} recovered"
            + (
                f" (worst {self.max_recovery_cycles()}cy)"
                if recovered
                else ""
            ),
            f"availability {self.availability:.3f}",
        ]
        if self.degraded_cycles:
            parts.append(
                f"{self.degraded_flits} flits delivered over "
                f"{self.degraded_cycles} degraded cycles"
            )
        if self.controller_down_epochs:
            parts.append(
                f"controller down {self.controller_down_epochs} epoch(s)"
            )
        if self.controller_failovers:
            parts.append(f"{self.controller_failovers} failover(s)")
        return "; ".join(parts)
