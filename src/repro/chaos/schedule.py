"""Declarative chaos campaigns and their deterministic event timelines.

A campaign is described by a frozen :class:`ChaosConfig`: an explicit
list of scripted :class:`ChaosEvent`\\ s, plus optional MTBF/MTTR pairs
per fault domain (links, routers, controller) from which additional
fail/repair cycles are drawn as a renewal process.  All randomness
flows through :func:`repro.rng.child_rng` substreams of the campaign
seed, and the full timeline is materialized **before cycle 0** by
:class:`ChaosSchedule` — a chaos run is a pure function of its config,
which is what makes ``--chaos`` results cacheable and bit-identical
across serial/parallel execution.

The config also round-trips through canonical JSON (``to_json`` /
``from_json``) so a campaign can ride inside a
:class:`~repro.harness.jobs.JobSpec` and participate in content-hash
cache keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.rng import child_rng
from repro.topology.graph import MAX_GRAPH_PORTS

__all__ = ["CHAOS_EVENT_KINDS", "ChaosConfig", "ChaosEvent", "ChaosSchedule"]

#: Every event kind the engine knows how to apply.  ``*_down`` kinds
#: start a fault, the matching ``*_up`` ends it; ``noise_start`` /
#: ``noise_end`` bracket a transient-fault-rate window (``rate``).
CHAOS_EVENT_KINDS = (
    "link_down",
    "link_up",
    "router_down",
    "router_up",
    "controller_down",
    "controller_up",
    "noise_start",
    "noise_end",
)

_DEGRADED_MODES = ("freeze", "decay", "failover")


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault or recovery action.

    ``node``/``port`` identify the target: links use both (undirected —
    the reverse direction fails/recovers together), routers use
    ``node`` only, controller and noise events use neither.  ``rate``
    is the transient-fault rate installed by ``noise_start``.
    """

    cycle: int
    kind: str
    node: int = -1
    port: int = -1
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in CHAOS_EVENT_KINDS:
            raise ValueError(
                f"unknown chaos event kind {self.kind!r}; "
                f"expected one of {CHAOS_EVENT_KINDS}"
            )
        if self.cycle < 0:
            raise ValueError(f"event cycle must be >= 0, got {self.cycle}")
        if self.kind in ("link_down", "link_up"):
            # The static bound is the engine-wide port ceiling; whether
            # the (node, port) link actually exists in the run's topology
            # is checked when the event is applied.
            if self.node < 0 or not 0 <= self.port < MAX_GRAPH_PORTS:
                raise ValueError(
                    f"{self.kind} needs node >= 0 and port in "
                    f"[0, {MAX_GRAPH_PORTS}), got node={self.node} "
                    f"port={self.port}"
                )
        elif self.kind in ("router_down", "router_up"):
            if self.node < 0:
                raise ValueError(f"{self.kind} needs node >= 0")
        if self.kind == "noise_start" and not 0.0 <= self.rate < 1.0:
            raise ValueError(
                f"noise_start rate must be in [0, 1), got {self.rate!r}"
            )

    def to_dict(self) -> dict:
        return {
            "cycle": int(self.cycle),
            "kind": self.kind,
            "node": int(self.node),
            "port": int(self.port),
            "rate": float(self.rate),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosEvent":
        return cls(
            cycle=data["cycle"],
            kind=data["kind"],
            node=data.get("node", -1),
            port=data.get("port", -1),
            rate=data.get("rate", 0.0),
        )


@dataclass(frozen=True)
class ChaosConfig:
    """Declarative description of one chaos campaign.

    ``events`` are scripted events applied verbatim.  Each nonzero
    ``*_mtbf`` additionally draws a renewal process of random faults
    for that domain: inter-failure gaps are ``1 + floor(Exp(mtbf))``
    cycles and each fault heals after ``1 + floor(Exp(mttr))`` cycles,
    both from dedicated :func:`~repro.rng.child_rng` substreams of
    ``seed``.  ``degraded_mode`` picks the control-plane policy while
    the controller is down (see
    :class:`~repro.control.base.Controller`).
    ``recovery_window`` / ``recovery_tolerance`` parameterize the
    steady-state recovery probes recorded in the
    :class:`~repro.chaos.report.ChaosReport`.
    """

    events: Tuple[ChaosEvent, ...] = ()
    link_mtbf: float = 0.0
    link_mttr: float = 0.0
    router_mtbf: float = 0.0
    router_mttr: float = 0.0
    controller_mtbf: float = 0.0
    controller_mttr: float = 0.0
    seed: int = 0
    degraded_mode: str = "freeze"
    degraded_decay: float = 0.5
    recovery_window: int = 250
    recovery_tolerance: float = 0.25
    max_random_events: int = 64

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        for name in (
            "link_mtbf", "link_mttr", "router_mtbf", "router_mttr",
            "controller_mtbf", "controller_mttr",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("link", "router", "controller"):
            mtbf = getattr(self, f"{name}_mtbf")
            mttr = getattr(self, f"{name}_mttr")
            if (mtbf > 0) != (mttr > 0):
                raise ValueError(
                    f"{name}_mtbf and {name}_mttr must be set together"
                )
        if self.degraded_mode not in _DEGRADED_MODES:
            raise ValueError(
                f"degraded_mode must be one of {_DEGRADED_MODES}, "
                f"got {self.degraded_mode!r}"
            )
        if not 0.0 <= self.degraded_decay <= 1.0:
            raise ValueError("degraded_decay must be in [0, 1]")
        if self.recovery_window < 1:
            raise ValueError("recovery_window must be >= 1")
        if self.recovery_tolerance < 0:
            raise ValueError("recovery_tolerance must be >= 0")
        if self.max_random_events < 0:
            raise ValueError("max_random_events must be >= 0")

    @property
    def any_events(self) -> bool:
        """False for a config that can never emit an event (== no chaos)."""
        return bool(self.events) or (
            self.link_mtbf > 0
            or self.router_mtbf > 0
            or self.controller_mtbf > 0
        )

    # ------------------------------------------------------------------
    # Canonical JSON (JobSpec transport + cache keys)
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Canonical (sorted-key, compact) JSON encoding.

        Two equal configs encode to the same string, so the encoding is
        safe to embed in :meth:`JobSpec.canonical` content hashes.
        """
        payload = {
            "events": [e.to_dict() for e in self.events],
            "link_mtbf": float(self.link_mtbf),
            "link_mttr": float(self.link_mttr),
            "router_mtbf": float(self.router_mtbf),
            "router_mttr": float(self.router_mttr),
            "controller_mtbf": float(self.controller_mtbf),
            "controller_mttr": float(self.controller_mttr),
            "seed": int(self.seed),
            "degraded_mode": self.degraded_mode,
            "degraded_decay": float(self.degraded_decay),
            "recovery_window": int(self.recovery_window),
            "recovery_tolerance": float(self.recovery_tolerance),
            "max_random_events": int(self.max_random_events),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ChaosConfig":
        data = json.loads(text)
        events = tuple(ChaosEvent.from_dict(e) for e in data.pop("events", []))
        return cls(events=events, **data)


class ChaosSchedule:
    """The fully materialized, sorted event timeline of one campaign.

    Construction draws every random fault up front (bounded by
    ``max_random_events`` per domain), merges them with the scripted
    events, and sorts by ``(cycle, kind, node, port)`` — ties resolve
    identically on every host, keeping campaigns bit-reproducible.
    The engine consumes events through :meth:`due`.
    """

    def __init__(self, config: ChaosConfig, topology):
        self.config = config
        self.topology = topology
        events = list(config.events)
        events.extend(self._draw_link_faults())
        events.extend(self._draw_router_faults())
        events.extend(self._draw_controller_faults())
        events.sort(key=lambda e: (e.cycle, e.kind, e.node, e.port))
        self.events: Tuple[ChaosEvent, ...] = tuple(events)
        self._next = 0

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Random fault generation (renewal processes)
    # ------------------------------------------------------------------
    def _renewal_times(self, rng, mtbf: float, mttr: float):
        """``(down_cycle, up_cycle)`` pairs of one renewal process."""
        pairs = []
        t = 0
        for _ in range(self.config.max_random_events):
            t += 1 + int(rng.exponential(mtbf))
            duration = 1 + int(rng.exponential(mttr))
            pairs.append((t, t + duration))
            t += duration
        return pairs

    def _undirected_links(self) -> np.ndarray:
        """``(K, 2)`` array of (node, port) undirected representatives."""
        exists = self.topology.link_exists
        n, p = exists.shape
        flat = np.arange(n * p, dtype=np.int64)
        neighbor = self.topology.neighbor.astype(np.int64).ravel()
        partner = np.where(
            neighbor >= 0,
            neighbor * p + self.topology.reverse_port.astype(np.int64).ravel(),
            flat,
        )
        keep = exists.ravel() & (flat <= partner)
        ids = np.flatnonzero(keep)
        return np.stack([ids // p, ids % p], axis=1)

    def _draw_link_faults(self):
        if self.config.link_mtbf <= 0:
            return []
        rng = child_rng(self.config.seed, "chaos-links")
        links = self._undirected_links()
        events = []
        for down, up in self._renewal_times(
            rng, self.config.link_mtbf, self.config.link_mttr
        ):
            node, port = links[int(rng.integers(links.shape[0]))]
            events.append(
                ChaosEvent(down, "link_down", node=int(node), port=int(port))
            )
            events.append(
                ChaosEvent(up, "link_up", node=int(node), port=int(port))
            )
        return events

    def _draw_router_faults(self):
        if self.config.router_mtbf <= 0:
            return []
        rng = child_rng(self.config.seed, "chaos-routers")
        n = self.topology.num_nodes
        events = []
        for down, up in self._renewal_times(
            rng, self.config.router_mtbf, self.config.router_mttr
        ):
            node = int(rng.integers(n))
            events.append(ChaosEvent(down, "router_down", node=node))
            events.append(ChaosEvent(up, "router_up", node=node))
        return events

    def _draw_controller_faults(self):
        if self.config.controller_mtbf <= 0:
            return []
        rng = child_rng(self.config.seed, "chaos-controller")
        events = []
        for down, up in self._renewal_times(
            rng, self.config.controller_mtbf, self.config.controller_mttr
        ):
            events.append(ChaosEvent(down, "controller_down"))
            events.append(ChaosEvent(up, "controller_up"))
        return events

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def due(self, cycle: int):
        """Events scheduled at or before *cycle*, in timeline order.

        Advances the internal cursor; each event is returned exactly
        once.  Events beyond the run's horizon simply never come due.
        """
        out = []
        while self._next < len(self.events) and (
            self.events[self._next].cycle <= cycle
        ):
            out.append(self.events[self._next])
            self._next += 1
        return out

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self.events)
