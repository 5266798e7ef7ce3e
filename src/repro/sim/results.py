"""Simulation results.

``SimulationResult`` is a plain value object: every field is either a
scalar, a numpy array, or one of the small report dataclasses, so a
result can cross process boundaries (pickle) and be stored losslessly
on disk (``to_dict``/``from_dict``).  The content-addressed result
cache in :mod:`repro.harness` relies on both properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.chaos.report import ChaosReport
from repro.guardrails.report import GuardrailReport
from repro.metrics.collectors import EpochSeries
from repro.observability.counters import PerfCounters
from repro.power.model import PowerReport

__all__ = [
    "SimulationResult",
    "RESULT_SCHEMA_VERSION",
    "RESULT_SCHEMA_FIELD_HASH",
]

#: Bump whenever the serialized layout of :meth:`SimulationResult.to_dict`
#: changes shape or meaning; the on-disk result cache keys on it so stale
#: entries are never deserialized into a new schema.
#: 2: non-finite floats encode as ``null`` (strict RFC-8259 JSON) and the
#: optional ``perf`` counters snapshot joined the layout.
#: 3: the optional ``chaos`` campaign report joined the layout.
RESULT_SCHEMA_VERSION = 3

#: sha256 of ``"v{RESULT_SCHEMA_VERSION}:" + ",".join(sorted(keys))``
#: over the keys of :meth:`SimulationResult.to_dict`.  ``tests/
#: test_results.py`` recomputes it from a real run: changing the
#: serialized layout without bumping RESULT_SCHEMA_VERSION *and*
#: refreshing this pin fails the suite.
RESULT_SCHEMA_FIELD_HASH = (
    "caeb7451385f27f95e0c92d59441928b5b894fa620d34501e9e0183d605fe9e4"
)

_ARRAY_FIELDS = {
    "ipc": float,
    "active": bool,
    "ipf": float,
    "starvation_rate": float,
    "port_starvation_rate": float,
}

#: What a serialized ``null`` in each float array restores to.  ``ipf``
#: is the only field with a non-finite producer: inactive nodes issue no
#: flits, so their instructions-per-flit is +inf by definition
#: (``repro.sim.simulator._result``).  Any other null reads back as NaN.
_NULL_RESTORE = {"ipf": np.inf}

#: ``(name, dtype, null restore)`` per array field; ``None`` for the
#: non-float ones, which hold no ``null``.
_ARRAY_DECODE = tuple(
    (name, kind, _NULL_RESTORE.get(name, np.nan) if kind is float else None)
    for name, kind in sorted(_ARRAY_FIELDS.items())
)


def _encode_float_list(values: np.ndarray) -> list:
    """Float array -> JSON list with non-finite entries as ``None``.

    ``json.dump`` would otherwise emit ``Infinity``/``NaN``, which are
    not RFC-8259 JSON and break strict parsers (and therefore every
    cross-tool consumer of the result cache).
    """
    finite = np.isfinite(values)
    if finite.all():
        return values.tolist()
    return [float(v) if ok else None for v, ok in zip(values, finite)]


def _decode_float_list(values: list, null_value: float) -> np.ndarray:
    """Restore a list written by :func:`_encode_float_list`.

    A list without ``null`` (every finite run) converts in one pass.
    """
    if None in values:
        values = [null_value if v is None else v for v in values]
    return np.asarray(values, dtype=float)


@dataclass
class SimulationResult:
    """Aggregate and per-node outcomes of one simulation run."""

    cycles: int
    num_nodes: int
    ipc: np.ndarray  # per-node instructions per cycle
    active: np.ndarray  # nodes that ran an application
    ipf: np.ndarray  # whole-run measured instructions-per-flit
    starvation_rate: np.ndarray  # per-node fraction of starved cycles
    port_starvation_rate: np.ndarray  # starvation excluding throttle blocks
    avg_net_latency: float  # injection -> ejection, cycles
    max_net_latency: int  # worst-case flit latency (tail bound)
    avg_injection_latency: float  # NI enqueue -> injection, cycles
    avg_hops: float
    deflection_rate: float
    network_utilization: float
    injected_flits: int
    ejected_flits: int
    power: PowerReport
    epochs: EpochSeries
    #: per-flit delivered-latency histogram (the percentile samples);
    #: ``None`` for hand-built results, which report percentile 0
    latency_hist: Optional[np.ndarray] = None
    in_flight_flits: int = 0  # still in the network at run end
    guardrails: object = None  # GuardrailReport (None for hand-built results)
    #: PerfCounters when profiling/tracing was enabled, else None — perf
    #: counters carry wall-clock time, so default runs omit them to keep
    #: results bit-identical across serial/parallel/cached execution
    perf: object = None
    #: ChaosReport when a chaos campaign ran, else None (repro.chaos)
    chaos: object = None

    def latency_percentile(self, p: float) -> int:
        """The *p*-th percentile (0-100) of delivered-flit latency.

        Computed from the stored histogram, so it survives pickling and
        dict round-trips (the simulator used to attach a bound method
        here, which no process pool could ship home).
        """
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.latency_hist is None:
            return 0
        total = int(self.latency_hist.sum())
        if total == 0:
            return 0
        cum = np.cumsum(self.latency_hist)
        # Nearest-rank: first bucket whose cumulative count reaches the
        # target rank.  The rank floor of 1 makes p=0 the minimum
        # observed latency (a bare target of 0 lands on bucket 0 even
        # when it is empty); the index clamp keeps any float rounding at
        # p=100 inside the histogram.
        rank = max(p / 100.0 * total, 1)
        idx = int(np.searchsorted(cum, rank, side="left"))
        return min(idx, len(cum) - 1)

    @property
    def flit_conservation_ok(self) -> bool:
        """No-drop accounting: every injected flit ejected or in flight."""
        return self.injected_flits == self.ejected_flits + self.in_flight_flits

    @property
    def system_throughput(self) -> float:
        """Sum of IPC over all nodes (§3.1)."""
        return float(self.ipc.sum())

    @property
    def throughput_per_node(self) -> float:
        """IPC per active node, the scalability metric of Fig 3(c)/13."""
        n = int(self.active.sum())
        if n == 0:
            return 0.0
        return float(self.ipc[self.active].sum() / n)

    @property
    def mean_starvation(self) -> float:
        if not self.active.any():
            return 0.0
        return float(self.starvation_rate[self.active].mean())

    @property
    def mean_port_starvation(self) -> float:
        """Mean admission starvation (congestion only, no throttle blocks)."""
        if not self.active.any():
            return 0.0
        return float(self.port_starvation_rate[self.active].mean())

    # ------------------------------------------------------------------
    # Lossless serialization (result cache, cross-process transport)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-compatible dict that :meth:`from_dict` restores exactly.

        Floats serialize via ``repr`` under ``json.dumps`` (shortest
        round-trip representation), so a dict -> JSON -> dict cycle is
        bit-identical.  Non-finite entries (inactive nodes' ``ipf`` is
        +inf) encode as ``None`` so the payload is strict RFC-8259 JSON
        — ``json.dumps(..., allow_nan=False)`` never raises — and
        :meth:`from_dict` restores them via ``_NULL_RESTORE``.
        """
        out = {
            "schema": RESULT_SCHEMA_VERSION,
            "cycles": int(self.cycles),
            "num_nodes": int(self.num_nodes),
            "avg_net_latency": float(self.avg_net_latency),
            "max_net_latency": int(self.max_net_latency),
            "avg_injection_latency": float(self.avg_injection_latency),
            "avg_hops": float(self.avg_hops),
            "deflection_rate": float(self.deflection_rate),
            "network_utilization": float(self.network_utilization),
            "injected_flits": int(self.injected_flits),
            "ejected_flits": int(self.ejected_flits),
            "in_flight_flits": int(self.in_flight_flits),
            "power": {
                "dynamic_energy": float(self.power.dynamic_energy),
                "static_energy": float(self.power.static_energy),
                "cycles": int(self.power.cycles),
            },
            "epochs": self.epochs.to_dict(),
            "guardrails": (
                None if self.guardrails is None else self.guardrails.to_dict()
            ),
            "latency_hist": (
                None
                if self.latency_hist is None
                else np.asarray(self.latency_hist, dtype=np.int64).tolist()
            ),
            "perf": None if self.perf is None else self.perf.to_dict(),
            "chaos": None if self.chaos is None else self.chaos.to_dict(),
        }
        for name, kind in sorted(_ARRAY_FIELDS.items()):
            values = np.asarray(getattr(self, name)).astype(kind)
            out[name] = (
                _encode_float_list(values) if kind is float else values.tolist()
            )
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Rebuild a result saved by :meth:`to_dict`."""
        schema = data.get("schema")
        if schema != RESULT_SCHEMA_VERSION:
            raise ValueError(
                f"result schema {schema!r} != {RESULT_SCHEMA_VERSION} "
                "(stale serialization)"
            )
        arrays = {
            name: (
                np.asarray(data[name], dtype=kind)
                if null is None
                else _decode_float_list(data[name], null)
            )
            for name, kind, null in _ARRAY_DECODE
        }
        hist = data["latency_hist"]
        guard = data["guardrails"]
        perf = data["perf"]
        chaos = data["chaos"]
        return cls(
            cycles=data["cycles"],
            num_nodes=data["num_nodes"],
            avg_net_latency=data["avg_net_latency"],
            max_net_latency=data["max_net_latency"],
            avg_injection_latency=data["avg_injection_latency"],
            avg_hops=data["avg_hops"],
            deflection_rate=data["deflection_rate"],
            network_utilization=data["network_utilization"],
            injected_flits=data["injected_flits"],
            ejected_flits=data["ejected_flits"],
            in_flight_flits=data["in_flight_flits"],
            power=PowerReport(**data["power"]),
            epochs=EpochSeries.from_dict(data["epochs"]),
            guardrails=None if guard is None else GuardrailReport(**guard),
            latency_hist=(
                None if hist is None else np.asarray(hist, dtype=np.int64)
            ),
            perf=None if perf is None else PerfCounters.from_dict(perf),
            chaos=None if chaos is None else ChaosReport.from_dict(chaos),
            **arrays,
        )

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.num_nodes} nodes, {self.cycles} cycles: "
            f"IPC/node={self.throughput_per_node:.3f} "
            f"util={self.network_utilization:.3f} "
            f"latency={self.avg_net_latency:.1f}cy "
            f"starvation={self.mean_starvation:.3f} "
            f"deflect={self.deflection_rate:.3f} "
            f"power={self.power.average_power:.1f}"
        )
