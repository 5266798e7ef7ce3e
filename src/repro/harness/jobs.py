"""The harness job model.

An experiment point is a *pure function* of a :class:`JobSpec`: the spec
carries everything the simulator consumes — workload assignment,
network/topology/locality selection, controller recipe, cycle budget,
seed — as plain hashable values, never live objects.  That buys three
properties the sweep engine needs:

1. a **stable content hash** (:meth:`JobSpec.content_hash`) independent
   of process, ``PYTHONHASHSEED``, and field declaration order, usable
   as an on-disk cache key;
2. **cheap transport**: a spec pickles in microseconds, so shipping work
   to a :class:`~concurrent.futures.ProcessPoolExecutor` costs nothing
   compared to the simulation behind it;
3. **determinism**: :func:`run_job` derives every RNG stream from the
   spec's seed via :func:`repro.rng.child_rng`, so executing a spec in a
   worker process is bit-identical to executing it inline.

Controllers are described declaratively (``("central",)``,
``("static", 0.9, "mcf")``, ``("none",)`` — the recipe forms of
:data:`repro.control.registry.CONTROLLERS`) and instantiated inside the
worker, because controller objects hold mutable per-run state that must
never be shared across jobs; chaos campaigns and static fault sets
travel as canonical JSON text (the ``chaos`` field, the ``faults`` key).

:func:`build` is the simulator's one construction site outside
``repro.sim``: workers and the ``python -m repro`` commands build here.
A spec naming no ``backend`` runs native wherever the refusal predicate
allows (:func:`resolve`); the backend is no part of the content hash.
Its keyword pass-through, the hash pre-image and
:meth:`JobSpec.with_config` are computed from ``dataclasses.fields``, so
a field added here is hashed and forwarded without a second edit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Optional, Tuple

from repro.chaos.schedule import ChaosConfig
from repro.config import SimulationConfig
from repro.control.registry import build_controller, canonical_recipe
from repro.guardrails.faults import FaultConfig
from repro.sim.results import SimulationResult
from repro.sim.simulator import Simulator
from repro.traffic.workloads import Workload

__all__ = ["JobSpec", "build", "resolve", "run_job"]

#: Config values a spec may carry: JSON scalars only, so hashing and the
#: on-disk cache stay canonical.
_SCALARS = (str, int, float, bool, type(None))


def _check_scalar(name: str, value) -> None:
    if not isinstance(value, _SCALARS):
        raise TypeError(
            f"JobSpec config value {name}={value!r} is not a JSON "
            "scalar; specs must be declarative — a FaultConfig rides as "
            "the 'faults' key, live objects (locality samplers, "
            "controllers) go into a SimulationConfig directly"
        )


@dataclass(frozen=True)
class JobSpec:
    """One simulation point, fully described by hashable values."""

    app_names: Tuple[Optional[str], ...]
    cycles: int
    seed: int = 1
    epoch: int = 1000
    #: controller recipe ``(name, *args)``; names, argument forms and
    #: their checks are the registry's (``--list-controllers`` prints
    #: them); trailing arguments equal to their defaults are dropped, so
    #: one run has one spelling and one cache key
    controller: Tuple = ("none",)
    network: str = "bless"
    topology: str = "mesh"
    locality: str = "uniform"
    locality_param: float = 1.0
    category: str = ""
    #: extra :class:`~repro.config.SimulationConfig` keyword arguments,
    #: as a sorted tuple of ``(name, scalar)`` pairs; a FaultConfig under
    #: ``faults`` is encoded to its canonical ``to_json`` text
    config: Tuple[Tuple[str, object], ...] = ()
    #: wall-clock budget for the run in seconds (`None` = unbounded)
    deadline: Optional[float] = None
    #: chaos campaign as canonical :meth:`ChaosConfig.to_json` text
    #: (``None`` = no chaos); a :class:`~repro.chaos.ChaosConfig` passed
    #: here is encoded automatically, keeping the spec JSON-scalar
    chaos: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.controller, tuple) or not self.controller:
            raise TypeError(
                f"controller must be a non-empty tuple, got {self.controller!r}"
            )
        object.__setattr__(
            self, "controller", canonical_recipe(self.controller)
        )
        config = []
        for name, value in self.config:
            if name == "faults" and isinstance(value, FaultConfig):
                value = value.to_json()
            _check_scalar(name, value)
            config.append((name, value))
        if self.chaos is not None and not isinstance(self.chaos, str):
            if not hasattr(self.chaos, "to_json"):
                raise TypeError(
                    f"chaos must be canonical JSON text or a ChaosConfig, "
                    f"got {self.chaos!r}"
                )
            object.__setattr__(self, "chaos", self.chaos.to_json())
        # Normalize: sorted config so equal specs hash equally regardless
        # of the order the caller assembled the kwargs in.
        object.__setattr__(self, "config", tuple(sorted(config)))
        object.__setattr__(self, "app_names", tuple(self.app_names))

    @classmethod
    def for_workload(cls, workload: Workload, cycles: int, **kw) -> "JobSpec":
        """Build a spec from a constructed :class:`Workload`.

        ``config`` may be a loose keyword dict (the ``**kw`` a sweep
        driver collected); keys that name a first-class spec field
        (``network``, ``locality``, ...) are lifted into that field so
        they are never passed to the simulator twice.
        """
        config = kw.pop("config", {})
        if isinstance(config, dict):
            config = dict(config)
            for field in fields(cls):
                if field.name in config and field.name not in kw:
                    kw[field.name] = config.pop(field.name)
            config = tuple(sorted(config.items()))
        return cls(
            app_names=workload.app_names,
            category=workload.category,
            cycles=cycles,
            config=config,
            **kw,
        )

    def with_config(self, **overrides) -> "JobSpec":
        """A copy with extra/overridden config scalars merged in.

        The observability switches ride through here — e.g.
        ``spec.with_config(profile=True)`` produces a spec whose runs
        attach :class:`~repro.observability.PerfCounters` to their
        results (and whose content hash differs, so profiled and plain
        results never share a cache entry).
        """
        merged = {**dict(self.config), **overrides}
        return replace(self, config=tuple(sorted(merged.items())))

    @property
    def workload(self) -> Workload:
        return Workload(self.app_names, category=self.category)

    @property
    def num_nodes(self) -> int:
        return len(self.app_names)

    # A spec's identity is computed once per instance: the executor and
    # the cache ask for it on every job and every warm hit.
    # cached_property writes ``__dict__`` directly (legal on a frozen
    # non-slots dataclass) and is no field, so ``fields()``, ``__eq__``,
    # ``__hash__`` and what ``replace``/``with_config`` copy never see
    # it; a pickled spec carries it along.
    @cached_property
    def _canonical(self) -> str:
        # JSON encodes tuples as lists, so the fields need no conversion.
        # Not the backend: numpy and native give one result by definition.
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["config"] = [kv for kv in self.config if kv[0] != "backend"]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @cached_property
    def _content_hash(self) -> str:
        return hashlib.sha256(self._canonical.encode("utf-8")).hexdigest()

    @cached_property
    def _label(self) -> str:
        ctl = self.controller[0]
        extra = f"+{ctl}" if ctl != "none" else ""
        return (
            f"{self.category or 'custom'}/{self.num_nodes}n/"
            f"{self.network}{extra}/s{self.seed}"
        )

    def canonical(self) -> str:
        """Deterministic JSON encoding (the hash pre-image)."""
        return self._canonical

    def content_hash(self) -> str:
        """Stable sha256 of the spec (same in every process and session)."""
        return self._content_hash

    def label(self) -> str:
        """Short human-readable tag for progress lines and reports."""
        return self._label


def _config(spec: JobSpec) -> SimulationConfig:
    kw = {f.name: getattr(spec, f.name) for f in fields(spec)}
    del kw["app_names"], kw["category"]  # carried by spec.workload
    del kw["cycles"], kw["deadline"]  # arguments of run(), not config
    config = dict(kw.pop("config"))
    kw["controller"] = build_controller(spec.controller, epoch=spec.epoch)
    if spec.chaos is not None:
        kw["chaos"] = ChaosConfig.from_json(spec.chaos)
    if config.get("faults") is not None:
        config["faults"] = FaultConfig.from_json(config["faults"])
    return SimulationConfig(spec.workload, **kw, **config)


def resolve(spec: JobSpec) -> Tuple[JobSpec, Optional[str]]:
    """*spec* with a ``backend`` (:func:`~repro.native.pick`'s, unless it
    names one) and the refusal that made it numpy."""
    if "backend" in dict(spec.config):
        return spec, None
    from repro.native import pick  # loads ctypes: on demand only
    backend, why = pick(_config(spec))
    return spec.with_config(backend=backend), why


def build(spec: JobSpec) -> Simulator:
    """The simulator :func:`resolve` (*spec*) describes; invalid input (a
    layout the topology cannot make, a non-positive epoch, ...) raises
    ``ValueError`` here, before a cycle runs."""
    return Simulator(_config(resolve(spec)[0]))


def run_job(spec: JobSpec) -> SimulationResult:
    """Execute one spec to completion (the worker entry point).

    Everything it needs is imported with this module, so a pool worker
    forked from a process that imported :mod:`repro.harness` runs its
    first job as fast as its hundredth.
    """
    return build(spec).run(spec.cycles, deadline=spec.deadline)
