"""Link/router fault injection for the NoC models.

Deflection routing is naturally fault-tolerant: a faulty link is just
one more unavailable output port, and the deflection stage already
routes around unavailable ports every cycle.  The fault model makes
that concrete:

- **Permanent link faults** remove an undirected link from the topology
  for the whole run.  Faults are symmetric (both directions of a link
  fail together), which preserves the BLESS no-drop guarantee: every
  router still has exactly as many healthy output links as healthy
  input links, so the port-allocation stage can always place every
  arriving flit.
- **Permanent router faults** (fail-stop) take a router and all of its
  links out of service.  Traffic destined to a failed router is
  re-striped to the nearest live node at enqueue time (the shared-L2
  interleaving remaps around dead slices), so no flit is ever addressed
  to a node that cannot eject it.
- **Transient link faults** take a link out of *preferred* allocation
  for single cycles (seeded, i.i.d. per link per cycle).  A bufferless
  router cannot hold a flit back, so when a router would otherwise have
  no output at all, the deflection fallback may still cross a
  transiently degraded link — losslessness is a hard invariant; the
  fault degrades routing quality (more deflections), never delivery.
  The buffered network *can* hold flits, so there a transient fault
  simply blocks the send and the flit waits in its input buffer.

Permanent fault sets are validated for connectivity over the surviving
routers; disconnected draws are resampled (each attempt from a fresh
seed substream) so every generated fault set leaves a usable network.

The same model serves mid-run fault campaigns (:mod:`repro.chaos`): its
transition methods fail, restore and *quiesce* (drain ahead of a hard
down) links and routers in place while the run is live.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from repro.topology.graph import UNREACHABLE, hop_distances

__all__ = ["FaultConfig", "FaultModel"]


@dataclass(frozen=True)
class FaultConfig:
    """Declarative description of the faults to inject into a run.

    Rates are fractions: ``link_fault_rate`` of the undirected links and
    ``router_fault_rate`` of the routers fail permanently before the run
    starts; ``transient_fault_rate`` is the per-link, per-cycle
    probability of a one-cycle fault.  ``seed`` makes the fault set
    reproducible; ``max_resample`` bounds the search for a connected
    permanent-fault set.
    """

    link_fault_rate: float = 0.0
    transient_fault_rate: float = 0.0
    router_fault_rate: float = 0.0
    seed: int = 0
    max_resample: int = 64

    def __post_init__(self):
        for name in ("link_fault_rate", "transient_fault_rate", "router_fault_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate!r}")
        if self.max_resample < 1:
            raise ValueError("max_resample must be at least 1")
        # numpy seeds are non-negative integers; reject here, by name,
        # rather than in a bit_generator traceback on the first draw.
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )

    @property
    def any_faults(self) -> bool:
        return (
            self.link_fault_rate > 0
            or self.transient_fault_rate > 0
            or self.router_fault_rate > 0
        )

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, each value cast to its field's
        type): equal configs encode equally, safe in a content hash."""
        payload = {f.name: type(f.default)(getattr(self, f.name)) for f in fields(self)}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultConfig":
        return cls(**json.loads(text))


class FaultModel:
    """The fault set of one topology: sampled before cycle 0, and
    changed **in place** by the chaos layer while the run is live.

    A static run is simply one that never calls the transition methods.
    In place matters: the network aliases ``link_up``
    (``RouterEngine.link_up`` *is* this array), the invariant checker holds a
    raveled view of it and a reference to ``alive_routers``, so every
    transition writes through the shared arrays rather than rebinding
    them and the whole stack observes it at once.  Routing tables (the
    :attr:`healthy_distance` cache) are rebuilt by an explicit
    ``RouterEngine.on_topology_change`` call after each transition.

    Attributes
    ----------
    alive_routers:
        ``(N,)`` bool; False marks fail-stopped routers.
    link_up:
        ``(N, P)`` bool; True where a healthy link exists.  Always a
        symmetric subset of ``topology.link_exists``.
    remap:
        ``(N,)`` int; identity for live nodes, nearest-live-node for
        failed ones.  Applied to destinations at enqueue time.
    quiescing:
        ``(N, P)`` bool; healthy links draining ahead of a hard down.
        They stay up (a bufferless router may still deflect over them as
        a last resort) but leave preferred allocation by being folded
        into :meth:`transient_down`, which both router engines honor.
    """

    def __init__(self, topology, config: Optional[FaultConfig]):
        self.topology = topology
        self.config = config = config or FaultConfig()
        self._seed = int(config.seed)
        n = topology.num_nodes
        self._canonical = self._canonical_link_ids(topology)
        rng_root = np.random.default_rng([self._seed, n])
        for attempt in range(config.max_resample):
            rng = np.random.default_rng(rng_root.integers(0, 2**63, size=4))
            dead_routers = self._sample_routers(rng)
            failed_links = self._sample_links(rng)
            if self._try_apply(dead_routers, failed_links):
                return
        raise ValueError(
            f"could not sample a connected fault set after "
            f"{config.max_resample} attempts (link_fault_rate="
            f"{config.link_fault_rate}, router_fault_rate="
            f"{config.router_fault_rate}); lower the fault rates"
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def with_failed_links(cls, topology, links, seed=0, transient_fault_rate=0.0):
        """A fault model with an explicit list of ``(node, port)`` faults.

        Each named directed link fails together with its reverse
        direction.  Used by tests and benchmarks that need a
        deterministic fault placement.
        """
        fm = cls(
            topology,
            FaultConfig(transient_fault_rate=transient_fault_rate, seed=seed),
        )
        failed = np.zeros_like(fm.link_up)
        for node, port in links:
            if not topology.link_exists[node, port]:
                raise ValueError(f"no link at node {node} port {port}")
            fm._set_link(failed, node, port, True)
        if not fm._try_apply(np.zeros(topology.num_nodes, dtype=bool), failed):
            raise ValueError("explicit fault set disconnects the network")
        return fm

    @staticmethod
    def _canonical_link_ids(topology) -> np.ndarray:
        """Flat ``(N*P,)`` map from each directed link to its undirected
        representative (the smaller of the two directed flat indices)."""
        n, p = topology.num_nodes, topology.num_ports
        flat = np.arange(n * p, dtype=np.int64)
        neighbor = topology.neighbor.astype(np.int64).ravel()
        partner = np.where(
            neighbor >= 0,
            neighbor * p + topology.reverse_port.astype(np.int64).ravel(),
            flat,
        )
        return np.minimum(flat, partner)

    def _sample_routers(self, rng) -> np.ndarray:
        n = self.topology.num_nodes
        dead = np.zeros(n, dtype=bool)
        k = int(round(self.config.router_fault_rate * n))
        if k:
            dead[rng.choice(n, size=min(k, n - 1), replace=False)] = True
        return dead

    def _sample_links(self, rng) -> np.ndarray:
        exists = self.topology.link_exists
        failed = np.zeros_like(exists)
        flat = exists.ravel()
        undirected = np.flatnonzero(flat & (self._canonical == np.arange(flat.size)))
        k = int(round(self.config.link_fault_rate * undirected.size))
        if k:
            chosen = rng.choice(undirected, size=min(k, undirected.size), replace=False)
            mask = np.isin(self._canonical, chosen).reshape(failed.shape)
            failed |= mask & exists
        return failed

    def _try_apply(self, dead_routers, failed_links) -> bool:
        """Install the fault set if it leaves live routers connected."""
        topology = self.topology
        # Always a fresh array, never topology.link_exists itself: the
        # transitions below mutate it.
        link_up = topology.link_exists & ~failed_links
        # A dead router takes all of its links (both directions) down.
        link_up[dead_routers] = False
        dead_neighbor = np.zeros_like(link_up)
        has_link = topology.link_exists
        dead_neighbor[has_link] = dead_routers[topology.neighbor[has_link]]
        link_up &= ~dead_neighbor
        alive = ~dead_routers
        if self._splits(alive, link_up):
            return False
        self.alive_routers = alive
        self.link_up = link_up
        self.remap = self._build_remap(alive)
        # Effective per-cycle transient rate.  An instance attribute (not
        # a config read) so a noise window can raise/lower it mid-run
        # without mutating the frozen config.
        self.transient_fault_rate = self.config.transient_fault_rate
        self.quiescing = np.zeros_like(link_up)
        #: links taken down by fail_link (vs. the sampled set or a
        #: fail_router side effect) — restore_link consults this
        self._chaos_link_down = np.zeros_like(link_up)
        #: routers taken down by fail_router (only these may be revived)
        self._chaos_router_down = np.zeros_like(alive)
        #: the sampled baseline that restores return to
        self._static_link_up = link_up.copy()
        self._refresh_counts()
        return True

    def _splits(self, alive, link_up) -> bool:
        """Would this fault set leave some live router unreachable?"""
        live = np.flatnonzero(alive)
        if not live.size:
            return True
        reach = hop_distances(self.topology.neighbor, link_up, live[:1])
        return bool((reach[0, live] == UNREACHABLE).any())

    def _build_remap(self, alive) -> np.ndarray:
        """Nearest-live-node table for destination re-striping."""
        remap = np.arange(self.topology.num_nodes, dtype=np.int64)
        dead, live = np.flatnonzero(~alive), np.flatnonzero(alive)
        dist = self.topology.distance(dead[:, None], live[None, :])
        remap[dead] = live[dist.argmin(axis=1)]
        return remap

    def _far_end(self, node, port):
        """``(neighbor, reverse port)`` index of the same link(s) seen
        from the other router; *port* is one port or an array of them."""
        topology = self.topology
        return topology.neighbor[node, port], topology.reverse_port[node, port]

    def _set_link(self, mask, node: int, port: int, value: bool) -> None:
        """Write both directions of one undirected link into *mask*."""
        mask[node, port] = value
        mask[self._far_end(node, port)] = value

    def _clear_router_links(self, link_up, node: int) -> None:
        ports = np.flatnonzero(self.topology.link_exists[node])
        link_up[self._far_end(node, ports)] = False
        link_up[node] = False

    def _refresh_counts(self) -> None:
        self.num_failed_routers = int((~self.alive_routers).sum())
        self.num_failed_links = int(
            (self.topology.link_exists & ~self.link_up).sum() // 2
        )
        self._distance = None

    # ------------------------------------------------------------------
    # Safety probes
    # ------------------------------------------------------------------
    @property
    def any_chaos_faults(self) -> bool:
        """Any mid-run (non-sampled) fault currently in effect?"""
        return bool(
            self._chaos_link_down.any() or self._chaos_router_down.any()
        )

    def link_would_disconnect(self, node: int, port: int) -> bool:
        """Would downing (node, port) split the live routers?"""
        link_up = self.link_up.copy()
        self._set_link(link_up, node, port, False)
        return self._splits(self.alive_routers, link_up)

    def router_would_disconnect(self, node: int) -> bool:
        """Would fail-stopping *node* split the remaining live routers?"""
        alive = self.alive_routers.copy()
        alive[node] = False
        link_up = self.link_up.copy()
        self._clear_router_links(link_up, node)
        return self._splits(alive, link_up)

    # ------------------------------------------------------------------
    # Quiesce (drain) control
    # ------------------------------------------------------------------
    def quiesce_link(self, node: int, port: int) -> None:
        """Stop preferring (node, port) in both directions."""
        self._set_link(self.quiescing, node, port, True)
        self._distance = None

    def unquiesce_link(self, node: int, port: int) -> None:
        self._set_link(self.quiescing, node, port, False)
        self._distance = None

    def quiesce_router_inbound(self, node: int) -> None:
        """Stop sending *toward* router ``node`` (drain it outward).

        Only inbound directions quiesce: the dying router keeps all of
        its own output links preferred so buffered flits can drain out.
        Quiescing both directions would deadlock a buffered router whose
        only escape ports were de-preferred.
        """
        ports = np.flatnonzero(self.link_up[node])
        self.quiescing[self._far_end(node, ports)] = True
        self._distance = None

    def unquiesce_router_inbound(self, node: int) -> None:
        ports = np.flatnonzero(self.topology.link_exists[node])
        self.quiescing[self._far_end(node, ports)] = False
        self._distance = None

    # ------------------------------------------------------------------
    # Topology transitions (all in place)
    # ------------------------------------------------------------------
    def fail_link(self, node: int, port: int) -> None:
        """Hard-down one undirected link (wire already drained)."""
        self._set_link(self._chaos_link_down, node, port, True)
        self._set_link(self.link_up, node, port, False)
        self._refresh_counts()

    def restore_link(self, node: int, port: int) -> None:
        """Bring one link downed by :meth:`fail_link` back up."""
        self._set_link(self._chaos_link_down, node, port, False)
        if (
            self._static_link_up[node, port]
            and self.alive_routers[node]
            and self.alive_routers[self.topology.neighbor[node, port]]
        ):
            self._set_link(self.link_up, node, port, True)
        self._refresh_counts()

    def fail_router(self, node: int) -> None:
        """Fail-stop one router (its traffic already drained)."""
        self._chaos_router_down[node] = True
        self.alive_routers[node] = False
        self._clear_router_links(self.link_up, node)
        self.remap[:] = self._build_remap(self.alive_routers)
        self._refresh_counts()

    def restore_router(self, node: int) -> None:
        """Revive a router downed by :meth:`fail_router` and its
        eligible links."""
        if not self._chaos_router_down[node]:
            return
        self._chaos_router_down[node] = False
        self.alive_routers[node] = True
        ports = np.flatnonzero(
            self._static_link_up[node] & ~self._chaos_link_down[node]
        )
        ports = ports[self.alive_routers[self.topology.neighbor[node, ports]]]
        self.link_up[node, ports] = True
        self.link_up[self._far_end(node, ports)] = True
        self.remap[:] = self._build_remap(self.alive_routers)
        self._refresh_counts()

    def set_noise(self, rate: float) -> None:
        """Open a transient-noise window (:meth:`clear_noise` ends it)."""
        self.transient_fault_rate = float(rate)

    def clear_noise(self) -> None:
        self.transient_fault_rate = self.config.transient_fault_rate

    # ------------------------------------------------------------------
    # Fault-aware routing support
    # ------------------------------------------------------------------
    @property
    def healthy_distance(self) -> np.ndarray:
        """``(N, N)`` hop distances over the surviving links.

        Oldest-First livelock freedom requires that the globally oldest
        flit can always take a port that brings it strictly closer to
        its destination.  With permanent faults, plain XY "closer" can
        be a dead link, so the router consults distances on the *healthy*
        graph instead.  Entries touching dead routers hold a large
        sentinel; computed lazily and cached.

        While links are quiescing the distances also steer
        through-traffic around the drain.  Plain healthy distances still
        route *through* a quiescing region (its links are up), so under
        sustained load in a bufferless mesh the orbiting through-traffic
        keeps the target's wires occupied and the drain never
        terminates.  The table is therefore computed over the graph
        minus quiescing links, with the full-graph distance *columns* of
        the quiesce targets restored: traffic addressed **to** a
        draining router must keep productive guidance (its final
        quiesced hop is admitted by the engines' last-hop exception),
        while everything else detours.
        """
        if self._distance is None:
            neighbor = self.topology.neighbor
            dist = hop_distances(neighbor, self.link_up)
            draining = self.quiescing & self.link_up
            if draining.any():
                full = dist
                dist = hop_distances(neighbor, self.link_up & ~self.quiescing)
                targets = np.unique(neighbor[draining])
                dist[:, targets] = full[:, targets]
            self._distance = dist
        return self._distance

    # ------------------------------------------------------------------
    # Per-cycle queries
    # ------------------------------------------------------------------
    def transient_down(self, cycle: int):
        """Symmetric mask of links transiently faulted this cycle, plus
        the quiesce mask.

        Returns ``None`` when neither is in force.  The transient draw
        is a pure function of ``(seed, cycle)`` so runs are reproducible
        and both directions of a link always fail together.  Quiescing
        links present exactly like transiently faulted ones: excluded
        from preferred allocation, still legal for the bufferless
        deflection fallback, blocking for buffered sends.
        """
        down = None
        rate = self.transient_fault_rate
        if rate != 0.0:
            n, p = self.topology.num_nodes, self.topology.num_ports
            rng = np.random.default_rng([self._seed, 0x7A57, int(cycle)])
            u = rng.random(n * p)
            down = (u[self._canonical] < rate).reshape(n, p) & self.link_up
        if self.quiescing.any():
            quiesced = self.quiescing & self.link_up
            down = quiesced if down is None else down | quiesced
        return down

    def summary(self) -> str:
        parts = [
            f"{self.num_failed_links} failed link(s)",
            f"{self.num_failed_routers} failed router(s)",
        ]
        if self.config.transient_fault_rate:
            parts.append(
                f"transient rate {self.config.transient_fault_rate:.3f}/link/cycle"
            )
        return ", ".join(parts)
