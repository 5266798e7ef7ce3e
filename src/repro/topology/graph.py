"""Graph-described topologies: the layout is data, not code.

`Mesh2D` bakes its layout into closed-form XY arithmetic; everything the
router engine actually consumes, though, is a handful of arrays — who is
my neighbor on port *p*, which port do I arrive on over there, how long
is that wire, and which output port brings a flit closer to its
destination.  :class:`GraphTopology` provides exactly those arrays for an
*arbitrary* symmetric graph:

- ``neighbor``/``link_exists``/``reverse_port``/``link_latency``:
  ``(N, P)`` per-directed-link tables, ``P`` = max ports on any router
  (routers with fewer links simply leave slots empty, like mesh edges);
- an all-pairs hop-distance table from :func:`hop_distances`, the one
  BFS in the package (the fault model in :mod:`repro.guardrails.faults`
  runs the same routine on the healthy subgraph);
- precomputed ``(N, N)`` productive-port tables: for each
  (here, destination) pair, the first and second output ports whose
  neighbor is strictly closer to the destination, scanned in
  ``port_scan_order``.  On a graph-built 2D mesh with x-ports scanned
  first this reproduces XY dimension-order routing exactly (verified
  bit-identical by ``tests/test_topology_zoo.py``); on a 3D grid it
  yields XYZ order; on irregular layouts it degrades gracefully to
  shortest-hop routing.

Links are undirected at construction time (``add_link`` wires both
directions, with equal latency) because the deflection router's no-drop
guarantee counts on in-degree == out-degree at every router.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.topology.mesh import INVALID_PORT

__all__ = ["GraphTopology", "hop_distances", "UNREACHABLE", "MAX_GRAPH_PORTS"]

#: Sentinel hop distance for unreachable pairs.
UNREACHABLE = np.iinfo(np.int32).max

#: Upper bound on per-router ports; keeps ``reverse_port`` in int8 and
#: chaos-event validation meaningful.
MAX_GRAPH_PORTS = 32


def hop_distances(neighbor, link_up, sources=None) -> np.ndarray:
    """BFS hop counts over the directed links ``u -> neighbor[u, port]``
    that ``link_up[u, port]`` marks usable.

    Returns ``dist[i, v]``, the hops from ``sources[i]`` to ``v`` — all
    pairs, ``(N, N)`` in node-id order, when *sources* is ``None`` — as
    int32 with ``UNREACHABLE`` where no path exists.  *link_up* need not
    be symmetric (a chaos drain quiesces one direction of a link).

    Every level advances all sources at once: the frontier is held
    transposed, one row per node and one column per source, so the step
    "v is reached if the tail of one of its in-links was" is a gather of
    frontier rows, one per in-link slot.
    """
    n = len(neighbor)
    sources = np.arange(n) if sources is None else np.asarray(sources)
    # pred[k, v]: tail of v's k-th usable in-link; n (a padding frontier
    # row that is never reached) where v has fewer.
    tail, port = np.nonzero(link_up)
    head = neighbor[tail, port]
    order = np.argsort(head, kind="stable")
    head, tail = head[order], tail[order]
    slot = np.arange(head.size) - np.searchsorted(head, head)
    pred = np.full((slot.max(initial=-1) + 1, n), n, dtype=np.int64)
    pred[slot, head] = tail
    frontier = np.zeros((n + 1, sources.size), dtype=bool)
    frontier[sources, np.arange(sources.size)] = True
    unreached = ~frontier[:n]
    dist = np.where(unreached, np.int32(UNREACHABLE), np.int32(0))
    hops = 0
    while frontier.any():
        hops += 1
        nxt = frontier[pred].any(axis=0)
        nxt &= unreached
        dist[nxt] = hops
        unreached ^= nxt
        frontier[:n] = nxt
    return np.ascontiguousarray(dist.T)


class GraphTopology:
    """An explicit-graph topology with precomputed routing tables.

    Build one by constructing, wiring links with :meth:`add_link`, then
    calling :meth:`finalize` (which validates symmetry + connectivity and
    computes the distance/route tables).  The generator zoo in
    :mod:`repro.topology.zoo` does this for every supported layout.
    """

    wraps = False
    #: Graph topologies have no 2D coordinate system; locality samplers
    #: fall back to the distance-bucket sampler.
    grid2d = False

    def __init__(
        self,
        num_nodes: int,
        num_ports: int,
        name: str = "graph",
        port_scan_order: Sequence[int] = (),
    ):
        if num_nodes < 2:
            raise ValueError("a topology needs at least 2 nodes")
        if not 1 <= num_ports <= MAX_GRAPH_PORTS:
            raise ValueError(
                f"num_ports must be in [1, {MAX_GRAPH_PORTS}], got {num_ports}"
            )
        self.name = name
        self.num_nodes = int(num_nodes)
        self.num_ports = int(num_ports)
        self.neighbor = np.full((num_nodes, num_ports), -1, dtype=np.int32)
        self.reverse_port = np.full((num_nodes, num_ports), -1, dtype=np.int8)
        self.link_latency = np.ones((num_nodes, num_ports), dtype=np.int32)
        order = tuple(int(p) for p in port_scan_order) or tuple(range(num_ports))
        if sorted(order) != list(range(num_ports)):
            raise ValueError(
                f"port_scan_order must be a permutation of 0..{num_ports - 1}"
            )
        self.port_scan_order = order
        self._finalized = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_link(self, u: int, port_u: int, v: int, port_v: int, latency: int = 1):
        """Wire the undirected link ``u.port_u <-> v.port_v``.

        Both directions are installed with the same *latency* (extra wire
        cycles; 1 = a normal single-hop link).
        """
        if self._finalized:
            raise RuntimeError("cannot add links after finalize()")
        n, p = self.num_nodes, self.num_ports
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"link endpoints ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-link at node {u}")
        if not (0 <= port_u < p and 0 <= port_v < p):
            raise ValueError(f"link ports ({port_u}, {port_v}) outside 0..{p - 1}")
        if latency < 1:
            raise ValueError(f"link latency must be >= 1, got {latency}")
        for node, port in ((u, port_u), (v, port_v)):
            if self.neighbor[node, port] >= 0:
                raise ValueError(
                    f"port {port} of node {node} already wired to "
                    f"node {int(self.neighbor[node, port])}"
                )
        self.neighbor[u, port_u] = v
        self.neighbor[v, port_v] = u
        self.reverse_port[u, port_u] = port_v
        self.reverse_port[v, port_v] = port_u
        self.link_latency[u, port_u] = latency
        self.link_latency[v, port_v] = latency

    def has_link(self, u: int, v: int) -> bool:
        """True if any port of *u* is wired to *v* (generator dedup)."""
        return bool((self.neighbor[u] == v).any())

    def finalize(self) -> "GraphTopology":
        """Freeze the graph and precompute routing state."""
        if self._finalized:
            return self
        self.link_exists = self.neighbor >= 0
        self.num_links = int(self.link_exists.sum())
        self.ports_per_node = self.link_exists.sum(axis=1).astype(np.int32)
        if (self.ports_per_node == 0).any():
            isolated = int(np.flatnonzero(self.ports_per_node == 0)[0])
            raise ValueError(f"{self.name}: node {isolated} has no links")
        self._dist = hop_distances(self.neighbor, self.link_exists)
        if (self._dist == UNREACHABLE).any():
            raise ValueError(f"{self.name}: topology is not connected")
        self._ecc = self._dist.max(axis=1).astype(np.int32)
        self._build_route_tables()
        self._finalized = True
        return self

    def _build_route_tables(self) -> None:
        """Productive-port tables: first/second port strictly closer to
        each destination, ports scanned in ``port_scan_order``."""
        n = self.num_nodes
        dist = self._dist
        self._routes = np.full((2, n, n), INVALID_PORT, dtype=np.int8)
        primary, secondary = self._routes
        for port in self.port_scan_order:
            has = self.link_exists[:, port]
            if not has.any():
                continue
            nbr_dist = np.full((n, n), UNREACHABLE, dtype=np.int32)
            nbr_dist[has] = dist[self.neighbor[has, port]]
            productive = nbr_dist < dist
            first = productive & (primary == INVALID_PORT)
            primary[first] = port
            second = productive & ~first & (secondary == INVALID_PORT)
            secondary[second] = port

    # ------------------------------------------------------------------
    # Routing API (mirrors Mesh2D)
    # ------------------------------------------------------------------
    def distance(self, src, dest) -> np.ndarray:
        """BFS hop distance between node arrays or scalars."""
        return self._dist[np.asarray(src), np.asarray(dest)]

    def distance_table(self) -> np.ndarray:
        """The full ``(N, N)`` hop-distance table."""
        return self._dist

    def max_distance(self) -> int:
        """Network diameter in hops."""
        return int(self._ecc.max())

    def productive_ports(
        self, src: np.ndarray, dest: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """First/second productive output ports for *src* -> *dest*.

        Same contract as :meth:`Mesh2D.productive_ports`: ``INVALID_PORT``
        marks "already local" (primary) / "only one productive direction"
        (secondary).
        """
        src = np.asarray(src)
        dest = np.asarray(dest)
        return self._routes[0, src, dest], self._routes[1, src, dest]

    def route_tables(self) -> np.ndarray:
        """The tables :meth:`finalize` built, as :meth:`Mesh2D.route_tables`."""
        return self._routes.reshape(2, -1)

    def central_node(self) -> int:
        """Hub placement: the node minimizing total distance to all
        others (lowest id on ties, deterministically)."""
        return int(np.argmin(self._dist.sum(axis=1, dtype=np.int64)))

    def __repr__(self) -> str:
        return (
            f"GraphTopology({self.name}, {self.num_nodes} nodes, "
            f"{self.num_ports} ports)"
        )
