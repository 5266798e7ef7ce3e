"""Property and equivalence tests for the graph-topology zoo.

Three layers of safety:

- structural properties every generated topology must satisfy
  (connectivity, reverse-port round-trips, symmetric distance tables,
  productive ports that actually shrink distance);
- exact equivalence between ``graph_mesh2d`` and the closed-form
  ``Mesh2D`` — routing tables, distances, and a full BLESS simulation
  bit-for-bit (the graph machinery must not perturb the paper's
  baseline numbers);
- config-level geometry validation through the topology registry;
- ``hop_distances``, the package's one BFS, against closed-form grid
  distances and a plain per-source BFS on symmetric *and* directed
  link masks;
- the row-block builds of distances and route tables against one-shot
  references, and the traced memory peak of a 1,024-node build.
"""

import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.simulator as simulator_mod
import repro.topology.graph as graph_module
from repro.config import SimulationConfig
from repro.harness import JobSpec, run_job
from repro.topology import (
    GraphTopology,
    INVALID_PORT,
    Mesh2D,
    TOPOLOGIES,
    TOPOLOGY_NAMES,
    build_topology,
)
from repro.guardrails.faults import FaultModel
from repro.topology import Torus2D, zoo
from repro.topology.graph import MAX_GRAPH_PORTS, UNREACHABLE, hop_distances
from repro.traffic.workloads import make_category_workload


def zoo_topologies():
    """Every generator in the zoo, at a representative small size."""
    return [
        pytest.param(lambda: zoo.graph_mesh2d(4, 4), id="graph_mesh2d-4x4"),
        pytest.param(lambda: zoo.graph_mesh2d(5, 3), id="graph_mesh2d-5x3"),
        pytest.param(lambda: zoo.mesh3d(3, 3, 3), id="mesh3d-3x3x3"),
        pytest.param(lambda: zoo.mesh3d(4, 3, 2), id="mesh3d-4x3x2"),
        pytest.param(lambda: zoo.torus3d(3, 3, 3), id="torus3d-3x3x3"),
        pytest.param(lambda: zoo.torus3d(4, 4, 2), id="torus3d-4x4x2"),
        pytest.param(lambda: zoo.chiplet(8, 8, 4), id="chiplet-8x8t4"),
        pytest.param(lambda: zoo.chiplet(6, 4, 2), id="chiplet-6x4t2"),
        pytest.param(lambda: zoo.express(8, 8, 4), id="express-8x8s4"),
        pytest.param(lambda: zoo.express(6, 6, 2), id="express-6x6s2"),
    ]


def _bfs_reference(neighbor, link_up):
    """All-pairs hop counts by one plain queue BFS per source."""
    n, num_ports = neighbor.shape
    dist = np.full((n, n), UNREACHABLE, dtype=np.int32)
    for s in range(n):
        dist[s, s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for port in np.flatnonzero(link_up[u]):
                v = neighbor[u, port]
                if dist[s, v] == UNREACHABLE:
                    dist[s, v] = dist[s, u] + 1
                    queue.append(v)
    return dist


class TestHopDistances:
    """The shared BFS behind GraphTopology.finalize and every FaultModel
    distance/connectivity query."""

    @given(w=st.integers(2, 9), h=st.integers(2, 9), wrap=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_equals_closed_form_grid_distance(self, w, h, wrap):
        topo = (Torus2D if wrap else Mesh2D)(w, h)
        ids = np.arange(topo.num_nodes)
        dist = hop_distances(topo.neighbor, topo.link_exists)
        assert dist.dtype == np.int32
        np.testing.assert_array_equal(
            dist, topo.distance(ids[:, None], ids[None, :])
        )

    @pytest.mark.parametrize("make", zoo_topologies())
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_equals_reference_bfs_under_symmetric_faults(self, make, data):
        topo = make()
        rate = data.draw(st.floats(0.0, 0.6))
        picks = data.draw(st.randoms(use_true_random=False))
        link_up = topo.link_exists.copy()
        for node, port in zip(*np.nonzero(topo.link_exists)):
            if picks.random() < rate:
                # may split the graph: UNREACHABLE entries must agree too
                link_up[node, port] = False
                link_up[topo.neighbor[node, port], topo.reverse_port[node, port]] = False
        dist = hop_distances(topo.neighbor, link_up)
        np.testing.assert_array_equal(dist, _bfs_reference(topo.neighbor, link_up))
        np.testing.assert_array_equal(dist, dist.T)
        s = data.draw(st.integers(0, topo.num_nodes - 1))
        np.testing.assert_array_equal(
            hop_distances(topo.neighbor, link_up, [s]), dist[s : s + 1]
        )

    @pytest.mark.parametrize("make", zoo_topologies())
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_directed_quiesce_mask(self, make, data):
        """A router drain quiesces only the links *toward* the router,
        so the routing mask is asymmetric; hops must follow directed
        links, for the all-pairs table and for single rows alike."""
        topo = make()
        fm = FaultModel(topo, None)
        target = data.draw(st.integers(0, topo.num_nodes - 1))
        fm.quiesce_router_inbound(target)
        link_up = fm.link_up & ~fm.quiescing
        dist = hop_distances(topo.neighbor, link_up)
        # the case must not silently become symmetric
        assert (dist != dist.T).any()
        others = np.arange(topo.num_nodes) != target
        assert (dist[target] != UNREACHABLE).all()
        assert (dist[others, target] == UNREACHABLE).all()
        np.testing.assert_array_equal(dist, _bfs_reference(topo.neighbor, link_up))
        rows = [target, data.draw(st.integers(0, topo.num_nodes - 1))]
        np.testing.assert_array_equal(
            hop_distances(topo.neighbor, link_up, rows), dist[rows]
        )


@pytest.mark.parametrize("make", zoo_topologies())
class TestZooProperties:
    def test_connected(self, make):
        topo = make()
        dist = topo.distance_table()
        assert (dist < UNREACHABLE).all()
        assert (np.diag(dist) == 0).all()

    def test_reverse_port_round_trips_on_every_link(self, make):
        """Following any link and coming back over its reverse port
        lands on the origin, through the origin's original port."""
        topo = make()
        nodes, ports = np.nonzero(topo.link_exists)
        assert nodes.size == topo.num_links  # directed-endpoint count
        assert topo.num_links % 2 == 0  # every link wired both ways
        for u, port in zip(nodes, ports):
            v = int(topo.neighbor[u, port])
            back = int(topo.reverse_port[u, port])
            assert topo.neighbor[v, back] == u
            assert topo.reverse_port[v, back] == port

    def test_distance_table_symmetric(self, make):
        """Every zoo link is bidirectional with symmetric latency, so
        the hop metric must be symmetric too."""
        topo = make()
        dist = topo.distance_table()
        assert (dist == dist.T).all()

    def test_link_latency_symmetric_and_positive(self, make):
        topo = make()
        nodes, ports = np.nonzero(topo.link_exists)
        lat = topo.link_latency[nodes, ports]
        assert (lat >= 1).all()
        rev_lat = topo.link_latency[
            topo.neighbor[nodes, ports], topo.reverse_port[nodes, ports]
        ]
        assert (lat == rev_lat).all()

    def test_productive_ports_shrink_distance(self, make):
        """The primary (and any secondary) route port strictly reduces
        hop distance to the destination; at the destination both are
        INVALID_PORT."""
        topo = make()
        n = topo.num_nodes
        dist = topo.distance_table()
        src = np.repeat(np.arange(n), n)
        dest = np.tile(np.arange(n), n)
        p0, p1 = topo.productive_ports(src, dest)
        at_dest = src == dest
        assert (p0[at_dest] == INVALID_PORT).all()
        assert (p1[at_dest] == INVALID_PORT).all()
        assert (p0[~at_dest] != INVALID_PORT).all()
        for ports in (p0, p1):
            take = ~at_dest & (ports != INVALID_PORT)
            nxt = topo.neighbor[src[take], ports[take]]
            assert (dist[nxt, dest[take]] == dist[src[take], dest[take]] - 1).all()

    def test_central_node_minimizes_total_distance(self, make):
        topo = make()
        totals = topo.distance_table().sum(axis=1)
        assert totals[topo.central_node()] == totals.min()


def _routes_reference(topo):
    """Productive-port tables built in one shot over all pairs."""
    n = topo.num_nodes
    dist = topo.distance_table()
    routes = np.full((2, n, n), INVALID_PORT, dtype=np.int8)
    primary, secondary = routes
    for port in topo.port_scan_order:
        has = topo.link_exists[:, port]
        nbr_dist = np.full((n, n), UNREACHABLE, dtype=np.int32)
        nbr_dist[has] = dist[topo.neighbor[has, port]]
        productive = nbr_dist < dist
        first = productive & (primary == INVALID_PORT)
        primary[first] = port
        secondary[productive & ~first & (secondary == INVALID_PORT)] = port
    return routes.reshape(2, -1)


class TestRowBlockBuilds:
    """finalize() runs the BFS and the route-table build in row blocks."""

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("make", zoo_topologies())
    def test_blocks_match_one_shot_references(self, make, rows, monkeypatch):
        """One row, a block that does not divide the node count, and
        every row in one block give the same tables."""
        n = make().num_nodes
        monkeypatch.setattr(graph_module, "_ROUTE_BLOCK", (rows or n) * n)
        monkeypatch.setattr(graph_module, "_BFS_BLOCK", (rows or n) * n)
        topo = make()
        np.testing.assert_array_equal(
            topo.distance_table(),
            _bfs_reference(topo.neighbor, topo.link_exists),
        )
        np.testing.assert_array_equal(
            topo.route_tables(), _routes_reference(topo)
        )

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: zoo.chiplet(32, 32, 4), id="chiplet-32x32t4"),
        pytest.param(lambda: zoo.express(32, 32, 4), id="express-32x32s4"),
        pytest.param(lambda: zoo.mesh3d(8, 8, 16), id="mesh3d-8x8x16"),
    ])
    def test_1024_node_build_keeps_no_n_by_n_temporary(self, make):
        """The build peaks under 9 MB beside the 6 MB it keeps (the
        int32 distance table and two int8 route tables); built in one
        shot it peaked near 18 MB."""
        tracemalloc.start()
        try:
            topo = make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert topo.num_nodes == 1024
        assert peak < 9e6
        np.testing.assert_array_equal(
            topo.route_tables(), _routes_reference(topo)
        )


class TestZooGeometry:
    def test_mesh3d_link_count(self):
        w, h, d = 4, 3, 2
        topo = zoo.mesh3d(w, h, d)
        undirected = ((w - 1) * h * d) + (w * (h - 1) * d) + (w * h * (d - 1))
        assert topo.num_links == undirected * 2
        assert topo.num_nodes == w * h * d

    def test_torus3d_wrap_links(self):
        topo = zoo.torus3d(3, 3, 3)
        # Full wrap: every node has all six grid neighbors.
        assert topo.link_exists.all()
        assert topo.num_links == 27 * 6
        # Wraps shorten the diameter vs the open mesh.
        assert topo.max_distance() < zoo.mesh3d(3, 3, 3).max_distance()

    def test_torus3d_skips_wrap_on_length2_dims(self):
        """A length-2 dimension's wrap link would duplicate the mesh
        link; the generator must not double-wire it."""
        topo = zoo.torus3d(4, 4, 2)
        # z=2: every node has exactly one z-neighbor (no wrap duplicate).
        z_links = (topo.link_exists[:, zoo.UP].astype(int)
                   + topo.link_exists[:, zoo.DOWN].astype(int))
        assert (z_links == 1).all()

    def test_chiplet_bridges_cost_tile_hops(self):
        topo = zoo.chiplet(8, 8, 4)
        bridge_ports = (zoo.BRIDGE_N, zoo.BRIDGE_E, zoo.BRIDGE_S, zoo.BRIDGE_W)
        bridged = topo.link_exists[:, bridge_ports]
        assert bridged.any()
        # Only hub routers carry bridge ports: one per 4x4 tile, 4 hubs.
        assert (bridged.any(axis=1)).sum() == 4
        for port in bridge_ports:
            nodes = np.nonzero(topo.link_exists[:, port])[0]
            assert (topo.link_latency[nodes, port] == 4).all()
        # Mesh links between adjacent tiles are cut: crossing tiles
        # must go through a hub bridge.
        from repro.topology.mesh import EAST
        x3 = np.nonzero(np.arange(64) % 8 == 3)[0]  # east edge of tile 0
        assert not topo.link_exists[x3, EAST].any()

    def test_express_links_shorten_long_paths(self):
        plain = zoo.graph_mesh2d(8, 8)
        exp = zoo.express(8, 8, 4)
        assert exp.num_links > plain.num_links
        # Express channels span `stride` hops at `stride` latency but
        # one hop of routing: corner-to-corner hop distance drops.
        assert exp.distance(0, 63) < plain.distance(0, 63)

    def test_express_degrades_to_mesh_when_too_small(self):
        small = zoo.express(3, 3, 4)
        assert small.num_links == zoo.graph_mesh2d(3, 3).num_links


@pytest.mark.slow
class TestMeshEquivalence:
    """graph_mesh2d must be indistinguishable from Mesh2D."""

    @pytest.mark.parametrize("w,h", [(4, 4), (5, 3), (3, 6)])
    def test_tables_match(self, w, h):
        mesh = Mesh2D(w, h)
        graph = zoo.graph_mesh2d(w, h)
        assert graph.num_nodes == mesh.num_nodes
        assert graph.num_ports == mesh.num_ports
        live = graph.link_exists
        assert (graph.neighbor[live] == mesh.neighbor[live]).all()
        assert (graph.reverse_port[live] == mesh.reverse_port[live]).all()
        n = mesh.num_nodes
        src = np.repeat(np.arange(n), n)
        dest = np.tile(np.arange(n), n)
        assert (graph.distance(src, dest) == mesh.distance(src, dest)).all()
        gp0, gp1 = graph.productive_ports(src, dest)
        mp0, mp1 = mesh.productive_ports(src, dest)
        assert (gp0 == mp0).all()
        assert (gp1 == mp1).all()

    @pytest.mark.parametrize("network", ["bless", "buffered", "hybrid"])
    def test_simulation_bit_identical(self, network, monkeypatch):
        """A full run on the graph-described mesh reproduces the
        closed-form Mesh2D byte-for-byte (the golden fixture's
        guarantee, extended to the graph backend)."""
        from tests.test_golden_results import result_hash

        def spec():
            wl = make_category_workload(
                "H", 16, np.random.default_rng(11)
            )
            return JobSpec.for_workload(
                wl, 1500, seed=5, epoch=500, network=network,
                config={"check_invariants": True},
            )

        reference = result_hash(run_job(spec()))

        real_build = simulator_mod.build_topology

        def graph_build(config):
            if config.topology == "mesh":
                return zoo.graph_mesh2d(config.width, config.height)
            return real_build(config)

        monkeypatch.setattr(simulator_mod, "build_topology", graph_build)
        assert result_hash(run_job(spec())) == reference


class TestRegistryConfig:
    def _workload(self, nodes):
        return make_category_workload(
            "H", nodes, np.random.default_rng(7)
        )

    def test_registry_covers_cli_names(self):
        assert TOPOLOGY_NAMES == (
            "mesh", "torus", "mesh3d", "torus3d", "chiplet", "express"
        )
        assert set(TOPOLOGIES) == set(TOPOLOGY_NAMES)

    def test_unknown_topology_names_the_zoo(self):
        with pytest.raises(ValueError, match="unknown topology"):
            SimulationConfig(self._workload(16), topology="hypercube")

    def test_cube_inference(self):
        config = SimulationConfig(self._workload(27), topology="mesh3d")
        assert (config.width, config.height, config.depth) == (3, 3, 3)

    def test_depth_hint_splits_layers(self):
        config = SimulationConfig(
            self._workload(32), topology="torus3d", depth=2
        )
        assert (config.width, config.height, config.depth) == (4, 4, 2)

    def test_non_cubic_size_rejected(self):
        with pytest.raises(ValueError, match="not a cube"):
            SimulationConfig(self._workload(24), topology="mesh3d")

    def test_chiplet_tile_must_divide_grid(self):
        with pytest.raises(ValueError, match="must divide"):
            SimulationConfig(
                self._workload(36), topology="chiplet", chiplet_tile=4
            )

    def test_chiplet_builds_from_config(self):
        config = SimulationConfig(
            self._workload(64), topology="chiplet", chiplet_tile=4
        )
        topo = build_topology(config)
        assert isinstance(topo, GraphTopology)
        assert topo.num_nodes == 64

    def test_express_stride_validated(self):
        with pytest.raises(ValueError, match="express_stride"):
            SimulationConfig(
                self._workload(16), topology="express", express_stride=1
            )

    def test_legacy_messages_preserved(self):
        with pytest.raises(ValueError, match="not square"):
            SimulationConfig(self._workload(12), topology="mesh")
        with pytest.raises(ValueError, match="does not fit"):
            SimulationConfig(
                self._workload(16), topology="mesh", width=3, height=3
            )

    def test_graph_port_bound_accommodates_zoo(self):
        for make in (lambda: zoo.chiplet(8, 8, 4),
                     lambda: zoo.express(8, 8, 4)):
            assert make().num_ports <= MAX_GRAPH_PORTS


class TestGraphTopologyAPI:
    def test_add_link_rejects_rewiring(self):
        topo = GraphTopology(4, 2, name="pair")
        topo.add_link(0, 0, 1, 0)
        with pytest.raises(ValueError, match="already wired"):
            topo.add_link(0, 0, 2, 0)

    def test_add_link_rejects_self_link(self):
        topo = GraphTopology(4, 2, name="self")
        with pytest.raises(ValueError):
            topo.add_link(1, 0, 1, 1)

    def test_finalize_rejects_disconnected(self):
        topo = GraphTopology(4, 2, name="split")
        topo.add_link(0, 0, 1, 0)
        topo.add_link(2, 0, 3, 0)
        with pytest.raises(ValueError, match="not connected"):
            topo.finalize()

    def test_finalize_rejects_isolated_node(self):
        topo = GraphTopology(3, 2, name="isolated")
        topo.add_link(0, 0, 1, 0)
        with pytest.raises(ValueError):
            topo.finalize()
