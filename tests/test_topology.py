"""Unit tests for the mesh and torus topologies."""

import numpy as np
import pytest

from repro.topology import (
    EAST,
    INVALID_PORT,
    Mesh2D,
    NORTH,
    NUM_PORTS,
    SOUTH,
    Torus2D,
    WEST,
    opposite_port,
)
from repro.topology import mesh as mesh_module


class TestPortConventions:
    def test_opposite_ports_are_involutions(self):
        for port in range(NUM_PORTS):
            assert opposite_port(opposite_port(port)) == port

    def test_opposite_pairs(self):
        assert opposite_port(NORTH) == SOUTH
        assert opposite_port(EAST) == WEST


class TestMeshConstruction:
    def test_node_count(self):
        assert Mesh2D(4).num_nodes == 16
        assert Mesh2D(8, 4).num_nodes == 32

    def test_default_height_is_square(self):
        mesh = Mesh2D(5)
        assert mesh.height == 5

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            Mesh2D(1)
        with pytest.raises(ValueError):
            Mesh2D(4, 1)

    def test_coordinates_row_major(self):
        mesh = Mesh2D(4)
        assert mesh.coords(0) == (0, 0)
        assert mesh.coords(5) == (1, 1)
        assert mesh.coords(15) == (3, 3)

    def test_node_at_inverts_coords(self):
        mesh = Mesh2D(4, 3)
        for node in range(mesh.num_nodes):
            x, y = mesh.coords(node)
            assert mesh.node_at(x, y) == node

    def test_node_at_rejects_out_of_range(self):
        mesh = Mesh2D(4)
        with pytest.raises(ValueError):
            mesh.node_at(4, 0)
        with pytest.raises(ValueError):
            mesh.node_at(0, -1)

    def test_corner_has_two_links(self):
        mesh = Mesh2D(4)
        assert mesh.ports_per_node[0] == 2
        assert mesh.ports_per_node[15] == 2

    def test_edge_has_three_links(self):
        mesh = Mesh2D(4)
        assert mesh.ports_per_node[1] == 3

    def test_interior_has_four_links(self):
        mesh = Mesh2D(4)
        assert mesh.ports_per_node[5] == 4

    def test_num_links_formula(self):
        # A WxH mesh has 2*(W-1)*H + 2*(H-1)*W directed links.
        for w, h in [(4, 4), (8, 8), (3, 5)]:
            mesh = Mesh2D(w, h)
            assert mesh.num_links == 2 * (w - 1) * h + 2 * (h - 1) * w

    def test_neighbor_symmetry(self):
        mesh = Mesh2D(5, 3)
        for node in range(mesh.num_nodes):
            for port in range(NUM_PORTS):
                other = mesh.neighbor[node, port]
                if other >= 0:
                    assert mesh.neighbor[other, opposite_port(port)] == node


class TestMeshRouting:
    def test_distance_is_manhattan(self):
        mesh = Mesh2D(4)
        assert mesh.distance(0, 15) == 6
        assert mesh.distance(0, 3) == 3
        assert mesh.distance(5, 5) == 0

    def test_distance_vectorized(self):
        mesh = Mesh2D(4)
        src = np.array([0, 0, 5])
        dest = np.array([15, 3, 6])
        np.testing.assert_array_equal(mesh.distance(src, dest), [6, 3, 1])

    def test_max_distance(self):
        assert Mesh2D(4).max_distance() == 6
        assert Mesh2D(8, 4).max_distance() == 10

    def test_productive_ports_x_first(self):
        mesh = Mesh2D(4)
        p0, p1 = mesh.productive_ports(np.array([0]), np.array([5]))
        assert p0[0] == EAST  # x resolved first
        assert p1[0] == SOUTH

    def test_productive_ports_single_axis(self):
        mesh = Mesh2D(4)
        p0, p1 = mesh.productive_ports(np.array([0]), np.array([3]))
        assert p0[0] == EAST
        assert p1[0] == INVALID_PORT
        p0, p1 = mesh.productive_ports(np.array([0]), np.array([12]))
        assert p0[0] == SOUTH
        assert p1[0] == INVALID_PORT

    def test_productive_ports_at_destination(self):
        mesh = Mesh2D(4)
        p0, p1 = mesh.productive_ports(np.array([7]), np.array([7]))
        assert p0[0] == INVALID_PORT
        assert p1[0] == INVALID_PORT

    def test_productive_ports_westward(self):
        mesh = Mesh2D(4)
        p0, _ = mesh.productive_ports(np.array([3]), np.array([0]))
        assert p0[0] == WEST

    def test_productive_port_always_a_real_link(self):
        """XY routing toward an in-mesh node never points off-mesh."""
        mesh = Mesh2D(5, 3)
        nodes = np.arange(mesh.num_nodes)
        for dest in range(mesh.num_nodes):
            p0, p1 = mesh.productive_ports(nodes, np.full(nodes.shape, dest))
            for node in nodes:
                if p0[node] != INVALID_PORT:
                    assert mesh.link_exists[node, p0[node]]
                if p1[node] != INVALID_PORT:
                    assert mesh.link_exists[node, p1[node]]

    def test_following_productive_port_reaches_destination(self):
        mesh = Mesh2D(6, 4)
        rng = np.random.default_rng(0)
        for _ in range(50):
            src = int(rng.integers(0, mesh.num_nodes))
            dest = int(rng.integers(0, mesh.num_nodes))
            node, hops = src, 0
            while node != dest:
                p0, _ = mesh.productive_ports(np.array([node]), np.array([dest]))
                node = int(mesh.neighbor[node, p0[0]])
                hops += 1
                assert hops <= mesh.max_distance()
            assert hops == mesh.distance(src, dest)


class TestTorus:
    def test_all_nodes_have_four_links(self):
        torus = Torus2D(4)
        assert (torus.ports_per_node == 4).all()

    def test_wraparound_neighbors(self):
        torus = Torus2D(4)
        assert torus.neighbor[0, WEST] == 3
        assert torus.neighbor[0, NORTH] == 12

    def test_distance_uses_shorter_wrap(self):
        torus = Torus2D(4)
        assert torus.distance(0, 3) == 1  # wrap west
        assert torus.distance(0, 12) == 1  # wrap north
        assert torus.distance(0, 15) == 2

    def test_max_distance(self):
        assert Torus2D(4).max_distance() == 4
        assert Torus2D(8).max_distance() == 8

    def test_more_links_than_mesh(self):
        assert Torus2D(4).num_links == 64  # every node has 4 directed links
        assert Torus2D(4).num_links > Mesh2D(4).num_links

    def test_productive_ports_wrap(self):
        torus = Torus2D(4)
        p0, _ = torus.productive_ports(np.array([0]), np.array([3]))
        assert p0[0] == WEST  # one wrap hop beats three east hops

    def test_following_productive_port_reaches_destination(self):
        torus = Torus2D(6)
        rng = np.random.default_rng(1)
        for _ in range(50):
            src = int(rng.integers(0, torus.num_nodes))
            dest = int(rng.integers(0, torus.num_nodes))
            node, hops = src, 0
            while node != dest:
                p0, _ = torus.productive_ports(np.array([node]), np.array([dest]))
                node = int(torus.neighbor[node, p0[0]])
                hops += 1
                assert hops <= torus.max_distance()
            assert hops == torus.distance(src, dest)

    def test_width_two_torus_has_single_x_link(self):
        torus = Torus2D(2, 4)
        assert (torus.neighbor[:, WEST] == -1).all()
        # routing still reaches every destination
        p0, _ = torus.productive_ports(np.array([1]), np.array([0]))
        assert torus.link_exists[1, p0[0]]


class TestRouteTables:
    """The grids own their productive-port tables (built on first read)."""

    GRIDS = [(Mesh2D, 4, 4), (Mesh2D, 5, 3), (Torus2D, 2, 4), (Torus2D, 3, 3),
             (Torus2D, 4, 5), (Torus2D, 6, 6), (Torus2D, 32, 32)]

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("make, width, height", GRIDS)
    def test_tables_are_productive_ports_of_every_pair(
        self, make, width, height, rows, monkeypatch
    ):
        """One row, a block that does not divide the grid, and the whole
        table in one block all give the closed form's values."""
        topo = make(width, height)
        n = topo.num_nodes
        monkeypatch.setattr(mesh_module, "_ROUTE_BLOCK", (rows or n) * n)
        ids = np.arange(n)
        p0, p1 = topo.productive_ports(ids[:, None], ids[None, :])
        tables = topo.route_tables()
        assert tables.dtype == np.int8 and tables.shape == (2, n * n)
        np.testing.assert_array_equal(tables[0], p0.reshape(-1))
        np.testing.assert_array_equal(tables[1], p1.reshape(-1))
        assert topo.route_tables() is tables  # built once, then kept

    def test_no_tables_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(mesh_module, "ROUTE_TABLE_MAX_NODES", 15)
        assert Mesh2D(4).route_tables() is None
        assert Mesh2D(5, 3).route_tables() is not None
