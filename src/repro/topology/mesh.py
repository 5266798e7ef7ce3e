"""2D mesh topology with XY (dimension-order) routing helpers.

The mesh is the paper's baseline topology (Table 2).  Nodes are numbered
row-major: node ``n`` sits at ``(x, y) = (n % width, n // width)``.  Each
router has up to four inter-router ports; edge routers have fewer, which
matters for deflection routing (a flit can only be deflected onto a link
that exists).

All lookups used in the per-cycle hot path are precomputed numpy arrays.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "Mesh2D",
    "NORTH",
    "EAST",
    "SOUTH",
    "WEST",
    "NUM_PORTS",
    "INVALID_PORT",
    "PORT_NAMES",
    "opposite_port",
]

# Port indices.  NORTH decreases y, SOUTH increases y (row-major layout).
NORTH = 0
EAST = 1
SOUTH = 2
WEST = 3
NUM_PORTS = 4
INVALID_PORT = -1
PORT_NAMES = ("N", "E", "S", "W")

_OPPOSITE = np.array([SOUTH, WEST, NORTH, EAST], dtype=np.int8)
#: int8 port ids (index -1 reads INVALID_PORT): route math never widens.
_PORT8 = np.array([NORTH, EAST, SOUTH, WEST, INVALID_PORT], dtype=np.int8)
#: Largest topology with (n, n) route tables (:meth:`Mesh2D.route_tables`).
ROUTE_TABLE_MAX_NODES = 1024
_ROUTE_BLOCK = 1 << 16  # (src, dest) pairs per row block of a build


def opposite_port(port: int) -> int:
    """Return the port on which a flit sent out of *port* arrives."""
    return int(_OPPOSITE[port])


class Mesh2D:
    """A ``width`` x ``height`` 2D mesh.

    Attributes precomputed for vectorized routing:

    - ``neighbor``: ``(N, 4)`` int32, neighbor node id per port, -1 if the
      link does not exist (mesh edge).
    - ``link_exists``: ``(N, 4)`` bool mask of real links.
    - ``coord_x`` / ``coord_y``: ``(N,)`` node coordinates.
    - ``num_links``: number of directed inter-router links.
    """

    wraps = False
    #: 2D coordinate grid: locality samplers may use the axis-split
    #: sampling path (coord_x/coord_y + width/height) on this topology.
    grid2d = True
    num_ports = NUM_PORTS

    def __init__(self, width: int, height: int = 0):
        if width < 2:
            raise ValueError("mesh width must be at least 2")
        if height == 0:
            height = width
        if height < 2:
            raise ValueError("mesh height must be at least 2")
        self.width = width
        self.height = height
        self.num_nodes = width * height

        nodes = np.arange(self.num_nodes, dtype=np.int32)
        self.coord_x = (nodes % width).astype(np.int32)
        self.coord_y = (nodes // width).astype(np.int32)

        self.neighbor = np.full((self.num_nodes, NUM_PORTS), -1, dtype=np.int32)
        self._fill_neighbors()
        self.link_exists = self.neighbor >= 0
        self.num_links = int(self.link_exists.sum())
        self.ports_per_node = self.link_exists.sum(axis=1).astype(np.int32)
        self.opposite = _OPPOSITE
        # Per-(node, port) form of ``opposite``: on a grid every node
        # shares the same reverse-port row, but the router engine indexes
        # per link so graph topologies with irregular ports work too.
        self.reverse_port = np.broadcast_to(
            _OPPOSITE, (self.num_nodes, NUM_PORTS)
        ).copy()
        # Per-directed-link extra wire latency in cycles; uniform on a
        # grid, overridden by express/chiplet layouts for long links.
        self.link_latency = np.ones((self.num_nodes, NUM_PORTS), dtype=np.int32)
        self._routes = None  # built by the first route_tables() call

    def _fill_neighbors(self) -> None:
        n = np.arange(self.num_nodes)
        x, y = self.coord_x, self.coord_y
        self.neighbor[y > 0, NORTH] = n[y > 0] - self.width
        self.neighbor[y < self.height - 1, SOUTH] = n[y < self.height - 1] + self.width
        self.neighbor[x > 0, WEST] = n[x > 0] - 1
        self.neighbor[x < self.width - 1, EAST] = n[x < self.width - 1] + 1

    # ------------------------------------------------------------------
    # Coordinate helpers
    # ------------------------------------------------------------------
    def node_at(self, x: int, y: int) -> int:
        """Node id at coordinates ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x}, {y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def coords(self, node: int) -> Tuple[int, int]:
        """Coordinates ``(x, y)`` of *node*."""
        return int(self.coord_x[node]), int(self.coord_y[node])

    def central_node(self) -> int:
        """The node used as the shared-resource hub (memory controller)."""
        return self.node_at(self.width // 2, self.height // 2)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def deltas(self, src: np.ndarray, dest: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Signed per-axis hop counts from *src* toward *dest*.

        In a mesh this is the plain coordinate difference; the torus
        overrides it to pick the shorter wrap-around direction.
        """
        dx = self.coord_x[dest] - self.coord_x[src]
        dy = self.coord_y[dest] - self.coord_y[src]
        return dx, dy

    def distance(self, src, dest) -> np.ndarray:
        """Hop (Manhattan) distance between node arrays or scalars."""
        src = np.asarray(src)
        dest = np.asarray(dest)
        dx, dy = self.deltas(src, dest)
        return np.abs(dx) + np.abs(dy)

    def max_distance(self) -> int:
        """Network diameter in hops."""
        return (self.width - 1) + (self.height - 1)

    def productive_ports(
        self, src: np.ndarray, dest: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """XY-routing port preferences for flits at *src* heading to *dest*.

        Returns ``(primary, secondary)`` port arrays.  The primary port is
        the X-direction port while the X offset is non-zero (XY routing:
        "a flit is first routed along the x-direction"), then the Y port.
        The secondary port is the other productive direction, used by the
        deflection router as second choice before misrouting; it is
        ``INVALID_PORT`` when only one axis is unresolved.
        """
        dx, dy = self.deltas(src, dest)
        x_port = np.where(dx > 0, _PORT8[EAST], _PORT8[WEST])
        y_port = np.where(dy > 0, _PORT8[SOUTH], _PORT8[NORTH])
        primary = np.where(dx != 0, x_port, np.where(dy != 0, y_port, _PORT8[-1]))
        secondary = np.where((dx != 0) & (dy != 0), y_port, _PORT8[-1])
        return primary, secondary

    def route_tables(self):
        """:meth:`productive_ports` of every pair as int8 ``(2, n * n)``, column
        ``src * n + dest``, built on the first call and kept; ``None`` past
        ``ROUTE_TABLE_MAX_NODES``, where callers route in closed form."""
        n = self.num_nodes
        if self._routes is None and n <= ROUTE_TABLE_MAX_NODES:
            routes, rows = np.empty((2, n * n), np.int8), max(1, _ROUTE_BLOCK // n)
            for at in range(0, n, rows):  # in row blocks: no (n, n) temporaries
                src = np.arange(at, min(at + rows, n))[:, None]
                ports = self.productive_ports(src, np.arange(n))
                routes.reshape(2, n, n)[:, at:at + rows] = ports
            self._routes = routes
        return self._routes

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.width}x{self.height})"
