"""2D torus topology (mesh with wrap-around links).

The paper notes (§6.3) that scalability trends hold in a torus and that
the torus yields roughly 10% higher throughput for all networks; the
`sec63_torus` figure (`python -m repro figure sec63_torus`) reproduces
that comparison.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.topology.mesh import EAST, Mesh2D, NORTH, SOUTH, WEST

__all__ = ["Torus2D"]


class Torus2D(Mesh2D):
    """A ``width`` x ``height`` 2D torus.

    Every router has all four links, and XY routing picks the shorter
    wrap direction on each axis.
    """

    wraps = True

    def _fill_neighbors(self) -> None:
        x, y = self.coord_x, self.coord_y
        self.neighbor[:, NORTH] = ((y - 1) % self.height) * self.width + x
        self.neighbor[:, SOUTH] = ((y + 1) % self.height) * self.width + x
        self.neighbor[:, WEST] = y * self.width + (x - 1) % self.width
        self.neighbor[:, EAST] = y * self.width + (x + 1) % self.width
        if self.width == 2:
            # Degenerate: both x-directions reach the same node; keep one.
            self.neighbor[:, WEST] = -1
        if self.height == 2:
            self.neighbor[:, NORTH] = -1

    def deltas(self, src: np.ndarray, dest: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        dx = self.coord_x[dest] - self.coord_x[src]
        dy = self.coord_y[dest] - self.coord_y[src]
        half_w, half_h = self.width // 2, self.height // 2
        dx = np.where(dx > half_w, dx - self.width, dx)
        dx = np.where(dx < -half_w, dx + self.width, dx)
        dy = np.where(dy > half_h, dy - self.height, dy)
        dy = np.where(dy < -half_h, dy + self.height, dy)
        if self.width == 2:
            # Only the EAST link exists on a width-2 torus (see above).
            dx = np.abs(dx)
        if self.height == 2:
            dy = np.abs(dy)
        return dx, dy

    def max_distance(self) -> int:
        return self.width // 2 + self.height // 2
