"""Data-locality models: where an L1 miss is serviced (§3.2, Table 2).

Three destination mappers:

- :class:`UniformStriping` — the paper's small-network default
  ("per-block interleaving, XOR mapping"), statistically uniform over
  all remote shared-cache slices.
- :class:`ExponentialLocality` — the paper's scalability model:
  request distance is exponentially distributed with mean ``1/lambda``
  hops, "so most cache misses are serviced by nodes within a few hops,
  and some small fraction of requests go further" (95% within 3 hops and
  99% within 5 for lambda=1).
- :class:`PowerLawLocality` — the paper's alternative heavy-tailed model
  ("we also performed experiments with a power-law distribution of
  traffic distance, which behaved similarly").

All samplers are vectorized: given an array of miss sources they return
an array of destinations.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "UniformStriping",
    "ExponentialLocality",
    "PowerLawLocality",
    "LOCALITY_MODELS",
    "LOCALITY_NAMES",
]


class UniformStriping:
    """Miss destinations uniform over all nodes except the source."""

    def __init__(self, topology):
        self.topology = topology

    def sample(self, src: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        n = self.topology.num_nodes
        offset = rng.integers(1, n, size=src.size)
        return ((src + offset) % n).astype(np.int64)

    def mean_distance(self) -> float:
        """Expected hop distance of a request (exact, by enumeration)."""
        topo = self.topology
        n = topo.num_nodes
        src = np.repeat(np.arange(n), n)
        dest = np.tile(np.arange(n), n)
        dist = topo.distance(src, dest)
        return float(dist[src != dest].mean())

    def __repr__(self) -> str:
        return "UniformStriping()"


class _DistanceLocality:
    """Shared machinery: sample a hop distance, then a node at it.

    2D grids use the axis-split sampler (split the distance across x/y,
    pick random signs, fold at edges).  Graph topologies have no
    coordinate system, so they precompute per-source distance buckets
    from the BFS table and draw a uniform node at the sampled distance —
    the same target distance distribution, topology-agnostic.
    """

    def __init__(self, topology):
        self.topology = topology
        self._max_dist = topology.max_distance()
        self._grid2d = bool(getattr(topology, "grid2d", False))
        if not self._grid2d:
            dist = np.asarray(topology.distance_table())
            n = topology.num_nodes
            # Row r of ``_order`` lists all nodes sorted by distance from
            # r (stable, so same-distance nodes stay in id order);
            # ``_bucket_start/_bucket_count`` index the run of nodes at
            # each exact distance.
            self._order = np.argsort(dist, axis=1, kind="stable").astype(np.int32)
            counts = np.zeros((n, self._max_dist + 1), dtype=np.int64)
            rows = np.repeat(np.arange(n), n)
            np.add.at(counts, (rows, dist.ravel().astype(np.int64)), 1)
            self._bucket_count = counts
            self._bucket_start = np.zeros_like(counts)
            np.cumsum(counts[:, :-1], axis=1, out=self._bucket_start[:, 1:])
            self._ecc = dist.max(axis=1).astype(np.int64)

    def _sample_distance(self, size: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def sample(self, src: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        topo = self.topology
        if not self._grid2d:
            # Clip per-source: every distance 1..ecc(src) is populated on
            # a connected graph, so the bucket is never empty.
            d = np.clip(self._sample_distance(src.size, rng), 1, self._ecc[src])
            start = self._bucket_start[src, d]
            count = self._bucket_count[src, d]
            pick = start + rng.integers(0, count)
            return self._order[src, pick].astype(np.int64)
        d = np.clip(self._sample_distance(src.size, rng), 1, self._max_dist)
        # Split the distance across the two axes and pick random signs.
        a = rng.integers(0, d + 1)
        b = d - a
        sx = rng.integers(0, 2, size=src.size) * 2 - 1
        sy = rng.integers(0, 2, size=src.size) * 2 - 1
        x = topo.coord_x[src] + sx * a
        y = topo.coord_y[src] + sy * b
        if topo.wraps:
            x = x % topo.width
            y = y % topo.height
        else:
            x = _fold(x, topo.width - 1)
            y = _fold(y, topo.height - 1)
        dest = (y * topo.width + x).astype(np.int64)
        # Edge folding can land back on the source; nudge one hop over.
        same = dest == src
        if same.any():
            x_s = topo.coord_x[dest[same]]
            nudge = np.where(x_s < topo.width - 1, 1, -1)
            dest[same] = dest[same] + nudge
        return dest


def _fold(coord: np.ndarray, limit: int) -> np.ndarray:
    """Reflect out-of-range coordinates back into ``[0, limit]``.

    Mirrors traffic at the mesh edge, preserving the target distance
    distribution as closely as the finite mesh allows.
    """
    coord = np.abs(coord)
    for _ in range(2):
        over = coord > limit
        if not over.any():
            break
        coord = np.where(over, 2 * limit - coord, coord)
        coord = np.abs(coord)
    return np.clip(coord, 0, limit)


class ExponentialLocality(_DistanceLocality):
    """Exponential request-distance distribution with mean ``1/lambda``.

    ``mean_distance`` is the paper's ``1/lambda``; the default of 1.0 hop
    reproduces the paper's locality assumption (95% of requests within
    3 hops, 99% within 5).
    """

    def __init__(self, topology, mean_distance: float = 1.0):
        super().__init__(topology)
        if mean_distance <= 0:
            raise ValueError("mean distance must be positive")
        self.mean_distance = mean_distance

    def _sample_distance(self, size: int, rng: np.random.Generator) -> np.ndarray:
        d = np.rint(rng.exponential(self.mean_distance, size=size))
        return np.maximum(d, 1).astype(np.int64)

    def __repr__(self) -> str:
        return f"ExponentialLocality(mean_distance={self.mean_distance})"


class PowerLawLocality(_DistanceLocality):
    """Pareto (power-law) request-distance distribution.

    Heavier tail than the exponential model at the same typical
    distance; the paper reports similar conclusions under it (§3.2).
    """

    def __init__(self, topology, alpha: float = 2.5):
        super().__init__(topology)
        if alpha <= 1.0:
            raise ValueError("alpha must exceed 1 for a finite mean")
        self.alpha = alpha

    def _sample_distance(self, size: int, rng: np.random.Generator) -> np.ndarray:
        d = np.floor(rng.pareto(self.alpha, size=size) + 1.0)
        return d.astype(np.int64)

    def __repr__(self) -> str:
        return f"PowerLawLocality(alpha={self.alpha})"


#: name -> sampler(topology, locality_param) for every model a string
#: ``SimulationConfig.locality`` may select; the config check, the
#: simulator and the CLI ``--locality`` choices all read this table.
LOCALITY_MODELS = {
    "uniform": lambda topology, param: UniformStriping(topology),
    "exponential": lambda topology, param: ExponentialLocality(
        topology, mean_distance=param
    ),
    "powerlaw": lambda topology, param: PowerLawLocality(
        topology, alpha=param
    ),
}

LOCALITY_NAMES = tuple(LOCALITY_MODELS)
