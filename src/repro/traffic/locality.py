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
- :class:`HotspotLocality` — §7's "Traffic Engineering" pattern:
  multi-threaded applications have "heavily local/regional
  communication patterns, which can create 'hot-spots' of high
  utilization in the network".  A fraction of every node's requests
  targets a small hot set (a shared lock/home node, a memory
  controller, an accelerator), the rest follows exponential locality.

All samplers are vectorized: given an array of miss sources they return
an array of destinations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "UniformStriping",
    "ExponentialLocality",
    "PowerLawLocality",
    "HotspotLocality",
    "LOCALITY_MODELS",
    "LOCALITY_NAMES",
    "check_param",
]


#: model -> (does a parameter suit it, what it must be): the one source
#: of these rules, for the samplers below and ``SimulationConfig``.
#: Uniform reads none: a value it ignored would split one run's cache key.
_PARAM_RULES = {
    "uniform": (lambda p: p == 1.0, "uniform locality takes no parameter"),
    "exponential": (lambda p: p > 0, "mean distance must be positive"),
    "powerlaw": (lambda p: p > 1, "alpha must exceed 1 for a finite mean"),
    "hotspot": (lambda p: 0 < p <= 1, "hot fraction must be in (0, 1]"),
}


def check_param(model: str, value: float) -> None:
    """Raise ``ValueError`` unless *value* suits locality *model*."""
    suits, rule = _PARAM_RULES[model]
    if not suits(value):
        raise ValueError(f"{rule}, got {value:g}")


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
        check_param("exponential", mean_distance)
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
        check_param("powerlaw", alpha)
        self.alpha = alpha

    def _sample_distance(self, size: int, rng: np.random.Generator) -> np.ndarray:
        d = np.floor(rng.pareto(self.alpha, size=size) + 1.0)
        return d.astype(np.int64)

    def __repr__(self) -> str:
        return f"PowerLawLocality(alpha={self.alpha})"


class HotspotLocality:
    """Mix of hot-node traffic and exponential background locality.

    Parameters
    ----------
    topology:
        The mesh/torus the destinations live on.
    hot_nodes:
        Node ids receiving the concentrated traffic.
    hot_fraction:
        Probability that a request targets a hot node.
    background_mean_distance:
        Mean hop distance of the non-hot-spot traffic.
    """

    def __init__(
        self,
        topology,
        hot_nodes: Sequence[int],
        hot_fraction: float = 0.3,
        background_mean_distance: float = 1.0,
    ):
        check_param("hotspot", hot_fraction)
        hot = np.asarray(hot_nodes, dtype=np.int64)
        if hot.size == 0:
            raise ValueError("need at least one hot node")
        if np.any((hot < 0) | (hot >= topology.num_nodes)):
            raise ValueError("hot node id out of range")
        self.topology = topology
        self.hot_nodes = hot
        self.hot_fraction = hot_fraction
        self._background = ExponentialLocality(
            topology, mean_distance=background_mean_distance
        )

    def sample(self, src: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        src = np.asarray(src, dtype=np.int64)
        dest = self._background.sample(src, rng)
        to_hot = rng.random(src.size) < self.hot_fraction
        if to_hot.any():
            picks = self.hot_nodes[
                rng.integers(0, self.hot_nodes.size, size=int(to_hot.sum()))
            ]
            dest[to_hot] = picks
            # a hot node's own hot-directed traffic goes to another hot
            # node, or stays background if it is the only one
            self_hit = to_hot & (dest == src)
            if self_hit.any() and self.hot_nodes.size > 1:
                idx = np.flatnonzero(self_hit)
                for i in idx:
                    others = self.hot_nodes[self.hot_nodes != src[i]]
                    dest[i] = others[rng.integers(0, others.size)]
            elif self_hit.any():
                dest[self_hit] = self._background.sample(src[self_hit], rng)
        return dest

    def __repr__(self) -> str:
        return (
            f"HotspotLocality(hot={self.hot_nodes.tolist()}, "
            f"fraction={self.hot_fraction})"
        )


def _central_hotspots(topology, hot_fraction: float) -> HotspotLocality:
    """§7's hot set on a 2D grid: the two centre nodes on the diagonal
    (27 and 36 on 8x8), hit with probability *hot_fraction*."""
    if not getattr(topology, "grid2d", False):
        raise ValueError(
            f"hotspot locality needs a 2D grid topology (mesh or torus), "
            f"got {topology!r}"
        )
    w, h = topology.width, topology.height
    hot = [topology.node_at(w // 2 - 1, h // 2 - 1), topology.central_node()]
    return HotspotLocality(topology, hot, hot_fraction=hot_fraction)


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
    "hotspot": _central_hotspots,
}

LOCALITY_NAMES = tuple(LOCALITY_MODELS)
