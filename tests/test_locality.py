"""Unit tests for the data-locality models (§3.2)."""

import numpy as np
import pytest

from repro import Mesh2D, Torus2D
from repro.topology.zoo import graph_mesh2d
from repro.traffic.locality import (
    LOCALITY_MODELS,
    ExponentialLocality,
    PowerLawLocality,
    UniformStriping,
)


def sample_distances(locality, topo, n=20_000, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, topo.num_nodes, n)
    dest = locality.sample(src, rng)
    return topo.distance(src, dest), src, dest


class TestUniformStriping:
    def test_never_self(self, mesh8):
        loc = UniformStriping(mesh8)
        _, src, dest = sample_distances(loc, mesh8)
        assert (src != dest).all()

    def test_destinations_cover_whole_mesh(self, mesh4):
        loc = UniformStriping(mesh4)
        rng = np.random.default_rng(1)
        dest = loc.sample(np.zeros(5000, dtype=np.int64), rng)
        assert set(dest.tolist()) == set(range(1, 16))

    def test_destinations_approximately_uniform(self, mesh4):
        loc = UniformStriping(mesh4)
        rng = np.random.default_rng(2)
        dest = loc.sample(np.zeros(30_000, dtype=np.int64), rng)
        counts = np.bincount(dest, minlength=16)[1:]
        assert counts.min() > 0.8 * counts.mean()

    def test_mean_distance_matches_enumeration(self, mesh4):
        loc = UniformStriping(mesh4)
        d, _, _ = sample_distances(loc, mesh4, n=40_000)
        assert d.mean() == pytest.approx(loc.mean_distance(), rel=0.05)

    def test_mean_distance_grows_with_size(self):
        small = UniformStriping(Mesh2D(4)).mean_distance()
        large = UniformStriping(Mesh2D(16)).mean_distance()
        assert large > 3 * small


class TestExponentialLocality:
    def test_rejects_bad_mean(self, mesh8):
        with pytest.raises(ValueError):
            ExponentialLocality(mesh8, mean_distance=0)

    def test_never_self(self, mesh8):
        loc = ExponentialLocality(mesh8, mean_distance=1.0)
        _, src, dest = sample_distances(loc, mesh8)
        assert (src != dest).all()

    def test_paper_percentiles_lambda_one(self):
        """lambda=1: ~95% of requests within 3 hops, ~99% within 5 (§3.2)."""
        topo = Mesh2D(64)
        loc = ExponentialLocality(topo, mean_distance=1.0)
        d, _, _ = sample_distances(loc, topo, n=50_000)
        assert (d <= 3).mean() > 0.93
        assert (d <= 5).mean() > 0.985

    def test_mean_distance_tracks_parameter(self):
        topo = Mesh2D(32)
        for mean in (1.0, 2.0, 4.0):
            loc = ExponentialLocality(topo, mean_distance=mean)
            d, _, _ = sample_distances(loc, topo, n=30_000)
            # discretization (round, min 1) biases small means upward
            assert mean * 0.8 < d.mean() < mean + 0.6

    def test_locality_much_tighter_than_striping(self):
        topo = Mesh2D(16)
        exp_d, _, _ = sample_distances(ExponentialLocality(topo, 1.0), topo)
        uni_d, _, _ = sample_distances(UniformStriping(topo), topo)
        assert exp_d.mean() < uni_d.mean() / 3

    def test_works_on_torus(self):
        topo = Torus2D(8)
        loc = ExponentialLocality(topo, mean_distance=1.0)
        d, src, dest = sample_distances(loc, topo)
        assert (src != dest).all()
        assert d.mean() < 2.5

    def test_edge_nodes_get_valid_destinations(self, mesh4):
        loc = ExponentialLocality(mesh4, mean_distance=3.0)
        rng = np.random.default_rng(3)
        src = np.zeros(5000, dtype=np.int64)  # corner node
        dest = loc.sample(src, rng)
        assert (dest >= 0).all() and (dest < 16).all()
        assert (dest != 0).all()


class TestPowerLawLocality:
    def test_rejects_bad_alpha(self, mesh8):
        with pytest.raises(ValueError):
            PowerLawLocality(mesh8, alpha=1.0)

    def test_never_self(self, mesh8):
        loc = PowerLawLocality(mesh8, alpha=2.5)
        _, src, dest = sample_distances(loc, mesh8)
        assert (src != dest).all()

    def test_heavier_tail_than_exponential(self):
        topo = Mesh2D(32)
        pl_d, _, _ = sample_distances(PowerLawLocality(topo, alpha=2.0), topo)
        ex_d, _, _ = sample_distances(ExponentialLocality(topo, 1.0), topo)
        assert (pl_d > 6).mean() > (ex_d > 6).mean()

    def test_mostly_local(self):
        topo = Mesh2D(32)
        d, _, _ = sample_distances(PowerLawLocality(topo, alpha=2.5), topo)
        assert (d <= 3).mean() > 0.8


class TestHotspotEntry:
    """``locality="hotspot"``: §7's hot set, ``locality_param`` its share."""

    def test_hot_set_is_the_two_centre_nodes(self, mesh8):
        loc = LOCALITY_MODELS["hotspot"](mesh8, 0.35)
        assert loc.hot_nodes.tolist() == [27, 36]
        assert loc.hot_fraction == 0.35
        torus = LOCALITY_MODELS["hotspot"](Torus2D(4), 0.5)
        assert torus.hot_nodes.tolist() == [5, 10]

    def test_a_topology_without_a_2d_grid_is_a_named_error(self):
        with pytest.raises(ValueError, match="hotspot locality needs a 2D"):
            LOCALITY_MODELS["hotspot"](graph_mesh2d(8, 8), 0.35)

    def test_hot_fraction_is_checked(self, mesh8):
        with pytest.raises(ValueError, match="hot fraction"):
            LOCALITY_MODELS["hotspot"](mesh8, 1.5)


class TestRepr:
    def test_reprs_are_informative(self, mesh4):
        assert "1.5" in repr(ExponentialLocality(mesh4, 1.5))
        assert "2.5" in repr(PowerLawLocality(mesh4, 2.5))
        assert "Uniform" in repr(UniformStriping(mesh4))
