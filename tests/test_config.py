"""Unit tests for SimulationConfig (Table 2 defaults and validation)."""

import pytest

from repro import SimulationConfig, make_homogeneous_workload
from repro.control import NoController


def cfg(n=16, **kw):
    return SimulationConfig(make_homogeneous_workload("mcf", n), **kw)


class TestTable2Defaults:
    def test_router_and_link_latency(self):
        c = cfg()
        assert c.router_latency == 2
        assert c.link_latency == 1
        assert c.hop_latency == 3

    def test_core_model(self):
        c = cfg()
        assert c.issue_width == 3
        assert c.window_size == 128

    def test_cache_block_two_reply_flits(self):
        """32-byte blocks over 128-bit flits -> 2 data flits."""
        assert cfg().reply_flits == 2

    def test_buffered_router_16_flits_per_input(self):
        """4 VCs x 4 flits of buffering per VC."""
        assert cfg().buffer_capacity == 16

    def test_default_network_is_bless(self):
        c = cfg()
        assert c.network == "bless"
        assert c.arbitration == "oldest_first"

    def test_default_controller_is_none(self):
        assert isinstance(cfg().controller, NoController)


class TestValidation:
    def test_square_width_inferred(self):
        assert cfg(64).width == 8
        assert cfg(64).height == 8

    def test_non_square_needs_dimensions(self):
        with pytest.raises(ValueError):
            cfg(12)
        c = cfg(12, width=4, height=3)
        assert c.num_nodes == 12

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(ValueError):
            cfg(16, width=4, height=5)

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            cfg(topology="ring")

    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError):
            cfg(network="wormhole")

    def test_bad_epoch_rejected(self):
        with pytest.raises(ValueError):
            cfg(epoch=0)

    @pytest.mark.parametrize("network", ["bless", "buffered"])
    def test_buffer_capacity_below_one_rejected_by_name(self, network):
        """Whatever the network: the field is hashed into the cache key."""
        with pytest.raises(ValueError, match="buffer_capacity must be >= 1"):
            cfg(network=network, buffer_capacity=0)
        assert cfg(network=network, buffer_capacity=1).buffer_capacity == 1

    def test_with_override(self):
        base = cfg()
        other = base.with_(network="buffered", seed=9)
        assert other.network == "buffered"
        assert other.seed == 9
        assert base.network == "bless"
        assert other.workload is base.workload
