"""Table 2: the simulated system's parameters.

Asserts the default configuration reproduces the paper's system table
and that the simulated pipeline honors it (router+link latency visible
in an empty network's delivery time).
"""

import numpy as np

from conftest import once
from repro.experiments import paper_vs_measured
from repro import Mesh2D, SimulationConfig, make_homogeneous_workload
from repro.network import DeflectFlowControl, RouterEngine


def test_table2_parameters(benchmark, report):
    def run():
        cfg = SimulationConfig(make_homogeneous_workload("mcf", 16))
        net = RouterEngine(Mesh2D(4), DeflectFlowControl(), hop_latency=cfg.hop_latency)
        net.enqueue_requests(np.array([0]), np.array([3]), 1, cycle=0)
        delivered_at = None
        for c in range(30):
            ej = net.step(c)
            if ej.node.size:
                delivered_at = c
                break
        return cfg, delivered_at

    cfg, delivered_at = once(benchmark, run)
    rows = [
        ("topology", "2D mesh", cfg.topology, cfg.topology == "mesh"),
        ("routing", "FLIT-BLESS, Oldest-First",
         f"bless/{cfg.arbitration}", cfg.arbitration == "oldest_first"),
        ("router latency", "2 cycles", str(cfg.router_latency),
         cfg.router_latency == 2),
        ("link latency", "1 cycle", str(cfg.link_latency),
         cfg.link_latency == 1),
        ("issue width", "3 insns/cycle", str(cfg.issue_width),
         cfg.issue_width == 3),
        ("instruction window", "128", str(cfg.window_size),
         cfg.window_size == 128),
        ("cache block / flit", "32B -> 2 data flits", str(cfg.reply_flits),
         cfg.reply_flits == 2),
        ("buffered VCs x depth", "4 x 4 = 16 flits/input",
         str(cfg.buffer_capacity), cfg.buffer_capacity == 16),
        ("3 hops, empty net", "9 cycles", str(delivered_at),
         delivered_at == 9),
    ]
    report(
        "table2",
        paper_vs_measured("Table 2: system parameters", rows),
    )
    assert all(r[3] for r in rows)
