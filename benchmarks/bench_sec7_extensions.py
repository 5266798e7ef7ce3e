"""§7 ("Discussion") extensions: hot-spot traffic and explicit fairness.

The paper observes that (a) regional communication creates utilization
hot-spots where source throttling "can provide small gains ... but
traffic engineering around the hot-spot is likely to provide even
greater gains", and (b) its controller "has no explicit fairness
target", proposing an application-aware fairness controller as future
work.  These benchmarks exercise the library's implementations of both.
"""

import numpy as np

from conftest import once
from repro import HotspotLocality, Mesh2D
from repro.config import SimulationConfig
from repro.control import (
    CentralController,
    ControlParams,
    FairCentralController,
    NoController,
)
from repro.experiments import (
    alone_ipc,
    format_table,
    paper_vs_measured,
    scaled_cycles,
)
from repro.metrics import max_slowdown, weighted_speedup
from repro.rng import child_rng
from repro.sim.simulator import Simulator
from repro.traffic.workloads import make_workload_batch


def test_sec7_hotspot_throttling_gains_are_small(benchmark, report):
    """Throttling helps less against a hot-spot than against uniform
    congestion: the bottleneck is one node's service capacity, which
    admission control cannot add."""

    def run():
        rng = child_rng(70, "hotspot")
        wl = make_workload_batch(1, 64, rng, categories=["H"])[0]
        cycles = scaled_cycles(6000)
        out = {}
        for kind in ("spread", "hotspot"):
            if kind == "spread":
                loc_kw = dict(locality="exponential", locality_param=1.0)
            else:
                loc = HotspotLocality(
                    Mesh2D(8), hot_nodes=[27, 36], hot_fraction=0.35,
                    background_mean_distance=1.0,
                )
                loc_kw = dict(locality=loc)
            for mode, controller in (
                ("baseline", NoController()),
                ("throttled", CentralController(ControlParams(epoch=1000))),
            ):
                cfg = SimulationConfig(
                    wl, seed=7, epoch=1000, controller=controller, **loc_kw
                )
                out[(kind, mode)] = Simulator(cfg).run(cycles)
        return out

    out = once(benchmark, run)
    gain_spread = (
        out[("spread", "throttled")].system_throughput
        / out[("spread", "baseline")].system_throughput
        - 1
    )
    gain_hot = (
        out[("hotspot", "throttled")].system_throughput
        / out[("hotspot", "baseline")].system_throughput
        - 1
    )
    rows = [
        (kind, mode, out[(kind, mode)].system_throughput,
         out[(kind, mode)].network_utilization)
        for kind in ("spread", "hotspot") for mode in ("baseline", "throttled")
    ]
    claims = [
        ("hot-spot collapses throughput vs spread traffic", "hot-spots form",
         f"{out[('hotspot', 'baseline')].system_throughput:.1f} vs "
         f"{out[('spread', 'baseline')].system_throughput:.1f}",
         out[("hotspot", "baseline")].system_throughput
         < 0.8 * out[("spread", "baseline")].system_throughput),
        ("throttling gains on hot-spots smaller than on spread congestion",
         "small gains; traffic engineering needed",
         f"{100*gain_hot:+.1f}% vs {100*gain_spread:+.1f}%",
         gain_hot < gain_spread),
    ]
    report(
        "sec7_hotspot",
        paper_vs_measured("§7: source throttling under hot-spot traffic", claims)
        + format_table(["traffic", "controller", "sys throughput", "util"], rows),
    )
    assert all(c[3] for c in claims)


def test_sec7_fairness_controller(benchmark, report):
    """The explicit-fairness variant trades a little throughput for a
    better worst-case slowdown and at-least-comparable weighted speedup."""

    def run():
        rng = child_rng(71, "fairness")
        workloads = make_workload_batch(3, 16, rng, categories=["HM", "HML", "H"])
        cycles = scaled_cycles(6000)
        alones = alone_ipc(workloads, cycles=scaled_cycles(2000))
        rows = []
        for i, (wl, alone) in enumerate(zip(workloads, alones)):
            res = {}
            for mode, controller in (
                ("paper", CentralController(ControlParams(epoch=1000))),
                ("fair", FairCentralController(
                    ControlParams(epoch=1000), max_slowdown=2.5)),
            ):
                cfg = SimulationConfig(wl, seed=30 + i, epoch=1000,
                                       controller=controller)
                res[mode] = Simulator(cfg).run(cycles)
            rows.append(
                (
                    wl.category,
                    res["paper"].system_throughput,
                    res["fair"].system_throughput,
                    max_slowdown(res["paper"].ipc, alone),
                    max_slowdown(res["fair"].ipc, alone),
                    weighted_speedup(res["paper"].ipc, alone),
                    weighted_speedup(res["fair"].ipc, alone),
                )
            )
        return rows

    rows = once(benchmark, run)
    ms_paper = np.mean([r[3] for r in rows])
    ms_fair = np.mean([r[4] for r in rows])
    tp_paper = sum(r[1] for r in rows)
    tp_fair = sum(r[2] for r in rows)
    claims = [
        ("fairness cap reduces worst-case slowdown", "explicit target (§7)",
         f"{ms_paper:.2f} -> {ms_fair:.2f}", ms_fair <= ms_paper * 1.02),
        ("throughput cost of the fairness cap is small", "<10%",
         f"{100*(tp_fair/tp_paper-1):+.1f}%", tp_fair > 0.9 * tp_paper),
    ]
    report(
        "sec7_fairness",
        paper_vs_measured("§7: explicit fairness controller", claims)
        + format_table(
            ["category", "paper tput", "fair tput",
             "paper maxSD", "fair maxSD", "paper WS", "fair WS"],
            rows,
        ),
    )
    assert all(c[3] for c in claims)
