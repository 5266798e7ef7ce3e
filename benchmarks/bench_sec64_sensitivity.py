"""§6.4: sensitivity to the mechanism's parameters.

The paper reports performance is sensitive to alpha_throt (optimum at
0.9; >1.0 over-throttles, <0.7 under-throttles), to gamma_throt
(optimum 0.75), and to the epoch length (1k slightly better, 1M far
worse).  The bench sweeps each around the paper's optimum on congested
workloads and checks the paper's chosen value is competitive.
"""

import functools

from conftest import once
from repro.config import SimulationConfig
from repro.control import CentralController, ControlParams
from repro.experiments import (
    format_table,
    paper_vs_measured,
    scaled_cycles,
)
from repro.rng import child_rng
from repro.sim.simulator import Simulator
from repro.traffic.workloads import make_workload_batch


@functools.lru_cache(maxsize=1)
def _workloads():
    rng = child_rng(31, "sensitivity")
    return tuple(make_workload_batch(3, 16, rng, categories=["H", "HM", "HM"]))


def _throughput(params: ControlParams) -> float:
    cycles = scaled_cycles(5000)
    total = 0.0
    for i, wl in enumerate(_workloads()):
        # Custom ControlParams have no recipe: build the controller here.
        config = SimulationConfig(
            wl, seed=40 + i, epoch=params.epoch,
            controller=CentralController(params),
        )
        total += Simulator(config).run(cycles).system_throughput
    return total


def test_sec64_alpha_throttle_sensitivity(benchmark, report):
    def run():
        rows = []
        for alpha in (0.3, 0.9, 2.0):
            params = ControlParams(epoch=1000).scaled(alpha_throt=alpha)
            rows.append((alpha, _throughput(params)))
        return rows

    rows = once(benchmark, run)
    by_alpha = dict(rows)
    best = max(by_alpha.values())
    ok = by_alpha[0.9] >= 0.97 * best
    report(
        "sec64_alpha",
        paper_vs_measured(
            "§6.4: sensitivity to alpha_throt",
            [("paper's alpha_throt=0.9 is near-optimal", "optimum at 0.9",
              f"{by_alpha[0.9]:.2f} vs best {best:.2f}", ok)],
        )
        + format_table(["alpha_throt", "sum throughput"], rows),
    )
    assert ok


def test_sec64_gamma_throttle_sensitivity(benchmark, report):
    def run():
        rows = []
        for gamma in (0.5, 0.75, 0.95):
            params = ControlParams(epoch=1000).scaled(gamma_throt=gamma)
            rows.append((gamma, _throughput(params)))
        return rows

    rows = once(benchmark, run)
    by_gamma = dict(rows)
    best = max(by_gamma.values())
    ok = by_gamma[0.75] >= 0.95 * best
    report(
        "sec64_gamma",
        paper_vs_measured(
            "§6.4: sensitivity to gamma_throt (throttle-rate cap)",
            [("paper's gamma_throt=0.75 competitive", "optimum at 0.75",
              f"{by_gamma[0.75]:.2f} vs best {best:.2f}", ok)],
        )
        + format_table(["gamma_throt", "sum throughput"], rows),
    )
    assert ok


def test_sec64_epoch_sensitivity(benchmark, report):
    """Short epochs stay responsive; very long ones miss phase changes."""

    def run():
        rows = []
        for epoch in (500, 1000, 20_000):
            params = ControlParams(epoch=epoch)
            rows.append((epoch, _throughput(params)))
        return rows

    rows = once(benchmark, run)
    by_epoch = dict(rows)
    responsive = max(by_epoch[500], by_epoch[1000])
    # An epoch longer than the whole run degenerates to no control.
    ok = responsive >= by_epoch[20_000] * 0.98
    report(
        "sec64_epoch",
        paper_vs_measured(
            "§6.4: sensitivity to the throttling epoch",
            [("responsive epochs match or beat an unresponsive one",
              "1M-cycle epoch much worse",
              f"{responsive:.2f} vs {by_epoch[20_000]:.2f}", ok)],
        )
        + format_table(["epoch (cycles)", "sum throughput"], rows),
    )
    assert ok
