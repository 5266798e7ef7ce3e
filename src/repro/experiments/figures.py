"""The paper's evaluation as data: one registry entry per report.

An entry (:class:`Figure`) declares, once, what EXPERIMENTS.md and
``python -m repro figure`` need about one paper-vs-measured report:

- ``name``: what ``python -m repro figure NAME`` selects;
- ``label``: its ``## label`` section heading in EXPERIMENTS.md;
- ``run(scale, harness)``: the simulations, every cycle budget through
  :func:`~repro.experiments.sweeps.scaled_cycles` and every spec grid
  through the invocation's :class:`~repro.experiments.sweeps.Harness`,
  so a spec two reports need executes once;
- ``render(data)``: ``(title, claims, table[, note])``, each claim row
  ``(quantity, paper, measured, holds)`` and ``table`` a
  ``(headers, rows)`` pair or ``None``.

A report fails if and only if one of its claim rows does not hold.
:data:`FIGURES` is in EXPERIMENTS.md order.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.config import SimulationConfig
from repro.control import mechanism_hardware_cost
from repro.experiments.sweeps import (
    Harness,
    alone_ipc,
    locality_sweep,
    pairwise_ipf_grid,
    scaled_cycles,
    scaling_sweep,
    static_throttle_sweep,
    workload_batch_comparison,
)
from repro.experiments.tables import format_table, paper_vs_measured
from repro.guardrails import FaultConfig
from repro.harness import JobSpec
from repro.metrics import max_slowdown, weighted_speedup
from repro.network import DeflectFlowControl, RouterEngine
from repro.rng import child_rng
from repro.topology import Mesh2D
from repro.traffic.applications import (
    APPLICATION_CATALOG,
    ApplicationBehaviorArray,
)
from repro.traffic.workloads import (
    make_checkerboard_workload,
    make_homogeneous_workload,
    make_workload_batch,
)

__all__ = ["FIGURES", "Figure", "fenced_blocks", "rewrite_markdown", "select"]


class Figure(NamedTuple):
    """One report of the paper's evaluation (module docstring)."""

    name: str
    label: str
    run: Callable[[float, Harness], object]
    render: Callable[[object], tuple]

    def report(self, data) -> Tuple[str, list]:
        """The report text for *data* and its claim rows that do not hold."""
        title, claims, table, *note = self.render(data)
        text = paper_vs_measured(title, claims)
        if table is not None:
            text += format_table(*table)
        return text + "".join(note), [claim for claim in claims if not claim[3]]


#: Every report, in EXPERIMENTS.md order.
FIGURES: List[Figure] = []


def figure(name: str, label: str, run):
    """Register the decorated renderer as report *name* under *label*."""
    def register(render):
        FIGURES.append(Figure(name, label, run, render))
        return render
    return register


def select(names: Sequence[str]) -> List[Figure]:
    """The figures *names* picks (every one when empty), in registry
    order; ``ValueError`` naming any unknown name."""
    known = [f.name for f in FIGURES]
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(
            f"unknown figure {', '.join(unknown)} (known: {', '.join(known)})"
        )
    return [f for f in FIGURES if not names or f.name in names]


# ----------------------------------------------------------------------
# Fig 2: congestion at the network and application level (4x4 BLESS)
# ----------------------------------------------------------------------
def _load_spectrum(scale, harness):
    """A spread of 4x4 workloads spanning low to high utilization."""
    workloads = make_workload_batch(14, 16, child_rng(42, "fig2-workloads"))
    cycles = scaled_cycles(5000, scale)
    specs = [
        JobSpec.for_workload(w, cycles, epoch=1000, seed=3) for w in workloads
    ]
    return harness.run(specs, "fig2-load-spectrum")


@figure("fig2a", "Fig 2(a) — network latency vs utilization", _load_spectrum)
def _fig2a(results):
    rows = sorted((r.network_utilization, r.avg_net_latency) for r in results)
    ratio = (np.mean([lat for _, lat in rows[-4:]])
             / np.mean([lat for _, lat in rows[:4]]))
    peak = max(lat for _, lat in rows)
    return (
        "Fig 2(a): network latency vs utilization (4x4 BLESS)",
        [
            ("latency ratio (congested / light)", "< ~2.5x", f"{ratio:.2f}x",
             ratio < 2.5),
            ("max average latency (cycles)", "< ~50", f"{peak:.1f}",
             peak < 50),
        ],
        (["utilization", "latency"], rows),
    )


@figure("fig2b", "Fig 2(b) — starvation vs utilization", _load_spectrum)
def _fig2b(results):
    rows = sorted((r.network_utilization, r.mean_starvation) for r in results)
    utils = np.array([u for u, _ in rows])
    starv = np.array([s for _, s in rows])
    light = utils < np.median(utils)
    # superlinear: starvation grows by a larger factor than utilization
    superlinear = (
        starv[~light].mean() / max(starv[light].mean(), 1e-6)
        > utils[~light].mean() / max(utils[light].mean(), 1e-6)
    )
    peak = float(starv.max())
    return (
        "Fig 2(b): starvation rate vs utilization (4x4 BLESS)",
        [
            ("starvation grows superlinearly", "yes", str(superlinear),
             superlinear),
            ("peak starvation at high load", "~0.3+", f"{peak:.2f}",
             peak > 0.15),
        ],
        (["utilization", "starvation"], rows),
    )


def _static_sweep(scale, harness):
    """Fig 2(c): one network-heavy 4x4 workload, all nodes throttled."""
    workload = make_workload_batch(
        1, 16, child_rng(42, "fig2c"), categories=["H"]
    )[0]
    rates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    return static_throttle_sweep(
        workload, rates, scaled_cycles(6000, scale), epoch=1000, seed=3,
        harness=harness,
    )


@figure("fig2c", "Fig 2(c) — static throttling sweep", _static_sweep)
def _fig2c(results):
    rows = [(rate, r.network_utilization, r.system_throughput)
            for rate, r in results]
    best_rate, _, best = max(rows, key=lambda r: r[2])
    gain = best / rows[0][2] - 1
    max_util = max(r[1] for r in rows)
    return (
        "Fig 2(c): static throttling sweep (network-heavy 4x4 workload)",
        [
            ("best throughput gain over unthrottled", "~14%",
             f"{100*gain:.1f}%", gain > 0.01),
            ("optimal throttling rate", "mid-range (not 0, not max)",
             f"{best_rate}", 0.0 < best_rate < 0.9),
            ("utilization never reaches 1 (self-throttling)", "yes",
             f"max {max_util:.2f}", max_util < 1.0),
        ],
        (["throttle rate", "utilization", "sys throughput"], rows),
    )


# ----------------------------------------------------------------------
# Fig 3 and §3.2: baseline BLESS scalability, 16 to 4096 cores
# ----------------------------------------------------------------------
#: Figs 3 and 13-16: node counts and their scale-1 cycle budgets (large
#: networks run shorter).
_SIZES = (16, 64, 256, 1024, 4096)
_SIZE_CYCLES = {16: 8000, 64: 8000, 256: 6000, 1024: 4000, 4096: 3000}


def _cycles_for(scale):
    return lambda size: scaled_cycles(_SIZE_CYCLES[size], scale)


def _bless_scaling(scale, harness):
    return scaling_sweep(
        _SIZES, _cycles_for(scale), networks=("bless",), harness=harness
    )["bless"]


@figure("fig3a", "Fig 3(a) — latency vs CMP size", _bless_scaling)
def _fig3a(results):
    rows = [(n, r.avg_net_latency) for n, r in results]
    growth = rows[-1][1] / rows[0][1]
    return (
        "Fig 3(a): average network latency vs CMP size (BLESS, locality)",
        [
            ("latency grows with size", ">2x from 16 to 4096",
             f"{growth:.1f}x", growth > 2.0),
            ("4096-core latency", "~60 cycles", f"{rows[-1][1]:.1f}",
             20 < rows[-1][1] < 100),
        ],
        (["cores", "latency (cycles)"], rows),
    )


@figure("fig3b", "Fig 3(b) — starvation vs CMP size", _bless_scaling)
def _fig3b(results):
    rows = [(n, r.mean_starvation) for n, r in results]
    first, last = rows[0][1], rows[-1][1]
    return (
        "Fig 3(b): starvation rate vs CMP size (BLESS, locality)",
        [
            ("starvation at 4096 cores", "~0.4", f"{last:.2f}",
             0.25 < last < 0.6),
            ("grows with size", ">=2x from 16 to 4096",
             f"{last/max(first,1e-6):.1f}x", last > 1.5 * first),
        ],
        (["cores", "starvation rate"], rows),
    )


@figure("fig3c", "Fig 3(c) — per-node throughput vs CMP size",
        _bless_scaling)
def _fig3c(results):
    rows = [(n, r.throughput_per_node) for n, r in results]
    drop = 1 - rows[-1][1] / rows[0][1]
    return (
        "Fig 3(c): per-node throughput vs CMP size (BLESS, locality)",
        [("IPC/node drops with scale", "monotone-ish decline",
          f"{-100*drop:+.0f}% at 4096", drop > 0.2)],
        (["cores", "IPC/node"], rows),
    )


def _striping(scale, harness):
    """§3.2: the 4x4 and 64x64 points under uniform data striping."""
    sizes = (16, 4096)
    specs = [
        JobSpec.for_workload(
            make_workload_batch(
                1, size, child_rng(9, f"striping-{size}"), categories=["H"]
            )[0],
            scaled_cycles(_SIZE_CYCLES[size], scale), epoch=1200, seed=2,
            locality="uniform",
        )
        for size in sizes
    ]
    return list(zip(sizes, harness.run(specs, "striping")))


@figure("sec32_striping", "§3.2 — uniform striping collapse", _striping)
def _sec32(results):
    rows = [(n, r.throughput_per_node) for n, r in results]
    drop = 1 - rows[1][1] / rows[0][1]
    return (
        "§3.2: uniform striping, per-node throughput 4x4 -> 64x64",
        [("per-node throughput drop", "-73%", f"{-100*drop:+.0f}%",
          drop > 0.5)],
        (["cores", "IPC/node"], rows),
    )


# ----------------------------------------------------------------------
# Fig 4 - Table 2
# ----------------------------------------------------------------------
def _locality(scale, harness):
    """Fig 4: mean hop distance 1/lambda from 1 to 16 on a 64x64 mesh."""
    return locality_sweep(
        (1.0, 2.0, 4.0, 8.0, 16.0), 4096, scaled_cycles(2500, scale),
        epoch=1200, seed=3, harness=harness,
    )


@figure("fig4", "Fig 4 — locality sensitivity (64x64)", _locality)
def _fig4(results):
    rows = [(d, r.throughput_per_node) for d, r in results]
    drop = 1 - rows[-1][1] / rows[0][1]
    monotone = all(a[1] >= b[1] * 0.92 for a, b in zip(rows, rows[1:]))
    return (
        "Fig 4: per-node throughput vs average hop distance (64x64)",
        [
            ("throughput highly sensitive to locality",
             "large drop 1 -> 16 hops", f"{-100*drop:+.0f}%", drop > 0.3),
            ("roughly monotone decline", "yes", str(monotone), monotone),
        ],
        (["avg hop distance", "IPC/node"], rows),
    )


def _selective(scale, harness):
    """Fig 5 / §4: 8 mcf + 8 gromacs on a 4x4 mesh, each application
    statically throttled by 90% in turn."""
    wl = make_checkerboard_workload("mcf", "gromacs", 4)
    mcf = np.array([i for i, a in enumerate(wl.app_names) if a == "mcf"])
    gro = np.array([i for i, a in enumerate(wl.app_names) if a == "gromacs"])
    specs = [
        JobSpec.for_workload(wl, scaled_cycles(12_000, scale), epoch=1500,
                             seed=3, controller=recipe,
                             config={"phase_sigma": 0.2})
        for recipe in (("none",), ("static", 0.9, "gromacs"),
                       ("static", 0.9, "mcf"))
    ]
    return [
        (res.system_throughput, res.ipc[mcf].mean(), res.ipc[gro].mean())
        for res in harness.run(specs, "fig5")
    ]


@figure("fig5", "Fig 5 — selective throttling (mcf vs gromacs)", _selective)
def _fig5(rows):
    (b_sys, _, b_gro), (g_sys, _, _), (m_sys, _, m_gro) = rows
    sys_up_mcf = m_sys / b_sys - 1
    sys_dn_gro = g_sys / b_sys - 1
    gro_gain = m_gro / b_gro - 1
    labels = ("baseline", "throttle gromacs 90%", "throttle mcf 90%")
    return (
        "Fig 5: selectively throttling mcf vs gromacs (90%, 4x4)",
        [
            ("throttle mcf: system throughput", "+18%",
             f"{100*sys_up_mcf:+.1f}%", sys_up_mcf > 0.05),
            ("throttle gromacs: system throughput", "-9%",
             f"{100*sys_dn_gro:+.1f}%", sys_dn_gro < 0.0),
            ("throttle mcf: gromacs speeds up", "+25%",
             f"{100*gro_gain:+.1f}%", gro_gain > 0.10),
            ("higher-IPC app is NOT the right throttle target",
             "throttling gromacs hurts", "reproduced",
             sys_up_mcf > sys_dn_gro),
        ],
        (["configuration", "system", "mcf IPC", "gromacs IPC"],
         [(label, *row) for label, row in zip(labels, rows)]),
    )


def _phase_series(scale, harness):
    """Fig 6: per-epoch utilization of gromacs with and without phases."""
    wl = make_homogeneous_workload("gromacs", 16)
    specs = [
        JobSpec.for_workload(
            wl, scaled_cycles(12_000, scale), epoch=400, seed=6,
            config=dict(phase_sigma=sigma, phase_length=1500),
        )
        for sigma in (0.8, 0.0)
    ]
    return [res.epochs["utilization"] for res in harness.run(specs, "fig6")]


@figure("fig6", "Fig 6 — application phase behavior", _phase_series)
def _fig6(series):
    with_phases, without = series
    cov_with, cov_without = (
        float(s.std() / max(s.mean(), 1e-9)) for s in series
    )
    return (
        "Fig 6: temporal variation in injected traffic intensity",
        [
            ("traffic intensity varies over time with phases",
             "visible bursts", f"CoV={cov_with:.2f}", cov_with > 0.1),
            ("variation driven by the phase model",
             "flat without phases", f"CoV={cov_without:.2f}",
             cov_with > 2 * cov_without),
        ],
        (["epoch", "util (phases)", "util (no phases)"],
         [(i, float(a), float(b))
          for i, (a, b) in enumerate(zip(with_phases, without))][:20]),
    )


def _ipf_processes(scale, harness):
    """Table 1: each cataloged application's raw IPF process, sampled."""
    rng = np.random.default_rng(0)
    rows = []
    for name, spec in sorted(APPLICATION_CATALOG.items()):
        behavior = ApplicationBehaviorArray([spec], flits_per_miss=3,
                                            phase_sigma=0.0)
        ipf = behavior.sample_gap(np.zeros(40_000, dtype=np.int64), rng) / 3.0
        rows.append((name, spec.mean_ipf, float(ipf.mean())))
    return rows


@figure("table1_process", "Table 1 — application IPF processes",
        _ipf_processes)
def _table1_process(rows):
    # Applications whose mean miss gap approaches one instruction are
    # clipped by the physical floor (a core cannot miss more than once
    # per instruction); they sit slightly above their Table 1 mean.
    free = [(p, m) for _, p, m in rows if p * 3 >= 2.0]
    floored = [(p, m) for _, p, m in rows if p * 3 < 2.0]
    ok = all(abs(m - p) / p < 0.25 for p, m in free)
    floor_ok = all(m >= p for p, m in floored)
    return (
        "Table 1: application IPF processes vs paper means",
        [
            (f"{len(free)} unclipped applications within 25%", "yes",
             str(ok), ok),
            (f"{len(floored)} floor-limited apps (gap ~1 insn) biased up only",
             "expected", str(floor_ok), floor_ok),
        ],
        (["application", "paper IPF", "model IPF"], rows),
    )


#: Table 1 in simulation: representative applications across the
#: intensity range.
_REPRESENTATIVE = ("mcf", "milc", "gromacs", "bzip2")


def _ipf_in_simulation(scale, harness):
    specs = [
        JobSpec.for_workload(
            make_homogeneous_workload(name, 16), scaled_cycles(6000, scale),
            epoch=1000, seed=4, config={"phase_sigma": 0.0},
        )
        for name in _REPRESENTATIVE
    ]
    return [
        (name, APPLICATION_CATALOG[name].mean_ipf,
         float(np.median(res.ipf[np.isfinite(res.ipf)])))
        for name, res in zip(_REPRESENTATIVE,
                             harness.run(specs, "table1-insim"))
    ]


@figure("table1_insim", "Table 1 — IPF measured in simulation",
        _ipf_in_simulation)
def _table1_insim(rows):
    ok = all(0.4 * p < m < 2.5 * p for _, p, m in rows)
    return (
        "Table 1: measured in-simulation IPF (congested, homogeneous)",
        [("in-sim IPF tracks Table 1 despite congestion", "stable metric",
          str(ok), ok)],
        (["application", "paper IPF", "in-sim IPF"], rows),
    )


def _system_parameters(scale, harness):
    """Table 2: the default configuration, and one 3-hop delivery time in
    an empty network (router + link latency per hop)."""
    cfg = SimulationConfig(make_homogeneous_workload("mcf", 16))
    net = RouterEngine(Mesh2D(4), DeflectFlowControl(),
                       hop_latency=cfg.hop_latency)
    net.enqueue_requests(np.array([0]), np.array([3]), 1, cycle=0)
    for cycle in range(30):
        if net.step(cycle).node.size:
            return cfg, cycle
    return cfg, None


@figure("table2", "Table 2 — system parameters", _system_parameters)
def _table2(data):
    cfg, delivered_at = data
    return (
        "Table 2: system parameters",
        [
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
            ("cache block / flit", "32B -> 2 data flits",
             str(cfg.reply_flits), cfg.reply_flits == 2),
            ("buffered VCs x depth", "4 x 4 = 16 flits/input",
             str(cfg.buffer_capacity), cfg.buffer_capacity == 16),
            ("3 hops, empty net", "9 cycles", str(delivered_at),
             delivered_at == 9),
        ],
        None,
    )


# ----------------------------------------------------------------------
# Figs 7-10: the mechanism on small NoCs (4x4 and 8x8)
# ----------------------------------------------------------------------
def _batch_4x4(scale, harness):
    return workload_batch_comparison(
        14, 16, scaled_cycles(6000, scale), epoch=1000, seed=10,
        harness=harness,
    )


def _batches(scale, harness):
    """14 4x4 and 7 8x8 workloads, baseline vs mechanism."""
    return _batch_4x4(scale, harness) + workload_batch_comparison(
        7, 64, scaled_cycles(5000, scale), epoch=1000, seed=20,
        harness=harness,
    )


@figure("fig7", "Fig 7 — throughput improvement vs utilization", _batches)
def _fig7(rows):
    table = sorted(
        (r["baseline"].network_utilization, 100 * r["improvement"],
         r["category"], r["baseline"].num_nodes)
        for r in rows
    )
    congested = [r["improvement"] for r in rows
                 if r["baseline"].network_utilization > 0.6]
    light = [r["improvement"] for r in rows
             if r["baseline"].network_utilization < 0.3]
    max_gain = max(r["improvement"] for r in rows)
    avg_congested = float(np.mean(congested))
    avg_light = float(np.mean(light)) if light else 0.0
    return (
        "Fig 7: system-throughput improvement vs baseline utilization",
        [
            ("max improvement under congestion", "27.6%",
             f"{100*max_gain:.1f}%", max_gain > 0.08),
            ("average improvement, congested (util>0.6)", "14.7%",
             f"{100*avg_congested:.1f}%", avg_congested > 0.04),
            ("light workloads unaffected", "~0%",
             f"{100*avg_light:.1f}%", abs(avg_light) < 0.05),
        ],
        (["baseline util", "gain %", "category", "nodes"], table),
    )


@figure("fig8", "Fig 8 — improvement by workload category", _batches)
def _fig8(rows):
    by_cat = {}
    for r in rows:
        by_cat.setdefault(r["category"], []).append(100 * r["improvement"])
    heavy = [np.mean(by_cat.get(c, [0])) for c in ("H", "HM")]
    light = [np.mean(by_cat.get(c, [0])) for c in ("L", "ML")]
    ordering = min(heavy) > max(light) - 1.0
    low = np.mean(by_cat.get("L", [0]))
    return (
        "Fig 8: improvement breakdown by workload category",
        [
            ("H/HM categories gain the most", "highest avg gains",
             f"H/HM {heavy[0]:.1f}/{heavy[1]:.1f}% vs L/ML "
             f"{light[0]:.1f}/{light[1]:.1f}%", ordering),
            ("L category ~ no change", "~0%", f"{low:.1f}%", abs(low) < 5.0),
        ],
        (["category", "min %", "avg %", "max %"],
         [(cat, min(v), float(np.mean(v)), max(v))
          for cat, v in sorted(by_cat.items())]),
    )


@figure("fig9", "Fig 9 — starvation CDF, congested workloads", _batches)
def _fig9(rows):
    congested = [r for r in rows if r["baseline"].network_utilization > 0.6]
    # Admission (port) starvation is the congestion signal; the Algo-3
    # sigma additionally counts throttle-gate blocks by design, so the
    # CDF comparison uses port starvation on both sides.
    base = np.array([r["baseline"].mean_port_starvation for r in congested])
    mech = np.array([r["mechanism"].mean_port_starvation for r in congested])
    threshold = float(np.median(base))
    frac_base = float((base > threshold).mean())
    frac_mech = float((mech > threshold).mean())
    improved = float((mech < base).mean())
    return (
        "Fig 9: admission starvation in congested workloads (util > 0.6)",
        [
            ("mechanism shifts the starvation CDF left",
             "61% -> 36% above threshold",
             f"{100*frac_base:.0f}% -> {100*frac_mech:.0f}% above "
             f"sigma={threshold:.2f}", frac_mech < frac_base),
            ("workloads with reduced admission starvation", "most",
             f"{100*improved:.0f}%", improved > 0.5),
        ],
        (["workload", "baseline port sigma", "mechanism port sigma"],
         [(f"wl{i}", float(b), float(m))
          for i, (b, m) in enumerate(zip(base, mech))]),
    )


def _weighted_speedup(scale, harness):
    """Fig 7's 4x4 batch (the same specs) against each app's alone IPC."""
    rows = _batch_4x4(scale, harness)
    alones = alone_ipc([r["workload"] for r in rows],
                       cycles=scaled_cycles(2000, scale), harness=harness)
    return [
        (r, weighted_speedup(r["baseline"].ipc, alone),
         weighted_speedup(r["mechanism"].ipc, alone))
        for r, alone in zip(rows, alones)
    ]


@figure("fig10", "Fig 10 — weighted speedup", _weighted_speedup)
def _fig10(results):
    gains, table = [], []
    for r, ws_base, ws_mech in results:
        gain = 100 * (ws_mech / ws_base - 1) if ws_base > 0 else 0.0
        util = r["baseline"].network_utilization
        gains.append((util, gain))
        table.append((r["category"], util, ws_base, ws_mech, gain))
    congested = [g for u, g in gains if u > 0.6]
    max_gain = max(g for _, g in gains)
    median_congested = float(np.median(congested)) if congested else 0.0
    return (
        "Fig 10: weighted-speedup improvement (4x4)",
        [
            ("max WS improvement", "17.2%", f"{max_gain:.1f}%",
             max_gain > 5.0),
            ("throughput gains are not bought with gross unfairness",
             "WS does not collapse",
             f"median congested {median_congested:+.1f}%",
             median_congested > -8.0),
        ],
        (["category", "baseline util", "WS base", "WS mech", "gain %"],
         table),
    )


#: Figs 11/12: one application per IPF decade, as in the paper's
#: 1..10000 axes.
_PAIR_APPS = ("mcf", "tpcc", "bzip2", "povray")


def _pairwise(scale, harness):
    return pairwise_ipf_grid(
        _PAIR_APPS, scaled_cycles(5000, scale), epoch=1000, seed=4,
        harness=harness,
    )


@figure("fig11_12", "Figs 11/12 — pairwise IPF grid", _pairwise)
def _fig11_12(rows):
    def app(name):
        return f"{name}({APPLICATION_CATALOG[name].mean_ipf:g})"

    by_pair = {(r["app1"], r["app2"]): r for r in rows}
    both_light = by_pair["povray", "povray"]
    mixed = by_pair["mcf", "tpcc"]
    corner = by_pair["mcf", "povray"]
    heavy_util = np.mean([r["baseline_utilization"] for r in rows
                          if "mcf" in (r["app1"], r["app2"])])
    worst = min(r["improvement"] for r in rows)
    return (
        "Figs 11/12: pairwise IPF grid (4x4 checkerboard)",
        [
            ("both high-IPF: low utilization, no change (flat corner)",
             "~0% gain, util~0",
             f"{100*both_light['improvement']:.1f}% @ util "
             f"{both_light['baseline_utilization']:.2f}",
             abs(both_light["improvement"]) < 0.05
             and both_light["baseline_utilization"] < 0.1),
            ("low-IPF present: network congested (Fig 12)",
             "high utilization", f"util {heavy_util:.2f}", heavy_util > 0.5),
            ("heavy+moderate pairs benefit most from throttling",
             "large positive gain",
             f"mcf+tpcc {100*mixed['improvement']:+.1f}%",
             mixed["improvement"] > 0.05),
            ("no pair degraded catastrophically", ">= -10% everywhere",
             f"worst {100*worst:+.1f}%", worst > -0.10),
            ("extreme corner (mcf+povray) roughly neutral",
             "paper: small gain; level mismatch documented",
             f"{100*corner['improvement']:+.1f}%",
             corner["improvement"] > -0.12),
        ],
        (["app1 (IPF)", "app2 (IPF)", "gain %", "baseline util"],
         [(app(r["app1"]), app(r["app2"]), 100 * r["improvement"],
           r["baseline_utilization"]) for r in rows]),
    )


# ----------------------------------------------------------------------
# Figs 13-16 and §6.3: scalability with congestion control
# ----------------------------------------------------------------------
def _scaling(scale, harness):
    """BLESS, BLESS + the mechanism and buffered at every size."""
    return scaling_sweep(_SIZES, _cycles_for(scale), harness=harness)


def _by_variant(data, metric):
    """``{variant: [metric at each size]}`` of a scaling sweep."""
    return {name: [getattr(r, metric) for _, r in rows]
            for name, rows in data.items()}


def _variant_table(s):
    return (["cores", "BLESS", "BLESS-Throttling", "Buffered"],
            list(zip(_SIZES, s["bless"], s["bless-throttling"],
                     s["buffered"])))


@figure("fig13", "Fig 13 — per-node throughput with scale", _scaling)
def _fig13(data):
    s = _by_variant(data, "throughput_per_node")
    bless_drop = 1 - s["bless"][-1] / s["bless"][0]
    throt_drop = 1 - s["bless-throttling"][-1] / s["bless-throttling"][0]
    buf_drop = 1 - s["buffered"][-1] / s["buffered"][0]
    gain_4096 = s["bless-throttling"][-1] / s["bless"][-1] - 1
    return (
        "Fig 13: per-node throughput with scale",
        [
            ("baseline BLESS IPC/node degrades with size", "large drop",
             f"{-100*bless_drop:+.0f}%", bless_drop > 0.2),
            ("throttling flattens the per-node throughput curve",
             "essentially flat in the paper",
             f"{-100*throt_drop:+.0f}% (vs {-100*bless_drop:+.0f}% baseline)",
             throt_drop < bless_drop),
            ("buffered scales flat", "flat", f"{-100*buf_drop:+.0f}%",
             abs(buf_drop) < 0.15),
            ("throughput gain at 4096 cores", "~50%",
             f"{100*gain_4096:+.0f}%", gain_4096 > 0.15),
        ],
        _variant_table(s),
    )


@figure("fig14", "Fig 14 — network latency with scale", _scaling)
def _fig14(data):
    s = _by_variant(data, "avg_net_latency")
    bless, throt, buf = s["bless"], s["bless-throttling"], s["buffered"]
    return (
        "Fig 14: network latency with scale",
        [
            ("BLESS latency grows with scale", "up to ~100 cycles",
             f"{bless[-1]:.0f} @4096", bless[-1] > 1.5 * bless[0]),
            ("throttling keeps latency below baseline at scale", "yes",
             f"{throt[-1]:.0f} vs {bless[-1]:.0f}", throt[-1] < bless[-1]),
            ("buffered latency stays near-flat", "flat",
             f"{buf[-1]:.0f} @4096", buf[-1] < 1.5 * buf[0]),
        ],
        _variant_table(s),
    )


@figure("fig15", "Fig 15 — network utilization with scale", _scaling)
def _fig15(data):
    s = _by_variant(data, "network_utilization")
    bless, throt, buf = s["bless"], s["bless-throttling"], s["buffered"]
    return (
        "Fig 15: network utilization with scale",
        [
            ("baseline runs near saturation at scale", "~0.8+",
             f"{bless[-1]:.2f}", bless[-1] > 0.6),
            ("throttling lowers utilization (efficient point)",
             "below baseline", f"{throt[-1]:.2f}", throt[-1] < bless[-1]),
            ("buffered utilization lowest (no deflections)", "lowest",
             f"{buf[-1]:.2f}", buf[-1] < throt[-1]),
        ],
        _variant_table(s),
    )


@figure("fig16", "Fig 16 — power reduction", _scaling)
def _fig16(data):
    s = _by_variant(data, "power")
    vs_bless = [100 * t.reduction_vs(b)
                for t, b in zip(s["bless-throttling"], s["bless"])]
    vs_buf = [100 * t.reduction_vs(b)
              for t, b in zip(s["bless-throttling"], s["buffered"])]
    return (
        "Fig 16: power reduction from congestion control",
        [
            ("power reduction vs baseline BLESS at scale", "up to ~15%",
             f"{max(vs_bless):.1f}%", max(vs_bless) > 8.0),
            ("reductions substantial at large sizes", "largest at 4096",
             f"{vs_bless[-2]:.1f}% @1024, {vs_bless[-1]:.1f}% @4096",
             min(vs_bless[-2], vs_bless[-1]) > 6.0),
        ],
        (["cores", "% vs baseline BLESS", "% vs Buffered"],
         list(zip(_SIZES, vs_bless, vs_buf))),
        "\nNote: the paper also reports up to 19% reduction vs the buffered\n"
        "router; our buffered baseline runs at lower utilization than the\n"
        "paper's (closed-loop cores saturate at the MSHR limit first), so\n"
        "its power is lower and that margin does not reproduce (see\n"
        "EXPERIMENTS.md).",
    )


def _torus(scale, harness):
    """§6.3: BLESS with and without the mechanism, mesh and torus."""
    sweep = dict(networks=("bless", "bless-throttling"), harness=harness)
    return (
        scaling_sweep((16, 256), _cycles_for(scale), **sweep),
        scaling_sweep((16, 256), _cycles_for(scale), topology="torus",
                      **sweep),
    )


@figure("sec63_torus", "§6.3 — torus topology", _torus)
def _sec63(data):
    mesh, torus = (_by_variant(d, "throughput_per_node") for d in data)
    torus_gain = torus["bless"][-1] / mesh["bless"][-1] - 1
    # same trend: throttling helps on the torus too
    torus_throttle_gain = (
        torus["bless-throttling"][-1] / torus["bless"][-1] - 1
    )
    return (
        "§6.3: torus topology comparison",
        [
            ("torus outperforms mesh (baseline BLESS)", "~+10%",
             f"{100*torus_gain:+.1f}%", torus_gain > 0.0),
            ("throttling still helps on the torus", "same trends",
             f"{100*torus_throttle_gain:+.1f}%", torus_throttle_gain > 0.0),
        ],
        (["cores", "mesh BLESS", "torus BLESS", "mesh BLESS-Throt",
          "torus BLESS-Throt"],
         list(zip((16, 256), mesh["bless"], torus["bless"],
                  mesh["bless-throttling"], torus["bless-throttling"]))),
    )


# ----------------------------------------------------------------------
# §6.4 - §6.6
# ----------------------------------------------------------------------
def _sensitivity(setting, values):
    """§6.4: per value, the summed throughput of three congested 4x4
    workloads under the paper's controller; ``setting(value)`` is the
    ``(central recipe, epoch)`` pair that value stands for."""
    def run(scale, harness):
        workloads = make_workload_batch(
            3, 16, child_rng(31, "sensitivity"), categories=["H", "HM", "HM"]
        )
        cycles = scaled_cycles(5000, scale)
        specs = [
            JobSpec.for_workload(wl, cycles, seed=40 + i, epoch=epoch,
                                 controller=recipe)
            for recipe, epoch in map(setting, values)
            for i, wl in enumerate(workloads)
        ]
        tput = [r.system_throughput for r in harness.run(specs, "sec64")]
        k = len(workloads)
        return [(value, sum(tput[j * k:(j + 1) * k]))
                for j, value in enumerate(values)]
    return run


@figure("sec64_alpha", "§6.4 — alpha_throt sensitivity", _sensitivity(
    lambda alpha: (("central", alpha), 1000), (0.3, 0.9, 2.0),
))
def _sec64_alpha(rows):
    by_alpha = dict(rows)
    best = max(by_alpha.values())
    return (
        "§6.4: sensitivity to alpha_throt",
        [("paper's alpha_throt=0.9 is near-optimal", "optimum at 0.9",
          f"{by_alpha[0.9]:.2f} vs best {best:.2f}",
          by_alpha[0.9] >= 0.97 * best)],
        (["alpha_throt", "sum throughput"], rows),
    )


@figure("sec64_gamma", "§6.4 — gamma_throt sensitivity", _sensitivity(
    lambda gamma: (("central", 0.9, gamma), 1000), (0.5, 0.75, 0.95),
))
def _sec64_gamma(rows):
    by_gamma = dict(rows)
    best = max(by_gamma.values())
    return (
        "§6.4: sensitivity to gamma_throt (throttle-rate cap)",
        [("paper's gamma_throt=0.75 competitive", "optimum at 0.75",
          f"{by_gamma[0.75]:.2f} vs best {best:.2f}",
          by_gamma[0.75] >= 0.95 * best)],
        (["gamma_throt", "sum throughput"], rows),
    )


@figure("sec64_epoch", "§6.4 — epoch sensitivity", _sensitivity(
    lambda epoch: (("central",), epoch), (500, 1000, 20_000),
))
def _sec64_epoch(rows):
    by_epoch = dict(rows)
    responsive = max(by_epoch[500], by_epoch[1000])
    # An epoch longer than the whole run degenerates to no control.
    return (
        "§6.4: sensitivity to the throttling epoch",
        [("responsive epochs match or beat an unresponsive one",
          "1M-cycle epoch much worse",
          f"{responsive:.2f} vs {by_epoch[20_000]:.2f}",
          responsive >= by_epoch[20_000] * 0.98)],
        (["epoch (cycles)", "sum throughput"], rows),
    )


@figure("sec65_hw", "§6.5 — hardware cost",
        lambda scale, harness: mechanism_hardware_cost())
def _sec65(cost):
    return (
        "§6.5: per-node hardware cost",
        [
            ("total per-node storage", "149 bits", f"{cost.total_bits} bits",
             cost.total_bits == 149),
            ("counters", "2", str(cost.counters), cost.counters == 2),
            ("comparators", "1", str(cost.comparators),
             cost.comparators == 1),
            ("fraction of a 128KB L1", "negligible",
             f"{100*cost.fraction_of_l1():.4f}%",
             cost.fraction_of_l1() < 0.0002),
        ],
        (["component", "bits"], [
            ("starvation shift register", cost.shift_register_bits),
            ("starvation up/down counter", cost.starvation_counter_bits),
            ("throttle counter (7-bit)", cost.throttle_counter_bits),
            ("throttle-rate register", cost.rate_register_bits),
            ("total bits", cost.total_bits),
        ]),
    )


#: §6.6's columns: baseline, central, TCP-like distributed.
_SCHEMES = (("none",), ("central",), ("distributed",))


def _coordination(scale, harness):
    workloads = make_workload_batch(
        3, 16, child_rng(77, "sec66"), categories=["H", "HM", "HML"]
    )
    cycles = scaled_cycles(6000, scale)
    specs = [
        JobSpec.for_workload(wl, cycles, seed=50 + i, epoch=1000,
                             controller=recipe)
        for i, wl in enumerate(workloads)
        for recipe in _SCHEMES
    ]
    results = harness.run(specs, "sec66")
    k = len(_SCHEMES)
    return [
        (wl.category,
         *(res.system_throughput for res in results[i * k:(i + 1) * k]))
        for i, wl in enumerate(workloads)
    ]


@figure("sec66", "§6.6 — central vs distributed", _coordination)
def _sec66(rows):
    base, central, distributed = (sum(r[i] for r in rows) for i in (1, 2, 3))
    return (
        "§6.6: centralized vs distributed coordination",
        [
            ("central coordination improves on baseline", "yes",
             f"{100*(central/base-1):+.1f}%", central > base),
            ("central beats the TCP-like distributed scheme",
             "distributed far less effective",
             f"central {central:.2f} vs distributed {distributed:.2f}",
             central > distributed),
        ],
        (["category", "baseline", "central", "distributed"], rows),
    )


# ----------------------------------------------------------------------
# §7 extensions: hot-spot traffic and explicit fairness
# ----------------------------------------------------------------------
def _hotspot(scale, harness):
    """An 8x8 workload with spread and with hot-spot traffic, baseline
    and throttled."""
    wl = make_workload_batch(1, 64, child_rng(70, "hotspot"),
                             categories=["H"])[0]
    traffic = {"spread": ("exponential", 1.0), "hotspot": ("hotspot", 0.35)}
    modes = {"baseline": ("none",), "throttled": ("central",)}
    keys = [(kind, mode) for kind in traffic for mode in modes]
    specs = [
        JobSpec.for_workload(
            wl, scaled_cycles(6000, scale), seed=7, epoch=1000,
            locality=traffic[kind][0], locality_param=traffic[kind][1],
            controller=modes[mode],
        )
        for kind, mode in keys
    ]
    return dict(zip(keys, harness.run(specs, "sec7-hotspot")))


@figure("sec7_hotspot", "§7 ext. — hot-spot traffic", _hotspot)
def _sec7_hotspot(out):
    tput = {key: res.system_throughput for key, res in out.items()}
    gain_spread = tput["spread", "throttled"] / tput["spread", "baseline"] - 1
    gain_hot = tput["hotspot", "throttled"] / tput["hotspot", "baseline"] - 1
    return (
        "§7: source throttling under hot-spot traffic",
        [
            ("hot-spot collapses throughput vs spread traffic",
             "hot-spots form",
             f"{tput['hotspot', 'baseline']:.1f} vs "
             f"{tput['spread', 'baseline']:.1f}",
             tput["hotspot", "baseline"] < 0.8 * tput["spread", "baseline"]),
            ("throttling gains on hot-spots smaller than on spread "
             "congestion", "small gains; traffic engineering needed",
             f"{100*gain_hot:+.1f}% vs {100*gain_spread:+.1f}%",
             gain_hot < gain_spread),
        ],
        (["traffic", "controller", "sys throughput", "util"],
         [(kind, mode, res.system_throughput, res.network_utilization)
          for (kind, mode), res in out.items()]),
    )


def _fairness(scale, harness):
    """Three 4x4 workloads under the paper's controller and the
    explicit-fairness variant, against each app's alone IPC."""
    workloads = make_workload_batch(
        3, 16, child_rng(71, "fairness"), categories=["HM", "HML", "H"]
    )
    cycles = scaled_cycles(6000, scale)
    alones = alone_ipc(workloads, cycles=scaled_cycles(2000, scale),
                       harness=harness)
    specs = [
        JobSpec.for_workload(wl, cycles, seed=30 + i, epoch=1000,
                             controller=recipe)
        for i, wl in enumerate(workloads)
        for recipe in (("central",), ("fair",))
    ]
    results = harness.run(specs, "sec7-fairness")
    return [
        (wl.category, paper.system_throughput, fair.system_throughput,
         max_slowdown(paper.ipc, alone), max_slowdown(fair.ipc, alone),
         weighted_speedup(paper.ipc, alone), weighted_speedup(fair.ipc, alone))
        for wl, alone, paper, fair in zip(workloads, alones, results[::2],
                                          results[1::2])
    ]


@figure("sec7_fairness", "§7 ext. — fairness controller", _fairness)
def _sec7_fairness(rows):
    ms_paper = np.mean([r[3] for r in rows])
    ms_fair = np.mean([r[4] for r in rows])
    tp_paper = sum(r[1] for r in rows)
    tp_fair = sum(r[2] for r in rows)
    return (
        "§7: explicit fairness controller",
        [
            ("fairness cap reduces worst-case slowdown",
             "explicit target (§7)", f"{ms_paper:.2f} -> {ms_fair:.2f}",
             ms_fair <= ms_paper * 1.02),
            ("throughput cost of the fairness cap is small", "<10%",
             f"{100*(tp_fair/tp_paper-1):+.1f}%", tp_fair > 0.9 * tp_paper),
        ],
        (["category", "paper tput", "fair tput", "paper maxSD",
          "fair maxSD", "paper WS", "fair WS"], rows),
    )


# ----------------------------------------------------------------------
# Ablations of DESIGN.md §5's choices, on one HM 4x4 workload
# ----------------------------------------------------------------------
def _ablation_spec(cycles, controller=("none",), **config):
    workload = make_workload_batch(
        1, 16, child_rng(88, "ablations"), categories=["HM"]
    )[0]
    return JobSpec.for_workload(workload, cycles, epoch=1000, seed=60,
                                controller=controller, config=config)


_POLICIES = ("oldest_first", "random", "youngest_first")


def _arbitration(scale, harness):
    """Oldest-First trades some average-case throughput for a bounded
    worst case: policies that favor young flits can post better averages
    while letting unlucky flits starve (the max-latency column)."""
    cycles = scaled_cycles(6000, scale)
    specs = [_ablation_spec(cycles, arbitration=p) for p in _POLICIES]
    return [
        (policy, r.system_throughput, r.avg_net_latency, r.max_net_latency,
         r.deflection_rate)
        for policy, r in zip(_POLICIES, harness.run(specs, "arbitration"))
    ]


@figure("ablation_arbitration", "Ablation — deflection arbitration",
        _arbitration)
def _ablation_arbitration(rows):
    by = {r[0]: r for r in rows}
    ok_tail = by["oldest_first"][3] <= min(by["random"][3],
                                           by["youngest_first"][3])
    ok_tp = by["oldest_first"][1] >= 0.7 * max(r[1] for r in rows)
    return (
        "Ablation: deflection arbitration policy",
        [
            ("Oldest-First has the smallest worst-case latency",
             "age total-order bounds the tail (livelock freedom)",
             f"{by['oldest_first'][3]} vs random {by['random'][3]} / "
             f"youngest {by['youngest_first'][3]} cycles", ok_tail),
            ("Oldest-First throughput within range of alternatives",
             "baseline choice", f"{by['oldest_first'][1]:.2f}", ok_tp),
        ],
        (["policy", "sys throughput", "avg latency", "max latency",
          "deflection rate"], rows),
    )


def _eject_width(scale, harness):
    cycles = scaled_cycles(6000, scale)
    widths = (1, 2)
    specs = [_ablation_spec(cycles, eject_width=w) for w in widths]
    return [
        (w, r.system_throughput, r.avg_net_latency, r.deflection_rate)
        for w, r in zip(widths, harness.run(specs, "eject-width"))
    ]


@figure("ablation_eject_width", "Ablation — ejection width", _eject_width)
def _ablation_eject_width(rows):
    one, two = rows
    return (
        "Ablation: ejection width",
        [("dual ejection cuts deflections and latency",
          "ejection contention is a deflection source",
          f"defl {one[3]:.2f}->{two[3]:.2f}, lat {one[2]:.1f}->{two[2]:.1f}",
          two[3] < one[3] and two[2] < one[2])],
        (["eject width", "sys throughput", "latency", "deflection rate"],
         rows),
    )


def _awareness(scale, harness):
    """§4: application-blind static throttling at the mechanism's own
    average rate, against IPF-aware selection of whom to throttle."""
    cycles = scaled_cycles(6000, scale)
    base, aware = harness.run(
        [_ablation_spec(cycles), _ablation_spec(cycles, ("central",))],
        "awareness",
    )
    avg_rate = float(aware.epochs["mean_throttle"].mean())
    (blind,) = harness.run(
        [_ablation_spec(cycles, ("static", min(avg_rate, 0.95)))],
        "awareness",
    )
    return base, aware, blind, avg_rate


@figure("ablation_awareness", "Ablation — application awareness",
        _awareness)
def _ablation_awareness(data):
    base, aware, blind, avg_rate = data
    return (
        "Ablation: application awareness in throttling",
        [("aware beats blind at the same average rate",
          "whom to throttle matters (§4)",
          f"{aware.system_throughput:.2f} vs {blind.system_throughput:.2f}",
          aware.system_throughput > blind.system_throughput)],
        (["configuration", "sys throughput"], [
            ("baseline", base.system_throughput),
            ("application-aware (mechanism)", aware.system_throughput),
            (f"application-blind static @ {avg_rate:.2f}",
             blind.system_throughput),
        ]),
    )


# ----------------------------------------------------------------------
# Graceful degradation under permanent link faults
# ----------------------------------------------------------------------
_FAULT_RATES = (0.0, 0.01, 0.025, 0.05)
#: Fractional throughput noise two same-length runs may differ by while
#: still counting as "monotone" degradation.
_MONOTONE_TOLERANCE = 1.08


def _fault_sweep(scale, harness):
    """An 8x8 H workload on BLESS and on buffered XY at each permanent
    link-fault rate, invariant checker and a 150-cycle progress watchdog
    on, 300 s wall-clock budget per run; a row ends with how a guardrail
    stopped its run: "deadlock @ <cycle>" for the watchdog."""
    workload = make_workload_batch(
        1, 64, child_rng(91, "fault_tolerance"), categories=["H"]
    )[0]
    cycles = scaled_cycles(4000, scale)
    points = [(network, rate) for network in ("bless", "buffered")
              for rate in _FAULT_RATES]
    specs = [
        JobSpec.for_workload(
            workload, cycles, epoch=1000, seed=70, deadline=300.0,
            network=network, config=dict(
                check_invariants=True, watchdog_window=150,
                faults=FaultConfig(link_fault_rate=rate, seed=17)
                if rate else None,
            ),
        )
        for network, rate in points
    ]
    rows: Dict[str, list] = {"bless": [], "buffered": []}
    results = harness.run(specs, "fault-tolerance")
    stops = {r.key: _stop(r.error) for r in harness.records if r.error}
    for (network, rate), spec, res in zip(points, specs, results):
        if res is None:
            rows[network].append((rate, None, None, None, stops[spec.content_hash()]))
            continue
        if not res.flit_conservation_ok:
            raise RuntimeError(
                f"{network} at fault rate {rate}: flit accounting broken"
            )
        failed = res.guardrails.failed_links if res.guardrails else 0
        rows[network].append(
            (rate, res.system_throughput, res.deflection_rate, failed, None)
        )
    return rows["bless"], rows["buffered"]


def _stop(error: str) -> str:
    """A guardrail-stopped run's cell, from its ``JobRecord.error``."""
    stop = re.match(r"LivelockError: watchdog tripped at cycle (\d+)", error)
    return f"deadlock @ {stop[1]}" if stop else "diverged"


@figure("fault_tolerance", "Fault tolerance — permanent link faults",
        _fault_sweep)
def _fault_tolerance(data):
    bless_rows, buffered_rows = data
    bless_tp = [r[1] for r in bless_rows]
    ok_complete = all(tp is not None for tp in bless_tp)
    ok_monotone = ok_complete and all(
        later <= earlier * _MONOTONE_TOLERANCE
        for earlier, later in zip(bless_tp, bless_tp[1:])
    )
    ok_alive = ok_complete and bless_tp[-1] > 0.25 * bless_tp[0]
    faulted = [row[4] for row in buffered_rows if row[0]]
    ok_deadlocks = all(str(stop).startswith("deadlock") for stop in faulted)

    def cell(value, stop="-"):
        return stop if value is None else f"{value:.2f}"

    return (
        "Fault tolerance: permanent link faults (8x8, invariants on)",
        [
            ("BLESS completes every fault rate up to 5%",
             "deflection routes around dead links",
             f"{sum(tp is not None for tp in bless_tp)}/{len(_FAULT_RATES)} "
             f"rates completed", ok_complete),
            ("BLESS throughput degrades monotonically (within noise)",
             "graceful degradation, no cliff",
             " -> ".join(f"{tp:.2f}" for tp in bless_tp if tp is not None),
             ok_monotone),
            ("BLESS still delivers useful throughput at 5% faults",
             "fail-soft, not fail-stop",
             f"{bless_tp[-1]:.2f} vs fault-free {bless_tp[0]:.2f}"
             if ok_complete else "diverged", ok_alive),
            ("buffered XY deadlocks at every fault rate ≥ 1%",
             "XY cannot steer around a dead link",
             " / ".join(stop or "completed" for stop in faulted),
             ok_deadlocks),
        ],
        (["fault rate", "failed links", "bless tput", "bless deflect",
          "buffered tput"],
         [(f"{rate:.3f}", b[3], cell(b[1], b[4]), cell(b[2]), cell(f[1], f[4]))
          for rate, b, f in zip(_FAULT_RATES, bless_rows, buffered_rows)]),
    )


# ----------------------------------------------------------------------
# EXPERIMENTS.md: the fenced report under each registered heading
# ----------------------------------------------------------------------
def fenced_blocks(lines: Sequence[str]) -> Dict[str, Tuple[int, int]]:
    """``{label: (first, end)}``: the line span inside the first fenced
    block of each ``## label`` section of *lines*; a section without
    one is absent."""
    blocks: Dict[str, Tuple[int, int]] = {}
    label, start = None, None
    for i, line in enumerate(lines):
        if start is not None:
            if line == "```":
                if label is not None and label not in blocks:
                    blocks[label] = (start, i)
                start = None
        elif line.startswith("```"):
            start = i + 1
        elif line.startswith("## "):
            label = line[3:]
    return blocks


def rewrite_markdown(text: str, reports: Dict[str, str]) -> str:
    """*text* with the first fenced block of each ``## label`` section
    named in *reports* replaced by that report; every other line stays.
    ``ValueError`` for a label with no such block."""
    lines = text.split("\n")
    blocks = fenced_blocks(lines)
    missing = [label for label in reports if label not in blocks]
    if missing:
        raise ValueError(f"no fenced block under '## {missing[0]}'")
    for label in sorted(reports, key=blocks.get, reverse=True):
        start, end = blocks[label]
        lines[start:end] = reports[label].strip().split("\n")
    return "\n".join(lines)
