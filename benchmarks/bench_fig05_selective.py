"""Figure 5 / §4: the need for application-level awareness.

8 instances each of mcf (network-intensive, IPF~1) and gromacs
(non-intensive, IPF~19) share a 4x4 mesh; each application is then
statically throttled by 90% in turn:

- throttling mcf RAISES overall system throughput (paper: +18%) and
  gromacs benefits greatly (paper: +25%),
- throttling gromacs LOWERS overall system throughput (paper: -9%).

Which application is throttled determines whether throttling helps —
the core motivation for IPF-based application awareness.
"""

import numpy as np

from conftest import once
from repro.config import SimulationConfig
from repro.control import NoController, StaticThrottleController
from repro.experiments import format_table, paper_vs_measured, scaled_cycles
from repro.sim.simulator import Simulator
from repro.traffic.workloads import make_checkerboard_workload


def test_fig5_selective_throttling(benchmark, report):
    def run():
        wl = make_checkerboard_workload("mcf", "gromacs", 4)
        mcf = np.array([i for i, a in enumerate(wl.app_names) if a == "mcf"])
        gro = np.array([i for i, a in enumerate(wl.app_names) if a == "gromacs"])
        cycles = scaled_cycles(12_000)

        def throttled(controller):
            # A node-masked static throttle has no recipe: built here.
            config = SimulationConfig(
                wl, epoch=1500, seed=3, phase_sigma=0.2, controller=controller
            )
            return Simulator(config).run(cycles)

        base = throttled(NoController())
        t_gro = throttled(StaticThrottleController(0.9, gro))
        t_mcf = throttled(StaticThrottleController(0.9, mcf))
        return wl, mcf, gro, base, t_gro, t_mcf

    wl, mcf, gro, base, t_gro, t_mcf = once(benchmark, run)

    def split(res):
        return res.system_throughput, res.ipc[mcf].mean(), res.ipc[gro].mean()

    b_sys, b_mcf, b_gro = split(base)
    g_sys, g_mcf, g_gro = split(t_gro)
    m_sys, m_mcf, m_gro = split(t_mcf)
    sys_up_mcf = m_sys / b_sys - 1
    sys_dn_gro = g_sys / b_sys - 1
    gro_gain = m_gro / b_gro - 1

    report(
        "fig5",
        paper_vs_measured(
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
        )
        + format_table(
            ["configuration", "system", "mcf IPC", "gromacs IPC"],
            [
                ("baseline", b_sys, b_mcf, b_gro),
                ("throttle gromacs 90%", g_sys, g_mcf, g_gro),
                ("throttle mcf 90%", m_sys, m_mcf, m_gro),
            ],
        ),
    )
    assert sys_up_mcf > 0.05
    assert sys_dn_gro < 0.0
