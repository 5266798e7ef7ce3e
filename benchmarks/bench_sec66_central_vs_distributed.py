"""§6.6: centralized vs distributed coordination.

The paper compares its central mechanism with a TCP-like distributed
scheme (congested nodes mark passing flits; receivers of marked flits
self-throttle) and finds the distributed scheme "far less effective at
reducing NoC congestion" because it is not application-aware.
"""

from conftest import once
from repro.experiments import format_table, paper_vs_measured, scaled_cycles
from repro.harness import JobSpec, run_jobs
from repro.rng import child_rng
from repro.traffic.workloads import make_workload_batch

#: column label -> controller recipe
SCHEMES = {
    "baseline": ("none",),
    "central": ("central",),
    "distributed": ("distributed",),
}


def test_sec66_central_beats_distributed(benchmark, report):
    def run():
        rng = child_rng(77, "sec66")
        workloads = make_workload_batch(3, 16, rng, categories=["H", "HM", "HML"])
        cycles = scaled_cycles(6000)
        specs = [
            JobSpec.for_workload(
                wl, cycles, seed=50 + i, epoch=1000, controller=recipe
            )
            for i, wl in enumerate(workloads)
            for recipe in SCHEMES.values()
        ]
        results = run_jobs(specs, description="sec66").results
        per_workload = len(SCHEMES)
        return [
            (wl.category, *(
                res.system_throughput
                for res in results[i * per_workload:(i + 1) * per_workload]
            ))
            for i, wl in enumerate(workloads)
        ]

    rows = once(benchmark, run)
    base = sum(r[1] for r in rows)
    central = sum(r[2] for r in rows)
    distributed = sum(r[3] for r in rows)
    claims = [
        ("central coordination improves on baseline", "yes",
         f"{100*(central/base-1):+.1f}%", central > base),
        ("central beats the TCP-like distributed scheme",
         "distributed far less effective",
         f"central {central:.2f} vs distributed {distributed:.2f}",
         central > distributed),
    ]
    report(
        "sec66",
        paper_vs_measured("§6.6: centralized vs distributed coordination", claims)
        + format_table(
            ["category", "baseline", "central", "distributed"], rows
        ),
    )
    assert all(c[3] for c in claims)
