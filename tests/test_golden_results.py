"""Golden-result regression tests: the refactor's safety net.

``golden_results.json`` pins the sha256 of the canonical JSON encoding
of ``SimulationResult.to_dict()`` for a matrix of bless and buffered
configurations, recorded *before* the phase-pipeline / router-engine
refactor (PR 4).  The tests assert that today's code still produces
bit-identical results for every point — executed serially and through
the parallel harness — so any unintended behavioral change to the
simulator core or the router models fails loudly instead of silently
shifting every number downstream.

Regenerate the fixture (only when a change is *meant* to alter results,
alongside a RESULT_SCHEMA_VERSION review) with::

    PYTHONPATH=src python tests/test_golden_results.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.chaos import ChaosConfig, ChaosEvent
from repro.guardrails.faults import FaultConfig
from repro.harness import JobSpec, run_job, run_jobs
from repro.rng import child_rng
from repro.topology.mesh import EAST
from repro.topology.zoo import BRIDGE_E
from repro.traffic.workloads import make_category_workload

# Full-simulation module: runs real multi-epoch simulations end to end.
# Deselect with -m 'not slow' for a fast inner loop; CI runs everything.
pytestmark = pytest.mark.slow

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_results.json"

#: Seed for the deterministic golden workload assignments.
_WORKLOAD_SEED = 77


def _workload(category: str, nodes: int, tag: str):
    return make_category_workload(
        category, nodes, child_rng(_WORKLOAD_SEED, f"golden-{tag}")
    )


def golden_specs() -> list:
    """The pinned config matrix, as declarative harness job specs.

    Covers both router models, every arbitration policy, both
    topologies, the central controller with modeled control traffic,
    and guardrail-instrumented runs (invariants + watchdog), so the
    refactored engine is compared against the recorded behavior on all
    code paths that must not change results, including the engine's
    general path: fault routing, quiesce, transient spare links, the
    hybrid side buffer and the credit fault branch.
    """
    specs = []

    def add(tag, category, nodes, *, network="bless", cycles=2200,
            seed=3, epoch=500, controller=("none",), chaos=None, **config):
        specs.append(
            JobSpec.for_workload(
                _workload(category, nodes, tag),
                cycles,
                seed=seed,
                epoch=epoch,
                controller=controller,
                network=network,
                chaos=chaos,
                config=config,
            )
        )

    add("bless-h", "H", 16)
    add("bless-central", "HM", 16, controller=("central",), seed=4,
        model_control_traffic=True)
    add("bless-youngest", "H", 16, arbitration="youngest_first")
    add("bless-random", "H", 16, arbitration="random")
    add("bless-torus", "ML", 25, topology="torus", locality="exponential",
        locality_param=1.0)
    add("bless-guarded", "H", 16, check_invariants=True,
        watchdog_window=2000, max_flit_age=4000)
    # The engine's general path.  Chiplet bridge 18 -> 22 and mesh link
    # 9 -> 10 quiesce, drain, go down and come back; router 36 drains,
    # fail-stops and revives.
    add("hybrid-chiplet-chaos", "HM", 64, network="hybrid", cycles=1600,
        seed=5, controller=("central",), topology="chiplet",
        check_invariants=True,
        chaos=ChaosConfig(events=(
            ChaosEvent(100, "link_down", 18, BRIDGE_E),
            ChaosEvent(300, "router_down", 36),
            ChaosEvent(500, "link_down", 9, EAST),
            ChaosEvent(700, "link_up", 18, BRIDGE_E),
            ChaosEvent(900, "link_up", 9, EAST),
            ChaosEvent(1100, "router_up", 36),
        ), seed=2))
    add("bless-express-faults", "H", 64, cycles=1500, seed=6,
        topology="express", check_invariants=True,
        faults=FaultConfig(link_fault_rate=0.1, router_fault_rate=0.05,
                           transient_fault_rate=0.01, seed=4))
    add("buffered-chaos-link", "HM", 16, network="buffered", seed=7,
        check_invariants=True,
        chaos=ChaosConfig(events=(
            ChaosEvent(400, "link_down", 5, EAST),
            ChaosEvent(1400, "link_up", 5, EAST),
        ), seed=1))
    # One-cycle link faults only: the credit step's t_down branch.
    # Permanent faults would deadlock XY routing by design.
    add("buffered-transient", "H", 16, network="buffered", seed=8,
        check_invariants=True,
        faults=FaultConfig(transient_fault_rate=0.02, seed=5))
    add("buffered-h", "H", 16, network="buffered")
    add("buffered-central", "HM", 16, network="buffered",
        controller=("central",), seed=4)
    add("buffered-torus", "ML", 25, network="buffered", topology="torus",
        locality="exponential", locality_param=1.0)
    add("buffered-guarded", "H", 16, network="buffered",
        check_invariants=True)
    return specs


def result_hash(result) -> str:
    """sha256 of the canonical strict-JSON encoding of a result."""
    payload = json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"golden fixture missing: {GOLDEN_PATH}; regenerate with "
            "`PYTHONPATH=src python tests/test_golden_results.py --write`"
        )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden() -> dict:
    return _load_golden()


class TestGoldenResults:
    def test_fixture_matches_spec_matrix(self, golden):
        """Every matrix point is pinned, keyed by its content hash."""
        expected = {spec.content_hash() for spec in golden_specs()}
        assert set(golden["results"]) == expected

    @pytest.mark.parametrize(
        "spec", golden_specs(), ids=lambda s: s.label()
    )
    def test_serial_result_is_bit_identical(self, golden, spec):
        entry = golden["results"][spec.content_hash()]
        assert result_hash(run_job(spec)) == entry["result_hash"]

    def test_parallel_results_are_bit_identical(self, golden):
        """The process-pool path produces the same bytes as serial."""
        specs = golden_specs()[:4] + golden_specs()[-2:]
        report = run_jobs(specs, jobs=2, progress=False)
        for spec, result in zip(specs, report.results):
            entry = golden["results"][spec.content_hash()]
            assert result_hash(result) == entry["result_hash"]


def write_golden() -> dict:
    """Record the fixture from the current code (regeneration entry)."""
    payload = {"workload_seed": _WORKLOAD_SEED, "results": {}}
    for spec in golden_specs():
        result = run_job(spec)
        payload["results"][spec.content_hash()] = {
            "label": spec.label(),
            "result_hash": result_hash(result),
        }
    GOLDEN_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return payload


if __name__ == "__main__":
    import sys

    if "--write" not in sys.argv:
        sys.exit("usage: python tests/test_golden_results.py --write")
    recorded = write_golden()
    for entry in recorded["results"].values():
        print(f"{entry['result_hash']}  {entry['label']}")
    print(f"wrote {GOLDEN_PATH}")
