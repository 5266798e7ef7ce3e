"""Phase-pipeline unit tests and the deadline-abort partial-result test.

The pipeline is the simulator's single cycle loop (DESIGN.md §S21);
these tests pin its construction contract (ordering, hooks, periodic
phases, when a registered fusion may stand in for the per-cycle phases
and how far each fused span reaches) and the abort guarantee: a :class:`SimulationTimeout` fires on a
cycle boundary, so :meth:`Simulator.result` after an abort is a
well-formed partial result — whole cycles, whole epochs, serializable.
"""

import json

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.control.registry import build_controller
from repro.guardrails.errors import SimulationTimeout
from repro.native import native_available
from repro.rng import child_rng
from repro.sim.pipeline import PhasePipeline
from repro.sim.results import RESULT_SCHEMA_VERSION, SimulationResult
from repro.sim.simulator import Simulator
from repro.traffic.workloads import make_category_workload


needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler for the native backend"
)


class Recorder:
    """Callable phase body that logs (tag, cycle) into a shared list."""

    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def __call__(self, cycle):
        self.log.append((self.tag, cycle))


class TestPhasePipeline:
    def test_duplicate_phase_rejected(self):
        pipe = PhasePipeline()
        pipe.append("a", lambda c: None)
        with pytest.raises(ValueError, match="duplicate"):
            pipe.append("a", lambda c: None)

    def test_bad_period_rejected(self):
        pipe = PhasePipeline()
        with pytest.raises(ValueError, match="period"):
            pipe.append("a", lambda c: None, every=0)
        pipe.append("b", lambda c: None, every=5)
        with pytest.raises(ValueError, match="period"):
            pipe.set_period("b", 0)

    def test_set_period_requires_periodic_phase(self):
        pipe = PhasePipeline()
        pipe.append("a", lambda c: None)
        with pytest.raises(ValueError, match="not periodic"):
            pipe.set_period("a", 10)

    def test_unknown_phase_lookup(self):
        pipe = PhasePipeline()
        with pytest.raises(KeyError):
            pipe.phase("missing")
        with pytest.raises(KeyError):
            pipe.post_hook("missing", lambda c: None)

    def test_phases_run_in_registration_order(self):
        log = []
        pipe = PhasePipeline()
        for tag in ("a", "b", "c"):
            pipe.append(tag, Recorder(log, tag))
        cycle_fns, periodic, _ = pipe.compiled()
        assert periodic == ()
        for fn in cycle_fns:
            fn(0)
        assert log == [("a", 0), ("b", 0), ("c", 0)]

    def test_hooks_run_after_phase_in_order(self):
        log = []
        pipe = PhasePipeline()
        pipe.append("a", Recorder(log, "a"))
        pipe.post_hook("a", Recorder(log, "hook1"))
        pipe.post_hook("a", Recorder(log, "hook2"))
        (fn,), _, _ = pipe.compiled()
        fn(7)
        assert log == [("a", 7), ("hook1", 7), ("hook2", 7)]

    def test_periodic_phase_schedule(self):
        """Periodic phases run post-increment on period boundaries —
        the same epoch semantics the original hand-written loop had."""
        log = []
        pipe = PhasePipeline()
        pipe.append("step", Recorder(log, "step"))
        pipe.append("epoch", Recorder(log, "epoch"), every=3)
        cycle_fns, periodic, _ = pipe.compiled()
        cycle = 0
        while cycle < 7:
            for fn in cycle_fns:
                fn(cycle)
            cycle += 1
            for every, fn in periodic:
                if cycle % every == 0:
                    fn(cycle)
        assert [c for tag, c in log if tag == "epoch"] == [3, 6]
        assert [c for tag, c in log if tag == "step"] == list(range(7))

    def test_timer_wraps_every_phase(self):
        class FakeTimer:
            def __init__(self):
                self.calls = []

            def begin_cycle(self):
                self.calls.append("begin")

            def lap(self, name):
                self.calls.append(name)

        pipe = PhasePipeline()
        pipe.append("a", lambda c: None)
        pipe.append("b", lambda c: None)
        timer = FakeTimer()
        cycle_fns, _, _ = pipe.compiled(timer)
        for fn in cycle_fns:
            fn(0)
        assert timer.calls == ["begin", "a", "begin", "b"]

    def test_simulator_pipeline_order(self):
        w = make_category_workload("M", 16, child_rng(1, "pipe"))
        sim = Simulator(SimulationConfig(w))
        assert sim.pipeline.names == (
            "behavior", "cores", "memory", "network", "ejection", "epoch"
        )
        assert sim.pipeline.phase("network").hooks == []

    def test_simulator_registers_guardrail_hooks(self):
        w = make_category_workload("M", 16, child_rng(1, "pipe"))
        sim = Simulator(
            SimulationConfig(w, check_invariants=True, watchdog_window=64)
        )
        assert len(sim.pipeline.phase("network").hooks) == 2


class SpanRecorder:
    """A fake fusion: logs (cycle, count), simulates nothing."""

    def __init__(self):
        self.spans = []

    def __call__(self, cycle, count):
        self.spans.append((cycle, count))


class TestFusion:
    """A fusion runs only while nothing observes the phases it covers."""

    @staticmethod
    def fused_pipeline():
        pipe = PhasePipeline()
        pipe.append("a", lambda c: None)
        pipe.append("b", lambda c: None)
        pipe.append("epoch", lambda c: None, every=5)
        span = SpanRecorder()
        pipe.fuse(("a", "b"), span)
        return pipe, span

    def test_unobserved_phases_compile_to_the_span(self):
        pipe, span = self.fused_pipeline()
        cycle_fns, periodic, fused = pipe.compiled()
        assert fused is span
        assert len(cycle_fns) == 2 and len(periodic) == 1
        assert PhasePipeline().compiled() == ((), (), None)

    def test_a_hook_on_a_covered_phase_keeps_the_loop_per_cycle(self):
        pipe, _ = self.fused_pipeline()
        pipe.post_hook("b", lambda c: None)
        assert pipe.compiled()[2] is None
        pipe.phase("b").hooks.clear()
        assert pipe.compiled()[2] is not None
        # A hook on the periodic phase observes no fused phase.
        pipe.post_hook("epoch", lambda c: None)
        assert pipe.compiled()[2] is not None

    def test_a_replaced_fn_keeps_the_loop_per_cycle(self):
        """How outside instrumentation wraps a phase (the perf tracer)."""
        pipe, _ = self.fused_pipeline()
        original = pipe.phase("a").fn
        pipe.phase("a").fn = lambda c: original(c)
        assert pipe.compiled()[2] is None
        pipe.phase("a").fn = original
        assert pipe.compiled()[2] is not None

    def test_a_timer_keeps_the_loop_per_cycle(self):
        pipe, _ = self.fused_pipeline()
        assert pipe.compiled(timer=object())[2] is None

    def test_fusion_must_cover_every_per_cycle_phase(self):
        pipe, _ = self.fused_pipeline()
        pipe.append("c", lambda c: None)
        assert pipe.compiled()[2] is None
        with pytest.raises(KeyError):
            pipe.fuse(("a", "missing"), SpanRecorder())

    @pytest.mark.parametrize(
        "start, end, epoch, deadline, expected",
        [
            (0, 600, 200, None, [(0, 200), (200, 200), (400, 200)]),
            # Neither end on an epoch boundary.
            (130, 777, 200, None,
             [(130, 70), (200, 200), (400, 200), (600, 177)]),
            (100, 101, 1000, None, [(100, 1)]),
            # A deadline adds the 256-aligned check points.
            (300, 900, 256, 60.0, [(300, 212), (512, 256), (768, 132)]),
            (5, 600, 1000, 60.0, [(5, 251), (256, 256), (512, 88)]),
            (250, 1100, 500, 60.0,
             [(250, 6), (256, 244), (500, 12), (512, 256), (768, 232),
              (1000, 24), (1024, 76)]),
        ],
    )
    def test_span_reaches_the_nearest_boundary(
        self, start, end, epoch, deadline, expected
    ):
        """Run end, epoch boundary or (with a deadline) 256-aligned
        cycle, whichever comes first; the epoch phase runs between."""
        w = make_category_workload("M", 16, child_rng(1, "pipe"))
        sim = Simulator(SimulationConfig(w, epoch=epoch))
        span = SpanRecorder()
        sim.pipeline.fuse(sim.pipeline.names[:-1], span)
        sim.cycle = start
        sim.run(end - start, deadline=deadline)
        assert span.spans == expected
        assert sim.cycle == end
        assert sim.epochs.cycles == [
            c for c in range(epoch, end + 1, epoch) if c > start
        ]

    @needs_native
    def test_ledger_shaped_native_run_is_a_handful_of_fused_calls(self):
        """10,000 cycles, epoch 1000, 8 chunks (perf ledger,
        native_mesh64): one call per span, none per cycle."""

        class CountingLib:
            def __init__(self, lib):
                self.lib = lib
                self.calls = {}

            def __getattr__(self, name):
                kernel = getattr(self.lib, name)

                def counted(*args):
                    self.calls[name] = self.calls.get(name, 0) + 1
                    return kernel(*args)

                return counted

        w = make_category_workload("H", 64, child_rng(1, "ledger"))
        sim = Simulator(SimulationConfig(
            w, seed=1, epoch=1000, backend="native",
            controller=build_controller(("central",), epoch=1000),
        ))
        lib = sim._accel._lib = CountingLib(sim._accel._lib)
        for _ in range(8):
            result = sim.run(1250)
        assert result.cycles == 10_000 and result.flit_conservation_ok
        assert set(lib.calls) == {"noc_span"}
        assert lib.calls["noc_span"] <= 20


class TestDeadlineAbortPartialResult:
    """A wall-clock abort must leave a usable partial result behind."""

    backend = "numpy"

    @pytest.fixture()
    def aborted(self):
        w = make_category_workload("H", 16, child_rng(7, "abort"))
        sim = Simulator(
            SimulationConfig(w, seed=2, epoch=256, backend=self.backend)
        )
        sim.run(300)  # a completed stretch first, mid-epoch
        with pytest.raises(SimulationTimeout):
            # The zero budget trips at the next 256-aligned check, after
            # cycle 512's epoch phase already ran — a clean boundary.
            sim.run(1_000_000, deadline=0.0)
        return sim

    def test_aborts_on_cycle_boundary(self, aborted):
        assert aborted.cycle == 512

    def test_partial_result_is_consistent(self, aborted):
        result = aborted.result()
        assert result.cycles == 512
        assert result.flit_conservation_ok
        assert result.injected_flits > 0
        assert np.isfinite(result.avg_net_latency)

    def test_no_half_updated_epoch_series(self, aborted):
        result = aborted.result()
        # Exactly one sample per completed epoch, every series aligned.
        assert len(result.epochs) == result.cycles // 256
        assert result.epochs.cycles == [256, 512]
        for name in result.epochs.names():
            assert len(result.epochs[name]) == len(result.epochs)

    def test_partial_result_serializes(self, aborted):
        result = aborted.result()
        payload = json.dumps(result.to_dict(), allow_nan=False)
        restored = SimulationResult.from_dict(json.loads(payload))
        assert restored.cycles == result.cycles
        assert restored.injected_flits == result.injected_flits
        assert restored.to_dict() == result.to_dict()
        assert result.to_dict()["schema"] == RESULT_SCHEMA_VERSION

    def test_aborted_simulator_can_resume(self, aborted):
        """An abort is recoverable: the same simulator can keep running."""
        result = aborted.run(256)
        assert result.cycles == 512 + 256
        assert result.flit_conservation_ok


@needs_native
class TestDeadlineAbortPartialResultNative(TestDeadlineAbortPartialResult):
    """The same guarantees when the cycles ran as fused native spans."""

    backend = "native"
