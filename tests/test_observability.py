"""Tests for repro.observability: phase timer, flit tracer, counters,
and the profile driver."""

import json

import numpy as np
import pytest

from repro import (
    FlitTracer,
    PerfCounters,
    PhaseTimer,
    SimulationConfig,
    Simulator,
    make_category_workload,
    make_homogeneous_workload,
)
from repro.__main__ import _timing_overhead
from repro.observability import EVENT_NAMES, EV_EJECT, EV_HOP, EV_INJECT
from repro.observability.phases import PHASES


def run(workload=None, cycles=2000, **kw):
    workload = workload or make_homogeneous_workload("mcf", 16)
    kw.setdefault("seed", 5)
    kw.setdefault("epoch", 500)
    sim = Simulator(SimulationConfig(workload, **kw))
    return sim, sim.run(cycles)


class TestPhaseTimer:
    def test_laps_accumulate_into_named_phases(self):
        t = PhaseTimer()
        t.begin_cycle()
        t.lap("cores")
        t.lap("network")
        assert t.seconds["cores"] >= 0.0
        assert t.seconds["network"] >= 0.0
        assert t.seconds["behavior"] == 0.0

    def test_all_phases_present_from_start(self):
        assert set(PhaseTimer().seconds) == set(PHASES)


class TestFlitTracer:
    def test_sampling_is_deterministic_per_salt(self):
        a = FlitTracer(sample=0.5, salt=7)
        b = FlitTracer(sample=0.5, salt=7)
        src = np.arange(200)
        seq = np.arange(200) * 3
        kind = np.zeros(200, dtype=int)
        np.testing.assert_array_equal(
            a.sampled(src, seq, kind), b.sampled(src, seq, kind)
        )

    def test_different_salts_sample_different_subsets(self):
        src = np.arange(500)
        seq = np.zeros(500, dtype=int)
        kind = np.zeros(500, dtype=int)
        a = FlitTracer(sample=0.5, salt=1).sampled(src, seq, kind)
        b = FlitTracer(sample=0.5, salt=2).sampled(src, seq, kind)
        assert not np.array_equal(a, b)

    def test_sample_rate_extremes(self):
        src = np.arange(300)
        seq = np.zeros(300, dtype=int)
        kind = np.zeros(300, dtype=int)
        assert not FlitTracer(sample=0.0).sampled(src, seq, kind).any()
        assert FlitTracer(sample=1.0).sampled(src, seq, kind).all()

    def test_sample_rate_roughly_honored(self):
        n = 20_000
        src = np.arange(n) % 64
        seq = np.arange(n)
        kind = np.zeros(n, dtype=int)
        frac = FlitTracer(sample=0.25, salt=3).sampled(src, seq, kind).mean()
        assert 0.2 < frac < 0.3

    def test_ring_buffer_bounds_memory_and_counts_drops(self):
        tr = FlitTracer(capacity=8, sample=1.0)
        for cycle in range(5):
            tr.record(EV_HOP, cycle, np.arange(4), np.arange(4),
                      np.arange(4), 0, np.arange(4), 1)
        assert len(tr) == 8
        assert tr.recorded == 20
        assert tr.dropped == 12
        # Chronological order survives the wrap: oldest held first.
        cycles = tr.events()["cycle"]
        assert list(cycles) == sorted(cycles)
        assert cycles[0] == 3 and cycles[-1] == 4

    def test_record_filters_by_identity(self):
        tr = FlitTracer(capacity=64, sample=0.5, salt=9)
        src = np.arange(32)
        seq = np.full(32, 5)
        kind = np.zeros(32, dtype=int)
        keep = tr.sampled(src, seq, kind)
        written = tr.record(EV_INJECT, 0, src, src, src + 1, kind, seq, 0)
        assert written == int(keep.sum())
        np.testing.assert_array_equal(
            np.sort(tr.events()["src"][:written]), src[keep]
        )

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            FlitTracer(capacity=0)
        with pytest.raises(ValueError):
            FlitTracer(sample=1.5)

    def test_journeys_reassemble_inject_to_eject(self):
        tr = FlitTracer(capacity=64, sample=1.0)
        tr.record(EV_INJECT, 10, 0, 0, 5, 0, 1, 0)
        tr.record(EV_HOP, 11, 1, 0, 5, 0, 1, 1)
        tr.record(EV_HOP, 12, 2, 0, 5, 0, 1, 2)
        tr.record(EV_EJECT, 13, 5, 0, 5, 0, 1, 3)
        trips = tr.journeys()
        assert len(trips) == 1
        trip = trips[0]
        assert trip["src"] == 0 and trip["dest"] == 5
        assert trip["hops"] == 2
        assert trip["latency"] == 3

    def test_journeys_identity_reuse_opens_fresh_trip(self):
        # seq wraps mod 256: the same (src, seq, kind) identity re-used
        # later must start a new journey, and the first (unejected)
        # instance must not leak its hops into the second.
        tr = FlitTracer(capacity=64, sample=1.0)
        tr.record(EV_INJECT, 0, 0, 0, 5, 0, 1, 0)
        tr.record(EV_HOP, 1, 1, 0, 5, 0, 1, 1)
        tr.record(EV_INJECT, 10, 0, 0, 7, 0, 1, 0)  # re-inject, same identity
        tr.record(EV_HOP, 11, 1, 0, 7, 0, 1, 1)
        tr.record(EV_EJECT, 12, 7, 0, 7, 0, 1, 2)
        trips = tr.journeys()
        assert len(trips) == 1
        assert trips[0]["dest"] == 7
        assert trips[0]["hops"] == 1
        assert trips[0]["inject_cycle"] == 10

    def test_journeys_orphan_events_before_inject_are_dropped(self):
        tr = FlitTracer(capacity=64, sample=1.0)
        three = np.array([3])
        tr.record(EV_HOP, 0, 1, three, 5, 0, 1, 1)  # no inject held (wrapped)
        tr.record(EV_EJECT, 1, 5, three, 5, 0, 1, 2)
        assert tr.journeys() == []

    def test_summary_mentions_every_event_kind(self):
        tr = FlitTracer(capacity=16, sample=1.0)
        tr.record(EV_INJECT, 0, 0, 0, 1, 0, 1, 0)
        text = tr.summary()
        for name in EVENT_NAMES:
            assert name in text


class TestPerfCounters:
    def test_derived_rates(self):
        perf = PerfCounters(wall_seconds=2.0, cycles=1000,
                            ejected_flits=5000)
        assert perf.cycles_per_sec == pytest.approx(500.0)
        assert perf.flits_per_sec == pytest.approx(2500.0)

    def test_zero_wall_time_rates_are_zero(self):
        assert PerfCounters().cycles_per_sec == 0.0
        assert PerfCounters().flits_per_sec == 0.0

    def test_dict_roundtrip(self):
        perf = PerfCounters(
            wall_seconds=1.5, cycles=300, injected_flits=10,
            ejected_flits=9, phase_seconds={"network": 1.0, "cores": 0.5},
            trace_events=7, trace_dropped=2,
        )
        clone = PerfCounters.from_dict(perf.to_dict())
        assert clone == perf
        assert json.dumps(perf.to_dict(), allow_nan=False)

    def test_phase_shares_normalize(self):
        perf = PerfCounters(phase_seconds={"network": 3.0, "cores": 1.0})
        assert perf.phase_shares()["network"] == pytest.approx(0.75)


@pytest.mark.slow
class TestSimulatorIntegration:
    def test_default_run_attaches_no_perf(self):
        _, res = run()
        assert res.perf is None

    def test_profiled_run_attaches_phase_breakdown(self):
        sim, res = run(profile=True)
        assert sim.phase_timer is not None
        perf = res.perf
        assert perf is not None
        assert perf.cycles == 2000
        assert perf.wall_seconds > 0.0
        assert set(perf.phase_seconds) == set(PHASES)
        # The attributed time is a large, sane fraction of the wall time.
        assert 0.5 < sum(perf.phase_seconds.values()) / perf.wall_seconds <= 1.01
        assert sum(perf.phase_shares().values()) == pytest.approx(1.0)

    def test_traced_run_records_events(self):
        sim, res = run(trace=True, trace_sample=0.5, trace_capacity=4096)
        assert sim.tracer is not None
        counts = sim.tracer.event_counts()
        assert counts["inject"] > 0
        assert counts["hop"] > 0
        assert counts["eject"] > 0
        assert res.perf is not None
        assert res.perf.trace_events == sim.tracer.recorded

    def test_trace_is_deterministic_given_seed(self):
        kw = dict(trace=True, trace_sample=0.25, trace_capacity=8192, seed=11)
        sim_a, _ = run(**kw)
        sim_b, _ = run(**kw)
        ev_a, ev_b = sim_a.tracer.events(), sim_b.tracer.events()
        for name in ev_a:
            np.testing.assert_array_equal(ev_a[name], ev_b[name])

    def test_buffered_network_traces_too(self):
        sim, _ = run(network="buffered", trace=True, trace_sample=0.5)
        counts = sim.tracer.event_counts()
        assert counts["inject"] > 0
        assert counts["eject"] > 0
        assert counts["deflect"] == 0  # buffered routers never deflect

    def test_observability_does_not_change_simulation(self):
        """Profiling and tracing are read-only: the simulated outcome is
        bit-identical with and without them."""
        _, plain = run(seed=9)
        _, observed = run(seed=9, profile=True, trace=True, trace_sample=0.5)
        d_plain, d_obs = plain.to_dict(), observed.to_dict()
        assert d_plain["perf"] is None and d_obs["perf"] is not None
        d_plain.pop("perf"), d_obs.pop("perf")
        assert d_plain == d_obs


class TestProfileDriver:
    def test_overhead_check_populates_gate_fields(self):
        def build(**observe):
            workload = make_category_workload(
                "H", 16, np.random.default_rng(1)
            )
            return lambda: Simulator(
                SimulationConfig(workload, seed=1, epoch=200, **observe)
            )

        plain, timed, overhead = _timing_overhead(
            build(), build(profile=True), cycles=400, repeats=1
        )
        assert plain > 0 and timed > 0
        assert overhead == pytest.approx((1.0 - timed / plain) * 100.0)
