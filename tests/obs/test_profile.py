"""Hot-path profiler: throughput sampling and profile views."""

from repro.obs import Tracer
from repro.obs.profile import (
    CACHE_HIT_RATE,
    CaseThroughputSampler,
    HotPathProfile,
    MEAS_PER_S,
    TRAP_UPDATES_PER_S,
)
from repro.obs.query import TraceModel
from repro.obs.tracer import NULL_TRACER


class FakeSpan:
    def __init__(self, duration):
        self.duration = duration


class TestCaseThroughputSampler:
    def test_observes_counter_deltas_over_duration(self):
        tracer = Tracer()
        tracer.counter("lab.samples").inc(10.0)
        sampler = CaseThroughputSampler(tracer)
        tracer.counter("lab.samples").inc(30.0)
        tracer.counter("bti.trap_updates").inc(400.0)
        sampler.finish(FakeSpan(duration=2.0))
        meas = tracer.metrics.get(MEAS_PER_S)
        assert meas.count == 1
        assert meas.mean == 15.0  # (40 - 10) / 2
        updates = tracer.metrics.get(TRAP_UPDATES_PER_S)
        assert updates.mean == 200.0

    def test_registers_cache_hit_rate(self):
        tracer = Tracer()
        tracer.counter("bti.rate_cache.partial_hits").inc(3.0)
        tracer.counter("bti.rate_cache.misses").inc(1.0)
        CaseThroughputSampler(tracer)
        assert tracer.metrics.value(CACHE_HIT_RATE) == 0.75

    def test_zero_duration_span_is_skipped(self):
        tracer = Tracer()
        sampler = CaseThroughputSampler(tracer)
        sampler.finish(FakeSpan(duration=0.0))
        assert tracer.metrics.get(MEAS_PER_S).count == 0

    def test_null_tracer_is_noop(self):
        sampler = CaseThroughputSampler(NULL_TRACER)
        sampler.finish(FakeSpan(duration=1.0))  # must not raise


def _profiled_tracer():
    tracer = Tracer()
    with tracer.span("campaign"):
        with tracer.span("case", chip_id="chip-1", case="AS110AC24"):
            with tracer.span("phase", kind="stress", phase="AS110AC24") as span:
                span.set("sim_advanced", 3600.0)
            with tracer.span("phase", kind="recovery", phase="R20Z6") as span:
                span.set("sim_advanced", 1800.0)
    tracer.histogram(MEAS_PER_S, "").observe(100.0)
    tracer.histogram(TRAP_UPDATES_PER_S, "").observe(5000.0)
    return tracer


class TestHotPathProfile:
    def test_phase_table_groups_by_label_and_kind(self):
        profile = HotPathProfile.from_tracer(_profiled_tracer())
        rendered = profile.phase_table().render()
        assert "AS110AC24" in rendered
        assert "stress" in rendered
        assert "recovery" in rendered

    def test_collapsed_stacks_are_sorted_with_usec_values(self):
        profile = HotPathProfile.from_tracer(_profiled_tracer())
        lines = profile.collapsed()
        assert lines == sorted(lines)
        values = []
        for line in lines:
            path, _, value = line.rpartition(" ")
            assert int(value) >= 0
            values.append(int(value))
        assert sum(values) > 0  # the tree as a whole carries real time
        assert any("phase:stress" in line for line in lines)

    def test_collapsed_is_deterministic_in_structure(self):
        paths_a = [line.rpartition(" ")[0] for line in
                   HotPathProfile.from_tracer(_profiled_tracer()).collapsed()]
        paths_b = [line.rpartition(" ")[0] for line in
                   HotPathProfile.from_tracer(_profiled_tracer()).collapsed()]
        assert paths_a == paths_b

    def test_throughput_table_reads_histograms(self):
        profile = HotPathProfile.from_tracer(_profiled_tracer())
        rendered = profile.throughput_table().render()
        assert MEAS_PER_S in rendered
        assert "100.0" in rendered
        assert CACHE_HIT_RATE in rendered

    def test_throughput_table_handles_missing_metrics(self):
        profile = HotPathProfile(TraceModel([], {}))
        rendered = profile.throughput_table().render()
        assert MEAS_PER_S in rendered  # row pinned even with no data


class TestCampaignIntegration:
    def test_campaign_trace_carries_throughput_histograms(self):
        from repro.lab.campaign import run_table1_campaign

        tracer = Tracer()
        run_table1_campaign(seed=0, n_chips=1, tracer=tracer)
        meas = tracer.metrics.get(MEAS_PER_S)
        # one observation per case (baseline + AS110AC24)
        assert meas.count == 2
        assert meas.min > 0.0
        profile = HotPathProfile.from_tracer(tracer)
        assert any("measurement" in line for line in profile.collapsed())
