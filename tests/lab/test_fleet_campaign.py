"""Fleet campaign driver: bit-identity, sharding, fidelity, collection.

The acceptance bar from the engine's design: on the 5-chip Table 1
configuration the exact-fidelity fleet is *bit-identical* to the
sequential :func:`~repro.lab.campaign.run_table1_campaign` — every
record field, every fresh delay, every sanitizer digest.  Sharding may
only change scheduling, never results; binned fidelity trades
bit-identity for scale and must stay within a small statistical band of
exact.  (The full 5-chip identity run lives in
``benchmarks/bench_fleet_campaign.py``; the tier-1 versions here use
smaller lots to stay fast.)
"""

import pytest

from repro.errors import ConfigurationError, ScheduleError
from repro.lab.campaign import run_table1_campaign, table1_horizon
from repro.lab.fleet import (
    AUTO_EXACT_LIMIT,
    fleet_chip_no,
    run_fleet_campaign,
)
from repro.obs import ProgressReporter, Tracer


class TestExactBitIdentity:
    def test_two_chip_fleet_matches_sequential(self):
        sequential = run_table1_campaign(seed=1, n_chips=2, sanitize=True)
        fleet = run_fleet_campaign(seed=1, n_chips=2, fidelity="exact",
                                   sanitize=True)
        assert list(fleet.log) == list(sequential.log)
        assert fleet.fresh_delays == sequential.fresh_delays
        assert fleet.state_hashes == sequential.state_hashes
        assert fleet.complete
        assert fleet.total_measurements == len(sequential.log)

    def test_auto_picks_exact_for_small_lots(self):
        result = run_fleet_campaign(seed=0, n_chips=2, fidelity="auto")
        assert result.fidelity == "exact"
        assert AUTO_EXACT_LIMIT >= 5  # the paper bench must stay exact

    def test_summaries_cover_every_chip_in_order(self):
        result = run_fleet_campaign(seed=0, n_chips=7, fidelity="binned")
        assert [s.chip_id for s in result.summaries] == [
            f"chip-{i + 1}" for i in range(7)
        ]
        assert [s.chip_no for s in result.summaries] == [
            fleet_chip_no(i) for i in range(7)
        ]
        for summary in result.summaries:
            assert summary.measurements > 0
            assert summary.fresh_frequency > 0


class TestSharding:
    def test_sharded_run_bit_identical_to_sequential_fleet(self):
        base = run_fleet_campaign(seed=2, n_chips=6, fidelity="binned",
                                  sanitize=True)
        sharded = run_fleet_campaign(seed=2, n_chips=6, fidelity="binned",
                                     sanitize=True, shards=3)
        assert list(base.log) == list(sharded.log)
        assert base.state_hashes == sharded.state_hashes
        assert base.fresh_delays == sharded.fresh_delays
        assert [s.case_end_frequency for s in base.summaries] == [
            s.case_end_frequency for s in sharded.summaries
        ]
        assert sharded.shards == 3

    def test_more_shards_than_chips_is_fine(self):
        result = run_fleet_campaign(seed=0, n_chips=2, fidelity="binned",
                                    shards=5)
        assert len(result.summaries) == 2


class TestBinnedFidelity:
    def test_binned_tracks_exact_degradation(self):
        exact = run_fleet_campaign(seed=0, n_chips=5, fidelity="exact")
        binned = run_fleet_campaign(seed=0, n_chips=5, fidelity="binned")
        for a, b in zip(exact.summaries, binned.summaries):
            assert a.stress_degradation_pct == pytest.approx(
                b.stress_degradation_pct, abs=0.2
            )
            assert a.residual_degradation_pct == pytest.approx(
                b.residual_degradation_pct, abs=0.2
            )

    def test_batching_does_not_change_results(self):
        whole = run_fleet_campaign(seed=0, n_chips=6, fidelity="binned")
        batched = run_fleet_campaign(seed=0, n_chips=6, fidelity="binned",
                                     batch_size=2)
        assert [s.case_end_frequency for s in whole.summaries] == [
            s.case_end_frequency for s in batched.summaries
        ]


class TestCollectionModes:
    def test_summary_mode_trims_records_but_not_statistics(self):
        full = run_fleet_campaign(seed=0, n_chips=2, fidelity="exact",
                                  sanitize=True)
        trimmed = run_fleet_campaign(seed=0, n_chips=2, fidelity="exact",
                                     sanitize=True, collect="summary")
        assert len(trimmed.log) < len(full.log)
        assert trimmed.total_measurements == full.total_measurements
        # Hashes are fed the full stream before trimming.
        assert trimmed.state_hashes == full.state_hashes
        assert [s.case_end_frequency for s in trimmed.summaries] == [
            s.case_end_frequency for s in full.summaries
        ]
        # First and last record of every (chip, phase) survive the trim.
        kept = {(r.chip_id, r.case, r.phase) for r in trimmed.log}
        assert kept == {(r.chip_id, r.case, r.phase) for r in full.log}
        # Summaries count every record taken, trimmed or not.
        assert [s.measurements for s in trimmed.summaries] == [
            s.measurements for s in full.summaries
        ]
        assert sum(s.measurements for s in full.summaries) == len(full.log)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ScheduleError):
            run_fleet_campaign(n_chips=0)
        with pytest.raises(ScheduleError):
            run_fleet_campaign(n_chips=2, shards=0)
        with pytest.raises(ConfigurationError):
            run_fleet_campaign(n_chips=2, collect="everything")
        with pytest.raises(ConfigurationError):
            run_fleet_campaign(n_chips=2, fidelity="approximate")


class TestTiledSchedule:
    def test_six_chip_campaign_tiles_the_five_rows(self):
        import io

        buffer = io.StringIO()
        table1 = run_table1_campaign(
            seed=2, n_chips=6, include_baseline=False,
            progress=ProgressReporter(stream=buffer),
        )
        fleet = run_fleet_campaign(seed=2, n_chips=6, include_baseline=False,
                                   fidelity="exact")
        assert list(table1.log) == list(fleet.log)
        # Chip 6 runs paper chip 1's row.
        assert table1.log.filter(chip_id="chip-6").cases() == ["AS110AC24"]
        assert table1_horizon(6) == table1_horizon(5)
        # One progress line per chip and case, and the totals agree.
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 12
        assert "(12/12 cases, 5/6 chips)" in lines[-1]


class TestSpanAccounting:
    def test_case_spans_sum_to_the_root(self):
        tracer = Tracer()
        result = run_fleet_campaign(seed=4, n_chips=7, fidelity="exact", tracer=tracer)
        root = tracer.spans("campaign")[0]
        assert set(root.attributes) == {"seed", "n_chips", "fidelity", "shards",
                                        "sim_advanced"}
        assert (root.attributes["fidelity"], root.attributes["shards"]) == ("exact", 1)
        elapsed = sum(chip.elapsed for chip in result.chips.values())
        assert root.sim_advanced == pytest.approx(elapsed, rel=1e-12)
        cases = sum(span.sim_advanced for span in tracer.spans("case"))
        assert cases == pytest.approx(root.sim_advanced, rel=1e-12)
        # One measurement span per sampled group: the 7-chip baseline is
        # one group, rows 1 and 2 hold two chips each.
        measurements = tracer.spans("measurement")
        assert measurements
        burst_time = sum(span.sim_advanced for span in measurements)
        assert burst_time == pytest.approx(3.0 * len(result.log))
        assert len(measurements) < len(result.log)
