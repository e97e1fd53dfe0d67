"""Fault injection, retry/quarantine and checkpoint/resume.

The resilience acceptance bar mirrors the parallel engine's: determinism
everywhere.  Same seed ⇒ same fault plan; a fault on one chip leaves every
other chip bit-identical to a fault-free run; a resumed campaign produces
the same DataLog as an uninterrupted one.
"""

import json

import numpy as np
import pytest

from repro.errors import (
    CheckpointError,
    ChipDropoutError,
    ConfigurationError,
    RetryExhaustedError,
)
from repro.lab.campaign import run_table1_campaign, table1_horizon
from repro.lab.datalog import DataLog
from repro.lab.faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from repro.lab.measurement import VirtualTestbench
from repro.lab.resilience import CheckpointStore, RetryPolicy
from repro.lab.schedule import PhaseKind, TestPhase
from repro.units import hours, minutes

CHIPS = ["chip-1", "chip-2", "chip-3"]


def short_stress_phase() -> TestPhase:
    return TestPhase(
        "AS110DC1", PhaseKind.STRESS, hours(1.0), 110.0, 1.2,
        sampling_interval=minutes(20.0),
    )


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        horizon = table1_horizon(3)
        kwargs = dict(rate_per_day=2.0, dropout_probability=0.5)
        assert FaultPlan.generate(7, CHIPS, horizon, **kwargs) == FaultPlan.generate(
            7, CHIPS, horizon, **kwargs
        )

    def test_different_seeds_differ(self):
        horizon = table1_horizon(3)
        plans = [FaultPlan.generate(s, CHIPS, horizon, rate_per_day=3.0) for s in (1, 2)]
        assert plans[0] != plans[1]

    def test_for_chip_filters_and_orders(self):
        plan = FaultPlan([
            FaultEvent(FaultKind.DROPPED_READOUT, "chip-2", start=50.0),
            FaultEvent(FaultKind.DROPPED_READOUT, "chip-1", start=10.0),
            FaultEvent(FaultKind.DROPPED_READOUT, "chip-2", start=5.0),
        ])
        assert [e.start for e in plan.for_chip("chip-2")] == [5.0, 50.0]
        assert plan.for_chip("chip-9") == ()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind=FaultKind.DROPPED_READOUT, chip_id="c", start=-1.0),
            dict(kind=FaultKind.THERMAL_DRIFT, chip_id="c", start=0.0),  # no duration
            dict(kind=FaultKind.STUCK_BIT, chip_id="c", start=0.0, magnitude=3.5),
        ],
    )
    def test_invalid_events_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FaultEvent(**kwargs)


class TestFaultInjector:
    def test_one_shot_fires_once(self):
        plan = FaultPlan([FaultEvent(FaultKind.DROPPED_READOUT, "c", start=10.0)])
        injector = FaultInjector(plan, "c")
        assert injector.pop_readout_fault(5.0) is None
        event = injector.pop_readout_fault(12.0)
        assert event is not None and event.kind is FaultKind.DROPPED_READOUT
        assert injector.pop_readout_fault(12.0) is None  # consumed
        assert injector.fired == [event]

    def test_window_offsets_bounded(self):
        plan = FaultPlan([
            FaultEvent(FaultKind.THERMAL_DRIFT, "c", start=10.0, duration=5.0,
                       magnitude=2.0),
        ])
        injector = FaultInjector(plan, "c")
        assert injector.temperature_offset(9.0) == 0.0
        assert injector.temperature_offset(12.0) == 2.0
        assert injector.temperature_offset(15.0) == 0.0  # end-exclusive

    def test_dropout_raises_permanently(self):
        plan = FaultPlan([FaultEvent(FaultKind.CHIP_DROPOUT, "c", start=100.0)])
        injector = FaultInjector(plan, "c")
        injector.check_dropout(99.0)
        with pytest.raises(ChipDropoutError):
            injector.check_dropout(100.0)
        with pytest.raises(ChipDropoutError):
            injector.check_dropout(1e9)

    def test_start_time_skips_spent_one_shots(self):
        plan = FaultPlan([FaultEvent(FaultKind.DROPPED_READOUT, "c", start=10.0)])
        injector = FaultInjector(plan, "c", start_time=50.0)
        assert injector.pop_readout_fault(60.0) is None


class TestRetryPolicy:
    def test_deterministic_backoff(self):
        policy = RetryPolicy(max_attempts=4, backoff_seconds=5.0, backoff_multiplier=2.0)
        assert [policy.backoff(k) for k in (1, 2, 3)] == [5.0, 10.0, 20.0]

    @pytest.mark.parametrize(
        "kwargs",
        [dict(max_attempts=0), dict(backoff_seconds=-1.0), dict(backoff_multiplier=0.5)],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestResilientTestbench:
    def test_no_faults_bit_identical_to_plain_bench(self, chip_factory):
        phase = short_stress_phase()
        plain_log, resilient_log = DataLog(), DataLog()
        plain = VirtualTestbench(chip_factory(seed=1), rng=9)
        plain.run_phase(phase, "CASE", plain_log)
        bench = VirtualTestbench(
            chip_factory(seed=1), injector=FaultInjector(FaultPlan(), "chip-seed1"),
            rng=9,
        )
        bench.run_phase(phase, "CASE", resilient_log)
        assert list(plain_log) == list(resilient_log)

    def test_dropped_readout_retried_and_phase_completes(self, chip_factory):
        chip = chip_factory(seed=2)
        plan = FaultPlan([
            FaultEvent(FaultKind.DROPPED_READOUT, chip.chip_id, start=minutes(30.0)),
        ])
        bench = VirtualTestbench(
            chip,
            injector=FaultInjector(plan, chip.chip_id),
            retry=RetryPolicy(max_attempts=3, backoff_seconds=4.0),
            rng=9,
        )
        log = DataLog()
        bench.run_phase(short_stress_phase(), "CASE", log)
        assert len(log) == 4  # initial + 3 intervals, no sample lost
        assert bench.injector.fired[0].kind is FaultKind.DROPPED_READOUT
        # 4 logged samples + 1 failed burst = 5 readout overheads, plus the
        # 4 s backoff the chip aged through while the operator re-armed.
        expected = hours(1.0) + 5 * bench.sampling_overhead + 4.0
        assert chip.elapsed == pytest.approx(expected)

    def test_retries_exhausted_raises(self, chip_factory):
        chip = chip_factory(seed=3)
        plan = FaultPlan([
            FaultEvent(FaultKind.DROPPED_READOUT, chip.chip_id, start=0.0),
            FaultEvent(FaultKind.DROPPED_READOUT, chip.chip_id, start=0.0),
        ])
        bench = VirtualTestbench(
            chip,
            injector=FaultInjector(plan, chip.chip_id),
            retry=RetryPolicy(max_attempts=2, backoff_seconds=1.0),
            rng=9,
        )
        with pytest.raises(RetryExhaustedError):
            bench.run_phase(short_stress_phase(), "CASE", DataLog())

    def test_stuck_bit_fires_and_no_sample_is_lost(self, chip_factory):
        chip = chip_factory(seed=4)
        plan = FaultPlan([
            FaultEvent(FaultKind.STUCK_BIT, chip.chip_id, start=minutes(30.0),
                       magnitude=13),
        ])
        injector = FaultInjector(plan, chip.chip_id)
        bench = VirtualTestbench(chip, injector=injector, rng=9)
        log = DataLog()
        bench.run_phase(short_stress_phase(), "CASE", log)
        assert injector.fired and injector.fired[0].kind is FaultKind.STUCK_BIT
        assert len(log) == 4  # corruption detected (or harmless), never fatal

    def test_thermal_drift_perturbs_delivered_temperature(self, chip_factory):
        chip = chip_factory(seed=5)
        plan = FaultPlan([
            FaultEvent(FaultKind.THERMAL_DRIFT, chip.chip_id, start=0.0,
                       duration=hours(2.0), magnitude=3.0),
        ])
        bench = VirtualTestbench(
            chip, injector=FaultInjector(plan, chip.chip_id), rng=9
        )
        bench.chamber.set_temperature_celsius(110.0)
        # Beyond the chamber's +/-0.3 degC control band around the setpoint.
        delivered = bench.bench._delivered_temperature(chip.lot[1])
        assert delivered - bench.chamber.setpoint > 0.3


class TestCampaignQuarantine:
    def test_dropout_quarantines_and_survivors_bit_identical(self):
        plan = FaultPlan([
            FaultEvent(FaultKind.CHIP_DROPOUT, "chip-2", start=hours(10.0)),
        ])
        clean = run_table1_campaign(seed=31, n_chips=2)
        faulted = run_table1_campaign(seed=31, n_chips=2, faults=plan)
        assert not faulted.complete
        report = faulted.quarantined["chip-2"]
        assert report.case == "AS110DC24"
        assert "stopped responding" in report.reason
        # The campaign completed and kept chip-2's records up to the fault.
        assert 0 < len(faulted.log.filter(chip_id="chip-2")) < len(
            clean.log.filter(chip_id="chip-2")
        )
        # The surviving chip is bit-identical to the fault-free run.
        assert list(faulted.log.filter(chip_id="chip-1")) == list(
            clean.log.filter(chip_id="chip-1")
        )
        assert faulted.fresh_delays == clean.fresh_delays


class TestCheckpointResume:
    def test_checkpointed_run_bit_identical_to_plain(self, tmp_path):
        plain = run_table1_campaign(seed=41, n_chips=2)
        checkpointed = run_table1_campaign(
            seed=41, n_chips=2, checkpoint=str(tmp_path / "ck")
        )
        assert list(plain.log) == list(checkpointed.log)

    def test_resume_after_losing_a_whole_chip_matches_uninterrupted(self, tmp_path):
        """Drop chip-2's progress from the manifest (as if the campaign died
        before its first checkpoint): resume replays it from scratch while
        chip-1 is restored from its shards — the merged log must match."""
        directory = tmp_path / "ck"
        uninterrupted = run_table1_campaign(seed=42, n_chips=2, checkpoint=str(directory))
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["completed"]["chip-2"]
        manifest_path.write_text(json.dumps(manifest))
        resumed = run_table1_campaign(
            seed=42, n_chips=2, checkpoint=str(directory), resume=True
        )
        assert list(resumed.log) == list(uninterrupted.log)
        assert resumed.fresh_delays == uninterrupted.fresh_delays
        for chip_id, chip in uninterrupted.chips.items():
            assert resumed.chips[chip_id].delta_path_delay() == chip.delta_path_delay()
            assert resumed.chips[chip_id].elapsed == chip.elapsed

    def test_kill_mid_schedule_then_resume_round_trips_rng_and_datalog(
        self, tmp_path, monkeypatch
    ):
        """SIGKILL model: die right after chip-2's first case checkpoint.
        The resumed tail must replay from the restored trap + RNG state so
        the final DataLog is bit-identical to an uninterrupted run."""
        directory = str(tmp_path / "ck")
        uninterrupted = run_table1_campaign(seed=43, n_chips=2)
        original = CheckpointStore.save_chip
        state = {"armed": True, "saves": 0}

        def save_then_die(self, chip, *args, **kwargs):
            original(self, chip, *args, **kwargs)
            if state["armed"]:
                state["saves"] += 1
                # Saves in schedule order: both baselines, then chip-1's
                # case, then chip-2's first case — die after that one.
                if state["saves"] == 4:
                    raise RuntimeError("simulated power loss")

        monkeypatch.setattr(CheckpointStore, "save_chip", save_then_die)
        with pytest.raises(RuntimeError, match="power loss"):
            run_table1_campaign(seed=43, n_chips=2, checkpoint=directory)
        state["armed"] = False
        resumed = run_table1_campaign(
            seed=43, n_chips=2, checkpoint=directory, resume=True
        )
        assert list(resumed.log) == list(uninterrupted.log)
        for chip_id, chip in uninterrupted.chips.items():
            assert resumed.chips[chip_id].delta_path_delay() == chip.delta_path_delay()

    def test_reusing_checkpoint_dir_without_resume_refused(self, tmp_path):
        directory = str(tmp_path / "ck")
        run_table1_campaign(seed=44, n_chips=1, checkpoint=directory)
        with pytest.raises(CheckpointError):
            run_table1_campaign(seed=44, n_chips=1, checkpoint=directory)

    def test_resume_with_different_seed_refused(self, tmp_path):
        directory = str(tmp_path / "ck")
        run_table1_campaign(seed=45, n_chips=1, checkpoint=directory)
        with pytest.raises(CheckpointError):
            run_table1_campaign(seed=46, n_chips=1, checkpoint=directory, resume=True)

    def test_resume_without_checkpoint_dir_refused(self):
        with pytest.raises(ConfigurationError):
            run_table1_campaign(seed=0, n_chips=1, resume=True)

    def test_corrupt_rng_state_raises_checkpoint_error(self, tmp_path, chip_factory):
        directory = tmp_path / "ck"
        store = CheckpointStore(directory)
        store.init_manifest(seed=0, n_chips=1, include_baseline=True)
        chip = chip_factory(seed=1)
        store.save_chip(chip, np.random.default_rng(0), DataLog(), DataLog(),
                        ["BASELINE-x"])
        rng_file = next(directory.glob(f"{chip.chip_id}.*.rng.json"))
        rng_file.write_text("{not json")
        with pytest.raises(CheckpointError):
            store.load_chip(chip_factory(seed=1), np.random.default_rng(0))

    def test_quarantine_is_checkpointed_and_not_replayed(self, tmp_path):
        directory = str(tmp_path / "ck")
        plan = FaultPlan([
            FaultEvent(FaultKind.CHIP_DROPOUT, "chip-2", start=hours(5.0)),
        ])
        first = run_table1_campaign(seed=47, n_chips=2, faults=plan, checkpoint=directory)
        assert "chip-2" in first.quarantined
        resumed = run_table1_campaign(
            seed=47, n_chips=2, faults=plan, checkpoint=directory, resume=True
        )
        assert resumed.quarantined["chip-2"].case == first.quarantined["chip-2"].case


class TestHorizon:
    def test_horizon_is_chip5_schedule(self):
        # Chip 5: 2 h baseline + 24 + 6 + 48 + 12 h of cases.
        assert table1_horizon(5) == pytest.approx(hours(92.0))
        assert table1_horizon(5, include_baseline=False) == pytest.approx(hours(90.0))

    def test_horizon_shrinks_with_fewer_chips(self):
        assert table1_horizon(1) == pytest.approx(hours(26.0))
