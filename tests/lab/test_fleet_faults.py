"""Fleet faultloads: every option at lock-step scale, upsets, guards.

``run_fleet_campaign`` accepts every resilience option of
``run_table1_campaign`` at both fidelities and any shard count; the one
typed :class:`~repro.errors.ConfigurationError` left is checkpoint/resume
with ``shards > 1``.  At ``n_chips <= 5`` every Table 1 case group holds
one chip, so the lock-step tests here use 10-chip lots, where positions
``i`` and ``i + 5`` share a group.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError, PhysicsViolationError
from repro.guard import GuardConfig
from repro.lab.campaign import run_table1_campaign, table1_horizon
from repro.lab.faults import WINDOW_KINDS, FaultEvent, FaultKind, FaultPlan
from repro.lab.fleet import run_fleet_campaign
from repro.lab.resilience import CheckpointStore, RetryPolicy
from repro.obs import Tracer
from repro.units import hours


def upset_plan(n_chips=2, seed=11, probability=1.0):
    """A plan containing only trap upsets."""
    chip_ids = [f"chip-{i + 1}" for i in range(n_chips)]
    plan = FaultPlan.generate(
        seed,
        chip_ids,
        table1_horizon(n_chips),
        rate_per_day=0.0,
        upset_probability=probability,
    )
    assert {event.kind for event in plan.events} <= {FaultKind.TRAP_UPSET}
    return plan


#: chip-2 and chip-7 share the lock-step group of schedule row 2: one
#: retries its way through a dropped readout burst, the other drops out.
GROUP_PLAN = FaultPlan([
    FaultEvent(FaultKind.DROPPED_READOUT, "chip-2", start=hours(5.0)),
    FaultEvent(FaultKind.DROPPED_READOUT, "chip-2", start=hours(5.0)),
    FaultEvent(FaultKind.CHIP_DROPOUT, "chip-7", start=hours(12.0)),
    FaultEvent(FaultKind.THERMAL_DRIFT, "chip-7", start=hours(3.0), duration=hours(2.0),
               magnitude=2.0),
])

#: Two upsets on chip-2 exhaust a budget of 2; chip-7 takes one and stays.
BUDGET_PLAN = FaultPlan([
    FaultEvent(FaultKind.TRAP_UPSET, "chip-2", start=hours(1.0), magnitude=float("nan")),
    FaultEvent(FaultKind.TRAP_UPSET, "chip-2", start=hours(6.0), magnitude=3.0),
    FaultEvent(FaultKind.TRAP_UPSET, "chip-7", start=hours(6.0), magnitude=2.5),
    FaultEvent(FaultKind.RELAY_CHATTER, "chip-7", start=hours(8.0)),
])
BUDGET = GuardConfig(mode="clamp", violation_budget=2, dump_dir=None)
RETRY = RetryPolicy(max_attempts=3, backoff_seconds=5.0)


def chip_records(result, chip_id):
    return list(result.log.filter(chip_id=chip_id))


def state_digest(chip) -> str:
    state = chip.export_state()
    digest = hashlib.sha256()
    for key in sorted(state):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(state[key], dtype=float).tobytes())
    return digest.hexdigest()


class TestTypedRejections:
    def test_checkpoint_rejected_by_name(self, tmp_path):
        with pytest.raises(ConfigurationError, match="checkpoint"):
            run_fleet_campaign(seed=0, n_chips=4, shards=2, checkpoint=str(tmp_path))

    def test_resume_rejected_by_name(self, tmp_path):
        with pytest.raises(ConfigurationError, match="resume"):
            run_fleet_campaign(seed=0, n_chips=2, resume=True)


class TestEveryOption:
    def test_group_retry_and_dropout_match_five_chips(self):
        tracer = Tracer()
        lot = run_fleet_campaign(
            seed=5, n_chips=10, fidelity="exact", faults=GROUP_PLAN, retry=RETRY,
            tracer=tracer,
        )
        five = run_table1_campaign(seed=5, faults=GROUP_PLAN, retry=RETRY)
        assert tracer.metrics.value("lab.sample_retries") == 2.0
        assert sorted(lot.quarantined) == ["chip-7"]
        assert lot.quarantined["chip-7"].case == "AS110DC24"
        assert not five.quarantined
        for number in range(1, 6):
            chip_id = f"chip-{number}"
            assert chip_records(lot, chip_id) == chip_records(five, chip_id)
            assert state_digest(lot.chips[chip_id]) == state_digest(five.chips[chip_id])
        # The dropped chip kept its records up to the fault.
        assert 0 < len(chip_records(lot, "chip-7")) < len(chip_records(lot, "chip-2"))

    def test_guard_budget_quarantines_one_chip_of_a_group(self):
        lot = run_fleet_campaign(
            seed=5, n_chips=10, fidelity="exact", faults=BUDGET_PLAN, retry=RETRY,
            guard=BUDGET,
        )
        assert sorted(lot.quarantined) == ["chip-2"]
        assert "budget exhausted" in lot.quarantined["chip-2"].reason
        spared = FaultPlan([e for e in BUDGET_PLAN.events if e.chip_id != "chip-2"])
        alone = run_fleet_campaign(
            seed=5, n_chips=10, fidelity="exact", faults=spared, retry=RETRY, guard=BUDGET,
        )
        # chip-7 shared every chunk with chip-2, yet its history is its own.
        assert chip_records(lot, "chip-7") == chip_records(alone, "chip-7")
        assert state_digest(lot.chips["chip-7"]) == state_digest(alone.chips["chip-7"])

    def test_faulted_budgeted_lot_is_shard_invariant(self):
        plan = FaultPlan(GROUP_PLAN.events + BUDGET_PLAN.events)
        kwargs = dict(
            seed=5, n_chips=10, fidelity="exact", faults=plan, retry=RETRY, guard=BUDGET,
            sanitize=True,
        )
        one = run_fleet_campaign(shards=1, **kwargs)
        two = run_fleet_campaign(shards=2, **kwargs)
        assert list(one.log) == list(two.log)
        assert one.quarantined == two.quarantined
        assert sorted(one.quarantined) == ["chip-2", "chip-7"]
        assert one.state_hashes == two.state_hashes

    def test_guarded_lot_is_shard_invariant(self):
        kwargs = dict(
            seed=3, n_chips=7, fidelity="exact", faults=upset_plan(7),
            guard=GuardConfig(mode="clamp", dump_dir=None), sanitize=True,
        )
        tracer = Tracer()
        one = run_fleet_campaign(shards=1, tracer=tracer, **kwargs)
        two = run_fleet_campaign(shards=2, **kwargs)
        violations = sum(
            value
            for name, value in tracer.metrics.snapshot().items()
            if name.startswith("guard.violations.")
        )
        assert violations >= 1.0
        assert list(one.log) == list(two.log)
        assert one.summaries == two.summaries
        assert one.state_hashes == two.state_hashes

    def test_each_fault_kind_stays_on_its_chip(self):
        """One event of each kind on chip-2 leaves chip-7, which shares
        its lock-step group, exactly as in the fault-free lot."""
        kwargs = dict(
            seed=5, n_chips=7, fidelity="exact", retry=RETRY,
            guard=GuardConfig(mode="clamp", dump_dir=None),
        )
        clean = run_fleet_campaign(**kwargs)
        magnitudes = {
            FaultKind.THERMAL_DRIFT: 2.0,
            FaultKind.SUPPLY_DROOP: 0.1,
            FaultKind.STUCK_BIT: 12.0,
            FaultKind.TRAP_UPSET: 2.5,
        }
        for kind in FaultKind:
            event = FaultEvent(
                kind, "chip-2", start=hours(5.0),
                duration=hours(2.0) if kind in WINDOW_KINDS else 0.0,
                magnitude=magnitudes.get(kind, 0.0),
            )
            faulted = run_fleet_campaign(faults=FaultPlan([event]), **kwargs)
            assert chip_records(faulted, "chip-2") != chip_records(clean, "chip-2"), kind
            assert chip_records(faulted, "chip-7") == chip_records(clean, "chip-7"), kind
            assert state_digest(faulted.chips["chip-7"]) == state_digest(
                clean.chips["chip-7"]
            ), kind
            assert sorted(faulted.quarantined) == (
                ["chip-2"] if kind is FaultKind.CHIP_DROPOUT else []
            ), kind

    def test_every_fault_kind_runs_at_both_fidelities(self):
        plan = FaultPlan.generate(
            seed=1,
            chip_ids=[f"chip-{i + 1}" for i in range(10)],
            horizon=table1_horizon(10),
            rate_per_day=4.0,
            dropout_probability=0.3,
            upset_probability=0.5,
        )
        assert {e.kind for e in plan.events} >= {FaultKind.CHIP_DROPOUT, FaultKind.TRAP_UPSET}
        for fidelity in ("exact", "binned"):
            result = run_fleet_campaign(
                seed=0, n_chips=10, fidelity=fidelity, faults=plan, retry=RETRY,
                guard=GuardConfig(mode="clamp", violation_budget=4, dump_dir=None),
            )
            assert result.quarantined, fidelity
            assert result.total_measurements > 0
            assert all(np.isfinite(r.frequency) for r in result.log)

    def test_checkpointed_lot_resumes_bit_identically(self, tmp_path, monkeypatch):
        kwargs = dict(seed=6, n_chips=10, fidelity="exact", faults=GROUP_PLAN, retry=RETRY)
        uninterrupted = run_fleet_campaign(**kwargs)
        original = CheckpointStore.save_chip
        saves = []

        def save_then_die(self, chip, *args, **kw):
            original(self, chip, *args, **kw)
            saves.append(chip.chip_id)
            # Past every baseline and into the first row-2 group's case.
            if len(saves) == 13:
                raise RuntimeError("simulated power loss")

        monkeypatch.setattr(CheckpointStore, "save_chip", save_then_die)
        directory = str(tmp_path / "ck")
        with pytest.raises(RuntimeError, match="power loss"):
            run_fleet_campaign(checkpoint=directory, **kwargs)
        monkeypatch.undo()
        resumed = run_fleet_campaign(checkpoint=directory, resume=True, **kwargs)
        assert list(resumed.log) == list(uninterrupted.log)
        assert resumed.quarantined == uninterrupted.quarantined


class TestUpsetInjection:
    def test_upsets_perturb_the_run(self):
        baseline = run_fleet_campaign(seed=3, n_chips=2, fidelity="exact")
        upset = run_fleet_campaign(
            seed=3,
            n_chips=2,
            fidelity="exact",
            faults=upset_plan(probability=1.0),
            guard=GuardConfig(mode="clamp", dump_dir=None),
        )
        assert list(upset.log) != list(baseline.log)
        assert upset.total_measurements == baseline.total_measurements

    def test_upset_injection_counted(self):
        tracer = Tracer()
        run_fleet_campaign(
            seed=3,
            n_chips=2,
            fidelity="exact",
            faults=upset_plan(probability=1.0),
            guard=GuardConfig(mode="clamp", dump_dir=None),
            tracer=tracer,
        )
        assert tracer.metrics.value("lab.faults.injected") >= 1.0

    def test_nan_upset_without_guard_raises(self):
        plan = FaultPlan(
            [
                FaultEvent(
                    chip_id="chip-1",
                    kind=FaultKind.TRAP_UPSET,
                    start=1000.0,
                    duration=0.0,
                    magnitude=float("nan"),
                )
            ]
        )
        with pytest.raises(PhysicsViolationError):
            run_fleet_campaign(seed=3, n_chips=1, fidelity="exact", faults=plan)

    def test_upsets_deterministic_per_seed(self):
        kwargs = dict(
            seed=3,
            n_chips=2,
            fidelity="exact",
            faults=upset_plan(probability=1.0),
            guard=GuardConfig(mode="clamp", dump_dir=None),
        )
        first = run_fleet_campaign(**kwargs)
        second = run_fleet_campaign(**kwargs)
        assert list(first.log) == list(second.log)

    def test_binned_fidelity_accepts_upsets(self):
        result = run_fleet_campaign(
            seed=3,
            n_chips=2,
            fidelity="binned",
            faults=upset_plan(probability=1.0),
            guard=GuardConfig(mode="clamp", dump_dir=None),
        )
        assert result.total_measurements > 0

    def test_matches_scalar_bench_semantics(self):
        """Same upset plan through the scalar campaign also completes."""
        plan = upset_plan(probability=1.0)
        scalar = run_table1_campaign(
            seed=3,
            n_chips=2,
            faults=plan,
            guard=GuardConfig(mode="clamp", dump_dir=None),
        )
        assert not np.isnan([r.frequency for r in scalar.log]).any()


class TestGuardThreading:
    def test_clean_run_under_guard_is_bit_identical(self):
        plain = run_fleet_campaign(seed=1, n_chips=2, fidelity="exact")
        guarded = run_fleet_campaign(
            seed=1,
            n_chips=2,
            fidelity="exact",
            guard=GuardConfig(mode="clamp", dump_dir=None),
        )
        assert list(guarded.log) == list(plain.log)

    def test_clamp_counts_violations(self):
        tracer = Tracer()
        run_fleet_campaign(
            seed=3,
            n_chips=2,
            fidelity="exact",
            faults=upset_plan(probability=1.0),
            guard=GuardConfig(mode="clamp", dump_dir=None),
            tracer=tracer,
        )
        metrics = tracer.metrics.snapshot()
        violations = sum(
            value
            for name, value in metrics.items()
            if name.startswith("guard.violations.")
        )
        assert violations >= 1.0
