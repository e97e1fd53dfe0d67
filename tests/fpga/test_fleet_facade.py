"""Span independence: a lot position must BE a standalone ``FpgaChip``.

The fleet engine's whole contract rests on this file: every operation
the lab stack performs on a chip — stress, recovery, cycle fast-forward,
measurement observables, state export/import, fault upsets, guard-mode
behaviour — must produce bit-identical results through the view of
position 2 of a 4-chip :class:`~repro.fpga.fleet.FleetChip` and through
a standalone :class:`~repro.fpga.chip.FpgaChip` (a one-chip lot) built
from the same seed, while the view's neighbours replay different tapes.
Property-style: one randomised operation tape is replayed against both.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fpga.chip import CycleSegment, FpgaChip
from repro.fpga.fabric import Fabric, Location
from repro.fpga.fleet import FleetChip
from repro.fpga.ring_oscillator import StressMode
from repro.guard import Guard, GuardConfig
from repro.units import celsius, hours

from tests.conftest import fast_technology

SEED = 123
#: Lot position of the chip under comparison, and every position's seed.
POSITION = 2
LOT_SEEDS = [11, 12, SEED, 13]


def make_pair(guard_mode: str = "raise", fabric=None, locations=None):
    """(standalone chip, its lot view, the view's neighbours in the lot)."""
    guard = Guard(GuardConfig(mode=guard_mode, dump_dir=None))
    location = None if locations is None else locations[POSITION]
    chip = FpgaChip("chip-1", seed=SEED, guard=guard, fabric=fabric, location=location)
    fleet = FleetChip(
        ["chip-a", "chip-b", "chip-1", "chip-c"], LOT_SEEDS, guard=guard,
        fabric=fabric, locations=locations,
    )
    neighbours = [fleet.view(i) for i in range(fleet.n_chips) if i != POSITION]
    return chip, fleet.view(POSITION), neighbours


def random_tape(seed: int, n_ops: int = 12):
    """A deterministic random sequence of chip operations."""
    rng = np.random.default_rng(seed)
    tape = []
    for _ in range(n_ops):
        op = rng.choice(["stress_dc", "stress_ac", "recover", "cycles"])
        duration = hours(float(rng.uniform(0.1, 3.0)))
        temperature = float(rng.uniform(20.0, 110.0))
        if op == "stress_dc":
            tape.append(("stress", duration, temperature, 1.2, StressMode.DC,
                         int(rng.integers(0, 2))))
        elif op == "stress_ac":
            tape.append(("stress", duration, temperature, 1.1, StressMode.AC, 1))
        elif op == "recover":
            voltage = float(rng.choice([0.0, -0.3]))
            tape.append(("recover", duration, temperature, voltage))
        else:
            tape.append(("cycles", duration, temperature, int(rng.integers(2, 6))))
    return tape


def replay(target, tape):
    for entry in tape:
        if entry[0] == "stress":
            _, duration, temperature, supply, mode, chain = entry
            target.apply_stress(duration, temperature, supply_voltage=supply,
                                mode=mode, chain_input=chain)
        elif entry[0] == "recover":
            _, duration, temperature, voltage = entry
            target.apply_recovery(duration, temperature, supply_voltage=voltage)
        else:
            _, duration, temperature, n = entry
            segments = [
                CycleSegment.active(duration, temperature),
                CycleSegment.sleep(duration / 4.0, temperature,
                                   supply_voltage=-0.3),
            ]
            target.apply_cycles(segments, n)


def replay_in_lot(view, neighbours, tape):
    """Replay ``tape`` on ``view`` op by op, each neighbour its own tape."""
    others = [random_tape(100 + i, n_ops=len(tape)) for i in range(len(neighbours))]
    for step, entry in enumerate(tape):
        for neighbour, other in zip(neighbours, others):
            replay(neighbour, [other[step]])
        replay(view, [entry])


def assert_states_equal(chip: FpgaChip, view) -> None:
    assert view.elapsed == chip.elapsed
    np.testing.assert_array_equal(view.delta_vth(), chip.delta_vth())
    assert view.path_delay() == chip.path_delay()
    assert view.oscillation_frequency() == chip.oscillation_frequency()
    a, b = chip.export_state(), view.export_state()
    assert a.keys() == b.keys()
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


class TestFacadeEquivalence:
    def test_fresh_state_identical(self):
        chip, view, _ = make_pair()
        assert view.fresh_path_delay == chip.fresh_path_delay
        assert view.n_owners == chip.n_owners
        assert_states_equal(chip, view)

    @pytest.mark.parametrize("tape_seed", [0, 1, 2])
    def test_random_tape_bit_identical(self, tape_seed):
        chip, view, neighbours = make_pair()
        tape = random_tape(tape_seed)
        replay(chip, tape)
        replay_in_lot(view, neighbours, tape)
        assert_states_equal(chip, view)

    @pytest.mark.parametrize("mode", ["raise", "clamp", "off"])
    def test_guard_modes_agree(self, mode):
        chip, view, neighbours = make_pair(guard_mode=mode)
        tape = random_tape(4, n_ops=6)
        replay(chip, tape)
        replay_in_lot(view, neighbours, tape)
        assert_states_equal(chip, view)
        assert view.guard.violations == chip.guard.violations == 0

    def test_injected_upset_identical_through_both_surfaces(self):
        chip, view, _ = make_pair(guard_mode="off")  # upset would trip raise
        chip.apply_stress(hours(1.0), 110.0)
        view.apply_stress(hours(1.0), 110.0)
        chip.inject_trap_upset(float("nan"), n_traps=32)
        view.inject_trap_upset(float("nan"), n_traps=32)
        a, b = chip.export_state(), view.export_state()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_state_roundtrip_across_surfaces(self):
        # A state exported from the standalone chip imports into the
        # fleet view (and back) — the checkpoint path works unmodified.
        chip, view, _ = make_pair()
        chip.apply_stress(hours(2.0), 110.0)
        view.import_state(chip.export_state())
        assert_states_equal(chip, view)
        view.apply_recovery(hours(1.0), 20.0, supply_voltage=-0.3)
        chip.apply_recovery(hours(1.0), 20.0, supply_voltage=-0.3)
        assert_states_equal(chip, view)

    def test_snapshot_restore_and_reset(self):
        chip, view, neighbours = make_pair()
        replay(chip, random_tape(9, n_ops=4))
        replay_in_lot(view, neighbours, random_tape(9, n_ops=4))
        snapshot = view.snapshot()
        view.apply_stress(hours(5.0), 110.0)
        view.restore(snapshot)
        assert_states_equal(chip, view)
        view.reset()
        chip.reset()
        assert_states_equal(chip, view)

    def test_fabric_locations_identical(self):
        fabric = Fabric(rows=9, cols=9, gradient=0.05)
        locations = [Location(4, 4), Location(8, 8), Location(0, 8), Location(0, 0)]
        chip, view, neighbours = make_pair(fabric=fabric, locations=locations)
        assert view.fresh_path_delay == chip.fresh_path_delay
        assert chip.fresh_path_delay != FpgaChip("plain", seed=SEED).fresh_path_delay
        tape = random_tape(5, n_ops=6)
        replay(chip, tape)
        replay_in_lot(view, neighbours, tape)
        assert_states_equal(chip, view)


class TestOptionMatrix:
    """Which chip options combine with which fleet fidelity."""

    KWARGS = dict(tech=fast_technology(), n_stages=5)

    def test_binned_alpha_power_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetChip(["a"], [1], fidelity="binned", delay_model="alpha-power", **self.KWARGS)

    def test_unknown_delay_model_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetChip(["a"], [1], delay_model="quadratic", **self.KWARGS)

    def test_location_without_fabric_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetChip(["a"], [1], locations=[Location(0, 0)], **self.KWARGS)

    def test_locations_must_match_chip_count(self):
        with pytest.raises(ConfigurationError):
            FleetChip(["a", "b"], [1, 2], fabric=Fabric(rows=9, cols=9),
                      locations=[Location(0, 0)], **self.KWARGS)

    @pytest.mark.parametrize(
        "options",
        [
            {"fabric": Fabric(rows=9, cols=9, gradient=0.05),
             "locations": [Location(0, 0), Location(4, 4), Location(8, 1)]},
            {"enable_gated": True},
        ],
        ids=["fabric-locations", "enable-gated"],
    )
    def test_binned_runs_with_exact_fresh_delays(self, options):
        ids, seeds = ["a", "b", "c"], [1, 2, 3]
        exact = FleetChip(ids, seeds, **options, **self.KWARGS)
        binned = FleetChip(ids, seeds, fidelity="binned", **options, **self.KWARGS)
        np.testing.assert_array_equal(binned.fresh_path_delays, exact.fresh_path_delays)
        temperatures, supplies = np.full(3, celsius(110.0)), np.full(3, 1.2)
        for fleet in (exact, binned):
            fleet.apply_stress(hours(24.0), temperatures, supplies)
            assert np.all(fleet.path_delays() > fleet.fresh_path_delays)
