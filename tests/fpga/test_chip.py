"""FpgaChip: the virtual device under test."""

import hashlib

import numpy as np
import pytest

from repro.device.variation import ProcessVariation
from repro.errors import ConfigurationError
from repro.fpga.chip import CycleSegment, FpgaChip
from repro.fpga.fabric import Fabric, Location
from repro.fpga.ring_oscillator import StressMode
from repro.units import celsius, hours

from tests.conftest import fast_technology


class TestConstruction:
    def test_fresh_chip_unshifted(self, small_chip):
        assert small_chip.delta_path_delay() == 0.0
        assert small_chip.elapsed == 0.0

    def test_fresh_path_delay_matches_stage_sum(self, small_chip):
        expected = small_chip.tech.stage_delay * 5
        assert small_chip.fresh_path_delay == pytest.approx(expected)

    def test_chips_vary_with_process_variation(self):
        tech = fast_technology()
        delays = {
            FpgaChip("c", n_stages=5, tech=tech, variation=ProcessVariation(), seed=s).fresh_path_delay
            for s in range(5)
        }
        assert len(delays) == 5

    def test_seed_reproducibility(self):
        tech = fast_technology()
        a = FpgaChip("a", n_stages=5, tech=tech, seed=9)
        b = FpgaChip("b", n_stages=5, tech=tech, seed=9)
        assert a.fresh_path_delay == b.fresh_path_delay
        a.apply_stress(hours(5.0), temperature=celsius(110.0))
        b.apply_stress(hours(5.0), temperature=celsius(110.0))
        assert a.delta_path_delay() == pytest.approx(b.delta_path_delay())

    def test_location_requires_fabric(self):
        with pytest.raises(ConfigurationError):
            FpgaChip("x", n_stages=5, tech=fast_technology(), location=Location(0, 0))

    def test_fabric_placement_slows_corner(self):
        tech = fast_technology()
        fabric = Fabric(rows=9, cols=9, gradient=0.05)
        kwargs = dict(n_stages=5, tech=tech, variation=ProcessVariation(0, 0, 0), seed=1)
        center = FpgaChip("c", fabric=fabric, location=fabric.center, **kwargs)
        corner = FpgaChip("d", fabric=fabric, location=Location(0, 0), **kwargs)
        assert corner.fresh_path_delay > center.fresh_path_delay

    def test_unknown_delay_model_rejected(self):
        with pytest.raises(ConfigurationError):
            FpgaChip("x", n_stages=5, tech=fast_technology(), delay_model="quadratic")


class TestStressRecovery:
    def test_dc_stress_ages(self, small_chip):
        small_chip.apply_stress(hours(24.0), temperature=celsius(110.0), mode=StressMode.DC)
        assert small_chip.delta_path_delay() > 0.0

    def test_ac_less_than_dc(self, chip_factory):
        dc = chip_factory(seed=4)
        ac = chip_factory(seed=4)
        dc.apply_stress(hours(24.0), temperature=celsius(110.0), mode=StressMode.DC)
        ac.apply_stress(hours(24.0), temperature=celsius(110.0), mode=StressMode.AC)
        assert 0.0 < ac.delta_path_delay() < dc.delta_path_delay()

    def test_recovery_heals(self, small_chip):
        small_chip.apply_stress(hours(24.0), temperature=celsius(110.0))
        peak = small_chip.delta_path_delay()
        small_chip.apply_recovery(hours(6.0), temperature=celsius(110.0), supply_voltage=-0.3)
        assert small_chip.delta_path_delay() < peak

    def test_frequency_drops_with_aging(self, small_chip):
        fresh = small_chip.oscillation_frequency()
        small_chip.apply_stress(hours(24.0), temperature=celsius(110.0))
        assert small_chip.oscillation_frequency() < fresh

    def test_stress_rejects_nonpositive_supply(self, small_chip):
        with pytest.raises(ConfigurationError):
            small_chip.apply_stress(1.0, temperature=celsius(20.0), supply_voltage=0.0)

    def test_recovery_rejects_positive_supply(self, small_chip):
        with pytest.raises(ConfigurationError):
            small_chip.apply_recovery(1.0, temperature=celsius(20.0), supply_voltage=0.5)

    def test_recovery_rejects_breakdown_voltage(self, small_chip):
        with pytest.raises(ConfigurationError):
            small_chip.apply_recovery(1.0, temperature=celsius(20.0), supply_voltage=-1.0)

    def test_temperature_limit_enforced(self, small_chip):
        with pytest.raises(ConfigurationError):
            small_chip.apply_stress(1.0, temperature=celsius(150.0))

    def test_chain_input_changes_stressed_set(self, chip_factory):
        a = chip_factory(seed=6)
        b = chip_factory(seed=6)
        a.apply_stress(hours(24.0), temperature=celsius(110.0), chain_input=1)
        b.apply_stress(hours(24.0), temperature=celsius(110.0), chain_input=0)
        shifts_a = a.delta_vth()
        shifts_b = b.delta_vth()
        # Same physics, complementary stage patterns.
        assert not np.allclose(shifts_a, shifts_b)

    def test_delta_vth_shape(self, small_chip):
        assert small_chip.delta_vth().shape == (small_chip.n_owners,)


class TestSnapshotRestore:
    def test_roundtrip(self, small_chip):
        small_chip.apply_stress(hours(24.0), temperature=celsius(110.0))
        state = small_chip.snapshot()
        mid = small_chip.delta_path_delay()
        small_chip.apply_recovery(hours(6.0), temperature=celsius(110.0), supply_voltage=-0.3)
        small_chip.restore(state)
        assert small_chip.delta_path_delay() == pytest.approx(mid)
        assert small_chip.elapsed == pytest.approx(hours(24.0))

    def test_reset(self, small_chip):
        small_chip.apply_stress(hours(24.0), temperature=celsius(110.0))
        small_chip.reset()
        assert small_chip.delta_path_delay() == 0.0
        assert small_chip.elapsed == 0.0


class TestDelayModels:
    def test_alpha_power_exceeds_first_order(self):
        tech = fast_technology()
        kwargs = dict(n_stages=5, tech=tech, variation=ProcessVariation(0, 0, 0), seed=2)
        linear = FpgaChip("lin", delay_model="first-order", **kwargs)
        alpha = FpgaChip("alp", delay_model="alpha-power", **kwargs)
        for chip in (linear, alpha):
            chip.apply_stress(hours(48.0), temperature=celsius(110.0))
        assert alpha.delta_path_delay() > linear.delta_path_delay()


class TestApplyCycles:
    def segments(self):
        from repro.fpga.chip import CycleSegment

        return (
            CycleSegment.active(hours(1.0), celsius(110.0), mode=StressMode.AC),
            CycleSegment.sleep(hours(0.25), celsius(110.0), -0.3),
        )

    def test_matches_explicit_loop(self, chip_factory):
        closed = chip_factory(seed=21)
        naive = chip_factory(seed=21)
        n = 300
        closed.apply_cycles(self.segments(), n)
        for _ in range(n):
            naive.apply_stress(
                hours(1.0), temperature=celsius(110.0), mode=StressMode.AC
            )
            naive.apply_recovery(
                hours(0.25), temperature=celsius(110.0), supply_voltage=-0.3
            )
        assert closed.delta_path_delay() == pytest.approx(
            naive.delta_path_delay(), rel=1e-9
        )
        assert closed.elapsed == pytest.approx(naive.elapsed, rel=1e-12)

    def test_zero_cycles_is_noop(self, small_chip):
        small_chip.apply_cycles(self.segments(), 0)
        assert small_chip.elapsed == 0.0
        assert small_chip.delta_path_delay() == 0.0

    def test_rejects_bad_inputs(self, small_chip):
        with pytest.raises(ConfigurationError):
            small_chip.apply_cycles(self.segments(), -1)
        with pytest.raises(ConfigurationError):
            small_chip.apply_cycles((), 5)


#: Golden readouts of one fixed tape per chip option:
#: (fresh_path_delay.hex(), path_delay().hex(), sha256 of export_state()).
#: Placement and the delay law change only the readout, so their state
#: digest equals the default's; enable gating changes which devices age.
GOLDEN = {
    "default": ("0x1.5124432d38601p-23", "0x1.52dbda7f1bb02p-23",
                "3cac91b11e85204645f72a2beb09e45a8d100a8a0deb8d551cabf22849d141df"),
    "fabric-corner": ("0x1.61ffacef7b31bp-23", "0x1.63cd3f0576ac3p-23",
                      "3cac91b11e85204645f72a2beb09e45a8d100a8a0deb8d551cabf22849d141df"),
    "alpha-power": ("0x1.5124432d38601p-23", "0x1.53674bbd602c6p-23",
                    "3cac91b11e85204645f72a2beb09e45a8d100a8a0deb8d551cabf22849d141df"),
    "enable-gated": ("0x1.5124432d38601p-23", "0x1.528ca491abb8ep-23",
                     "5ef89f129bafcefbfc5f88b8604ec822c7c736b87f9b0bded98adfa0e01cd011"),
}

GOLDEN_OPTIONS = {
    "default": {},
    "fabric-corner": {"fabric": Fabric(rows=9, cols=9, gradient=0.05),
                      "location": Location(0, 0)},
    "alpha-power": {"delay_model": "alpha-power"},
    "enable-gated": {"enable_gated": True},
}


def state_digest(state: dict) -> str:
    """SHA-256 over an ``export_state`` dict, keys in sorted order."""
    digest = hashlib.sha256()
    for key in sorted(state):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(state[key], dtype=float).tobytes())
    return digest.hexdigest()


class TestGolden:
    """Bit-exact readouts pinned per chip option (full-size default chip)."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_tape_replays_bit_for_bit(self, name):
        chip = FpgaChip("golden", seed=2014, **GOLDEN_OPTIONS[name])
        fresh = chip.fresh_path_delay
        chip.apply_stress(hours(2.0), celsius(110.0), mode=StressMode.DC)
        chip.apply_stress(hours(1.0), celsius(110.0), supply_voltage=1.1, mode=StressMode.AC)
        chip.apply_recovery(hours(1.0), celsius(110.0), supply_voltage=-0.3)
        chip.apply_cycles(
            [
                CycleSegment.active(hours(0.5), celsius(85.0), mode=StressMode.AC),
                CycleSegment.sleep(hours(0.25), celsius(110.0), -0.3),
            ],
            6,
        )
        expected_fresh, expected_delay, expected_state = GOLDEN[name]
        assert fresh.hex() == expected_fresh
        assert chip.path_delay().hex() == expected_delay
        assert state_digest(chip.export_state()) == expected_state
