"""Unit tests for the runtime physics-contract layer (repro.guard)."""

import json
import math

import numpy as np
import pytest

from repro.bti.traps import CyclePhase, TrapParameters, TrapPopulation
from repro.errors import ChipDropoutError, ConfigurationError, PhysicsViolationError
from repro.guard import (
    EXP_MAX,
    Guard,
    GuardConfig,
    GuardMode,
    get_guard,
    read_bundle,
    safe_exp,
    safe_exp_array,
    set_guard,
    use_guard,
    write_bundle,
)
from repro.obs import Tracer


class TestGuardConfig:
    def test_mode_accepts_strings(self):
        assert GuardConfig(mode="clamp").mode is GuardMode.CLAMP
        assert GuardConfig(mode="raise").mode is GuardMode.RAISE
        assert GuardConfig(mode="off").mode is GuardMode.OFF

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            GuardConfig(mode="maybe")

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            GuardConfig(violation_budget=-1)

    def test_negative_atol_rejected(self):
        with pytest.raises(ConfigurationError):
            GuardConfig(atol=-1e-9)


class TestSafeExp:
    def test_matches_exp_in_the_ordinary_range(self):
        for x in (-5.0, 0.0, 1.0, 100.0):
            assert safe_exp(x) == math.exp(x)

    def test_huge_exponent_saturates_finite(self):
        assert math.isfinite(safe_exp(1e6))
        assert safe_exp(1e6) == math.exp(EXP_MAX)

    def test_huge_negative_underflows_to_zero(self):
        assert safe_exp(-1e6) == 0.0

    def test_array_variant_saturates_elementwise(self):
        out = safe_exp_array(np.array([-1e6, 0.0, 1e6]))
        assert out[0] == 0.0
        assert out[1] == 1.0
        assert math.isfinite(out[2])


class TestRaiseMode:
    def test_array_violation_raises_typed_error(self):
        guard = Guard(GuardConfig(mode="raise", dump_dir=None))
        with pytest.raises(PhysicsViolationError) as excinfo:
            guard.check_array("bti.occupancy", np.array([0.5, 1.5]), 0.0, 1.0)
        assert excinfo.value.contract == "bti.occupancy"

    def test_nan_caught_even_inside_bounds(self):
        guard = Guard(GuardConfig(mode="raise", dump_dir=None))
        with pytest.raises(PhysicsViolationError):
            guard.check_array("bti.occupancy", np.array([0.5, float("nan")]), 0.0, 1.0)

    def test_inf_caught_against_infinite_upper_bound(self):
        guard = Guard(GuardConfig(mode="raise", dump_dir=None))
        with pytest.raises(PhysicsViolationError):
            guard.check_array("bti.rate", np.array([math.inf]), 0.0, math.inf)

    def test_scalar_and_positive_checks(self):
        guard = Guard(GuardConfig(mode="raise", dump_dir=None))
        assert guard.check_scalar("fpga.path_delay", 1.0, 0.5, 2.0) == 1.0
        with pytest.raises(PhysicsViolationError):
            guard.check_scalar("fpga.path_delay", 0.1, 0.5, 2.0)
        assert guard.positive_scalar("fpga.frequency", 5.0) == 5.0
        with pytest.raises(PhysicsViolationError):
            guard.positive_scalar("fpga.frequency", -1.0)
        with pytest.raises(PhysicsViolationError):
            guard.positive_scalar("fpga.frequency", float("nan"))

    def test_dust_within_tolerance_passes_untouched(self):
        guard = Guard(GuardConfig(mode="raise", dump_dir=None, atol=1e-9))
        values = np.array([0.0 - 1e-12, 1.0 + 1e-12])
        out = guard.check_array("bti.occupancy", values, 0.0, 1.0)
        assert out is values  # not copied, not snapped

    def test_bundle_written_on_violation(self, tmp_path):
        guard = Guard(GuardConfig(mode="raise", dump_dir=str(tmp_path)), owner="chip-9")
        bad = np.array([2.0])
        with pytest.raises(PhysicsViolationError) as excinfo:
            guard.check_array(
                "bti.occupancy", bad, 0.0, 1.0, inputs={"duty": 0.5}
            )
        bundle = read_bundle(excinfo.value.bundle_path)
        assert bundle.contract == "bti.occupancy"
        assert bundle.owner == "chip-9"
        assert bundle.inputs["duty"] == 0.5
        assert bundle.arrays["values"][0] == 2.0


class TestClampMode:
    def test_repairs_in_place_and_counts(self):
        tracer = Tracer()
        guard = Guard(GuardConfig(mode="clamp", dump_dir=None), tracer=tracer)
        values = np.array([-0.5, 0.5, 1.5, float("nan"), math.inf])
        out = guard.check_array("bti.occupancy", values, 0.0, 1.0)
        assert out is values
        np.testing.assert_array_equal(out, [0.0, 0.5, 1.0, 0.0, 1.0])
        assert guard.violations == 1
        assert tracer.metrics.value("guard.violations.bti.occupancy") == 1.0

    def test_scalar_clamped_to_domain(self):
        guard = Guard(GuardConfig(mode="clamp", dump_dir=None))
        assert guard.check_scalar("device.dvth", -0.1, 0.0, 1.0) == 0.0
        assert guard.check_scalar("device.dvth", float("nan"), 0.0, 1.0) == 0.0
        assert guard.positive_scalar("fpga.frequency", -3.0, clamp_to=0.0) == 0.0

    def test_budget_exhaustion_raises_dropout(self):
        guard = Guard(
            GuardConfig(mode="clamp", violation_budget=1, dump_dir=None),
            owner="chip-3",
        )
        guard.check_array("bti.occupancy", np.array([1.5]), 0.0, 1.0)
        with pytest.raises(ChipDropoutError) as excinfo:
            guard.check_array("bti.occupancy", np.array([1.5]), 0.0, 1.0)
        assert "chip-3" in str(excinfo.value)

    def test_span_annotated_with_violation(self):
        tracer = Tracer()
        guard = Guard(GuardConfig(mode="clamp", dump_dir=None), tracer=tracer)
        with tracer.span("case") as span:
            guard.check_array("bti.occupancy", np.array([1.5]), 0.0, 1.0)
        assert span.attributes["guard_violations"] == 1
        assert span.attributes["guard_contract"] == "bti.occupancy"


class TestOffMode:
    def test_no_checking_no_mutation(self):
        guard = Guard(GuardConfig(mode="off"))
        assert not guard.checking
        values = np.array([float("nan"), 5.0])
        out = guard.check_array("bti.occupancy", values, 0.0, 1.0)
        assert out is values
        assert math.isnan(out[0])
        assert guard.violations == 0


class TestAmbientGuard:
    def test_default_guard_raises_without_dumping(self):
        guard = get_guard()
        assert guard.mode is GuardMode.RAISE
        assert guard.config.dump_dir is None

    def test_set_and_reset(self):
        original = get_guard()
        replacement = Guard(GuardConfig(mode="off"))
        set_guard(replacement)
        try:
            assert get_guard() is replacement
        finally:
            set_guard(None)
        assert get_guard() is original

    def test_use_guard_scopes_and_restores(self):
        original = get_guard()
        scoped = Guard(GuardConfig(mode="clamp", dump_dir=None))
        with use_guard(scoped):
            assert get_guard() is scoped
        assert get_guard() is original


class TestBundles:
    def test_roundtrip_inputs_and_arrays(self, tmp_path):
        path = write_bundle(
            tmp_path,
            contract="bti.occupancy",
            owner="chip-1",
            message="occupancy out of [0, 1]",
            inputs={"duty": 0.5, "n": np.int64(3)},
            arrays={"occupancy": np.array([2.0, float("nan")])},
        )
        bundle = read_bundle(path)
        assert bundle.contract == "bti.occupancy"
        assert bundle.inputs == {"duty": 0.5, "n": 3}
        assert np.isnan(bundle.arrays["occupancy"][1])

    def test_trap_population_bundles_carry_the_model_payload(self, tmp_path):
        guard = Guard(GuardConfig(mode="raise", dump_dir=tmp_path))
        pop = TrapPopulation(TrapParameters(mean_trap_count=20.0), 3, rng=4, guard=guard)
        model_arrays = {"occupancy", "tau_c0", "tau_e0", "impact", "owner"}
        pop.inject_upset(float("nan"), n_traps=4)
        with pytest.raises(PhysicsViolationError) as err:
            pop.evolve(60.0, np.array([1.2, 0.0, 1.2]), 383.15, duty=0.5)
        bundle = read_bundle(err.value.bundle_path)
        assert bundle.contract == "bti.occupancy"
        assert {"op", "duration", "temperature", "duty", "elapsed"} <= set(bundle.inputs)
        assert model_arrays | {"stress_voltage", "relax_voltage"} <= set(bundle.arrays)
        np.testing.assert_array_equal(bundle.arrays["owner"], pop.owner)
        np.testing.assert_array_equal(bundle.arrays["tau_c0"], pop.tau_c0)
        assert np.isnan(bundle.arrays["occupancy"][:4]).all()
        with pytest.raises(PhysicsViolationError) as err:
            pop.evolve_cycles([CyclePhase(60.0, 1.2, 383.15)], 5)
        bundle = read_bundle(err.value.bundle_path)
        assert {"op", "n", "period", "elapsed"} <= set(bundle.inputs)
        assert model_arrays <= set(bundle.arrays)

    def test_sequential_names_never_collide(self, tmp_path):
        first = write_bundle(tmp_path, contract="c.x", owner="chip-1")
        second = write_bundle(tmp_path, contract="c.x", owner="chip-1")
        assert first != second
        assert first.name.endswith("-000")
        assert second.name.endswith("-001")

    def test_violation_json_is_sorted_and_parseable(self, tmp_path):
        path = write_bundle(
            tmp_path, contract="c.x", owner="o", inputs={"b": 2, "a": 1}
        )
        payload = json.loads((path / "violation.json").read_text())
        assert payload["inputs"] == {"a": 1, "b": 2}
