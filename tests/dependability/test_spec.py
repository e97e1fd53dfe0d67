"""Sweep spec: deterministic expansion and RPR105/RPR106 validation."""

import pytest

from repro.dependability import (
    LifetimeSettings,
    SweepRunner,
    SweepSpec,
    demo_spec,
    validate_sweep_spec,
)
from repro.dependability.spec import AXIS_ORDER, MAX_CELLS
from repro.errors import ConfigurationError


def small_spec(**overrides) -> SweepSpec:
    defaults = dict(
        name="unit",
        n_chips=1,
        fault_rates=(0.0, 12.0),
        guard_modes=("clamp", "off"),
        alphas=(1.0, 4.0),
        seeds=(3,),
        lifetime=LifetimeSettings(enabled=False),
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestExpansion:
    def test_grid_size_and_order(self):
        spec = small_spec()
        cells = spec.expand()
        assert len(cells) == spec.n_cells == 8
        assert [cell.index for cell in cells] == list(range(8))
        assert cells[0].cell_id == "cell-0000"
        # fault_rate is the outermost axis in AXIS_ORDER: the first half
        # of the grid is the 0.0 block, the second half the 12.0 block.
        assert AXIS_ORDER[0] == "fault_rate"
        assert all(cell.fault_rate == 0.0 for cell in cells[:4])
        assert all(cell.fault_rate == 12.0 for cell in cells[4:])

    def test_expansion_is_deterministic(self):
        first, second = small_spec().expand(), small_spec().expand()
        assert first == second
        assert [c.fault_seed for c in first] == [c.fault_seed for c in second]

    def test_fault_seeds_decorrelate_cells(self):
        cells = small_spec().expand()
        fault_seeds = {cell.fault_seed for cell in cells}
        assert len(fault_seeds) == len(cells)
        assert all(cell.fault_seed != cell.seed for cell in cells)

    def test_config_digest_distinguishes_cells(self):
        cells = small_spec().expand()
        assert len({cell.config_digest() for cell in cells}) == len(cells)

    def test_has_faults(self):
        cells = small_spec().expand()
        assert not cells[0].has_faults
        assert cells[-1].has_faults


class TestSerialisation:
    def test_round_trip_preserves_digest(self):
        spec = small_spec()
        again = SweepSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.digest() == spec.digest()

    def test_from_json_lists_become_tuples(self):
        spec = SweepSpec.from_json('{"name": "j", "alphas": [1.0, 2.0]}')
        assert spec.alphas == (1.0, 2.0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep spec keys"):
            SweepSpec.from_dict({"name": "x", "bogus": 1})
        # Specs written before the thread-pool option was removed carry
        # "workers"; they must fail loudly, not silently drop the key.
        with pytest.raises(ConfigurationError, match="unknown sweep spec keys: workers"):
            SweepSpec.from_dict({**small_spec().to_dict(), "workers": 1})

    def test_unknown_lifetime_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown lifetime keys"):
            SweepSpec.from_dict({"lifetime": {"budget": 0.1}})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            SweepSpec.from_json("{nope")

    def test_digest_tracks_axis_changes(self):
        assert small_spec().digest() != small_spec(alphas=(1.0, 2.0)).digest()


class TestValidation:
    def test_small_spec_and_demo_are_clean(self):
        assert validate_sweep_spec(small_spec()) == []
        assert validate_sweep_spec(demo_spec()) == []
        assert demo_spec().n_cells == 12

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(name=""), "non-empty slug"),
            (dict(name="no spaces"), "non-empty slug"),
            (dict(engine="gpu"), "unknown engine"),
            (dict(n_chips=0), "n_chips"),
            (dict(lifetime=LifetimeSettings(horizon_hours=0.0)), "lifetime horizon"),
            (dict(retries=0), "retries"),
            (dict(retry_backoff_s=-1.0), "retry_backoff_s"),
            (dict(guard_budget=-1), "guard_budget"),
            (dict(alphas=()), "is empty"),
            (dict(alphas=(1.0, 1.0)), "duplicate"),
            (dict(fault_rates=(-1.0,)), "fault rate"),
            (dict(dropout_probs=(1.5,)), "outside"),
            (dict(upset_probs=(-0.1,)), "outside"),
            (dict(guard_modes=("panic",)), "unknown guard mode"),
            (dict(alphas=(0.0,)), "alpha must be positive"),
            (dict(sleep_voltages=(0.3,)), "sleep voltage"),
            (dict(sleep_temperatures_c=(400.0,)), "chamber range"),
            (dict(seeds=(-1,)), "non-negative"),
        ],
    )
    def test_rpr_findings(self, overrides, fragment):
        findings = validate_sweep_spec(small_spec(**overrides))
        assert findings, f"expected a finding for {overrides}"
        assert any(fragment in f.message for f in findings)
        assert all(f.rule_id in ("RPR105", "RPR106") for f in findings)

    def test_grid_bound(self):
        spec = small_spec(seeds=tuple(range(MAX_CELLS // 8 + 1)))
        findings = validate_sweep_spec(spec)
        assert any("above the" in f.message for f in findings)

    def test_lifetime_domains(self):
        spec = small_spec(
            lifetime=LifetimeSettings(enabled=True, budget_fraction=1.5)
        )
        assert any(
            "budget_fraction" in f.message for f in validate_sweep_spec(spec)
        )

    def test_fleet_engine_accepts_every_faultload(self, tmp_path):
        spec = small_spec(
            engine="fleet", n_chips=2, fault_rates=(24.0,), dropout_probs=(0.5,),
            upset_probs=(0.5,), guard_modes=("clamp",), alphas=(1.0,), guard_budget=2,
        )
        assert validate_sweep_spec(spec) == []
        result = SweepRunner(spec, tmp_path, isolation="inline").run()
        (outcome,) = result.outcomes
        assert outcome.ok
        assert outcome.stats["engine"] == "fleet"
        assert outcome.stats["faults_planned"] > 0
        assert outcome.stats["measurements"] > 0

    def test_expand_raises_on_invalid(self):
        with pytest.raises(ConfigurationError, match="RPR106"):
            small_spec(alphas=(0.0,)).expand()
