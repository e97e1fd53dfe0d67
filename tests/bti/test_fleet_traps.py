"""Batched trap engines: multi-chip span identity, rate cache, input contracts.

``FleetTraps`` must evolve every chip of a span exactly as a lone
``TrapPopulation`` drawn from the same stream would, for spans that start
past chip 0 and hold several chips (where the per-chip Arrhenius slices,
the padded owner gathers and the offset bincount actually run).  Its
duty-mix cache admits a pattern on second use only and stays bounded.
Both engines reject a phase with a negative duration, a duty outside
[0, 1], or voltage and temperature blocks that do not fit the span, in
``evolve`` and ``evolve_cycles`` alike, before any state changes.
"""

import numpy as np
import pytest

from repro.bti.fleet import (
    MIX_CACHE_ENTRIES,
    BinnedFleetTraps,
    FleetCyclePhase,
    FleetTraps,
    TrapGrid,
    draw_population,
)
from repro.bti.traps import CyclePhase, TrapParameters, TrapPopulation
from repro.errors import ConfigurationError
from repro.guard import Guard, GuardConfig
from repro.obs import Tracer
from repro.units import celsius

PARAMS = TrapParameters(mean_trap_count=12.0)
N_OWNERS = 6
N_CHIPS = 5
HOT = celsius(110.0)


def child_streams(seed=11):
    return np.random.default_rng(seed).spawn(N_CHIPS)


def make_fleet(guard=None, tracer=None) -> FleetTraps:
    draws = [draw_population(PARAMS, N_OWNERS, rng) for rng in child_streams()]
    return FleetTraps(PARAMS, N_OWNERS, draws, guard=guard, tracer=tracer)


class TestMultiChipSpanIdentity:
    def test_spans_past_chip_zero_match_lone_populations(self):
        config = GuardConfig(mode="clamp", dump_dir=None)
        fleet = make_fleet(guard=Guard(config))
        chips = [
            TrapPopulation(PARAMS, N_OWNERS, rng=rng, guard=Guard(config))
            for rng in child_streams()
        ]
        jitter = np.random.default_rng(3)
        ac_a = np.linspace(0.2, 1.2, N_OWNERS)
        ac_b = ac_a[::-1].copy()

        def step(span, duration, v_stress, temps, duty=1.0, v_relax=None):
            fleet.evolve(duration, v_stress, temps, duty=duty, v_relax=v_relax, chips=span)
            for offset, index in enumerate(range(span.start, span.stop)):
                chips[index].evolve(
                    duration,
                    v_stress[offset],
                    float(temps[offset]),
                    duty=duty,
                    relax_voltage=0.0 if v_relax is None else v_relax[offset],
                )

        def cycles(span, n):
            k = span.stop - span.start
            temps = HOT + jitter.normal(0.0, 0.5, k)
            v_on = np.tile(ac_a, (k, 1))
            fleet.evolve_cycles(
                [
                    FleetCyclePhase(60.0, v_on, temps, duty=0.5, v_relax=np.tile(ac_b, (k, 1))),
                    FleetCyclePhase(30.0, np.zeros((k, N_OWNERS)), temps),
                ],
                n,
                chips=span,
            )
            for offset, index in enumerate(range(span.start, span.stop)):
                chips[index].evolve_cycles(
                    [
                        CyclePhase(60.0, ac_a, float(temps[offset]), 0.5, ac_b),
                        CyclePhase(30.0, np.zeros(N_OWNERS), float(temps[offset])),
                    ],
                    n,
                )

        def assert_identical():
            for index, chip in enumerate(chips):
                np.testing.assert_array_equal(fleet.occupancy_row(index), chip.occupancy)
                np.testing.assert_array_equal(
                    fleet.delta_vth(slice(index, index + 1))[0], chip.delta_vth()
                )
            for span in (slice(2, 5), slice(0, 2)):
                rows = fleet.delta_vth(span)
                for offset, index in enumerate(range(span.start, span.stop)):
                    np.testing.assert_array_equal(rows[offset], chips[index].delta_vth())

        for round_index in range(4):
            for span in (slice(2, 5), slice(0, 2)):
                k = span.stop - span.start
                burst_temps = HOT + jitter.normal(0.0, 0.5, k)
                # The readout-burst pattern repeats: cache hits from the third use.
                step(span, 3.0, np.tile(ac_a, (k, 1)), burst_temps,
                     duty=0.5, v_relax=np.tile(ac_b, (k, 1)))
                # Jittered DC stress: a fresh key every chunk.
                v_dc = 1.2 + jitter.normal(0.0, 0.01, (k, N_OWNERS))
                step(span, 600.0, v_dc, HOT + jitter.normal(0.0, 0.5, k))
                # 0 V recovery: a repeated DC key.
                step(span, 300.0, np.zeros((k, N_OWNERS)), HOT + jitter.normal(0.0, 0.5, k))
                assert_identical()
            if round_index == 1:
                fleet.inject_upset(3, float("nan"), n_traps=5)
                chips[3].inject_upset(float("nan"), n_traps=5)
            if round_index == 2:
                cycles(slice(2, 5), 7)
                cycles(slice(0, 2), 3)
                assert_identical()
        assert fleet._comb_cache  # the repeated patterns were served from cache
        np.testing.assert_array_equal(fleet.elapsed, [chip.elapsed for chip in chips])


class TestFleetRateCache:
    @staticmethod
    def counts(tracer):
        return (
            tracer.metrics.value("bti.rate_cache.partial_hits"),
            tracer.metrics.value("bti.rate_cache.misses"),
        )

    def test_distinct_voltages_are_never_admitted(self):
        tracer = Tracer()
        fleet = make_fleet(tracer=tracer)
        jitter = np.random.default_rng(5)
        n = 12
        for _ in range(n):
            fleet.evolve(10.0, 1.2 + jitter.normal(0.0, 0.01, (2, N_OWNERS)),
                         np.full(2, HOT), chips=slice(1, 3))
        assert len(fleet._comb_cache) == 0
        assert self.counts(tracer) == (0.0, float(n))

    def test_pattern_is_stored_on_second_use_and_hit_on_third(self):
        tracer = Tracer()
        fleet = make_fleet(tracer=tracer)
        v = np.full((3, N_OWNERS), 1.2)
        temps = np.full(3, HOT)
        fleet.evolve(10.0, v, temps, duty=0.5, chips=slice(2, 5))
        assert len(fleet._comb_cache) == 0
        fleet.evolve(10.0, v, temps, duty=0.5, chips=slice(2, 5))
        assert len(fleet._comb_cache) == 1
        assert self.counts(tracer) == (0.0, 2.0)
        fleet.evolve(10.0, v, temps, duty=0.5, chips=slice(2, 5))
        assert self.counts(tracer) == (1.0, 2.0)
        # Same voltages on another span or duty are different keys.
        fleet.evolve(10.0, v, temps, duty=0.25, chips=slice(2, 5))
        fleet.evolve(10.0, v[:2], temps[:2], duty=0.5, chips=slice(0, 2))
        assert self.counts(tracer) == (1.0, 4.0)

    def test_entries_stay_bounded_and_counters_add_up(self):
        tracer = Tracer()
        fleet = make_fleet(tracer=tracer)
        temps = np.full(N_CHIPS, HOT)
        lookups = 0
        for level in np.linspace(0.1, 1.2, 3 * MIX_CACHE_ENTRIES):
            for _ in range(3):
                fleet.evolve(1.0, np.full((N_CHIPS, N_OWNERS), level), temps)
                lookups += 1
                assert len(fleet._comb_cache) <= MIX_CACHE_ENTRIES
        hits, misses = self.counts(tracer)
        assert hits + misses == lookups
        assert hits == lookups / 3

    def test_cached_rates_are_read_only(self):
        fleet = make_fleet()
        v = np.full((N_CHIPS, N_OWNERS), 1.2)
        for _ in range(2):
            fleet.evolve(1.0, v, np.full(N_CHIPS, HOT))
        for array in next(iter(fleet._comb_cache._entries.values())):
            assert not array.flags.writeable


def _cycle(duration=60.0, duty=1.0, v_rows=2, t_rows=2):
    return [FleetCyclePhase(duration, np.ones((v_rows, N_OWNERS)), np.full(t_rows, HOT), duty)]


EXACT_INVALID = {
    "cycles-short-temperatures": lambda f: f.evolve_cycles(
        _cycle(t_rows=1), 3, chips=slice(0, 2)
    ),
    "cycles-negative-duration": lambda f: f.evolve_cycles(
        _cycle(duration=-3600.0), 10, chips=slice(0, 2)
    ),
    "cycles-duty-above-one": lambda f: f.evolve_cycles(_cycle(duty=1.5), 3, chips=slice(0, 2)),
    "cycles-negative-duty": lambda f: f.evolve_cycles(_cycle(duty=-0.5), 3, chips=slice(0, 2)),
    "cycles-voltage-rows": lambda f: f.evolve_cycles(_cycle(v_rows=3), 3, chips=slice(0, 2)),
    "evolve-voltage-rows": lambda f: f.evolve(
        60.0, np.ones((3, N_OWNERS)), np.full(2, HOT), chips=slice(0, 2)
    ),
    "evolve-relax-rows": lambda f: f.evolve(
        60.0, np.ones((2, N_OWNERS)), np.full(2, HOT), duty=0.5,
        v_relax=np.zeros((3, N_OWNERS)), chips=slice(0, 2),
    ),
}


@pytest.mark.parametrize("call", EXACT_INVALID.values(), ids=EXACT_INVALID.keys())
def test_exact_engine_rejects_invalid_input(call):
    fleet = make_fleet()
    with pytest.raises(ConfigurationError):
        call(fleet)
    assert not fleet.elapsed.any()
    assert not fleet.occupancy.any()


def make_binned(n_chips=4) -> BinnedFleetTraps:
    return BinnedFleetTraps(TrapGrid(PARAMS, n_classes=2), n_chips)


BINNED_INVALID = {
    "duty-above-one": lambda b: b.evolve(1.0, np.ones((4, 2)), np.full(4, HOT), duty=1.5),
    "negative-duty": lambda b: b.evolve(1.0, np.ones((4, 2)), np.full(4, HOT), duty=-0.5),
    "strided-chips": lambda b: b.evolve(
        1.0, np.ones((2, 2)), np.full(2, HOT), chips=slice(0, 4, 2)
    ),
    "scalar-temperature": lambda b: b.evolve(1.0, np.ones((4, 2)), HOT),
    "temperature-length": lambda b: b.evolve(1.0, np.ones((4, 2)), np.full(3, HOT)),
    "empty-chips": lambda b: b.evolve(
        1.0, np.ones((0, 2)), np.full(0, HOT), chips=slice(2, 2)
    ),
    "strided-readout": lambda b: b.readout_shift(slice(0, 4, 2)),
}


@pytest.mark.parametrize("call", BINNED_INVALID.values(), ids=BINNED_INVALID.keys())
def test_binned_engine_rejects_invalid_input(call):
    binned = make_binned()
    with pytest.raises(ConfigurationError):
        call(binned)
    assert not binned.elapsed.any()
