"""Rate caching and closed-form cycle compression of the trap ensemble.

The rate cache must be *transparent*: a population that reuses cached
rates and one whose cache is dropped before every phase, fed the same
bias history, must produce identical occupancy, and the cache must be
dropped on ``reset`` / ``restore`` so stale rates can never leak across
state changes.  The cache lives in the fleet engine the population views,
so these tests observe it through the public calls and the
``bti.rate_cache.*`` counters.  ``evolve_cycles`` must match the naive
evolve-in-a-loop reference within the acceptance budget of 1e-9 over at
least a thousand cycles.
"""

import numpy as np
import pytest

from repro.bti.traps import CyclePhase, TrapParameters, TrapPopulation
from repro.errors import ConfigurationError
from repro.obs import Tracer
from repro.units import celsius, hours


def make_population(seed=7, tracer=None) -> TrapPopulation:
    return TrapPopulation(
        TrapParameters(mean_trap_count=40.0),
        n_owners=4,
        rng=seed,
        tracer=tracer,
    )


def cache_counts(tracer) -> tuple[float, float]:
    """(reuses, recomputations) of rate lookups so far."""
    return (
        tracer.metrics.value("bti.rate_cache.partial_hits"),
        tracer.metrics.value("bti.rate_cache.misses"),
    )


STRESS_V = 1.2
RECOVER_V = -0.3
HOT = celsius(110.0)


class TestCacheTransparency:
    def test_cached_rates_match_uncached_reference(self):
        # One phase from the empty state, on its third use (served from
        # cache), against the duty-averaged uncached per-trap rate path.
        for duty, relax in ((1.0, 0.0), (0.5, 0.0), (0.25, -0.3)):
            pop = make_population()
            for _ in range(3):
                pop.reset()
                pop.evolve(hours(1.0), STRESS_V, HOT, duty, relax)
            ref_c, ref_e = pop._rates(np.full(pop.n_traps, STRESS_V), HOT)
            if duty < 1.0:
                sup = pop.params.ac_capture_suppression ** (1.0 - duty)
                off_c, off_e = pop._rates(np.full(pop.n_traps, relax), HOT)
                ref_c = duty * sup * ref_c + (1.0 - duty) * off_c
                ref_e = duty * ref_e + (1.0 - duty) * off_e
            total = ref_c + ref_e
            expected = ref_c / total * -np.expm1(-total * hours(1.0))
            np.testing.assert_allclose(pop.occupancy, expected, rtol=1e-12, atol=1e-15)

    def test_cached_population_evolves_identically_to_fresh(self):
        history = [
            (hours(1.0), STRESS_V, HOT, 1.0, 0.0),
            (hours(0.5), RECOVER_V, HOT, 1.0, 0.0),
            (hours(1.0), STRESS_V, HOT, 0.5, 0.0),
            (hours(1.0), STRESS_V, HOT, 1.0, 0.0),
            (hours(1.0), STRESS_V, celsius(90.0), 1.0, 0.0),  # reused at a new temperature
            (hours(0.5), RECOVER_V, HOT, 1.0, 0.0),
        ]
        tracer = Tracer()
        cached = make_population(seed=3, tracer=tracer)
        for args in history:
            cached.evolve(*args)
        assert cache_counts(tracer)[0] > 0  # the cached path actually ran
        uncached = make_population(seed=3)
        for args in history:
            uncached.restore(uncached.snapshot())  # drops the rate cache
            uncached.evolve(*args)
        np.testing.assert_array_equal(cached.occupancy, uncached.occupancy)

    def test_repeated_bias_reuses_cached_rates(self):
        # Admitted on second use, served from cache from the third on.
        tracer = Tracer()
        pop = make_population(tracer=tracer)
        for _ in range(5):
            pop.evolve(hours(1.0), STRESS_V, HOT)
        assert cache_counts(tracer) == (3.0, 2.0)

    def test_new_temperature_is_a_partial_hit(self):
        tracer = Tracer()
        pop = make_population(tracer=tracer)
        pop.evolve(hours(1.0), STRESS_V, HOT)
        pop.evolve(hours(1.0), STRESS_V, HOT)
        pop.evolve(hours(1.0), STRESS_V, celsius(100.0))
        assert cache_counts(tracer) == (1.0, 2.0)


class TestCacheInvalidation:
    """The stale-cache class: state changes must drop the cache."""

    @staticmethod
    def warmed(tracer) -> TrapPopulation:
        pop = make_population(tracer=tracer)
        pop.evolve(hours(1.0), STRESS_V, HOT)
        pop.evolve(hours(1.0), STRESS_V, HOT)  # admitted
        return pop

    def test_reset_clears_the_cache(self):
        tracer = Tracer()
        pop = self.warmed(tracer)
        pop.reset()
        pop.evolve(hours(1.0), STRESS_V, HOT)
        assert cache_counts(tracer) == (0.0, 3.0)

    def test_restore_clears_the_cache(self):
        tracer = Tracer()
        pop = self.warmed(tracer)
        state = pop.snapshot()
        pop.restore(state)
        pop.evolve(hours(1.0), STRESS_V, HOT)
        assert cache_counts(tracer) == (0.0, 3.0)  # recomputed, stored again
        pop.evolve(hours(1.0), STRESS_V, HOT)
        assert cache_counts(tracer) == (1.0, 3.0)

    def test_snapshot_restore_replay_is_exact_despite_caching(self):
        pop = make_population(seed=11)
        pop.evolve(hours(2.0), STRESS_V, HOT)
        state = pop.snapshot()
        mid = pop.occupancy.copy()
        pop.evolve(hours(4.0), RECOVER_V, HOT)
        pop.restore(state)
        np.testing.assert_array_equal(pop.occupancy, mid)
        pop.evolve(hours(4.0), RECOVER_V, HOT)
        end_a = pop.occupancy.copy()
        pop.restore(state)
        pop.evolve(hours(4.0), RECOVER_V, HOT)
        np.testing.assert_array_equal(pop.occupancy, end_a)


class TestEvolveCycles:
    def phases(self):
        return (
            CyclePhase(duration=hours(1.0), stress_voltage=STRESS_V,
                       temperature=HOT, duty=0.5, relax_voltage=0.0),
            CyclePhase(duration=hours(0.25), stress_voltage=RECOVER_V,
                       temperature=HOT),
        )

    def test_matches_naive_loop_over_1000_cycles(self):
        n = 1000
        closed = make_population(seed=9)
        closed.evolve_cycles(self.phases(), n)
        naive = make_population(seed=9)
        for _ in range(n):
            for phase in self.phases():
                naive.evolve(phase.duration, phase.stress_voltage,
                             phase.temperature, phase.duty, phase.relax_voltage)
        np.testing.assert_allclose(
            closed.occupancy, naive.occupancy, rtol=1e-9, atol=1e-12
        )
        assert closed.elapsed == pytest.approx(naive.elapsed, rel=1e-12)

    def test_matches_loop_from_stressed_state(self):
        closed = make_population(seed=4)
        closed.evolve(hours(24.0), STRESS_V, HOT)
        naive = make_population(seed=4)
        naive.evolve(hours(24.0), STRESS_V, HOT)
        closed.evolve_cycles(self.phases(), 64)
        for _ in range(64):
            for phase in self.phases():
                naive.evolve(phase.duration, phase.stress_voltage,
                             phase.temperature, phase.duty, phase.relax_voltage)
        np.testing.assert_allclose(
            closed.occupancy, naive.occupancy, rtol=1e-9, atol=1e-12
        )

    def test_zero_cycles_is_a_noop(self):
        pop = make_population()
        before = pop.occupancy.copy()
        pop.evolve_cycles(self.phases(), 0)
        np.testing.assert_array_equal(pop.occupancy, before)
        assert pop.elapsed == 0.0

    def test_zero_duration_phases_are_skipped(self):
        pop = make_population(seed=2)
        ref = make_population(seed=2)
        padded = (CyclePhase(duration=0.0, stress_voltage=0.0, temperature=HOT),
                  *self.phases())
        pop.evolve_cycles(padded, 10)
        ref.evolve_cycles(self.phases(), 10)
        np.testing.assert_array_equal(pop.occupancy, ref.occupancy)

    def test_counts_compressed_cycles(self):
        tracer = Tracer()
        pop = make_population(tracer=tracer)
        pop.evolve_cycles(self.phases(), 250)
        assert tracer.metrics.value("bti.cycles_compressed") == 250.0

    def test_rejects_bad_inputs(self):
        pop = make_population()
        with pytest.raises(ConfigurationError):
            pop.evolve_cycles(self.phases(), -1)
        with pytest.raises(ConfigurationError):
            pop.evolve_cycles((), 5)
        with pytest.raises(ConfigurationError):
            CyclePhase(duration=-1.0, stress_voltage=1.2, temperature=HOT)
        with pytest.raises(ConfigurationError):
            CyclePhase(duration=1.0, stress_voltage=1.2, temperature=HOT, duty=1.5)
