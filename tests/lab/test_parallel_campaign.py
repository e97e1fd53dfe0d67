"""The parallel route — process-sharded exact fleet vs the campaign runner.

Spreading a campaign over cores means running it through the fleet
engine's process shards (``run_fleet_campaign(fidelity="exact",
shards=K)``, CLI ``repro campaign --fleet N --shard K``).  The acceptance
bar is not "statistically equivalent" but *bit-identical* to
:func:`run_table1_campaign`: same seed, same records in the same order,
same fresh delays, same per-phase state hashes.  Shards only change
which process computes a chip; per-chip RNG streams are derived
identically and results are merged in chip order.
"""

import numpy as np
import pytest

from repro.lab.campaign import run_table1_campaign
from repro.lab.fleet import run_fleet_campaign
from repro.obs import Tracer


@pytest.fixture(scope="module")
def sequential_result():
    return run_table1_campaign(seed=123, n_chips=3, sanitize=True)


@pytest.fixture(scope="module")
def parallel_result():
    return run_fleet_campaign(
        seed=123, n_chips=3, fidelity="exact", shards=2, sanitize=True
    )


class TestBitIdentity:
    def test_records_identical(self, sequential_result, parallel_result):
        seq = list(sequential_result.log)
        par = list(parallel_result.log)
        assert len(seq) == len(par)
        assert seq == par  # frozen dataclasses: field-by-field equality

    def test_fresh_delays_identical(self, sequential_result, parallel_result):
        assert sequential_result.fresh_delays == parallel_result.fresh_delays

    def test_chip_state_identical(self, sequential_result, parallel_result):
        # Each digest covers the chip's records, trap occupancy and bench
        # RNG state at one phase boundary.
        assert parallel_result.shards == 2
        assert sequential_result.state_hashes
        assert sequential_result.state_hashes == parallel_result.state_hashes

    def test_more_workers_than_chips(self):
        seq = run_table1_campaign(seed=5, n_chips=2)
        par = run_fleet_campaign(seed=5, n_chips=2, fidelity="exact", shards=16)
        assert par.shards == 2
        assert list(seq.log) == list(par.log)


class TestInstrumentedParallelRun:
    def test_span_tree_is_consistent(self):
        tracer = Tracer()
        run_fleet_campaign(seed=7, n_chips=2, fidelity="exact", shards=2, tracer=tracer)
        campaign_spans = tracer.spans("campaign")
        assert len(campaign_spans) == 1
        root = campaign_spans[0]
        assert root.attributes["shards"] == 2
        assert root.attributes["fidelity"] == "exact"
        ids = {span.span_id for span in tracer.finished}
        assert len(ids) == len(tracer.finished)
        for span in tracer.finished:
            if span is root:
                continue
            assert span.parent_id is None or span.parent_id in ids


class TestValidation:
    def test_delay_change_series_usable(self, parallel_result):
        times, shifts = parallel_result.delay_change_series("AS110DC24", chip_no=2)
        assert times.size > 0
        assert np.all(np.isfinite(shifts))
