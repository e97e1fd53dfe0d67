"""Golden Table 1 campaign tapes: records, clocks and states pinned bit for bit.

Each tape runs :func:`~repro.lab.campaign.run_table1_campaign` and folds
what it produced into digests: the SHA-256 of the records, the fresh
delays in ``float.hex``, the sanitizer's phase-boundary state hashes
and, for faulted tapes, the quarantine reports, the resilience and guard
counters and every chip's ``export_state``.  Quarantined chips are
included: sweep statistics read ``chip.delta_path_delay()`` of every
chip in ``result.chips``.

The tapes were recorded on the per-chip campaign driver that preceded
the lock-step engine, so they pin that the engine change moved no bit.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.guard import GuardConfig
from repro.lab.campaign import run_table1_campaign
from repro.lab.faults import FaultEvent, FaultKind, FaultPlan
from repro.lab.resilience import RetryPolicy
from repro.obs import Tracer
from repro.units import hours, minutes


def records_digest(log) -> str:
    digest = hashlib.sha256()
    for record in log:
        digest.update(repr(record).encode())
    return digest.hexdigest()


def state_digest(state: dict) -> str:
    """SHA-256 over an ``export_state`` dict, keys in sorted order."""
    digest = hashlib.sha256()
    for key in sorted(state):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(state[key], dtype=float).tobytes())
    return digest.hexdigest()


def clean_tape(seed: int) -> dict:
    result = run_table1_campaign(seed, sanitize=True)
    return {
        "records": records_digest(result.log),
        "fresh_delays": {cid: delay.hex() for cid, delay in result.fresh_delays.items()},
        "state_hashes": hashlib.sha256(
            json.dumps(result.state_hashes, sort_keys=True).encode()
        ).hexdigest(),
    }


def _event(kind, chip, start, duration=0.0, magnitude=0.0):
    return FaultEvent(kind, f"chip-{chip}", start=start, duration=duration, magnitude=magnitude)


K = FaultKind
RETRY = RetryPolicy(max_attempts=3, backoff_seconds=5.0)
CLAMP = GuardConfig(mode="clamp", dump_dir=None)

#: name -> (fault events, guard config).  Two chips each: chip-1 runs
#: baseline + AS110AC24, chip-2 baseline + AS110DC24 + R20Z6.
FAULT_TAPES = {
    "thermal-drift": ([
        _event(K.THERMAL_DRIFT, 1, hours(1.0), hours(2.0), 2.5),
        _event(K.THERMAL_DRIFT, 2, hours(20.0), hours(1.0), 1.0),
    ], None),
    "supply-droop": ([
        _event(K.SUPPLY_DROOP, 1, hours(5.0), minutes(30.0), 0.1),
        _event(K.SUPPLY_DROOP, 2, hours(10.0), minutes(20.0), 0.08),
        _event(K.SUPPLY_DROOP, 2, hours(26.5), hours(1.0), 0.05),
    ], None),
    "relay-chatter": ([
        _event(K.RELAY_CHATTER, 1, hours(3.0)),
        _event(K.RELAY_CHATTER, 2, hours(1.0)),
        _event(K.RELAY_CHATTER, 2, hours(27.0)),
    ], None),
    "dropped-readout": ([
        _event(K.DROPPED_READOUT, 1, hours(4.0)),
        _event(K.DROPPED_READOUT, 2, hours(12.0)),
        _event(K.DROPPED_READOUT, 2, hours(12.0)),
        _event(K.DROPPED_READOUT, 2, hours(12.0)),
    ], None),
    "stuck-bit": ([
        _event(K.STUCK_BIT, 1, hours(6.0), magnitude=13),
        _event(K.STUCK_BIT, 1, hours(20.0), magnitude=16),
        _event(K.STUCK_BIT, 2, hours(8.0), magnitude=1),
    ], None),
    "chip-dropout": ([
        _event(K.CHIP_DROPOUT, 2, hours(10.0)),
    ], None),
    "trap-upset": ([
        _event(K.TRAP_UPSET, 1, hours(3.0), magnitude=float("nan")),
        _event(K.TRAP_UPSET, 2, hours(1.0), magnitude=2.5),
        _event(K.TRAP_UPSET, 2, hours(27.0), magnitude=float("nan")),
    ], CLAMP),
    "budget-2": ([
        _event(K.TRAP_UPSET, 1, hours(1.0), magnitude=float("nan")),
        _event(K.TRAP_UPSET, 1, hours(5.0), magnitude=3.0),
        _event(K.TRAP_UPSET, 2, hours(1.5), magnitude=2.0),
        _event(K.CHIP_DROPOUT, 2, hours(20.0)),
    ], GuardConfig(mode="clamp", violation_budget=2, dump_dir=None)),
}


def fault_tape(name: str) -> dict:
    events, guard = FAULT_TAPES[name]
    tracer = Tracer()
    result = run_table1_campaign(
        seed=7, n_chips=2, faults=FaultPlan(events), retry=RETRY, guard=guard,
        tracer=tracer,
    )
    metrics = tracer.metrics.snapshot()
    return {
        "records": records_digest(result.log),
        "quarantined": {
            chip_id: [report.case, report.sim_time.hex(), report.reason]
            for chip_id, report in sorted(result.quarantined.items())
        },
        "counters": {
            name: value
            for name, value in sorted(metrics.items())
            if name in ("lab.sample_retries", "campaign.quarantines")
            or name.startswith("guard.violations.")
        },
        "states": {
            chip_id: state_digest(chip.export_state())
            for chip_id, chip in sorted(result.chips.items())
        },
    }


GOLDEN_CLEAN = {0: {'fresh_delays': {'chip-1': '0x1.4ee24f6c1bc33p-23',
                      'chip-2': '0x1.442fbc4360642p-23',
                      'chip-3': '0x1.4d5ec7e52510bp-23',
                      'chip-4': '0x1.4a6f721be26cfp-23',
                      'chip-5': '0x1.45bed991d2b7ep-23'},
     'records': '6ce094fa3958d9ef06bccb68da078f883aa03b261e4d6d71cb4dd43bfaf10dc0',
     'state_hashes': '6a56fb2cc191e62b57af5beff6aebdf5b9ab62625b109bb8dd087777e6290501'},
 1: {'fresh_delays': {'chip-1': '0x1.5406f8aff4949p-23',
                      'chip-2': '0x1.4577bc869886bp-23',
                      'chip-3': '0x1.4b074de3c34dbp-23',
                      'chip-4': '0x1.4a314a5db4f6ep-23',
                      'chip-5': '0x1.4a622bbf4464cp-23'},
     'records': '6e98c13df458b86a2692b665b1f45a124d37eb0045e0096dfd403458faceac9c',
     'state_hashes': '9eb0816cfbe3904ef886107ac55959ada048ced26982b35a537c751ced7b139a'},
 2: {'fresh_delays': {'chip-1': '0x1.4cb3ebfeb542bp-23',
                      'chip-2': '0x1.4aadc51b0d7bbp-23',
                      'chip-3': '0x1.53b1554c0ac34p-23',
                      'chip-4': '0x1.5963b1f505356p-23',
                      'chip-5': '0x1.51f97b984d76bp-23'},
     'records': 'f7ef0db39bab1469da0a48a6e9249bcbb8a74ed6f03a153a98fba80522418a4b',
     'state_hashes': '0d89d2bf719cf89455634f5b4b369c4d848e00ba4dea1fc393f84d9d01c2722d'},
 3: {'fresh_delays': {'chip-1': '0x1.4b33cc8f8f3a6p-23',
                      'chip-2': '0x1.4e6a825a057c5p-23',
                      'chip-3': '0x1.4c6aba1d95401p-23',
                      'chip-4': '0x1.50e8d4ca544bep-23',
                      'chip-5': '0x1.4cf0b23319cb7p-23'},
     'records': '7b03493c9e91dafe4422605c97cee32cf9b403871f299afa37c9526d5e4dcc41',
     'state_hashes': 'e09473903687e2f15cd0ab37f5ee762fcc93af4ad8239a9f84f40a46450430de'},
 4: {'fresh_delays': {'chip-1': '0x1.5572a50300b37p-23',
                      'chip-2': '0x1.43bf365d5ed86p-23',
                      'chip-3': '0x1.5247a989f6d35p-23',
                      'chip-4': '0x1.5014efc2dfce9p-23',
                      'chip-5': '0x1.5897921785518p-23'},
     'records': '75f8967932b5f893bacd08f7ce3992a9559ec54b6b5a245b6172357f316f5de8',
     'state_hashes': '90507610593df24edd68707cbfe35e3ab34001dc8715fc6a35ba0746fc00f8b9'},
 5: {'fresh_delays': {'chip-1': '0x1.4ce7f3bd76f3bp-23',
                      'chip-2': '0x1.5618d8ca707dep-23',
                      'chip-3': '0x1.4ce67ec7927d8p-23',
                      'chip-4': '0x1.40d3031d5f432p-23',
                      'chip-5': '0x1.4fb5799838df5p-23'},
     'records': '6693c17c5045d28e75d4092824cde113bf148ca02300327667bd554598c65683',
     'state_hashes': 'ec52d8ee2a679affd0ec6a80a4c419f6e47d4713c1d5b0cb46c1eb35bf2b81b3'},
 6: {'fresh_delays': {'chip-1': '0x1.43f2e2c9a50e2p-23',
                      'chip-2': '0x1.5ab6dbcbb81c9p-23',
                      'chip-3': '0x1.4b0f3a1341453p-23',
                      'chip-4': '0x1.5f536fb70c0ccp-23',
                      'chip-5': '0x1.43c2bce8eb8d6p-23'},
     'records': '191e752bfe6003aaafb687f68fabf6af0d8b66f9d3b862e1b962778f702c772f',
     'state_hashes': '287793ffa905f13b31915d0abe8ac88fa708bb4f16fecd1caa39c3aa09a71ddd'},
 7: {'fresh_delays': {'chip-1': '0x1.4ce2a64d1229bp-23',
                      'chip-2': '0x1.5b3ce17faa09dp-23',
                      'chip-3': '0x1.4e30c47ffcb1fp-23',
                      'chip-4': '0x1.4c3d401d68714p-23',
                      'chip-5': '0x1.5312a9a2f7960p-23'},
     'records': '9c9c3c480e8453e245a3a390e4a41cf0e5699f13460dc726aec4d86367184ab2',
     'state_hashes': '87841cf0f4fdb717fd0b4c690dad8b4d78dd5154869f52b6bf61554fc0a510d3'}}

GOLDEN_FAULTED = {'budget-2': {'counters': {'campaign.quarantines': 2.0,
                           'guard.violations.bti.occupancy': 5.0,
                           'lab.sample_retries': 0.0},
              'quarantined': {'chip-1': ['AS110AC24',
                                         '0x1.1a0c000000000p+14',
                                         'chip-1: guard violation budget exhausted (3 '
                                         'violations > budget 2)'],
                              'chip-2': ['AS110DC24',
                                         '0x1.19f7000000000p+16',
                                         'chip-2 stopped responding at t=72000.0 s '
                                         '(simulated bench dropout)']},
              'records': '21ac9d06feec52820f886348e5e29a077830442035adfa252f3c9c3c84fe561f',
              'states': {'chip-1': '98615886778c842e8f8bb0bd19cadc4ef9394ec616ab4912b3d6149523509763',
                         'chip-2': '5bf8257db3c46acd3ce15b9e20c93a0a7019168e5bd440c81ac3a1dde1cb978f'}},
 'chip-dropout': {'counters': {'campaign.quarantines': 1.0, 'lab.sample_retries': 0.0},
                  'quarantined': {'chip-2': ['AS110DC24',
                                             '0x1.19fa000000000p+15',
                                             'chip-2 stopped responding at t=36000.0 s '
                                             '(simulated bench dropout)']},
                  'records': '576a2c6482f8fe6d25d3f6a61d50117c1a894559c12363393a9797890fdc7d5a',
                  'states': {'chip-1': '0b9b6aa24c970fa16bfb5440eee1db63dae69961e0e567962798acae51408981',
                             'chip-2': 'd4dbbc953f8b50fbd7608c64da64198e7d8f49298aecd309c63d413304e3f088'}},
 'dropped-readout': {'counters': {'campaign.quarantines': 1.0, 'lab.sample_retries': 3.0},
                     'quarantined': {'chip-2': ['AS110DC24',
                                                '0x1.528e000000000p+15',
                                                'chip-2 case AS110DC24: sample failed 3 '
                                                'times, last error: chip-2 case AS110DC24 '
                                                'phase AS110DC24: counter dropped the '
                                                'readout burst']},
                     'records': 'a114e293a5134cc0e90a715f2d1e92120c2f00a13d7c71da9226439149dd31be',
                     'states': {'chip-1': 'fa1aec05a30f6887080fc5a62632b225349096b9070d6fa0178becaf19f83605',
                                'chip-2': '5f4b02bae97dbf5f0511a4d689adebc126aaa234892b24e53c1b60f179ed1961'}},
 'relay-chatter': {'counters': {'campaign.quarantines': 0.0, 'lab.sample_retries': 3.0},
                   'quarantined': {},
                   'records': 'b11aad89f45e1cfe16b1c262c3fc8b2f264c47da04faa5708fed062a7b05db7e',
                   'states': {'chip-1': 'b427dd5a00e7bbca655ee6fbd7b25960c534be9faebbcd530b8e67e3f108bc69',
                              'chip-2': '71dfa8bbeb7130e9213afa00c01ae41f3f257a312121a65196674c9bdc074b94'}},
 'stuck-bit': {'counters': {'campaign.quarantines': 0.0, 'lab.sample_retries': 2.0},
               'quarantined': {},
               'records': '78fcfbfdb18eacca0d99c541a4dedca863aa3861235b8161dc186888a0948d83',
               'states': {'chip-1': 'c49833c2f91c327dc8661e1ca5afb634031d98ca09f641fa218576aa06f4ba1f',
                          'chip-2': '1c968d6e82a1d2e2e03252c3516baf3e8a21ebfd68e2210a73ba21cf792669ea'}},
 'supply-droop': {'counters': {'campaign.quarantines': 0.0, 'lab.sample_retries': 0.0},
                  'quarantined': {},
                  'records': 'ae924abfaca935b38d6d2afef36341a3eb6c4e62ae4453131177e75fba740f38',
                  'states': {'chip-1': '665c6bb717e310008a630aca8cb20e6138a8076f7cb9ffc6fb2979f75388b1fe',
                             'chip-2': 'dc383a694480afd3201f6fab464efca8f83cdcaa698be501e94aa357d7caa6a7'}},
 'thermal-drift': {'counters': {'campaign.quarantines': 0.0, 'lab.sample_retries': 0.0},
                   'quarantined': {},
                   'records': '52e59818d20316627dc04d4f8e2ac828615f5b392b487622b4957ea59bca4b39',
                   'states': {'chip-1': '7da19a3db7da20f5a5244417cfde25bd1ed564df556f44695e2461afaf2fc6aa',
                              'chip-2': '3c403c7f9a90d8844966771bcc9b9685dfcfcba2ff6516e4d6e51ca013d1d379'}},
 'trap-upset': {'counters': {'campaign.quarantines': 0.0,
                             'guard.violations.bti.occupancy': 6.0,
                             'lab.sample_retries': 0.0},
                'quarantined': {},
                'records': 'e4dbdda69e19bbb6297e17edf5b15b794c4ddf8ad5acda74d798d1c4fe64168d',
                'states': {'chip-1': '1f4f54b9c66c217b9e9675dcbab0e87ae33260f941e80be8c012fbf339f12511',
                           'chip-2': '2c132167c7d4151cf6b99bddd7740b8ae5d0c77b52ebe40083806edbb52140a2'}}}


class TestGoldenCampaign:
    @pytest.mark.parametrize("seed", range(8))
    def test_fault_free_tape(self, seed):
        assert clean_tape(seed) == GOLDEN_CLEAN[seed]

    @pytest.mark.parametrize("name", sorted(FAULT_TAPES))
    def test_faulted_tape(self, name):
        assert fault_tape(name) == GOLDEN_FAULTED[name]
