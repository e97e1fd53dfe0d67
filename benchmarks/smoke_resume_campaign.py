"""SMOKE — kill a checkpointed campaign mid-run, resume, compare logs.

Guards the checkpoint/resume contract end to end, the way a real outage
exercises it: a campaign subprocess writing checkpoints is SIGKILLed
once its first cases have landed, then resumed in-process.  The resumed
``DataLog`` must be bit-identical to an uninterrupted run — generation
snapshots mean a kill at *any* instant leaves a consistent checkpoint.

Two cases: the paper's campaign on two chips, and a 10-chip fleet lot
(``repro campaign --fleet 10``), where chips ``i`` and ``i + 5`` share
every lock-step group, so the kill can land between the checkpoints of
two chips of one group.

If the subprocess finishes before the kill window opens (fast machine),
the test degrades to resuming a complete checkpoint, which must still
reproduce the reference log from its shards.

Run directly (CI does)::

    PYTHONPATH=src python -m pytest benchmarks/smoke_resume_campaign.py -q
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.lab.campaign import run_table1_campaign
from repro.lab.fleet import run_fleet_campaign

ROOT = Path(__file__).resolve().parent.parent

SEED = 7
N_CHIPS = 2
FLEET_CHIPS = 10

#: Checkpointed cases after which the campaign is killed: every chip's
#: baseline lands first, so two cases are both baselines of the 2-chip
#: campaign, and twelve are the lot's ten baselines plus the first
#: schedule row's two-chip group.
KILL_AFTER_CASES = 2
FLEET_KILL_AFTER_CASES = 12


def _completed_cases(manifest_path: Path) -> int:
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError):
        # Not written yet, or caught mid-replace — treat as no progress.
        return 0
    return sum(len(cases) for cases in manifest.get("completed", {}).values())


def _kill_mid_run(checkpoint: Path, lot_args: list[str], kill_after: int) -> bool:
    """Run ``repro campaign`` with checkpoints and SIGKILL it mid-run.

    Returns whether the kill landed (False: the run finished first).
    """
    manifest = checkpoint / "manifest.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", "--seed", str(SEED), *lot_args,
            "--checkpoint", str(checkpoint), "--quiet",
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    killed = False
    try:
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            if process.poll() is not None:
                break  # finished before the kill window — see module docstring
            if _completed_cases(manifest) >= kill_after:
                process.send_signal(signal.SIGKILL)
                process.wait(timeout=30.0)
                killed = True
                break
            time.sleep(0.05)
        else:
            raise AssertionError("campaign made no checkpoint progress in 300 s")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30.0)
    return killed


def test_kill_mid_campaign_then_resume(tmp_path):
    checkpoint = tmp_path / "checkpoint"
    killed = _kill_mid_run(checkpoint, ["--chips", str(N_CHIPS)], KILL_AFTER_CASES)
    cases_at_resume = _completed_cases(checkpoint / "manifest.json")
    resumed = run_table1_campaign(
        seed=SEED, n_chips=N_CHIPS, checkpoint=str(checkpoint), resume=True
    )
    reference = run_table1_campaign(seed=SEED, n_chips=N_CHIPS)
    assert resumed.complete
    assert list(resumed.log) == list(reference.log)
    assert resumed.fresh_delays == reference.fresh_delays
    print(
        f"{'killed' if killed else 'completed'} with {cases_at_resume} "
        f"checkpointed cases; resumed log matches the uninterrupted run "
        f"({len(resumed.log)} records)"
    )


def test_kill_mid_fleet_lot_then_resume(tmp_path):
    checkpoint = tmp_path / "checkpoint"
    killed = _kill_mid_run(
        checkpoint, ["--fleet", str(FLEET_CHIPS)], FLEET_KILL_AFTER_CASES
    )
    cases_at_resume = _completed_cases(checkpoint / "manifest.json")
    resumed = run_fleet_campaign(
        seed=SEED, n_chips=FLEET_CHIPS, checkpoint=str(checkpoint), resume=True
    )
    reference = run_fleet_campaign(seed=SEED, n_chips=FLEET_CHIPS)
    assert resumed.complete
    assert list(resumed.log) == list(reference.log)
    assert resumed.fresh_delays == reference.fresh_delays
    print(
        f"{'killed' if killed else 'completed'} with {cases_at_resume} "
        f"checkpointed cases; resumed {FLEET_CHIPS}-chip lot matches the "
        f"uninterrupted run ({len(resumed.log)} records)"
    )
