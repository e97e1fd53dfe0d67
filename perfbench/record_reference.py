"""Record the reference outputs every benchmark op is checked against.

    python3 perfbench/record_reference.py [--workload NAME ...]

Runs every seed of each workload's input pool once and rewrites
``perfbench/reference.json``.  This is a deliberate, separate step: the
benchmark only reads the file.  Record from the program whose outputs
are to be the reference (the file names its host); a change that alters
simulated results on purpose re-records and says so.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def main(argv=None) -> int:
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from run import OUT, host_fingerprint
    from workloads import WORKLOADS, run_unit

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    existing = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"workloads": {}}
    OUT.mkdir(parents=True, exist_ok=True)
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        entries = {}
        for seed in workload.pool:
            unit = run_unit(workload, seed, OUT)
            if unit.outputs is None:
                print(f"error: {name} seed {seed} raised: {unit.error}", file=sys.stderr)
                return 1
            entries[str(seed)] = unit.outputs
            print(f"{name} seed {seed}: {unit.measurements} measurements, "
                  f"{unit.wall_s:.2f} s", flush=True)
        existing["workloads"][name] = entries
    existing["host"] = host_fingerprint()
    REFERENCE.write_text(json.dumps(existing, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
