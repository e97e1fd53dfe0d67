"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table1-exact --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced units of the same inputs,
prints the per-layer table with its accounting row, writes the spans to
``perfbench/out/`` and reports the per-layer metrics.  The last line of
standard output is the JSON result; everything above it is for people.
Run from the root of a checkout; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 9


def host_fingerprint() -> dict:
    """CPU model, CPU count, Python and numpy versions, load at start."""
    import numpy

    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def measure_setup(entry_modules) -> float:
    """Median wall time of a fresh interpreter importing the entry points."""
    code = "; ".join(f"import {module}" for module in entry_modules)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


class Tally:
    """Correctness over every unit a run made."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.digest_checked = 0
        self.digest_matches = 0
        self.errors: list[str] = []

    def add(self, seed: int, unit) -> None:
        from workloads import check

        attempted, failed, matches = check(unit, self.reference[str(seed)])
        self.attempted += attempted
        self.failed += failed
        self.digest_checked += attempted
        self.digest_matches += matches
        if unit.error:
            self.errors.append(f"seed {seed}: {unit.error}")
        elif failed:
            self.errors.append(f"seed {seed}: {failed} of {attempted} ops differ from reference")


def dc24_values(units_by_seed: dict, tally: Tally) -> list[float]:
    """DC24 degradations of every chip the run's distinct inputs cover."""
    from workloads import PROBE_CELL, sweep_probe

    values: list[float] = []
    for seed in sorted(units_by_seed):
        unit = units_by_seed[seed]
        if unit.outputs is None:
            continue
        if "cells" not in unit.outputs:
            values.extend(unit.outputs["dc24_pct"])
            continue
        probe = sweep_probe(seed, OUT)
        tally.attempted += 1
        if probe["digest"] != unit.outputs["cells"][PROBE_CELL][1]:
            tally.failed += 1
            tally.errors.append(f"seed {seed}: DC24 probe does not reproduce the fault-free cell")
        values.extend(probe["dc24_pct"])
    return values


def within_window(start: float, done: int, seconds: float) -> bool:
    """True while one more unit, at the mean pace so far, ends inside the window."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def run_untraced(workload, order, seconds: float, tally: Tally) -> dict:
    """Units until the window has passed and every pool seed has run."""
    from workloads import PAPER_DC24_PCT, run_unit

    units = []
    start = time.perf_counter()
    while len(units) < len(order) or within_window(start, len(units), seconds):
        seed = order[len(units) % len(order)]
        units.append((seed, run_unit(workload, seed, OUT)))
    first_by_seed = {}
    for seed, unit in units:
        tally.add(seed, unit)
        first_by_seed.setdefault(seed, unit)
    op_s = [value for _, unit in units for value in unit.op_s]
    dc24 = dc24_values(first_by_seed, tally)
    mean_dc24 = statistics.fmean(dc24) if dc24 else float("nan")
    return {
        "ops": len(op_s),
        "units": len(units),
        "metrics": {
            "meas_per_s": (
                statistics.median(unit.measurements / unit.wall_s for _, unit in units), "1/s"),
            "op_s.p50": (statistics.median(op_s), "s"),
            "cells_per_min": (
                statistics.median(60.0 * len(unit.op_s) / unit.wall_s for _, unit in units),
                "1/min"),
            "paper_dc24_err_pp": (abs(mean_dc24 - PAPER_DC24_PCT), "pp"),
        },
        "dc24_mean_pct": mean_dc24,
        "dc24_chips": len(dc24),
    }


def run_traced(workload, order, seconds: float, tally: Tally, spans_path: Path,
               host: dict) -> dict:
    """Pairs of untraced and traced units of the same inputs."""
    import layers
    from workloads import run_unit

    child_dir = OUT / f"children-{os.getpid()}"
    child_dir.mkdir(parents=True, exist_ok=True)
    recorder = layers.Recorder(child_dir=child_dir)
    untraced_wall = traced_wall = 0.0
    traced = []
    start = time.perf_counter()
    pairs = 0
    try:
        while pairs < 1 or within_window(start, pairs, seconds):
            seed = order[pairs % len(order)]
            sides = ("untraced", "traced") if pairs % 2 == 0 else ("traced", "untraced")
            for side in sides:
                if side == "untraced":
                    unit = run_unit(workload, seed, OUT)
                    untraced_wall += unit.wall_s
                else:
                    unit = _traced_unit(workload, seed, recorder)
                    traced_wall += unit.wall_s
                    traced.append(unit)
                tally.add(seed, unit)
            pairs += 1
    finally:
        shutil.rmtree(child_dir, ignore_errors=True)
    n_ops = sum(len(unit.op_s) for unit in traced)
    measurements = sum(unit.measurements for unit in traced)
    table = layers.accounting(recorder.layers, traced_wall)
    metrics = layer_metrics(recorder, traced, n_ops, measurements, traced_wall, table)
    metrics["obs.trace_overhead"] = (traced_wall / untraced_wall - 1.0, "ratio")
    metrics["lab.campaign.digest_matches"] = (
        tally.digest_matches / max(tally.digest_checked, 1), "ratio")
    metrics["error_rate"] = (tally.failed / max(tally.attempted, 1), "ratio")
    write_spans(spans_path, host, recorder, table)
    return {
        "pairs": pairs,
        "ops": n_ops,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "recorder": recorder,
        "accounting": table,
        "metrics": metrics,
    }


def _traced_unit(workload, seed: int, recorder):
    """One unit under the wrappers and a live program tracer."""
    import layers
    from repro.obs import Tracer, use_tracer
    from workloads import run_unit

    ambient = Tracer()
    recorder.ambient = ambient
    sweep_tracer = Tracer() if workload.name == "sweep-faulted" else None
    with layers.Installed(recorder), use_tracer(ambient):
        frame = recorder.enter("op", True)

        def close_op(end: float) -> None:
            if sweep_tracer is not None:
                graft_sweep(recorder, sweep_tracer)
            recorder.exit(frame, end)

        unit = run_unit(workload, seed, OUT, tracer=sweep_tracer, on_done=close_op)
    recorder.add_counters(layers.counter_values(ambient))
    recorder.ambient = None
    return unit


def graft_sweep(recorder, sweep_tracer) -> None:
    """Hang the forked cells' spans under the runner's ``sweep_cell`` spans.

    The time a ``sweep_cell`` span is not covered by wrapped calls inside
    its child is the isolation cost: fork, pipe, wait and child glue.
    """
    child_spans, child_roots = recorder.collect_children()
    op_span = recorder.current_span()
    cells = []
    for cell in sweep_tracer.spans("sweep_cell"):
        start = sweep_tracer.epoch + cell.start
        end = start + cell.duration
        cells.append((recorder.add_span("dependability.isolation", start, end, op_span),
                      start, end))
        compute = sum(root_end - root_start for root_start, root_end in child_roots
                      if start <= root_start <= end)
        recorder.add_layer("dependability.isolation", 1, cell.duration, cell.duration - compute)
        recorder.cover(cell.duration)
    for span in child_spans:
        if span[4] is None:
            parent = next((cell_id for cell_id, start, end in cells if start <= span[2] <= end),
                          op_span)
            span = span[:4] + (parent,)
        recorder.spans.append(span)


def layer_metrics(recorder, traced, n_ops, measurements, wall, table) -> dict:
    """Every per-layer metric, from the traced units only."""
    from layers import LayerStats

    counters = recorder.counters

    def layer(name: str) -> LayerStats:
        return recorder.layers.get(name) or LayerStats()

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def per_call(name: str, scale: float) -> float:
        stats = layer(name)
        return scale * ratio(stats.total_s, stats.calls)

    def per_element(name: str, scale: float) -> float:
        stats = layer(name)
        return scale * ratio(stats.total_s, stats.elements)

    def per_op(value: float) -> float:
        return ratio(value, n_ops)

    def share(name: str) -> float:
        return ratio(layer(name).self_s, wall)

    lookups = sum(counters.get(f"bti.rate_cache.{kind}", 0.0)
                  for kind in ("hits", "partial_hits", "misses"))
    samples = counters.get("lab.samples", 0.0)
    retries = counters.get("lab.sample_retries", 0.0)
    violations = sum(value for name, value in counters.items()
                     if name.startswith("guard.violations."))
    outputs = [unit.outputs for unit in traced if unit.outputs is not None]
    return {
        "bti.trap_updates": (per_op(counters.get("bti.trap_updates", 0.0)), "count/op"),
        "bti.evolve.ns_per_trap_update": (per_element("bti.evolve", 1e9), "ns"),
        "bti.rate_cache.hit_ratio": (
            ratio(counters.get("bti.rate_cache.hits", 0.0), lookups), "ratio"),
        "bti.rate_cache.partial_hit_ratio": (
            ratio(counters.get("bti.rate_cache.partial_hits", 0.0), lookups), "ratio"),
        "bti.delta_vth.us_per_call": (per_call("bti.delta_vth", 1e6), "us"),
        "bti.fleet.evolve.ns_per_trap_update": (per_element("bti.fleet.evolve", 1e9), "ns"),
        "bti.fleet.delta_vth.us_per_chip": (per_element("bti.fleet.delta_vth", 1e6), "us"),
        "bti.binned.evolve.ns_per_trap_update": (
            per_element("bti.binned.evolve", 1e9), "ns"),
        "bti.binned.readout_shift.us_per_chip": (
            per_element("bti.binned.readout_shift", 1e6), "us"),
        "bti.population.draw_s": (per_op(layer("bti.population.draw").total_s), "s/op"),
        "fpga.ro_evaluations": (per_op(counters.get("ro.evaluations", 0.0)), "count/op"),
        "fpga.apply.self_ms": (1e3 * per_op(layer("fpga.apply").self_s), "ms/op"),
        "fpga.path_delay.us_per_call": (per_call("fpga.path_delay", 1e6), "us"),
        "fpga.counter.us_per_read": (per_element("fpga.counter", 1e6), "us"),
        "fpga.fleet.build_s": (per_op(layer("fpga.fleet.build").total_s), "s/op"),
        "fpga.fleet.path_delays.us_per_chip": (
            per_element("fpga.fleet.path_delays", 1e6), "us"),
        "lab.samples": (per_op(samples), "count/op"),
        "lab.take_sample.us_per_sample": (per_call("lab.take_sample", 1e6), "us"),
        "lab.instrument.calls_per_meas": (
            ratio(layer("lab.instrument").calls, measurements), "calls/meas"),
        "lab.instrument.share": (share("lab.instrument"), "ratio"),
        "lab.fleet.run_phase.self_share": (share("lab.fleet.run_phase"), "ratio"),
        "lab.sample_retries": (per_op(retries), "count/op"),
        "lab.faults.injected": (per_op(counters.get("lab.faults.injected", 0.0)), "count/op"),
        "lab.retry_ratio": (ratio(retries, samples), "ratio"),
        "lab.unattributed_share": (table["unattributed_share"], "ratio"),
        "guard.checks": (per_op(layer("guard.check").calls), "count/op"),
        "guard.check.ns_per_call": (per_call("guard.check", 1e9), "ns"),
        "guard.share": (share("guard.check"), "ratio"),
        "guard.violations": (per_op(violations), "count/op"),
        "core.lifetime.s_per_cell": (per_call("core.lifetime", 1.0), "s"),
        "dependability.cells_degraded": (
            per_op(sum(out.get("degraded", 0) for out in outputs)), "count/op"),
        "dependability.quarantines": (
            per_op(sum(out.get("quarantines", 0) for out in outputs)), "count/op"),
        "dependability.isolation.ms_per_cell": (
            1e3 * ratio(layer("dependability.isolation").self_s,
                        layer("dependability.isolation").calls), "ms"),
        "dependability.store.ms_per_cell": (per_call("dependability.store", 1e3), "ms"),
        "dependability.analyze_s": (per_call("dependability.analyze", 1.0), "s"),
    }


def write_spans(path: Path, host: dict, recorder, table: dict) -> None:
    """The traced run's spans, one JSON object a line, after a header."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        header = {
            "host": host,
            "layers": {name: stats.to_list() for name, stats in recorder.layers.items()},
            "layer_fields": ["calls", "total_s", "self_s", "elements"],
            "counters": recorder.counters,
            "accounting": table,
        }
        handle.write(json.dumps(header) + "\n")
        for span_id, name, start, end, parent in recorder.spans:
            handle.write(json.dumps(
                {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
            ) + "\n")


def print_layer_table(workload_name: str, traced: dict) -> None:
    recorder, table = traced["recorder"], traced["accounting"]
    wall = traced["traced_wall_s"]
    print(f"\nlayer table: {workload_name}, {traced['ops']} traced ops, "
          f"{wall:.3f} s traced wall")
    print(f"{'layer':<28} {'calls':>10} {'elements':>12} {'total_ms':>11} "
          f"{'self_ms':>11} {'share':>7}")
    for name in sorted(recorder.layers):
        stats = recorder.layers[name]
        print(f"{name:<28} {stats.calls:>10} {stats.elements:>12} "
              f"{1e3 * stats.total_s:>11.1f} {1e3 * stats.self_s:>11.1f} "
              f"{stats.self_s / wall:>7.1%}")
    print(f"{'accounting: op wall':<28} {1e3 * wall:>47.1f}")
    print(f"{'  sum of layer self times':<28} {1e3 * table['attributed_s']:>47.1f}")
    print(f"{'  unattributed':<28} {1e3 * table['unattributed_s']:>47.1f} "
          f"{table['unattributed_share']:>7.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # One compute thread: the workloads are single-process by design, and
    # a second BLAS thread on a small host only adds noise.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]

    from workloads import WORKLOADS, input_order

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    host = host_fingerprint()
    print(f"host: {json.dumps(host, sort_keys=True)}")
    reference = json.loads((HERE / "reference.json").read_text())["workloads"][workload.name]
    order = input_order(workload, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    tally = Tally(reference)

    setup_s = None
    if not args.trace:
        setup_s = measure_setup(workload.entry_modules)
    if workload.warm is not None:
        workload.warm(OUT)

    if args.trace:
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        traced = run_traced(workload, order, args.seconds, tally, spans_path, host)
        print_layer_table(workload.name, traced)
        print(f"spans written to {spans_path.relative_to(ROOT)}")
        metrics = traced["metrics"]
    else:
        untraced = run_untraced(workload, order, args.seconds, tally)
        metrics = untraced["metrics"]
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            peak_rss_mb(include_children=workload.name == "sweep-faulted"), "MB")
        print(f"{workload.name}: {untraced['units']} units, {untraced['ops']} ops "
              f"(op_s.p50 is the median of {untraced['ops']}); DC24 mean "
              f"{untraced['dc24_mean_pct']:.4f} % over {untraced['dc24_chips']} chips")
        print(f"{'error_rate':<24} {tally.failed / max(tally.attempted, 1):>14.6g} ratio "
              f"({tally.failed} of {tally.attempted} ops failed)")

    for error in tally.errors:
        print(f"FAILED {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
