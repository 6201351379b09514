#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the definetti CLI.

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` next to this directory, never from an installed copy, and the
benchmark stops with exit code 2 when ``src/`` is absent.

Each op is one in-process ``definetti.cli.main(argv)`` call on JSON files the
seeded generator writes (see ``workloads.py``).  The load is a closed loop:
one client, one process, no extra threads; the next op starts when the
previous one has returned and its output has been checked.  The loop runs
whole cycles of op shapes until ``--seconds`` have passed.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the ops of one traced pass repeatedly, each op once
untraced and once traced in alternating order, and reports per-layer
metrics per op plus the tracing overhead (traced minus untraced wall time).

Standard output ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
An op fails on an unexpected exit code, an escaped exception or a failed
output check.  ``correct`` is false when any op failed, except for failures
the workload declares as known defects (``Workload.expected_failures``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
# Time to import the package's CLI and grow the log-factorial table to N, in
# a fresh interpreter, as every CLI invocation pays it.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import definetti.cli
from definetti.numerics import default_table
default_table().ensure(int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
"""

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s", "peak_rss_mb": "MB"}
KERNEL_FIELDS = {"s": "s", "calls": "count", "idx": "count", "ns_per_idx": "ns",
                 "bytes_computed": "B"}


def per_layer_units() -> dict[str, str]:
    units = {}
    for kern in spans.KERNELS:
        for field, unit in KERNEL_FIELDS.items():
            units[f"kernels.{kern}.{field}"] = unit
    units.update({
        "kernels.log_binomial_array.s": "s",
        "kernels.log_binomial_array.calls": "count",
        "numerics.table_ensure.s": "s",
        "numerics.table_ensure.entries": "count",
        "model._log_mean_law_array.s": "s",
        "model.mean_law_from_moments.s": "s",
        "model.check_complete_monotonicity.s": "s",
        "harness.verify_approximation.s": "s",
        "harness.verify_approximation.self_s": "s",
        "harness.ratio_scan.self_s": "s",
        "harness.ratio_scan.rows": "count",
        "recovery.recover_from_moments.self_s": "s",
        "io.load.s": "s",
        "io.format_value.s": "s",
        "io.format_value.calls": "count",
        "cli.main.s": "s",
        "cli.main.self_s": "s",
        "cli.out_bytes": "B",
    })
    for layer in spans.LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


# Filled in only by exact-verify, which BENCHMARK.json does not gate; printed
# in the report but left out of the result line.
EXACT_ONLY_UNITS = {"model.sample_mean_law.s": "s", "model.sample_mean_law.den_bits": "bits"}


def import_package():
    """Import definetti from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import definetti
    from definetti import _kernels, cli, harness, model, numerics, recovery
    from definetti import io as dio

    if os.path.dirname(os.path.dirname(os.path.abspath(definetti.__file__))) != SRC:
        sys.exit(f"perfbench: imported definetti from {definetti.__file__}, not {SRC}")
    return {"cli": cli, "io": dio, "harness": harness, "model": model,
            "numerics": numerics, "recovery": recovery, "_kernels": _kernels}


def measure_setup(max_n: int) -> list[float]:
    """Fresh-interpreter set-up times; one discarded warm-up writes bytecode caches."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, str(max_n)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times[1:]


def environment(pkg) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": pkg["_kernels"].KERNEL_BACKEND,
        "table_cap": pkg["numerics"].LogFactorialTable().cap,
        "DEFINETTI_NUMBA": os.environ.get("DEFINETTI_NUMBA", "unset"),
        "DEFINETTI_TABLE_CAP": os.environ.get("DEFINETTI_TABLE_CAP", "unset"),
    }


class Runner:
    """Runs ops, checks their outputs and keeps the tallies."""

    def __init__(self, main, expected_failures=()):
        self.main = main
        self.expected_failures = expected_failures
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.reasons: Counter[str] = Counter()

    def run(self, op: workloads.Op, main=None) -> tuple[float, int]:
        """Run one op and check its output; returns (wall seconds, output bytes)."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = (main or self.main)(op.argv)
        except Exception:  # an escaped exception is a failed op, not a benchmark crash
            rc = None
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        stdout, stderr = out.getvalue(), err.getvalue()
        out_bytes = len(stdout.encode())
        if op.out_path and os.path.exists(op.out_path):
            out_bytes += os.path.getsize(op.out_path)
        try:
            status, reason = op.check(rc, stdout, stderr)
        except Exception as exc:  # malformed output is a failed check
            status, reason = workloads.WRONG, f"unreadable output: {exc!r}"
        self.attempted += 1
        if status != workloads.OK:
            expected = status == workloads.FAILED and reason in self.expected_failures
            self.failed += 1
            self.unexpected += not expected
            self.reasons[f"{status}{' (expected)' if expected else ''}: {reason}"] += 1
        return wall, out_bytes


def op_rng(wl: workloads.Workload, seed: int, cycle: int, slot: int) -> random.Random:
    return random.Random(f"{wl.name}/{seed}/{cycle}/{slot}")


def run_e2e(wl, seed, seconds, workdir, runner) -> int:
    """Run whole cycles of slots until ``seconds`` have passed.

    The clock is checked only between cycles, so every run does the same mix
    of op shapes however fast the ops are.  Returns the number of cycles.
    """
    t_start = time.perf_counter()
    cycles = 0
    while cycles == 0 or time.perf_counter() - t_start < seconds:
        for slot in range(wl.slots):
            for op in wl.make(op_rng(wl, seed, cycles, slot), slot, workdir):
                runner.walls.append(runner.run(op)[0])
        cycles += 1
    return cycles


def run_traced(wl, pkg, seed, seconds, workdir, runner):
    """Repeat one fixed pass of ops, each untraced and traced, until time is up."""
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli.main", pkg["cli"].main)
    ops = [op for slot in range(wl.trace_slots)
           for op in wl.make(op_rng(wl, seed, 0, slot), slot, workdir)]
    untraced_s = traced_s = 0.0
    n_traced = passes = out_bytes = 0
    t_start = time.perf_counter()
    while passes == 0 or time.perf_counter() - t_start < seconds:
        for j, op in enumerate(ops):
            for traced in ((False, True) if (passes + j) % 2 == 0 else (True, False)):
                if traced:
                    tracer.install(pkg)
                    try:
                        wall, nbytes = runner.run(op, traced_main)
                    finally:
                        tracer.uninstall()
                    traced_s += wall
                    out_bytes += nbytes
                    n_traced += 1
                else:
                    untraced_s += runner.run(op)[0]
        passes += 1

    setup_tracer = spans.Tracer()
    setup_tracer.install(pkg)
    try:
        pkg["numerics"].LogFactorialTable().ensure(wl.max_n)
    finally:
        setup_tracer.uninstall()
    metrics = layer_metrics(tracer, setup_tracer, n_traced, traced_s - untraced_s, out_bytes)
    plan = f"{passes} passes of {len(ops)} ops, each op once untraced and once traced"
    return metrics, span_split(tracer.totals(), n_traced), plan


def span_split(tot, n_ops) -> list[str]:
    """Per-op time of every span, by self time, as a share of the whole op."""
    op_s = tot["cli.main"]["s"] / n_ops
    lines = [f"# {'span':36s} {'calls/op':>9s} {'s/op':>10s} {'self s/op':>10s} {'self %':>7s}"]
    for name, row in sorted(tot.items(), key=lambda kv: -kv[1]["self_s"]):
        self_s = row["self_s"] / n_ops
        lines.append(f"# {name:36s} {row['calls'] / n_ops:9.3g} {row['s'] / n_ops:10.4g} "
                     f"{self_s:10.4g} {100 * self_s / op_s:6.1f}%")
    return lines


def layer_metrics(tracer, setup_tracer, n_ops, overhead_s, out_bytes) -> dict[str, float]:
    tot = tracer.totals()
    cnt = tracer.counts

    def per_op(name, field):
        return tot[name][field] / n_ops if name in tot else 0.0

    m: dict[str, float] = {}
    for kern in spans.KERNELS:
        name = f"kernels.{kern}"
        calls = tot[name]["calls"] if name in tot else 0
        idx = cnt.get(name + ".idx", 0)
        m[name + ".s"] = per_op(name, "s")
        m[name + ".calls"] = calls / n_ops
        m[name + ".idx"] = idx / calls if calls else 0
        m[name + ".ns_per_idx"] = tot[name]["s"] / idx * 1e9 if idx else 0.0
        m[name + ".bytes_computed"] = cnt.get(name + ".bytes_computed", 0) / calls if calls else 0
    m["kernels.log_binomial_array.s"] = per_op("kernels.log_binomial_array", "s")
    m["kernels.log_binomial_array.calls"] = per_op("kernels.log_binomial_array", "calls")
    setup = setup_tracer.totals()["numerics.table_ensure"]
    m["numerics.table_ensure.s"] = setup["s"]
    m["numerics.table_ensure.entries"] = setup_tracer.counts["numerics.table_ensure.entries_max"]
    m["model.sample_mean_law.s"] = per_op("model.sample_mean_law", "s")
    m["model.sample_mean_law.den_bits"] = cnt.get("model.sample_mean_law.den_bits_max", 0)
    for name in ("model._log_mean_law_array", "model.mean_law_from_moments",
                 "model.check_complete_monotonicity", "harness.verify_approximation",
                 "io.load", "io.format_value", "cli.main"):
        m[name + ".s"] = per_op(name, "s")
    for name in ("harness.verify_approximation", "harness.ratio_scan",
                 "recovery.recover_from_moments", "cli.main"):
        m[name + ".self_s"] = per_op(name, "self_s")
    scans = tot["harness.ratio_scan"]["calls"] if "harness.ratio_scan" in tot else 0
    m["harness.ratio_scan.rows"] = cnt.get("harness.ratio_scan.rows", 0) / scans if scans else 0
    m["io.format_value.calls"] = per_op("io.format_value", "calls")
    m["cli.out_bytes"] = out_bytes / n_ops
    for layer in spans.LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            row["self_s"] for name, row in tot.items() if name.split(".")[0] == layer
        ) / n_ops
    m["trace_overhead_s"] = overhead_s / n_ops
    return m


def quantile_notes(walls: list[float]) -> list[str]:
    """Op-time quartiles, and p90 only where at least ten samples lie beyond it."""
    q = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    notes = [f"# op_s min {min(walls):.4g} q1 {q[0]:.4g} median {q[1]:.4g} q3 {q[2]:.4g} "
             f"max {max(walls):.4g} ({len(walls)} samples)"]
    if len(walls) * 0.1 < 10:
        notes.append(f"op_s.p90 not reported: {len(walls)} samples, fewer than 10 beyond p90")
    else:
        p90 = statistics.quantiles(walls, n=10)[-1]
        beyond = sum(w > p90 for w in walls)
        notes.append(f"op_s.p90 {p90:.6g} s ({len(walls)} samples, {beyond} beyond)")
    return notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    if not os.path.isfile(os.path.join(SRC, "definetti", "__init__.py")):
        print(f"perfbench: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    setup_times = measure_setup(wl.max_n)
    pkg = import_package()
    pkg["numerics"].default_table().ensure(wl.max_n)
    env = environment(pkg)

    workdir = os.path.join(ROOT, ".perfbench_work", f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(pkg["cli"].main, wl.expected_failures)
    t0 = time.perf_counter()
    try:
        if args.trace:
            metrics, split, plan = run_traced(wl, pkg, args.seed, args.seconds, workdir, runner)
            units = per_layer_units()
            shown = {**units, **EXACT_ONLY_UNITS}
        else:
            cycles = run_e2e(wl, args.seed, args.seconds, workdir, runner)
            units = shown = E2E_UNITS
            split = quantile_notes(runner.walls)
            metrics = {
                "setup_s": statistics.median(setup_times),
                # ops completed: failed ops take time but do not count
                "ops_per_s": (runner.attempted - runner.failed) / sum(runner.walls),
                "op_s.p50": statistics.median(runner.walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            plan = f"{len(runner.walls)} ops from {cycles} cycles of {wl.slots} slots"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    elapsed = time.perf_counter() - t0

    print(f"# env {json.dumps(env)}")
    print(f"# workload {wl.name} seed {args.seed} trace {args.trace}: {plan}, "
          f"{elapsed:.1f} s loop")
    print(f"# setup_s samples {[round(t, 4) for t in setup_times]}")
    for name, unit in shown.items():
        print(f"{name:42s} {metrics[name]:>16.6g} {unit}")
    print("\n".join(split))
    print(f"fail_frac {runner.failed / runner.attempted:.4g} "
          f"({runner.failed} failed of {runner.attempted} attempted)")
    for reason, n in sorted(runner.reasons.items()):
        print(f"#   {n:4d} x {reason}")
    print(json.dumps({
        "correct": runner.unexpected == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
