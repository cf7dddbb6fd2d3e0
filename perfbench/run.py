#!/usr/bin/env python3
"""huntrab benchmark: time one workload end to end, or trace it by layer.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one process each

Workloads: exact-standard, exact-deaf, nest-bounds, cube-forms (see
perfbench/README.md).  The package is imported from the src/ directory
beside perfbench/, so run this from a full checkout; without src/huntrab it
exits with code 2 and prints no result.

Each operation is one in-process call to huntrab.cli.main(["--json", ...]).
Before every call the package's lru caches are cleared and the garbage
collector runs, outside the timed region, so each call starts as a fresh
CLI process would.  Passes over the workload repeat until the next one
would end after --seconds.  Every output is checked (perfbench/checks.py).

--trace 0 reports the end-to-end metrics; pass p runs on draw p of the
seed's inputs.  Operation times are reported in calibration units (see
``calibrate``), because on a shared machine raw wall time drifted by more
than the bounds allow from one run to the next; raw seconds are printed
too.

--trace 1 runs each operation of draw 0 untraced and traced, and reports
per-layer metrics (perfbench/spans.py), also in calibration units; the
spans, in seconds, are written to
.bench_build/perfbench/trace-WORKLOAD-seedN.json.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUPS = 11
CALIBRATION_LOOPS = 200_000


def _huntrab_modules():
    return [(name, module) for name, module in sys.modules.items()
            if name == "huntrab" or name.startswith("huntrab.")]


def set_up(workload: str, seed: int, workdir: Path):
    """Import huntrab afresh and build draw 0 of the inputs, SETUPS times.

    Returns the set-up times, the CLI module and the operations of the last
    set-up, which are the ones measured.
    """
    times = []
    for _ in range(SETUPS):
        for name, _module in _huntrab_modules():
            del sys.modules[name]
        gc.collect()
        start = time.perf_counter()
        cli = importlib.import_module("huntrab.cli")
        ops = workloads.build(workload, seed, str(workdir))
        times.append(time.perf_counter() - start)
    return times, cli, ops


def _clear_caches() -> None:
    for _name, module in _huntrab_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def run_op(cli, op) -> tuple[float, int | str, str]:
    """Time one CLI call; return (seconds, exit code or exception, stdout)."""
    _clear_caches()
    gc.collect()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(["--json", *op.argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught error fails this operation only
            code = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop that does not touch huntrab.

    The loop is timed around every operation.  An operation's time divided
    by the mean of the loop times on either side of it is its time in
    calibration units ("cal"), which cancels drift in machine speed.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i & 7
    return time.perf_counter() - start


def _calibrated(ops, run) -> tuple[list, list[float]]:
    """Call run(index, op) for every operation with the calibration loop
    timed before and after each; return the results and, per operation, the
    mean of the two loop times around it."""
    results, cals = [], []
    before = calibrate()
    for index, op in enumerate(ops):
        results.append(run(index, op))
        after = calibrate()
        cals.append((before + after) / 2)
        before = after
    return results, cals


class Passes:
    """Per-pass times and the failures over every pass recorded."""

    def __init__(self):
        self.walls: list[float] = []
        self.max_ops: list[float] = []
        self.walls_cal: list[float] = []
        self.max_ops_cal: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, results: list[tuple], cals: list[float]) -> None:
        """Add one pass, given as (op, seconds, exit code, stdout) per
        operation and each operation's calibration seconds."""
        failed, reasons = checks.count_failures((op, code, out) for op, _, code, out in results)
        times = [elapsed for _, elapsed, _, _ in results]
        self.walls.append(sum(times))
        self.max_ops.append(max(times))
        scaled = [t / cal for t, cal in zip(times, cals)]
        self.walls_cal.append(sum(scaled))
        self.max_ops_cal.append(max(scaled))
        self.attempted += len(results)
        self.failed += failed
        self.reasons.extend(reasons)


def _until(seconds: float):
    """Yield pass numbers until the next pass would end after `seconds`."""
    deadline = time.perf_counter() + seconds
    longest = 0.0
    number = 0
    while True:
        begin = time.perf_counter()
        yield number
        end = time.perf_counter()
        longest = max(longest, end - begin)
        number += 1
        if end + longest > deadline:
            return


def measure(args, cli, ops, workdir: Path) -> tuple[Passes, dict]:
    passes = Passes()
    for number in _until(args.seconds):
        if number:
            ops = workloads.build(args.workload, args.seed, str(workdir), number)
        passes.record(*_calibrated(ops, lambda index, op: (op, *run_op(cli, op))))
    # The slowest operation is printed, not reported: measured once per
    # pass, it spread too widely between runs to hold a bound.
    print(f"  {len(passes.walls)} passes; per pass: raw wall time "
          f"{statistics.median(passes.walls):.6g} s; slowest operation "
          f"{statistics.median(passes.max_ops_cal):.6g} cal, "
          f"{statistics.median(passes.max_ops):.6g} s")
    return passes, {"wall_cal": (passes.walls_cal, "cal")}


def measure_traced(args, cli, ops) -> tuple[Passes, dict]:
    """Run each operation untraced and traced, pass after pass, and report
    per-layer medians over the traced passes.  Running the two back to back
    keeps drift in machine speed out of trace.overhead_cal.  A call runs
    faster when the same call ran just before it, so one untimed pass comes
    first, and the order within each pair alternates."""
    plain, traced = Passes(), Passes()
    tracer = spans.Tracer()
    per_pass: list[dict] = []
    for op in ops:
        run_op(cli, op)

    def run_pair(index, op):
        pair = {}
        for traced_run in ((False, True) if index % 2 == 0 else (True, False)):
            if traced_run:
                tracer.install()
            try:
                pair[traced_run] = (op, *run_op(cli, op))
            finally:
                tracer.uninstall()
        return pair[False], pair[True]

    for _ in _until(args.seconds):
        mark = tracer.mark()
        pairs, cals = _calibrated(ops, run_pair)
        plain.record([p for p, _ in pairs], cals)
        traced.record([t for _, t in pairs], cals)
        per_pass.append(spans.layer_metrics(tracer.spans, statistics.median(cals), mark))
    WORK.mkdir(parents=True, exist_ok=True)
    trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"spans": tracer.dump()}))

    expanded = {m["solver.search.states_expanded"] for m in per_pass}
    if len(expanded) > 1:
        print(f"warning: states_expanded differs between passes: {sorted(expanded)}")
    witnesses = sum(op.produces_witness for op in ops)
    if per_pass[0]["dynamics.calls"] != witnesses:
        print(f"warning: dynamics.calls is {per_pass[0]['dynamics.calls']}, "
              f"but {witnesses} operations produce a witness")
    print(f"  {len(per_pass)} traced passes")
    _print_layer_shares(per_pass)

    samples = {name: ([m[name] for m in per_pass], unit) for name, unit in spans.UNITS.items()}
    overhead = statistics.median(traced.walls_cal) - statistics.median(plain.walls_cal)
    samples["trace.overhead_cal"] = ([overhead], "cal")
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.reasons += traced.reasons
    return plain, samples


def _print_layer_shares(per_pass: list[dict]) -> None:
    self_cal: dict[str, float] = {}
    for layer in spans.LAYERS:
        group = "cube" if layer.startswith("cube.") else layer
        self_cal[group] = self_cal.get(group, 0.0) + statistics.median(
            m[f"{layer}.self_cal"] for m in per_pass)
    ranking = sorted(self_cal.items(), key=lambda item: -item[1])
    total = sum(self_cal.values())
    print("self time by layer: " + ", ".join(
        f"{layer} {value:.1f} cal ({100 * value / total:.1f}%)" for layer, value in ranking))
    print(f"largest self-time layer: {ranking[0][0]}")


def tail(values: list[float]) -> str:
    """The sample count and, given enough samples, the highest percentile
    with at least ten samples beyond it."""
    n = len(values)
    if n < 20:  # fewer samples put that percentile below the median
        return f"n={n}"
    rank = n - 10
    return f"n={n}, p{100 * rank // n}={sorted(values)[rank - 1]:.6g}"


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    workdir = WORK / args.workload
    setup_times, cli, ops = set_up(args.workload, args.seed, workdir)
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations")
    if args.trace:
        passes, samples = measure_traced(args, cli, ops)
    else:
        passes, samples = measure(args, cli, ops, workdir)
        samples["setup_s"] = (setup_times, "s")
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        samples["peak_rss_mb"] = ([peak_kib / 1024], "MB")

    metrics = {}
    for name, (values, unit) in samples.items():
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<34} {value:>14.6g} {unit:<6} ({tail(values)})")
    print(f"  {'failed_ratio':<34} {passes.failed / passes.attempted:>14.6g} "
          f"({passes.failed} of {passes.attempted} operations)")
    for reason in passes.reasons[:20]:
        print(f"  failed: {reason}")
    print(json.dumps({"correct": passes.failed == 0, "attempted": passes.attempted,
                      "failed": passes.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in a process of its own, one after another."""
    worst = 0
    for workload in workloads.WORKLOADS:
        code = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False).returncode
        worst = max(worst, code)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "huntrab" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'huntrab'} not found; run from a full huntrab checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
