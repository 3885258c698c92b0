"""The repository benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload compile-paper --seed 1 --seconds 25 --trace 0

Workloads: ``compile-paper``, ``compile-large``, ``serve-mix`` (see
``workloads.py`` and ``perfbench/README.md``).  With ``--trace 0`` the
run measures one untraced window and reports every end-to-end metric
of ``BENCHMARK.json``.  With ``--trace 1`` it measures an untraced and
then a traced half window and reports every per-layer metric, plus a
nested layer table on standard error.  Times are scaled to a reference
machine speed (``speed.py``), sampled only outside timed regions.
The last line of standard output is always one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files
(the serve-mix artifact cache, worker stderr captures) live under
``.perfbench_work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("compile-paper", "compile-large", "serve-mix")
#: Units scaled by the speed factor (times), and by its inverse (rates).
TIME_UNITS = {"s", "ms"}
RATE_UNITS = {"1/s"}
#: On serve-mix only the ``s`` metrics -- set-up, and the compile and
#: stage times forked workers report -- are CPU-bound.  Its ``ms`` and
#: ``1/s`` metrics time the serve path (fork, pipes, disk, thread
#: hand-offs), which the calibration loop does not track; they are
#: reported as measured.
SERVE_TIME_UNITS = {"s"}


def log(*parts: object) -> None:
    print(*parts, file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for path in (os.path.join(SRC, "repro", "compiler.py"), BENCHMARK_JSON):
        if not os.path.isfile(path):
            log(f"perfbench: {path} is missing; run from the root of a full checkout")
            return 2
    with open(BENCHMARK_JSON) as handle:
        section = "per_layer" if args.trace else "end_to_end"
        units = {m["name"]: m["unit"] for m in json.load(handle)[section]}

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    # Worker stderr captures and any other temp file stay in the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = workdir
    try:
        return run(args, workdir, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


#: Fresh interpreters that time the benchmark's imports for setup_s.
IMPORT_SAMPLES = 7
#: Calibration loops before each import sample and each set-up.
SETUP_SPEED_SAMPLES = 10
_TIME_IMPORT = (
    "import sys, time; sys.path[:0] = [{src!r}, {here!r}]; t = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - t)"
)


def import_seconds(speedometer) -> list:
    """Import time of the compiler and the benchmark in
    ``IMPORT_SAMPLES`` fresh interpreters, sampling the machine's speed
    before each."""
    code = _TIME_IMPORT.format(src=SRC, here=HERE)
    samples = []
    for _ in range(IMPORT_SAMPLES):
        speedometer.sample(SETUP_SPEED_SAMPLES)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=120)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run(args, workdir: str, units: dict) -> int:
    import speed

    sys.path.insert(0, SRC)
    setup_speed, window_speed = speed.Speedometer(), speed.Speedometer()
    import_s = statistics.median(import_seconds(setup_speed))
    outcome = asyncio.run(measure(args, workdir, import_s, setup_speed, window_speed))
    correct, attempted, failed, metrics = outcome
    scale = window_speed.scale
    log(f"speed: calibration loop median {1e3 * speed.REFERENCE_S / scale:.3f} ms over "
        f"{len(window_speed.samples)} samples; window times scaled by {scale:.4f}")
    if set(metrics) != set(units):
        log(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
        return 3
    served = args.workload == "serve-mix"
    for name, unit in units.items():
        if name == "setup_s":  # already scaled by the set-up's own speed
            continue
        if unit in (SERVE_TIME_UNITS if served else TIME_UNITS):
            metrics[name] *= scale
        elif unit in RATE_UNITS and not served:
            metrics[name] /= scale
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


async def measure(args, workdir: str, import_s: float, setup_speed, window_speed):
    """Set up, measure, check; returns (correct, attempted, failed,
    metrics).  ``setup_s`` is scaled by the speed sampled during set-up;
    the other times are unscaled."""
    import report
    import tracing
    import workloads

    served = args.workload == "serve-mix"
    if served:
        bench = workloads.ServeWorkload(workdir, args.seed)
    else:
        bench = workloads.CompileWorkload(*workloads.WORKLOADS[args.workload], args.seed)
    try:
        setup = []
        for _ in range(workloads.SETUP_REPEATS):
            await bench.close()
            setup_speed.sample(SETUP_SPEED_SAMPLES)
            t = time.perf_counter()
            await bench.setup_once()
            setup.append(time.perf_counter() - t)
        unscaled_setup_s = import_s + statistics.median(setup)
        setup_s = unscaled_setup_s * setup_speed.scale
        oracle = bench.oracle()

        if args.trace:
            untraced = await bench.window(args.seconds / 2, window_speed)
            recorder = tracing.Recorder()
            before = bench.stats()
            uninstall = tracing.install(recorder)
            t = time.perf_counter()
            try:
                traced = await bench.window(args.seconds / 2, window_speed, recorder)
            finally:
                uninstall()
            traced_wall = time.perf_counter() - t
            counters = report.counter_delta(before, bench.stats())
            ledgers = [untraced, traced]
        else:
            ledgers = [await bench.window(args.seconds, window_speed)]
    finally:
        await bench.close()

    for ledger in ledgers:
        ledger.finish(oracle)
    correct = check(ledgers, args.workload)
    last = ledgers[-1]
    if args.trace:
        metrics = report.per_layer(traced, recorder.spans, counters, untraced)
        log(tracing.render_table(args.workload, tracing.with_worker_stages(recorder.spans), traced_wall))
    else:
        metrics = report.end_to_end(last, setup_s, served)
    log(f"{args.workload} seed {args.seed}: {len(last.outcomes)} requests, "
        f"{last.passes or '-'} passes, window {last.wall:.2f} s, "
        f"set-up {unscaled_setup_s:.3f} s (import {import_s:.3f} s) scaled by {setup_speed.scale:.4f}")
    log(report.kernel_table(last, served))
    log(f"programs digest {report.programs_digest(last)}")
    outcomes = [o for ledger in ledgers for o in ledger.outcomes]
    return correct, len(outcomes), sum(1 for o in outcomes if o.failure), metrics


def check(ledgers, workload: str) -> bool:
    """Outputs equal the reference, and each kernel emitted one program
    in the run (across traced and untraced windows alike)."""
    ok = True
    prints = {}
    for ledger in ledgers:
        for o in ledger.outcomes:
            if o.failure:
                log(f"perfbench: {o.kernel} failed: {o.failure}")
            ok = ok and not o.wrong
        for kernel, fps in ledger.fingerprints().items():
            prints.setdefault(kernel, set()).update(fps)
    for kernel, fps in sorted(prints.items()):
        if len(fps) > 1:
            log(f"perfbench: {workload}: {kernel} emitted {len(fps)} different programs: {sorted(fps)}")
            ok = False
    return ok


if __name__ == "__main__":
    sys.exit(main())
