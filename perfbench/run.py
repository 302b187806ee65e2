"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload line_denoise --seed 1 --seconds 50 --trace 0

The workload process imports ``gib`` from ``src/`` next to this directory,
builds its inputs from ``--seed``, then calls the workload's entry point in a
closed loop, one call after another, until the next call would end after
``--seconds``. ``setup_s`` is the median of several fresh set-ups, each in
its own process (``setup_probe.py``), since importing happens once a
process. They are taken a few at a time between calls, so that they sample
the same stretch of time as the calls; the loop's time budget leaves them
out. Every call's outputs are checked; a call that raises or fails a check
counts as failed.

Every timing metric is in seconds at reference speed (``reference.py``): the
host's speed is read with a fixed kernel at the start and end of each call
and at each epoch boundary, and each interval between two readings is scaled
by it. Wall-time medians are printed on the line before the result.

With ``--trace 0`` nothing is wrapped except the epoch-boundary marks, and
the end-to-end metrics are printed. With ``--trace 1`` calls alternate
between untraced and traced, starting untraced, for at least two of each;
the traced ones give the per-layer metrics, and the difference gives the
tracing overhead. Spans are written to ``.bench_trace/`` at the end of a
traced run.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
SETUP_PROBES_PER_GAP = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# counts that must repeat exactly from call to call and run to run
DETERMINISTIC = ("tensor.nodes_per_epoch", "nn.gcn_forward_calls",
                 "nn.normalized_adjacency_calls", "mi.inner_steps")


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` samples above it
    (0 when there are too few samples for any)."""
    return 100 * (n - 10) // n if n > 10 else 0


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, asked of the library itself."""
    import ctypes
    import glob

    import numpy as np

    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "gib")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "src_gib_nonblank_lines": source_lines(),
    }


def fresh_setup_seconds(name: str, seed: int) -> float:
    """One set-up in a new process: import ``gib`` and build the inputs."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run(workload, seed: int, seconds: float, traced: bool,
        setup_probe: Callable[[], float]) -> dict:
    """The workload's closed loop. ``setup_probe`` times one fresh set-up;
    only an untraced run calls it."""
    import numpy as np

    from layers import LAYER_METRICS, window_values
    from spans import EpochClock, Tracer

    tracer = Tracer() if traced else None

    # a traced run builds the inputs several times to time the graphs layer
    setup_windows = []
    if tracer:
        tracer.install()
    for _ in range(SETUP_REPEATS if tracer else 1):
        before = tracer.snapshot() if tracer else None
        inputs = workload.build(seed)
        if tracer:
            after = tracer.snapshot()
            setup_windows.append(tracer.totals(before[0], after[0]))
    if tracer:
        tracer.restore()
    work = workload.work_per_call(inputs)
    epochs = workload.epochs

    calls: list[dict] = []
    setup_times: list[float] = []
    probe_seconds = 0.0
    first_fingerprint = None
    loop_start = time.perf_counter()
    while True:
        is_traced = tracer is not None and len(calls) % 2 == 1
        # the clock wraps the tracer's wrappers, so that no span holds the
        # reference kernel the clock runs at each mark
        if is_traced:
            tracer.install()
            before = tracer.snapshot()
        clock = EpochClock(workload.marks)
        clock.install()
        problems: list[str] = []
        t0 = time.perf_counter()
        clock.mark()
        try:
            out = workload.call(inputs)
        except Exception:
            out = None
            problems.append("raised:\n" + traceback.format_exc())
        clock.mark()
        t1 = time.perf_counter()
        clock.restore()
        if is_traced:
            after = tracer.snapshot()
            tracer.restore()

        # intervals: call start to the first workload mark, between workload
        # marks, the last workload mark to call end
        wall, scaled = clock.intervals()
        epochs_end = None if workload.mark_call_end else -1
        epoch_times = scaled[1:epochs_end][workload.warmup_intervals:]
        record = {"seconds": sum(scaled), "wall_s": sum(wall), "loop_s": t1 - t0,
                  "traced": is_traced, "epoch_times": epoch_times,
                  "wall_epoch_times": wall[1:epochs_end][workload.warmup_intervals:]}
        if out is not None:
            problems += workload.check(inputs, out)
            fingerprint = repr(workload.fingerprint(out))
            if first_fingerprint is None:
                first_fingerprint = fingerprint
            elif fingerprint != first_fingerprint:
                problems.append("outputs differ from the first call at the same seed")
            if len(epoch_times) != epochs:
                problems.append(f"timed {len(epoch_times)} epochs, expected {epochs}")
        if is_traced:
            span_totals = tracer.totals(before[0], after[0])
            counts = {k: v - before[1].get(k, 0) for k, v in after[1].items()}
            record["layers"] = {
                m.name: window_values(m, span_totals, counts, after[2], epochs)
                for m in LAYER_METRICS if m.how not in ("setup", "overhead")
            }
            first = next(c for c in calls + [record] if c["traced"])
            for name in DETERMINISTIC:
                if record["layers"][name] != first["layers"][name]:
                    problems.append(f"{name} is {record['layers'][name]}, "
                                    f"{first['layers'][name]} in the first traced call")
        record["problems"] = problems
        calls.append(record)
        for p in problems:
            print(f"call {len(calls)} failed: {p}", file=sys.stderr)

        if tracer is None:
            t = time.perf_counter()
            for _ in range(min(SETUP_PROBES_PER_GAP, SETUP_REPEATS - len(setup_times))):
                setup_times.append(setup_probe())
            probe_seconds += time.perf_counter() - t
        elapsed = time.perf_counter() - loop_start - probe_seconds
        # a traced run needs two traced calls, so the deterministic counts are
        # compared between calls and the per-layer medians have two samples
        need_more = tracer is not None and len(calls) < 4
        if not need_more and elapsed + record["loop_s"] > seconds:
            break

    measured = [c for c in calls if not c["traced"]]
    result = {"attempted": len(calls), "failed": sum(1 for c in calls if c["problems"])}
    if tracer is None:
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup_probe())
        samples = [t for c in measured for t in c["epoch_times"]]
        p = tail_percentile(len(samples))
        total_time = sum(c["seconds"] for c in measured)
        # null only when no call timed an epoch, and then the run has failed
        epoch_q = (lambda q: float(np.percentile(samples, q))) if samples else (lambda q: None)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (statistics.median(c["seconds"] for c in measured), "s"),
            "epoch_s_p50": (epoch_q(50), "s"),
            "epoch_s_tail": (epoch_q(p), "s"),
            "work_per_s": (work * len(measured) / total_time, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        wall_samples = [t for c in measured for t in c["wall_epoch_times"]]
        print(f"{workload.name}: {len(measured)} calls, {len(samples)} epoch samples; "
              f"epoch_s_tail is p{p}; work {work} {workload.work_unit} per call; "
              f"setup_s is the median of {SETUP_REPEATS} fresh set-ups; "
              f"times are at reference speed; in wall time run_s is "
              f"{statistics.median(c['wall_s'] for c in measured):.4f} s and epoch_s_p50 "
              f"{float(np.median(wall_samples)) if wall_samples else float('nan'):.4f} s")
    else:
        traced_calls = [c for c in calls if c["traced"]]
        metrics = {}
        for m in LAYER_METRICS:
            if m.how == "setup":
                value = statistics.median(window_values(m, w, {}, {}, 1) for w in setup_windows)
            elif m.how == "overhead":
                value = (statistics.median(c["seconds"] for c in traced_calls)
                         - statistics.median(c["seconds"] for c in measured))
            else:
                value = statistics.median(c["layers"][m.name] for c in traced_calls)
            metrics[m.name] = (value, m.unit)
        untraced_s = statistics.median(c["seconds"] for c in measured)
        print(f"{workload.name}: deterministic counts "
              + ", ".join(f"{n}={metrics[n][0]:g}" for n in DETERMINISTIC)
              + f"; untraced run_s {untraced_s:.4f} s, traced "
              f"{statistics.median(c['seconds'] for c in traced_calls):.4f} s")
        for m in LAYER_METRICS:
            print(f"  {m.name} = {metrics[m.name][0]:.6g} {m.unit}  (moves {m.moves})")
        path = os.path.join(ROOT, ".bench_trace", f"{workload.name}-seed{seed}.tsv.gz")
        tracer.write(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")

    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["correct"] = result["failed"] == 0
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gib", "__init__.py")):
        print(f"no gib package under {SRC}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # one BLAS thread: the arrays are small, and extra threads only add noise
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)

    import spans

    spans.load_package()
    gib_file = os.path.abspath(sys.modules["gib"].__file__)
    if not gib_file.startswith(os.path.join(SRC, "gib") + os.sep):
        print(f"imported gib from {gib_file}, not from {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 functools.partial(fresh_setup_seconds, args.workload, args.seed))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
