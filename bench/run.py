"""Benchmark of the angleid package: three workloads, checked outputs, optional trace.

Usage, from the root of a source checkout (the package is imported from
``src/``, nothing needs installing)::

    python3 bench/run.py --workload table-cubes --seed 1 --seconds 25 --trace 0
    python3 bench/run.py            # every workload, each in its own process

One run builds the workload's inputs from ``--seed`` (several times, timed
as ``setup_s``), issues one warm-up batch, then runs whole rounds of
batches back to back, one caller in a closed loop, until ``--seconds`` have
passed (at least two rounds). Afterwards it checks the outputs against the
numpy-only references in ``reference.py`` and the paper's claims. Every
timed operation is followed by a fixed calibration kernel, and times are
reported scaled to a reference host speed (``calibrate.py``); the
unscaled figures go to the result file. The last line of standard output
is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``queries_per_s``, ``setup_s``, ``peak_rss_mb``). With ``--trace 1`` the run
times one untraced and one traced round of the same batches and reports the
per-layer metrics from the spans (see ``spans.py``). Full results, the host
record and, for traced runs, every span are written to ``bench/out/``.
The exit code is 0 when every check passed, 1 when one failed and 2 when
the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("table-cubes", "trails-everyk", "cli-lattice")

# One BLAS thread per process: the workloads run at most `threads=2` Python
# threads on a 2-core host, and OpenBLAS's own helper threads would add
# busy threads beyond the core count.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up repeats until it has taken this long in total, within these counts,
# with the calibration kernel after every chunk of this length.
SETUP_SECONDS = 1.0
SETUP_REPS = (3, 1000)
SETUP_CHUNK_S = 0.05
MIN_ROUNDS = 2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                   help="one workload (default: all, each in its own process)")
    p.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    p.add_argument("--seconds", type=float, default=25.0, help="length of the timed section")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "angleid" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.workload is None:
        return run_all(args)
    return run_one(args)


def run_all(args) -> int:
    """Every workload in its own process; prints a table and a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def host_record() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process and of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class HostClock:
    """Scales measured times to the reference host speed (see ``calibrate.py``).

    The calibration kernel runs after every timed operation. An
    operation's scale is ``REFERENCE_S`` over the mean of the kernel's
    times just before and just after it.
    """

    def __init__(self):
        from calibrate import REFERENCE_S, Calibration

        self.reference = REFERENCE_S
        self.kernel = Calibration()
        self.kernel()  # warm-up
        self.last = self.kernel()

    def scale(self) -> float:
        before, self.last = self.last, self.kernel()
        return self.reference / ((before + self.last) / 2)


def timed_round(wl, round_no: int, log: list, clock=None, tracer=None) -> tuple[list, int, list]:
    """One round of batches back to back; returns the outputs, failures and batch spans.

    Each batch appends ``(query points, seconds, host scale)`` to ``log``.
    """
    outs, failed, spans = [], 0, []
    for batch in wl.batches:
        with tracer.span("batch") if tracer else contextlib.nullcontext() as span:
            t0 = time.perf_counter()
            try:
                out = wl.run(round_no, batch)
            except Exception:  # a failed operation is counted and the loop goes on
                traceback.print_exc()
                out, failed = None, failed + 1
            dt = time.perf_counter() - t0
        log.append((wl.size(batch), dt, clock.scale() if clock else 1.0))
        outs.append(out)
        spans.append(span)
    return outs, failed, spans


def repeat_problems(wl, first_keys: list, outs: list, round_no: int) -> list[str]:
    """Batches of a later round whose output differs from the first round's."""
    return [
        f"round {round_no} batch {b}: output differs from round 0"
        for b, (key, out) in enumerate(zip(first_keys, outs))
        if key is not None and out is not None and wl.key(out) != key
    ]


def check(wl, first: list) -> tuple[list, dict]:
    if None in first:
        return ["round 0 had a failed operation, so its outputs were not checked"], {}
    return wl.check(first)


def run_one(args) -> int:
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir, in_process=bool(args.trace))
    try:
        record = (run_traced if args.trace else run_untraced)(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["result"]["correct"] = not record["problems"]
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, host=host_record())
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record))
    print("host: " + json.dumps(record["host"]))
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


def setup_times(wl, clock) -> list[tuple[float, float]]:
    """Repeated set-ups as ``(seconds, host scale)``, timed in chunks of SETUP_CHUNK_S."""
    times = []
    lo, hi = SETUP_REPS
    while len(times) < lo or (sum(t for t, _ in times) < SETUP_SECONDS and len(times) < hi):
        chunk, start = [], time.perf_counter()
        while not chunk or (time.perf_counter() - start < SETUP_CHUNK_S and len(times) + len(chunk) < hi):
            t0 = time.perf_counter()
            wl.setup(len(times) + len(chunk))
            chunk.append(time.perf_counter() - t0)
        scale = clock.scale()
        times += [(t, scale) for t in chunk]
    return times


def run_untraced(wl, seconds: float) -> dict:
    clock = HostClock()
    setups = setup_times(wl, clock)
    wl.run(0, wl.batches[0])  # warm-up, neither timed nor counted
    gc.collect()

    log, walls, failed, problems = [], [], 0, []
    start = time.perf_counter()
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        outs, f, _ = timed_round(wl, len(walls), log, clock)
        walls.append(time.perf_counter() - t0)
        failed += f
        # Only the first round's outputs are kept, so memory does not grow with the run.
        if len(walls) == 1:
            first, first_keys = outs, [None if o is None else wl.key(o) for o in outs]
        else:
            problems += repeat_problems(wl, first_keys, outs, len(walls) - 1)

    found, counters = check(wl, first)
    rounds = len(walls)

    def e2e(scaled: bool) -> dict:
        def t(dt, scale):
            return dt * scale if scaled else dt

        return {
            "wall_s": (sum(t(dt, s) for _, dt, s in log) / rounds, "s"),
            "queries_per_s": (statistics.median(n / t(dt, s) for n, dt, s in log), "1/s"),
            "setup_s": (statistics.median(t(dt, s) for dt, s in setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }

    return {
        "result": _result(len(log), failed, e2e(scaled=True)),
        "unscaled": e2e(scaled=False),
        "problems": problems + found,
        "counters": counters,
        "setup_times": setups,
        "round_walls": walls,
        "batches": log,
    }


def run_traced(wl, seconds: float) -> dict:
    """One untraced and one traced round of the same batches, after a traced set-up."""
    from angleid.angle_id import NeighborhoodSizeWarning
    from spans import Tracer

    tracer = Tracer()
    with tracer, tracer.span("setup"):
        wl.setup(0)
    startup = getattr(wl, "startup_times", list)()
    wl.run(0, wl.batches[0])  # warm-up
    gc.collect()

    clock, plain_log, traced_log = HostClock(), [], []
    first, failed, _ = timed_round(wl, 0, plain_log, clock)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", NeighborhoodSizeWarning)
        with tracer:
            traced, f, batch_spans = timed_round(wl, 1, traced_log, clock, tracer)
    failed += f
    traced_wall = sum(dt for _, dt, _ in traced_log)
    overhead = (sum(dt * s for _, dt, s in traced_log) / sum(dt * s for _, dt, s in plain_log))
    size_warnings = sum(issubclass(w.category, NeighborhoodSizeWarning) for w in caught)

    first_keys = [None if o is None else wl.key(o) for o in first]
    problems = repeat_problems(wl, first_keys, traced, 1)
    found, counters = check(wl, first)
    metrics = layer_metrics(tracer, batch_spans, traced_wall)
    metrics.update({
        "cli.startup_s": (statistics.median(startup) if startup else 0.0, "s"),
        "flags.clamped_to_k": (tracer.flags.get("clamped_to_k", 0), "count"),
        "flags.degenerate_zero_denominator": (tracer.flags.get("degenerate_zero_denominator", 0), "count"),
        "angle_id.size_warnings": (size_warnings, "count"),
        "neighbors.duplicates_excluded": (counters.get("duplicates_excluded", 0), "count"),
        "neighbors.kth_ties": (counters.get("kth_ties", 0), "count"),
        "trace.overhead": (overhead, "ratio"),
    })
    return {
        "result": _result(len(plain_log) + len(traced_log), failed, metrics),
        "problems": problems + found,
        "counters": counters,
        "batches": {"untraced": plain_log, "traced": traced_log},
        "spans": tracer.export(),
    }


def layer_metrics(tracer, batch_spans, wall: float) -> dict:
    """Per-layer metrics from the spans; zero for layers a workload never calls.

    ``wall`` is the traced round's time in its batches, the base of every share.
    """
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_s(name):
        return sum(s.self_time() for s in by_name.get(name, ()))

    def work(name):
        return sum(s.n for s in by_name.get(name, ()))

    def mean_s(name):
        return total(name) / calls(name) if calls(name) else 0.0

    def rate(name, scale=1.0):
        t = total(name)
        return work(name) / scale / t if t else 0.0

    batch_time = sum(s.duration for s in batch_spans)
    metrics = {
        "neighbors.knn.calls": (calls("neighbors.knn"), "count"),
        "neighbors.knn.us_per_call": (mean_s("neighbors.knn") * 1e6, "us"),
        "neighbors.knn.distances_per_s": (rate("neighbors.knn"), "1/s"),
        "neighbors.direction_bundle.us_per_call": (mean_s("neighbors.direction_bundle") * 1e6, "us"),
        "neighbors.prefix.calls": (calls("neighbors.prefix"), "count"),
        "neighbors.prefix.us_per_call": (mean_s("neighbors.prefix") * 1e6, "us"),
        "angle_id.cosine_square_stats.calls": (calls("angle_id.cosine_square_stats"), "count"),
        "angle_id.cosine_square_stats.us_per_call": (mean_s("angle_id.cosine_square_stats") * 1e6, "us"),
        "angle_id.estimators.us_per_call": (mean_s("angle_id.estimators") * 1e6, "us"),
        "baseline_id.estimators.us_per_call": (mean_s("baseline_id.estimators") * 1e6, "us"),
        "angle_id.estimate_table.self_s": (self_s("angle_id.estimate_table"), "s"),
        "analysis.trails.self_s": (self_s("analysis.trails"), "s"),
        "core.EstimateTable.us_per_row": (1e6 / rate("core.EstimateTable") if calls("core.EstimateTable") else 0.0, "us"),
        "core.load_csv.mb_per_s": (rate("core.load_csv", 2**20), "MiB/s"),
        "core.write_csv.mb_per_s": (rate("core.write_csv", 2**20), "MiB/s"),
        "cli.estimate_s": (mean_s("cli.estimate"), "s"),
        "cli.histogram_s": (mean_s("cli.histogram"), "s"),
        "cli.generate_s": (mean_s("cli.generate"), "s"),
        "synth.generate_s": (mean_s("synth.generate"), "s"),
        "trace.coverage": ((batch_time - sum(s.self_time() for s in batch_spans)) / wall, "ratio"),
    }
    for name in ("neighbors.knn", "neighbors.direction_bundle", "neighbors.prefix",
                 "angle_id.cosine_square_stats", "angle_id.estimators", "baseline_id.estimators"):
        metrics[f"{name}.share"] = (total(name) / wall, "ratio")
    return metrics


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
