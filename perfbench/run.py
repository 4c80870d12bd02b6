"""ledsim benchmark: one workload per process, checked, with per-layer tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload logistic_ring_compare --seed 1 \
        --seconds 20 --trace 0

The process pins BLAS to one thread before numpy loads, builds the workload's
inputs from --seed through ledsim's public functions (timed several times;
the median is ``setup_s``), then repeats passes of the workload's public call
for about --seconds seconds and checks every pass.  With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics,
the tracing overhead, kernel microbenchmarks, the process-pool probe and a
closed-form check of the counters.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and every metric with its sample count.  The exit
code is 0 only when every pass and check succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_REPS, SETUP_BUDGET_S = 200, 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_ledsim():
    """Import ledsim from this checkout's src/, never from anywhere else."""
    if not (SRC / "ledsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no ledsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ledsim

    if Path(ledsim.__file__).resolve().parent != SRC / "ledsim":
        raise SystemExit(f"error: imported ledsim from {ledsim.__file__}, not {SRC}")


class Run:
    """Pass outcomes of one benchmark run: timings, outputs and failures."""

    def __init__(self, workload, inputs, seed, scratch):
        self.workload, self.inputs, self.seed, self.scratch = (
            workload, inputs, seed, scratch)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first_output = None

    def fail(self, message):
        self.errors.append(message)
        print(f"# FAILED: {message}", file=sys.stderr)

    def operation(self, fn, *args):
        """Run one checked operation.

        It fails if it raises or reports an error through fail().
        """
        self.attempted += 1
        errors_before = len(self.errors)
        try:
            return fn(*args)
        except Exception:   # the benchmark keeps measuring and reports it
            self.fail(traceback.format_exc())
            return None
        finally:
            if len(self.errors) > errors_before:
                self.failed += 1

    def require(self, ok, message):
        """A check outside any pass, counted as one operation."""
        def check():
            if not ok:
                self.fail(message)
        self.operation(check)

    def one_pass(self, inputs=None):
        """Time one pass and check its output; returns seconds or None."""
        inputs = self.inputs if inputs is None else inputs

        def timed():
            t0 = time.perf_counter()
            output = self.workload.run(inputs, self.scratch)
            elapsed = time.perf_counter() - t0
            errors = self.workload.check(output, inputs, self.seed)
            if self.first_output is None:
                self.first_output = output
            elif output != self.first_output:
                errors.append(f"output {output} differs from the first pass "
                              f"{self.first_output}")
            for message in errors:
                self.fail(message)
            return elapsed

        return self.operation(timed)


def time_setup(workload, seed):
    """Build the inputs repeatedly; returns (times, the last inputs)."""
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_REPS and (
            len(times) < 5 or time.perf_counter() - start < SETUP_BUDGET_S):
        t0 = time.perf_counter()
        inputs = workload.setup(seed)
        times.append(time.perf_counter() - t0)
    return times, inputs


def repeat_for(seconds, min_count, fn):
    """Call fn until about `seconds` have passed and at least min_count ran."""
    times = []
    start = time.perf_counter()
    while True:
        elapsed = fn()
        if elapsed is not None:
            times.append(elapsed)
        spent = time.perf_counter() - start
        # the cap ends a run whose passes keep failing
        done = len(times) >= min_count or spent > seconds + 60
        if done and spent + (statistics.median(times) if times else 0) > seconds:
            return times


def blas_info():
    """BLAS library name and the thread count OpenBLAS reports, if it does."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in libs.glob("*openblas*"):
        lib = ctypes.CDLL(str(lib_path))    # the copy numpy already loaded
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            getter = lib.scipy_openblas_get_num_threads64_
            getter.restype = ctypes.c_int
            threads = getter()
    return f"{blas['name']} {blas.get('version', '')}".strip(), threads


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[len("ref: "):]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def environment(args):
    import numpy as np

    cpu = "unknown"
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas, threads = blas_info()
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": threads,
            "git_commit": git_commit(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace)}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_end_to_end(run, args, setup_times):
    wall = repeat_for(args.seconds, MIN_PASSES, run.one_pass)
    values = {"wall_s": wall, "setup_s": setup_times}
    metrics = {name: statistics.median(v) for name, v in values.items() if v}
    samples = {name: len(v) for name, v in values.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    samples["peak_rss_mb"] = 1
    return metrics, samples


def measure_layers(run, args):
    import kernels
    import tracing

    tracer = tracing.Tracer()
    untraced, passes, setups = [], [], []

    def traced_pass():
        with tracer:
            tracer.reset()
            inputs = run.operation(run.workload.setup, run.seed)
            if inputs is None:
                return None
            setups.append(tracing.layer_self_times(tracer.spans)["topology.self_s"])
            tracer.reset()
            elapsed = run.one_pass(inputs)
        if elapsed is not None:
            passes.append(tracing.summarize(tracer.spans, tracer.counts))
        tracer.reset()
        return elapsed

    def pair():
        elapsed = run.one_pass()
        if elapsed is not None:
            untraced.append(elapsed)
        return traced_pass()

    traced = repeat_for(args.seconds, MIN_TRACED_PASSES, pair)
    if not passes or not untraced:
        return {}, {}
    for key in tracing.EXACT_COUNTS:
        seen = sorted({p[key] for p in passes})
        run.require(len(seen) == 1,
                    f"counter {key} differs between traced passes: {seen}")
    metrics = {key: passes[0][key] if key in tracing.EXACT_COUNTS
               else statistics.median(p[key] for p in passes)
               for key in passes[0]}
    metrics["topology.setup_s"] = statistics.median(setups)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = (metrics["trace.traced_wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    samples = {key: len(passes) for key in metrics}

    micro = run.operation(kernels.microbenchmarks, run.seed,
                          run.inputs["mixing"], run.inputs["dim"])
    metrics.update(micro or {})

    def pool():
        pool_metrics, error = kernels.pool_probe(run.inputs["pool_cfg"])
        if error:
            run.fail(error)
        return pool_metrics

    def closed_form():
        for message in tracing.closed_form_check(run.seed):
            run.fail(message)

    metrics.update(run.operation(pool) or {})
    run.operation(closed_form)
    for key in metrics:
        samples.setdefault(key, 1)
    return metrics, samples


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:        # before numpy loads
        os.environ[var] = "1"
    import_ledsim()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    setup_times, inputs = time_setup(workload, args.seed)
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".tmp-") as scratch:
        run = Run(workload, inputs, args.seed, Path(scratch))
        if args.trace:
            measured, samples = measure_layers(run, args)
        else:
            measured, samples = measure_end_to_end(run, args, setup_times)
    missing = [entry["name"] for entry in declared
               if entry["name"] not in measured and entry["name"] != "failed_ratio"]
    run.require(not missing, f"metrics not measured: {missing}")
    measured["failed_ratio"] = run.failed / run.attempted
    samples["failed_ratio"] = run.attempted

    print("# env " + json.dumps(environment(args)))
    print(f"# attempted = {run.attempted}, failed = {run.failed}")
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            metrics[name] = {"value": measured[name], "unit": unit}
            print(f"# {name} = {measured[name]!r} {unit} (n={samples.get(name, 1)})")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
