"""Kernel microbenchmarks, computed kernel costs and the process-pool probe.

Operation counts and bytes are computed from array sizes (float64, every
operand read once and every temporary written and read once, tanh counted as
one operation); they ignore caches and are labelled ``computed``.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import fields, replace

import numpy as np
from ledsim import harness, problems, rng, topology

F64 = 8


def logistic_grads_cost(n, s, m):
    """(flops, bytes) of LogisticProblem.grads on n rows, s samples, dim m."""
    flops = 4 * n * s * m + 6 * n * s + 8 * n * m
    nbytes = F64 * (2 * n * s * m + 8 * n * s + 6 * n * m)
    return flops, nbytes


def quadratic_grads_cost(n, m):
    """(flops, bytes) of QuadraticProblem.grads: einsum nij,nj->ni minus b."""
    return 2 * n * m * m + n * m, F64 * (n * m * m + 3 * n * m)


def mix_cost(n, m):
    """(flops, bytes) of one dense product W @ X with W (n, n), X (n, m)."""
    return 2 * n * n * m, F64 * (n * n + 2 * n * m)


def grads_cost(problem, rows):
    if isinstance(problem, problems.LogisticProblem):
        return logistic_grads_cost(rows, len(problem.datasets[0].labels), problem.dim)
    return quadratic_grads_cost(rows, problem.dim)


def median_us(fn, reps=300, warmup=30):
    """Median wall time of one call in microseconds, after warm-up."""
    for _ in range(warmup):
        fn()
    times = np.empty(reps)
    for k in range(reps):
        t0 = time.perf_counter()
        fn()
        times[k] = time.perf_counter() - t0
    return float(np.median(times) * 1e6)


def microbenchmarks(seed, mixing, dim):
    """Per-call medians of the hot kernels at fixed shapes, with computed costs.

    `mixing` and `dim` give the workload's own W @ X shape.
    """
    logistic = problems.synth_logistic(problems.SynthConfig(), seed)
    quadratic = problems.quadratic_problem(8, 3, mu=0.5, lip=1.0,
                                           heterogeneity=1.0, seed=seed)
    ring = topology.metropolis_weights(topology.build_graph("ring", 15))
    stream = rng.RngStream(seed).child("microbenchmark")
    x15 = stream.child("x15").normal((15, 5))
    x8 = stream.child("x8").normal((8, 3))
    xw = stream.child("xw").normal((mixing.n, dim))
    out = {}

    def report(key, fn, cost, op_unit):
        out[f"kernel.{key}.us_p50"] = median_us(fn)
        out[f"kernel.{key}.computed_{op_unit}"] = cost[0]
        out[f"kernel.{key}.computed_bytes"] = cost[1]

    report("logistic_grads", lambda: logistic.grads(x15),
           logistic_grads_cost(15, 1000, 5), "flops")
    report("quadratic_grads", lambda: quadratic.grads(x8),
           quadratic_grads_cost(8, 3), "flops")
    noise = stream.child("noise")
    report("rng_normal", lambda: noise.normal((15, 5)), (75, F64 * 75), "variates")
    report("mix_ring15", lambda: ring.w @ x15, mix_cost(15, 5), "flops")
    out["topology.mix.us_p50"] = median_us(lambda: mixing.w @ xw)
    return out


def pool_probe(cfg, reps=3):
    """run_experiment at jobs=1 and jobs=2: speedup, task size, bitwise check.

    The config gets at least two runs so that the pool fans out.  The speedup
    is the ratio of the median times of `reps` alternated calls.  Returns
    (metrics, error or None); the traces at both job counts must match bitwise.
    """
    cfg = replace(cfg, num_runs=max(cfg.num_runs, 2))
    times, traces = {1: [], 2: []}, {}
    for _ in range(reps):
        for jobs in (1, 2):
            t0 = time.perf_counter()
            traces[jobs] = harness.run_experiment(cfg, jobs=jobs)
            times[jobs].append(time.perf_counter() - t0)
    metrics = {"harness.pool.speedup_jobs2":
               float(np.median(times[1]) / np.median(times[2])),
               "harness.pool.task_bytes": len(pickle.dumps(cfg))}
    # field by field: pickling a whole Trace also encodes which arrays it shares
    for field in fields(traces[1]):
        if (pickle.dumps(getattr(traces[1], field.name))
                != pickle.dumps(getattr(traces[2], field.name))):
            return metrics, f"jobs=2 trace differs bitwise from jobs=1 in {field.name}"
    return metrics, None
