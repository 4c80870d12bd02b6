"""The benchmark's workloads: inputs from a seed, one pass, and its checks.

Every workload builds its inputs through ledsim's public functions from the
workload seed (problem seed and harness base seed both equal it), runs one
pass of a public call, and checks the pass's output.  Outputs are small
tuples so that passes can be compared exactly.  For DEFAULT_SEED each
workload also carries reference outputs: integers must match exactly and
noise floors to a relative tolerance of FLOAT_REL_TOL.

Pass sizes are scaled down from the acceptance criteria they follow (fewer
runs, fewer rounds for the ring compare) so that several passes fit in one
timed run; the layer mix per round is unchanged.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

from ledsim import algorithms, cli, harness, problems, topology

DEFAULT_SEED = 1
TARGET = 1e-4
FLOAT_REL_TOL = 1e-9

# logistic_ring_compare: criterion 8's heterogeneous ring leg
COMPARE_ALGOS = ("led", "local_dsgd", "kgt")
COMPARE_GRID = (0.2, 0.1, 0.05, 0.02, 0.01)
COMPARE_TAU, COMPARE_ROUNDS, COMPARE_RUNS = 10, 100, 1
VECTORS_PER_ROUND = {"led": 1, "local_dsgd": 1, "kgt": 2}

# logistic_tau1_tune: criterion 8's tau = 1 leg, through the CLI
TUNE_ROUNDS, TUNE_GRID_POINTS, TUNE_RUNS = 1500, 5, 1

# quadratic_noise_floor: criterion 7's four floors, as (n_nodes, alpha)
FLOOR_CONFIGS = ((8, 0.2), (8, 0.1), (4, 0.2), (16, 0.2))
FLOOR_RUNS, FLOOR_ROUNDS, FLOOR_TAU, FLOOR_CADENCE = 10, 800, 2, 4
FLOOR_RATIO_RANGE = (0.33, 0.75)


@dataclass(frozen=True)
class Workload:
    setup: Callable        # seed -> inputs dict (mixing, dim, pool_cfg, ...)
    run: Callable          # (inputs, scratch dir) -> output tuple
    check: Callable        # (output, inputs, seed) -> list of error strings


# ---------------------------------------------------------------------------
# logistic_ring_compare
# ---------------------------------------------------------------------------

def compare_setup(seed):
    problem = problems.synth_logistic(problems.SynthConfig(), seed)
    mixing = topology.metropolis_weights(topology.build_graph("ring", 15))
    problem.lipschitz()
    cfgs = [harness.ExperimentConfig(
        algorithm=algo, problem=problem, mixing=mixing,
        hyper=algorithms.HyperParams(alpha=COMPARE_GRID[0], tau=COMPARE_TAU),
        rounds=COMPARE_ROUNDS, num_runs=COMPARE_RUNS, base_seed=seed)
        for algo in COMPARE_ALGOS]
    return {"cfgs": cfgs, "mixing": mixing, "dim": problem.dim,
            "pool_cfg": cfgs[0]}


def compare_run(inputs, scratch):
    grids = {algo: list(COMPARE_GRID) for algo in COMPARE_ALGOS}
    rows = harness.compare(inputs["cfgs"], TARGET, grids=grids)
    return tuple((row.algorithm,
                  None if row.alpha is None else COMPARE_GRID.index(row.alpha),
                  row.rounds_to_target, row.vectors_to_target) for row in rows)


def compare_check(output, inputs, seed):
    errors = []
    if tuple(row[0] for row in output) != COMPARE_ALGOS:
        errors.append(f"compare rows {output} do not follow {COMPARE_ALGOS}")
    for algo, _, rounds, vectors in output:
        if rounds is None:
            continue
        if not 0 <= rounds <= COMPARE_ROUNDS:
            errors.append(f"{algo}: rounds to target {rounds} outside the budget")
        if vectors != VECTORS_PER_ROUND[algo] * rounds:
            errors.append(f"{algo}: {vectors} vectors for {rounds} rounds")
    if seed == DEFAULT_SEED and output != REFERENCE["logistic_ring_compare"]:
        errors.append(f"compare rows {output} differ from the reference")
    return errors


# ---------------------------------------------------------------------------
# logistic_tau1_tune
# ---------------------------------------------------------------------------

def tune_setup(seed):
    problem = problems.synth_logistic(problems.SynthConfig(sigma_h=0.1), seed)
    mixing = topology.metropolis_weights(topology.build_graph("complete", 15))
    grid = harness.default_alpha_grid(1.0 / problem.lipschitz(),
                                      points=TUNE_GRID_POINTS)
    args = ["--seed", str(seed), "--jobs", "1", "tune", "--algo", "led",
            "--graph", "complete", "--n", "15", "--sigma-h", "0.1",
            "--tau", "1", "--rounds", str(TUNE_ROUNDS),
            "--grid-points", str(TUNE_GRID_POINTS), "--runs", str(TUNE_RUNS),
            "--target", repr(TARGET), "--problem-seed", str(seed)]
    pool_cfg = harness.ExperimentConfig(
        algorithm="led", problem=problem, mixing=mixing,
        hyper=algorithms.HyperParams(alpha=float(grid[-1]), tau=1),
        rounds=300, num_runs=2, base_seed=seed)
    return {"args": args, "grid": tuple(float(a) for a in grid),
            "mixing": mixing, "dim": problem.dim, "pool_cfg": pool_cfg}


def tune_run(inputs, scratch):
    out_path = scratch / "tune.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["--out", str(out_path)] + inputs["args"])
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    points = tuple((float(alpha), int(rtt) if rtt else None, diverged == "true")
                   for alpha, rtt, diverged in rows[1:])
    report = dict(line.split("=", 1) for line in stdout.getvalue().split())
    return code, points, report.get("best_alpha"), report.get("best_rounds")


def tune_check(output, inputs, seed):
    code, points, best_alpha, best_rounds = output
    if code != 0:
        return [f"ledsim tune exited with {code}"]
    errors = []
    alphas = tuple(alpha for alpha, _, _ in points)
    if alphas != inputs["grid"]:
        # the CLI must tune over the grid the public functions give
        errors.append(f"CLI grid {alphas} differs from {inputs['grid']}")
    hits = [(rtt, -k) for k, (_, rtt, _) in enumerate(points) if rtt is not None]
    best = min(hits) if hits else None
    if best is None:
        if best_alpha != "not_achieved":
            errors.append(f"no grid point hit the target but best_alpha={best_alpha}")
    elif (best_alpha is None or float(best_alpha) != points[-best[1]][0]
          or best_rounds != str(best[0])):
        errors.append(f"printed best {best_alpha}/{best_rounds} disagrees with the CSV")
    if seed == DEFAULT_SEED:
        summary = (None if best is None else -best[1],
                   tuple(rtt for _, rtt, _ in points))
        if summary != REFERENCE["logistic_tau1_tune"]:
            errors.append(f"tune summary {summary} differs from the reference")
    return errors


# ---------------------------------------------------------------------------
# quadratic_noise_floor
# ---------------------------------------------------------------------------

def floor_setup(seed):
    cfgs = []
    for n, alpha in FLOOR_CONFIGS:
        problem = problems.quadratic_problem(n, 3, mu=0.5, lip=1.0,
                                             heterogeneity=1.0, seed=seed,
                                             sigma=1e-2)
        problem.lipschitz()
        cfgs.append(harness.ExperimentConfig(
            algorithm="led", problem=problem, mixing=topology.complete_mixing(n),
            hyper=algorithms.HyperParams(alpha=alpha, tau=FLOOR_TAU),
            rounds=FLOOR_ROUNDS, num_runs=FLOOR_RUNS, base_seed=seed,
            cadence=FLOOR_CADENCE))
    return {"cfgs": cfgs, "mixing": cfgs[0].mixing, "dim": 3,
            "pool_cfg": cfgs[0]}


def floor_run(inputs, scratch):
    floors = [harness.noise_floor(cfg) for cfg in inputs["cfgs"]]
    return tuple((nf.value, nf.stationary) for nf in floors)


def floor_check(output, inputs, seed):
    errors = []
    if not all(stationary for _, stationary in output):
        errors.append(f"a noise floor is not stationary: {output}")
    lo, hi = FLOOR_RATIO_RANGE
    base, half_alpha, n4, n16 = (value for value, _ in output)
    # halving alpha and doubling N (4 -> 8, 8 -> 16) should each halve the floor
    ratios = (half_alpha / base, base / n4, n16 / base)
    if not all(lo <= r <= hi for r in ratios):
        errors.append(f"noise-floor ratios {ratios} leave [{lo}, {hi}]")
    if seed == DEFAULT_SEED:
        ref = REFERENCE["quadratic_noise_floor"]
        if not all(math.isclose(value, want, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)
                   for (value, _), want in zip(output, ref)):
            errors.append(f"noise floors {output} differ from the reference {ref}")
    return errors


# Outputs for DEFAULT_SEED.
REFERENCE = {
    # (algorithm, best alpha index in COMPARE_GRID, rounds, vectors) per row
    "logistic_ring_compare": (("led", 0, 7, 7), ("local_dsgd", 3, 77, 77),
                              ("kgt", 1, 16, 32)),
    # (best alpha index in the grid, rounds to target per grid point)
    "logistic_tau1_tune": (4, (None, None, None, None, 623)),
    # noise floors of FLOOR_CONFIGS, in order
    "quadratic_noise_floor": (5.556040684852475e-06, 2.5475906615702233e-06,
                              1.1549288002824203e-05, 2.933555271931423e-06),
}

WORKLOADS = {
    "logistic_ring_compare": Workload(compare_setup, compare_run, compare_check),
    "logistic_tau1_tune": Workload(tune_setup, tune_run, tune_check),
    "quadratic_noise_floor": Workload(floor_setup, floor_run, floor_check),
}
