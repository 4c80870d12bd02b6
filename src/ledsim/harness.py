"""Seeded experiment runner: repeated runs, metric averaging, tuning, floors."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .algorithms import Driver, HyperParams, method
from .problems import Problem
from .rng import RngStream
from .topology import MixingMatrix

DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str
    problem: Problem
    mixing: MixingMatrix
    hyper: HyperParams
    rounds: int
    num_runs: int = 100
    base_seed: int = 0
    cadence: int = 1            # record every k-th round (round 0 always)
    x0: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.rounds < 1 or self.num_runs < 1 or self.cadence < 1:
            raise ValueError("rounds, num_runs, and cadence must be >= 1")
        method(self.algorithm, self.mixing)

    def initial_positions(self) -> np.ndarray:
        if self.x0 is not None:
            return np.asarray(self.x0, dtype=float)
        return np.zeros((self.problem.n_nodes, self.problem.dim))


@dataclass
class Trace:
    """Per-recorded-round metrics averaged over runs."""

    rounds: np.ndarray
    grad_norm_sq: np.ndarray
    consensus_err: np.ndarray
    fgap: Optional[np.ndarray]
    vectors_per_link: np.ndarray
    dist_to_opt_sq: Optional[np.ndarray] = None
    diverged: bool = False

    def rounds_to_target(self, target: float, sustained: bool = True) -> Optional[int]:
        """Round at which the averaged error reaches the target.

        With sustained=True (default) the error must stay at or below the
        target for the rest of the recorded trace; a biased method that dips
        through the target transiently on its way to a higher floor does not
        count as having reached it.  sustained=False gives the first crossing.
        """
        below = self.grad_norm_sq <= target
        if sustained:
            ok = np.flip(np.logical_and.accumulate(np.flip(below)))
            hits = np.nonzero(ok)[0]
        else:
            hits = np.nonzero(below)[0]
        if len(hits) == 0:
            return None
        return int(self.rounds[hits[0]])

    def vectors_at_round(self, r: int) -> int:
        idx = np.searchsorted(self.rounds, r)
        return int(self.vectors_per_link[idx])


def _recorded_rounds(rounds: int, cadence: int) -> list:
    return [0, *range(cadence, rounds, cadence), rounds]


def _single_run(cfg: ExperimentConfig, run: int) -> np.ndarray:
    """One seeded run; returns its metrics block, one column per recorded
    round and one row per Trace metric (grad_norm_sq, consensus_err, fgap,
    vectors_per_link, dist_to_opt_sq; NaN where undefined).  A run whose
    metric leaves the finite range stops there, so its block is narrower.

    Metrics use exact gradients of the running state; the dual/stochastic
    machinery only affects the trajectory.
    """
    problem = cfg.problem
    driver = Driver(cfg.algorithm, problem, cfg.mixing, cfg.hyper)
    state = driver.init(cfg.initial_positions())
    run_stream = RngStream(cfg.base_seed).child("run", run)
    recorded = _recorded_rounds(cfg.rounds, cfg.cadence)
    block = np.full((5, len(recorded)), np.nan)

    def record(slot: int, vectors: int) -> bool:
        xmat = driver.positions(state)
        # add.reduce is what mean and sum call, without their dispatch
        xbar = np.add.reduce(xmat) / problem.n_nodes
        g = problem.global_grad_norm_sq(xbar)
        if not math.isfinite(g) or g > DIVERGENCE_LIMIT:
            return False
        dev = xmat - xbar
        cons = float(np.add.reduce(dev * dev, axis=None)) / problem.n_nodes
        block[:2, slot] = g, cons
        block[3, slot] = vectors
        if problem.f_star is not None:
            block[2, slot] = problem.mean_value(xbar) - problem.f_star
        if problem.x_star is not None:
            err = xbar - problem.x_star
            block[4, slot] = float(np.add.reduce(err * err))
        return True

    cum_vectors = 0
    slot = 0
    if record(0, 0):
        slot = 1
        for r in range(cfg.rounds):
            out = driver.step(state, run_stream.child("round", r))
            state = out.state
            cum_vectors += out.vectors_per_link
            if recorded[slot] == r + 1:
                if not record(slot, cum_vectors):
                    break
                slot += 1
    return block[:, :slot]


# set once in each pool worker process by the pool's initializer
_worker_config: Optional[ExperimentConfig] = None


def _set_worker_config(cfg: ExperimentConfig) -> None:
    global _worker_config
    _worker_config = cfg


def _worker_run(run: int):
    return _single_run(_worker_config, run)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> Trace:
    """Average num_runs independent seeded runs pointwise per recorded round.

    Deterministic for a given base_seed regardless of jobs: runs own
    path-addressed streams and the reduction is ordered by run index.  A run
    whose metric leaves the finite range truncates the trace at the first bad
    round and flags the result.
    """
    if jobs > 1 and cfg.num_runs > 1:
        # each worker receives the config once, then only run indices
        with ProcessPoolExecutor(max_workers=min(jobs, cfg.num_runs),
                                 initializer=_set_worker_config,
                                 initargs=(cfg,)) as pool:
            results = list(pool.map(_worker_run, range(cfg.num_runs)))
    else:
        results = [_single_run(cfg, run) for run in range(cfg.num_runs)]

    recorded = np.array(_recorded_rounds(cfg.rounds, cfg.cadence))
    # valid length = rounds recorded before any run went non-finite
    n_valid = min(block.shape[1] for block in results)
    if n_valid == 0:
        raise RuntimeError("experiment diverged at the initial point")

    def avg(row):
        arrs = [block[row, :n_valid] for block in results]
        first = arrs[0]
        # identical runs (e.g. sigma = 0) average to themselves exactly
        if all(np.array_equal(a, first, equal_nan=True) for a in arrs[1:]):
            return first
        return np.mean(arrs, axis=0)

    # random communication skips vary the vector ledger per run; fgap and
    # dist_to_opt_sq are NaN throughout when the problem lacks f* or x*
    gns, cons, gap, vecs, dist = map(avg, range(5))
    gap, dist = (None if np.all(np.isnan(a)) else a for a in (gap, dist))
    return Trace(rounds=recorded[:n_valid], grad_norm_sq=gns,
                 consensus_err=cons, fgap=gap, vectors_per_link=vecs,
                 dist_to_opt_sq=dist, diverged=n_valid < len(recorded))


# ---------------------------------------------------------------------------
# Tuning to a target error
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridPoint:
    alpha: float
    rounds_to_target: Optional[int]
    diverged: bool


@dataclass(frozen=True)
class TuneResult:
    best: Optional[HyperParams]
    points: tuple
    target: float
    # the trace the tuner ran at `best`; None when the target was not reached
    best_trace: Optional[Trace] = field(default=None, compare=False, repr=False)

    @property
    def achieved(self) -> bool:
        return self.best is not None

    def best_rounds(self) -> Optional[int]:
        hits = [p.rounds_to_target for p in self.points
                if p.rounds_to_target is not None]
        return min(hits) if hits else None


def default_alpha_grid(stability_alpha: float, points: int = 20,
                       decades: float = 4.0) -> np.ndarray:
    """Log grid spanning `decades` decades up to the stability estimate."""
    hi = math.log10(stability_alpha)
    return np.logspace(hi - decades, hi, points)


def tune_to_target(cfg: ExperimentConfig, target: float,
                   alphas: Optional[Sequence[float]] = None,
                   jobs: int = 1) -> TuneResult:
    """Grid-search alpha for the fewest rounds to reach the target error.

    Ties break toward the larger stepsize.  Not reaching the target inside the
    round budget is a valid (reported) outcome, as is divergence.
    """
    if alphas is None:
        alphas = default_alpha_grid(1.0 / cfg.problem.lipschitz())
    if len(alphas) == 0:
        raise ValueError("empty tuning grid")
    # every grid point is validated before the first run
    hypers = [replace(cfg.hyper, alpha=float(alpha)) for alpha in alphas]
    points = []
    best_hp = None
    best_trace = None
    best_key = None
    for hp in hypers:
        try:
            trace = run_experiment(replace(cfg, hyper=hp), jobs=jobs)
            diverged = trace.diverged
        except RuntimeError:  # diverged at the initial point
            diverged = True
        rtt = None if diverged else trace.rounds_to_target(target)
        points.append(GridPoint(hp.alpha, rtt, diverged))
        if rtt is not None:
            key = (rtt, -hp.alpha)
            if best_key is None or key < best_key:
                best_key = key
                best_hp = hp
                best_trace = trace
    return TuneResult(best=best_hp, points=tuple(points), target=target,
                      best_trace=best_trace)


@dataclass(frozen=True)
class ComparisonRow:
    algorithm: str
    alpha: Optional[float]
    rounds_to_target: Optional[int]
    vectors_to_target: Optional[int]


def compare(cfgs: Sequence[ExperimentConfig], target: float,
            grids: Optional[dict] = None, jobs: int = 1) -> list:
    """Tune each config to the target and report rounds and vectors per link.

    All configs are expected to share the problem and topology so the rows
    are directly comparable.  Each row is read from the trace the tuner ran
    at its winning stepsize.
    """
    rows = []
    for cfg in cfgs:
        grid = None if grids is None else grids.get(cfg.algorithm)
        result = tune_to_target(cfg, target, alphas=grid, jobs=jobs)
        if result.best is None:
            rows.append(ComparisonRow(cfg.algorithm, None, None, None))
            continue
        trace = result.best_trace
        rtt = trace.rounds_to_target(target)
        rows.append(ComparisonRow(cfg.algorithm, result.best.alpha, rtt,
                                  trace.vectors_at_round(rtt)))
    return rows


# ---------------------------------------------------------------------------
# Steady-state noise floor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseFloor:
    value: float
    stationary: bool


def noise_floor(cfg: ExperimentConfig, tail_fraction: float = 0.25,
                jobs: int = 1) -> NoiseFloor:
    """Mean E||x_bar - x*||^2 over the final tail of a long run.

    Requires a problem with a known minimizer.  The stationarity flag compares
    the two halves of the tail window; a ratio beyond 2x in either direction
    marks the tail as not settled.
    """
    if cfg.problem.x_star is None:
        raise ValueError("noise_floor needs a problem with a known minimizer")
    if not 0 < tail_fraction <= 1:
        raise ValueError("tail_fraction must be in (0, 1]")
    trace = run_experiment(cfg, jobs=jobs)
    dist = trace.dist_to_opt_sq
    n_tail = max(2, int(len(dist) * tail_fraction))
    tail = dist[-n_tail:]
    half = n_tail // 2
    first, second = float(np.mean(tail[:half])), float(np.mean(tail[half:]))
    lo, hi = min(first, second), max(first, second)
    stationary = lo == hi or (lo > 0 and hi / lo <= 2.0)
    return NoiseFloor(value=float(np.mean(tail)), stationary=stationary)
