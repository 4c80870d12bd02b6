"""Seeded experiment runner: repeated runs, metric averaging, tuning, floors."""

from __future__ import annotations

import bisect
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from .algorithms import Driver, HyperParams, method
from .problems import DIVERGENCE_LIMIT, Problem, _count
from .rng import RngStream
from .topology import MixingMatrix


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
        for name in ("rounds", "num_runs", "cadence"):
            _count(name, getattr(self, name))
        method(self.algorithm, self.mixing)
        shape = (self.problem.n_nodes, self.problem.dim)
        if self.mixing.n != shape[0]:
            raise ValueError(f"mixing has {self.mixing.n} nodes, the problem "
                             f"{shape[0]}")
        if self.x0 is not None:
            # a stray leading axis would step as a batch
            x0 = np.asarray(self.x0, dtype=float)
            if x0.shape != shape:
                raise ValueError(f"x0 must have shape {shape}, got {x0.shape}")
            if not np.isfinite(x0).all():
                raise ValueError("x0 must be finite")


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

    def rounds_to_target(self, target: float) -> Optional[int]:
        """Round from which the averaged error stays at or below the target
        for the rest of the recorded trace; a biased method that dips through
        the target transiently on its way to a higher floor does not count as
        having reached it."""
        below = self.grad_norm_sq <= target
        hits = np.nonzero(np.flip(np.logical_and.accumulate(np.flip(below))))[0]
        if len(hits) == 0:
            return None
        return int(self.rounds[hits[0]])

    def vectors_at_round(self, r: int) -> float:
        """The run average of vectors per link sent by round r, exactly: an
        int when integral, a float when random skips make it fractional;
        ValueError for a round that was not recorded."""
        i = np.searchsorted(self.rounds, r)
        if i == len(self.rounds) or self.rounds[i] != r:
            raise ValueError(f"round {r} was not recorded")
        v = float(self.vectors_per_link[i])
        return int(v) if v.is_integer() else v


def _recorded_rounds(rounds: int, cadence: int) -> list:
    return [0, *range(cadence, rounds, cadence), rounds]


# The lanes of one batch hold at most this many bytes of their largest
# temporary, Problem.point_bytes() per lane
LANE_BYTES = 8 << 20


def _known_above(g, done: float, num_runs: int, target: float) -> bool:
    """Whether a slot's run average of grad_norm_sq is known to exceed target,
    from the finished runs' sum `done` and the live lanes' g (a numpy float,
    or one per lane in run order).  Errors are >= 0 and the average adds every
    run's value in run order, so done plus g in run order is at most its
    sum, rounding included; identical runs average to themselves, hence the
    check of g alone."""
    # cumsum adds in order
    return (g.max() > target
            and np.cumsum(np.append(done, g))[-1] / num_runs > target)


def _certified(problem: Problem, xbar: np.ndarray) -> tuple:
    """(g, finite) at a deferred slot: grad_norm_sq where x_bar lies outside
    the problem's safe radius, NaN elsewhere, and whether each lane stays in
    the finite range.  A NaN or inf entry lies outside."""
    unsure = ~(np.maximum.reduce(np.abs(xbar), axis=-1) <= problem.safe_radius)
    if not unsure.any():
        return np.nan, np.True_
    g = np.full(unsure.shape, np.nan)
    g[unsure] = problem.global_grad_norm_sq(xbar[unsure])
    return g, ~unsure | (g <= DIVERGENCE_LIMIT)


# an overflow inside a round gives an inf or NaN metric, so ends as divergence
@np.errstate(over="ignore", invalid="ignore")
def _run_lanes(cfg: ExperimentConfig, hypers: list, points: np.ndarray,
               runs: np.ndarray, sums: np.ndarray, prune_at: Optional[tuple],
               defer: bool = False) -> Optional[list]:
    """Runs lane k, grid point points[k] in run runs[k], for every k, and
    returns each lane's metrics block; None once pruned (see _run_share).

    One lane runs alone, with scalar alpha and (N, m) states.  Several run
    as one batch: alpha is an (L, 1, 1) array, states are (L, N, m), and
    each noise draw of a run serves its lanes.  A lane whose metric leaves
    the finite range stops there, and leaves the batch.

    defer=True evaluates grad_norm_sq only at a lane's last recorded round
    and where ||x_bar||_inf exceeds Problem.safe_radius, so lanes leave
    where they would otherwise; the row is NaN elsewhere, and rows 5
    on hold the lane's x_bar, one column per recorded round, for _fill.
    """
    problem = cfg.problem
    recorded = _recorded_rounds(cfg.rounds, cfg.cadence)
    target, incumbent = prune_at or (math.inf, math.inf)
    first = bisect.bisect_left(recorded, incumbent)
    x0 = (np.zeros((problem.n_nodes, problem.dim)) if cfg.x0 is None
          else np.asarray(cfg.x0, dtype=float))
    hyper = hypers[points[0]]
    if len(points) > 1:
        x0 = np.stack([x0] * len(points))
        alphas = np.array([hypers[k].alpha for k in points])
        hyper = replace(hyper, alpha=alphas[:, None, None])
    driver = Driver(cfg.algorithm, problem, cfg.mixing, hyper)
    state = driver.init(x0)
    stream = RngStream.for_runs(cfg.base_seed, runs)
    rows = 5 + problem.dim if defer else 5
    block = np.full((len(points), rows, len(recorded)), np.nan)
    width = np.full(len(points), len(recorded))
    # the lanes still in the batch; a slice writes faster than indices
    live = slice(None)
    # one per lane: runs may skip links at random
    cum_vectors = np.zeros(len(points))
    done = 0
    for slot, until in enumerate(recorded):
        for r in range(done, until):
            out = driver.step(state, stream.child("round", r))
            state = out.state
            cum_vectors += out.vectors_per_link
        done = until
        xmat = driver.positions(state)
        # add.reduce is what mean and sum call, without their dispatch
        xbar = np.add.reduce(xmat, axis=-2) / problem.n_nodes
        if defer and until < cfg.rounds:
            g, finite = _certified(problem, xbar)
        else:
            g = problem.global_grad_norm_sq(xbar)
            finite = g <= DIVERGENCE_LIMIT   # False for inf and NaN
        if not finite.all():
            if not finite.any():
                width[live] = slot
                break
            live = np.arange(len(points))[live]
            width[live[~finite]] = slot
            live, xmat, xbar, g = (a[finite] for a in (live, xmat, xbar, g))
            state = type(state)(*(getattr(state, f.name)[finite]
                                  for f in fields(state)))
            driver.h = replace(driver.h, alpha=driver.h.alpha[finite])
            stream = RngStream.for_runs(cfg.base_seed, runs[live])
            cum_vectors = cum_vectors[finite]
        dev = xmat - xbar[..., None, :]
        block[live, 0, slot] = g
        block[live, 1, slot] = (np.add.reduce(dev * dev, axis=(-2, -1))
                                / problem.n_nodes)
        block[live, 3, slot] = cum_vectors
        if problem.f_star is not None:
            block[live, 2, slot] = problem.mean_value(xbar) - problem.f_star
        if problem.x_star is not None:
            err = xbar - problem.x_star
            block[live, 4, slot] = np.add.reduce(err * err, axis=-1)
        if defer:
            block[live, 5:, slot] = xbar
        if slot >= first and _known_above(g, sums[slot], cfg.num_runs, target):
            return None
    return [block[k, :, :n] for k, n in enumerate(width)]


def _lanes_per_batch(cfg: ExperimentConfig) -> int:
    return max(1, LANE_BYTES // cfg.problem.point_bytes())


def _run_share(cfg: ExperimentConfig, hypers: list, runs: range,
               prune_at: Optional[tuple],
               defer: bool = False) -> Optional[list]:
    """Runs the seeded runs `runs` and returns, for each point of `hypers`,
    its runs' metrics blocks in run order: one column per recorded round and
    one row per Trace metric (grad_norm_sq, consensus_err, fgap,
    vectors_per_link, dist_to_opt_sq; NaN where undefined).  A block whose
    metric leaves the finite range stops there, so it is narrower.

    The points differ in alpha only.  A lane is one (point, run) pair, and
    _run_lanes steps a batch of lanes in lockstep.  The share's first run
    goes first, apart from the rest, then the other runs × points,
    run-major; each part as batches of at most LANE_BYTES // point_bytes()
    lanes.  Each run keeps its own noise
    draws, keyed (run, round, step), which the lanes of that run share, and
    every operation acts on each lane as on a lone run: so each block is
    bitwise the one its run gets alone, for any batching.

    prune_at=(target, r), for one point only, returns None at the first
    recorded round >= r where the share's finished runs' sums plus the live
    lanes' grad_norm_sq show the run average above target, and some live
    lane's own value exceeds it.  A cut may be missed but is never wrong.
    Running the first run alone keeps its early cut, which a batch of all
    the runs would reach later.

    defer=True (unpruned tuning) returns deferred blocks; see _run_lanes.

    Metrics use exact gradients of the running state; the dual/stochastic
    machinery only affects the trajectory.
    """
    sums = np.zeros(len(_recorded_rounds(cfg.rounds, cfg.cadence)))
    per_batch = _lanes_per_batch(cfg)
    batches = []
    for part in (runs[:1], runs[1:]):
        lanes = [(k, run) for run in part for k in range(len(hypers))]
        batches += [lanes[i:i + per_batch]
                    for i in range(0, len(lanes), per_batch)]
    blocks = [[] for _ in hypers]
    for batch in batches:
        points, lane_runs = map(np.array, zip(*batch))
        out = _run_lanes(cfg, hypers, points, lane_runs, sums, prune_at,
                         defer)
        if out is None:
            return None
        for k, block in zip(points, out):
            blocks[k].append(block)
            if k == 0:
                sums[:block.shape[1]] += block[0]
    return blocks


@contextmanager
def _pool(cfg: ExperimentConfig, jobs: int):
    """The workers of one run_experiment or tune_to_target call on cfg, as
    (k, map): k = min(jobs, num_runs) processes of one pool, or this process
    alone with the builtin map."""
    k = min(_count("jobs", jobs), cfg.num_runs)
    if k == 1:
        yield k, map
        return
    # imported here: concurrent.futures.process adds about 2 MB to every
    # process that imports ledsim, and most runs never start one
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=k) as executor:
        yield k, executor.map


def _run(cfg: ExperimentConfig, hypers: list, pool: tuple,
         prune_at: Optional[tuple] = None,
         defer: bool = False) -> Optional[list]:
    """Every point's runs' metrics blocks in run order, from one _run_share
    per contiguous share of the runs, k shares in all for pool = (k, map);
    None once pruned."""
    k, pool_map = pool
    shares = [range(i * cfg.num_runs // k, (i + 1) * cfg.num_runs // k)
              for i in range(k)]
    # one task per worker, so each receives the config once
    per_share = list(pool_map(_run_share, [cfg] * k, [hypers] * k, shares,
                              [prune_at] * k, [defer] * k))
    if any(blocks is None for blocks in per_share):
        return None
    return [[block for blocks in per_share for block in blocks[i]]
            for i in range(len(hypers))]


def _final_above(results: list, target: float) -> bool:
    """Whether a point's run-averaged grad_norm_sq at its last recorded round
    exceeds target, for each average _trace may take: the mean over runs,
    which adds the last column as it adds every column of the same (runs,
    rounds) array; and run 0's row, which it takes when every run's row is
    equal, as they can be only where the last values are."""
    rows = [block[0] for block in results]
    return (np.mean(rows, axis=0)[-1] > target
            and (len({row[-1] for row in rows}) > 1 or rows[0][-1] > target))


def _fill(problem: Problem, results: list, width: int) -> None:
    """Row 0 of a point's deferred blocks, grad_norm_sq at every recorded
    round, from their stored x_bar, in calls of at most `width` slots; each
    slot is bitwise what it gets in any batch."""
    for block in results:
        xbars = block[5:].T
        for i in range(0, len(xbars), width):
            block[0, i:i + width] = problem.global_grad_norm_sq(
                xbars[i:i + width])


def _trace(cfg: ExperimentConfig, results: list) -> Trace:
    """The Trace of one point's runs' metrics blocks, averaged pointwise."""
    recorded = _recorded_rounds(cfg.rounds, cfg.cadence)
    # valid length = rounds recorded before any run went non-finite; 0 when
    # a run starts past the divergence limit
    n_valid = min(block.shape[1] for block in results)

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
    return Trace(rounds=np.array(recorded)[:n_valid], grad_norm_sq=gns,
                 consensus_err=cons, fgap=gap, vectors_per_link=vecs,
                 dist_to_opt_sq=dist, diverged=n_valid < len(recorded))


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> Trace:
    """Average num_runs independent seeded runs pointwise per recorded round.

    Deterministic for a given base_seed regardless of jobs: runs own
    path-addressed streams and the reduction is ordered by run index.  A run
    whose metric leaves the finite range truncates the trace at the first bad
    round, no round left if that is round 0, and flags the result.  The runs
    split into min(jobs, num_runs) contiguous shares, each run in order by
    one process.
    """
    with _pool(cfg, jobs) as pool:
        return _trace(cfg, _run(cfg, [cfg.hyper], pool)[0])


# ---------------------------------------------------------------------------
# Tuning to a target error
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridPoint:
    alpha: float
    rounds_to_target: Optional[int]
    diverged: bool
    # stopped once it could no longer beat the best point (compare only); its
    # rounds_to_target and diverged are then unknown and read None and False
    pruned: bool = False


@dataclass(frozen=True)
class TuneResult:
    best: Optional[HyperParams]
    points: tuple
    # the trace the tuner ran at `best`; None when the target was not reached
    best_trace: Optional[Trace] = field(default=None, compare=False, repr=False)

    def best_rounds(self) -> Optional[int]:
        hits = [p.rounds_to_target for p in self.points
                if p.rounds_to_target is not None]
        return min(hits) if hits else None


def default_alpha_grid(stability_alpha: float, points: int = 20) -> np.ndarray:
    """Log grid spanning four decades up to the stability estimate; one
    point is its bottom alone, stability_alpha / 1e4, not the top."""
    if not 0 < stability_alpha < math.inf:
        raise ValueError("the stability stepsize must be positive and "
                         f"finite, got {stability_alpha!r}")
    hi = math.log10(stability_alpha)
    return np.logspace(hi - 4.0, hi, _count("points", points))


def stability_alpha(problem: Problem) -> float:
    """1/L, L = problem.lipschitz(): the top of the default grid."""
    if not (lip := problem.lipschitz()):
        raise ValueError("L = 0, so the default grid has no top 1/L: a logistic "
                         "problem whose features are all 0 needs reg > 0")
    return 1.0 / lip


def tune_to_target(cfg: ExperimentConfig, target: float,
                   alphas: Optional[Sequence[float]] = None,
                   jobs: int = 1, prune: bool = False) -> TuneResult:
    """Grid-search alpha for the fewest rounds to reach the target error.

    Ties break toward the larger stepsize.  Not reaching the target inside the
    round budget is a valid (reported) outcome, as is divergence.

    The points are reported in grid order and run largest alpha first.  With
    prune=False they all run as one group, in lockstep on shared noise draws.
    A sustained hit must last to the final round, so a point that diverged
    or whose run-averaged error ends above the target has rounds-to-target
    None whatever its other rounds hold: for those, grad_norm_sq is
    evaluated only at each run's final round and wherever x_bar lies outside
    Problem.safe_radius.  Every other point gets its full row afterwards,
    from its stored x_bar, and its trace is bitwise that of run_experiment.
    With prune=True each point is a group of its own, which stops, reported
    as pruned, once its averaged error is known to exceed the target at a
    recorded round >= the best point's rounds-to-target: it can then neither
    win nor tie.
    best and best_trace are those of prune=False.  For jobs > 1 every group
    runs on one process pool.
    """
    if not target >= 0:
        raise ValueError(f"target must be >= 0, got {target!r}")
    if alphas is None:
        alphas = default_alpha_grid(stability_alpha(cfg.problem))
    if len(alphas) == 0:
        raise ValueError("empty tuning grid")
    # every grid point is validated before the first run
    hypers = [replace(cfg.hyper, alpha=float(alpha)) for alpha in alphas]
    points = [None] * len(hypers)
    # rounds-to-target, hyperparameters and trace of the best point so far
    best = (None, None, None)
    # largest alpha first: the incumbent's round drops early, so pruning cuts
    # sooner, and a later point that ties it has the smaller alpha
    order = sorted(range(len(hypers)), key=lambda i: -hypers[i].alpha)
    slots = len(_recorded_rounds(cfg.rounds, cfg.cadence))
    # no wider than the first run's lane batch, which stepped the grid
    width = min(len(hypers), _lanes_per_batch(cfg))
    with _pool(cfg, jobs) as pool:
        for group in [[i] for i in order] if prune else [order]:
            prune_at = None if best[0] is None else (target, best[0])
            blocks = _run(cfg, [hypers[i] for i in group], pool, prune_at,
                          not prune)
            for k, i in enumerate(group):
                hp = hypers[i]
                if blocks is None:
                    points[i] = GridPoint(hp.alpha, None, False, pruned=True)
                    continue
                if not prune:
                    diverged = min(b.shape[1] for b in blocks[k]) < slots
                    if diverged or _final_above(blocks[k], target):
                        points[i] = GridPoint(hp.alpha, None, diverged)
                        continue
                    _fill(cfg.problem, blocks[k], width)
                trace = _trace(cfg, blocks[k])
                rtt = None if trace.diverged else trace.rounds_to_target(target)
                points[i] = GridPoint(hp.alpha, rtt, trace.diverged)
                if rtt is not None and (best[0] is None or rtt < best[0]):
                    best = (rtt, hp, trace)
    return TuneResult(best=best[1], points=tuple(points), best_trace=best[2])


@dataclass(frozen=True)
class ComparisonRow:
    algorithm: str
    alpha: Optional[float]
    rounds_to_target: Optional[int]
    vectors_to_target: Optional[float]


def compare(cfgs: Sequence[ExperimentConfig], target: float,
            grids: Optional[dict] = None, jobs: int = 1) -> list:
    """Tune each config to the target and report rounds and vectors per link.

    All configs are expected to share the problem and topology so the rows
    are directly comparable.  Each row is read from the trace the tuner ran
    at its winning stepsize.  The tuner prunes grid points that can no
    longer win, which leaves every row as it is without pruning.
    """
    rows = []
    for cfg in cfgs:
        grid = None if grids is None else grids.get(cfg.algorithm)
        result = tune_to_target(cfg, target, alphas=grid, jobs=jobs,
                                prune=True)
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


def noise_floor(cfg: ExperimentConfig) -> NoiseFloor:
    """Mean E||x_bar - x*||^2 over the last quarter of a long run.

    Requires a problem with a known minimizer.  The stationarity flag compares
    the two halves of the tail window; a ratio beyond 2x in either direction
    marks the tail as not settled.
    """
    if cfg.problem.x_star is None:
        raise ValueError("noise_floor needs a problem with a known minimizer")
    trace = run_experiment(cfg)
    if trace.diverged:
        where = (f"; its last finite recorded round is {trace.rounds[-1]}"
                 if len(trace.rounds) else " at the initial point")
        raise RuntimeError(f"noise_floor: the run diverged{where}")
    dist = trace.dist_to_opt_sq
    n_tail = max(2, len(dist) // 4)
    tail = dist[-n_tail:]
    half = n_tail // 2
    first, second = float(np.mean(tail[:half])), float(np.mean(tail[half:]))
    lo, hi = min(first, second), max(first, second)
    stationary = lo == hi or (lo > 0 and hi / lo <= 2.0)
    return NoiseFloor(value=float(np.mean(tail)), stationary=stationary)
