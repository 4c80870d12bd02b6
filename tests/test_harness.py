"""Experiment runner: averaging, determinism, tuning, floors, serialization."""

import concurrent.futures
import multiprocessing
import pickle
import random
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledsim import (ExperimentConfig, HyperParams, QuadraticProblem,
                    RngStream, complete_mixing, metropolis_weights, build_graph,
                    noise_floor, quadratic_problem, run_experiment,
                    synth_logistic, tune_to_target)
from ledsim import algorithms, cli, harness
from ledsim.algorithms import ALGORITHMS, METHODS
from ledsim.harness import Trace, compare, default_alpha_grid
from ledsim.problems import Problem, SynthConfig


def _cfg(**kw):
    prob = kw.pop("problem", None)
    if prob is None:
        prob = quadratic_problem(6, 3, mu=0.3, lip=1.0, heterogeneity=1.0,
                                 seed=5, sigma=kw.pop("sigma", 0.0))
    mixing = kw.pop("mixing", None)
    if mixing is None:
        mixing = metropolis_weights(build_graph("ring", prob.n_nodes))
    defaults = dict(algorithm="led", problem=prob, mixing=mixing,
                    hyper=HyperParams(alpha=0.1, tau=2), rounds=50,
                    num_runs=1, base_seed=0)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_deterministic_runs_average_to_single_run():
    one = run_experiment(_cfg(num_runs=1))
    three = run_experiment(_cfg(num_runs=3))
    assert np.array_equal(one.grad_norm_sq, three.grad_norm_sq)
    assert np.array_equal(one.consensus_err, three.consensus_err)


def test_single_node_geometric_contraction():
    prob = QuadraticProblem(np.eye(1), np.zeros((1, 1)))
    cfg = _cfg(problem=prob, mixing=complete_mixing(1),
               hyper=HyperParams(alpha=0.1, tau=1), rounds=20,
               x0=np.array([[1.0]]))
    trace = run_experiment(cfg)
    expect = 0.81 ** trace.rounds.astype(float)
    assert np.max(np.abs(trace.grad_norm_sq - expect)) <= 1e-12


def _method_cfg(algo, sigma=0.05, **kw):
    """A runnable config of algo: complete graph for centralized methods,
    p = 0.5 so skipping flips coins."""
    if METHODS[algo].centralized:
        kw.setdefault("mixing", complete_mixing(6))
    return _cfg(algorithm=algo, sigma=sigma,
                hyper=HyperParams(alpha=0.1, tau=2, p=0.5), **kw)


def _assert_traces_equal(a, b, label):
    for f in fields(Trace):
        assert pickle.dumps(getattr(a, f.name)) == \
            pickle.dumps(getattr(b, f.name)), (label, f.name)


def test_reproducible_across_jobs(monkeypatch):
    # the logistic problem reaches workers pickled: its kernel data must keep
    # a layout that rounds the same way there
    logistic = synth_logistic(SynthConfig(n_nodes=6, dim=4, n_samples=50,
                                          sigma=0.05), seed=7)
    cfgs = [_method_cfg(a, num_runs=4, rounds=30) for a in ALGORITHMS]
    cfgs.append(_cfg(problem=logistic, num_runs=4, rounds=30))
    for cfg in cfgs:
        serial = run_experiment(cfg, jobs=1)
        parallel = run_experiment(cfg, jobs=2)
        _assert_traces_equal(serial, parallel, cfg.algorithm)
    # uneven shares (5 runs over 2 or 3 processes), more jobs than runs
    cfg = _method_cfg("led", num_runs=5, rounds=60)
    serial = run_experiment(cfg)
    for jobs in (2, 3):
        _assert_traces_equal(serial, run_experiment(cfg, jobs=jobs), jobs)
    two = replace(cfg, num_runs=2)
    _assert_traces_equal(run_experiment(two), run_experiment(two, jobs=4), 4)
    # each share prunes on its own runs' sums; the rows stay those of jobs=1
    grids = {"led": PRUNE_GRID}
    full, _ = _compare(monkeypatch, [cfg], PRUNE_TARGET, grids)
    rows, (tune,) = _compare(monkeypatch, [cfg], PRUNE_TARGET, grids, jobs=3)
    assert pickle.dumps(rows) == pickle.dumps(full)
    assert any(p.pruned for p in tune.points)


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        run_experiment(_cfg(), jobs=jobs)


def test_noise_reaches_every_method_or_is_refused():
    for algo in METHODS:
        cfg = _method_cfg(algo, sigma=0.05, num_runs=2, rounds=20)
        a = run_experiment(cfg)
        b = run_experiment(replace(cfg, base_seed=1))
        assert not np.array_equal(a.grad_norm_sq, b.grad_norm_sq), algo


def test_noisy_average_differs_from_single_run():
    one = run_experiment(_cfg(sigma=0.1, num_runs=1, rounds=30))
    many = run_experiment(_cfg(sigma=0.1, num_runs=8, rounds=30))
    assert not np.array_equal(one.grad_norm_sq[1:], many.grad_norm_sq[1:])


def test_cumulative_vector_ledger():
    trace = run_experiment(_cfg(rounds=10))
    assert np.array_equal(trace.vectors_per_link, np.arange(11))
    kgt = run_experiment(_cfg(algorithm="kgt", rounds=10))
    assert np.array_equal(kgt.vectors_per_link, 2 * np.arange(11))


def test_cadence_thins_recording():
    trace = run_experiment(_cfg(rounds=20, cadence=7))
    assert list(trace.rounds) == [0, 7, 14, 20]
    assert np.all(np.isfinite(trace.grad_norm_sq))


@pytest.mark.parametrize("r", [-1, 1, 4, 7, 100])
def test_vectors_at_an_unrecorded_round_is_refused(r):
    trace = run_experiment(_cfg(rounds=6, cadence=3))
    assert [trace.vectors_at_round(k) for k in (0, 3, 6)] == [0, 3, 6]
    with pytest.raises(ValueError, match=f"^round {r} was not recorded"):
        trace.vectors_at_round(r)


def test_divergence_flagged_and_truncated():
    cfg = _cfg(hyper=HyperParams(alpha=10.0, tau=2), rounds=200)
    trace = run_experiment(cfg)
    assert trace.diverged
    assert len(trace.rounds) < 201
    assert np.all(np.isfinite(trace.grad_norm_sq))


def test_recorded_metrics_equal_per_node_loops():
    # 3 noisy runs, each stepped on its own stream; every metric from loops
    # over the run's N = 6 node estimates of m = 3 coordinates, then the mean
    # over runs in run order
    cfg = _cfg(sigma=0.3, num_runs=3, rounds=12, cadence=3)
    trace = run_experiment(cfg)
    p, n = cfg.problem, cfg.problem.n_nodes
    per_run = []
    for run in range(cfg.num_runs):
        driver = algorithms.Driver(cfg.algorithm, p, cfg.mixing, cfg.hyper)
        state = driver.init(np.zeros((n, p.dim)))
        stream = RngStream(cfg.base_seed).child("run", run)
        rows = []
        for r in range(cfg.rounds + 1):
            if r in trace.rounds:
                x = driver.positions(state)
                xbar = sum(x[i] for i in range(n)) / n
                grad = sum(p.grad(i, xbar) for i in range(n)) / n
                rows.append((
                    grad @ grad,
                    sum((x[i] - xbar) @ (x[i] - xbar) for i in range(n)) / n,
                    sum(p.value(i, xbar) for i in range(n)) / n - p.f_star,
                    (xbar - p.x_star) @ (xbar - p.x_star)))
            if r < cfg.rounds:
                state = driver.step(state, stream.child("round", r)).state
        per_run.append(rows)
    ref = np.mean(per_run, axis=0).T
    assert list(trace.rounds) == [0, 3, 6, 9, 12]
    for got, want in zip((trace.grad_norm_sq, trace.consensus_err, trace.fgap,
                          trace.dist_to_opt_sq), ref):
        assert np.all(want[1:] > 1e-4)     # far from rounding noise
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_fgap_present_for_quadratics():
    trace = run_experiment(_cfg(rounds=30))
    assert trace.fgap is not None
    assert trace.fgap[-1] < trace.fgap[0]
    assert trace.dist_to_opt_sq is not None


def test_consensus_error_vanishes_for_corrected_method():
    trace = run_experiment(_cfg(rounds=2000, cadence=100,
                                hyper=HyperParams(alpha=0.2, tau=2)))
    assert trace.consensus_err[-1] <= 1e-16


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(rounds=0)
    with pytest.raises(ValueError):
        _cfg(num_runs=0)
    # ed and uda_ed are analysis-form functions, not table entries
    for algo in ("bogus", "ed", "uda_ed"):
        with pytest.raises(ValueError, match=f"unknown algorithm '{algo}'"):
            _cfg(algorithm=algo)


@pytest.mark.parametrize("field", ["rounds", "num_runs", "cadence"])
def test_a_count_below_one_names_its_field(field):
    with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
        _cfg(**{field: 0})
    # a float count used to fail in run_experiment, naming no field
    with pytest.raises(ValueError,
                       match=f"^{field} must be an integer, got 2.0$"):
        _cfg(**{field: 2.0})


@pytest.mark.parametrize("x0,message", [
    (np.zeros((2, 6, 3)), r"x0 must have shape \(6, 3\), got \(2, 6, 3\)"),
    (np.zeros(3), r"x0 must have shape \(6, 3\), got \(3,\)"),
    (np.zeros((1, 3)), r"x0 must have shape \(6, 3\), got \(1, 3\)"),
    (np.full((6, 3), np.nan), "x0 must be finite"),
    (np.full((6, 3), -np.inf), "x0 must be finite"),
])
def test_config_rejects_a_bad_x0(x0, message):
    for algo in ("led", "local_dsgd"):
        with pytest.raises(ValueError, match=message):
            _cfg(algorithm=algo, x0=x0)


def test_config_rejects_a_mixing_of_another_size():
    with pytest.raises(ValueError, match="mixing has 5 nodes, the problem 6"):
        _cfg(mixing=metropolis_weights(build_graph("ring", 5)))


# ---------------------------------------------------------------------------
# Trace helpers
# ---------------------------------------------------------------------------

def _toy_trace(values):
    r = np.arange(len(values))
    return Trace(rounds=r, grad_norm_sq=np.asarray(values, dtype=float),
                 consensus_err=np.zeros(len(values)), fgap=None,
                 vectors_per_link=r.copy())


def test_rounds_to_target_sustained_ignores_transient_dip():
    t = _toy_trace([1.0, 1e-5, 1e-2, 1e-3, 1e-5, 1e-6])
    assert t.rounds_to_target(1e-4) == 4
    assert t.rounds_to_target(1e-9) is None


def test_rounds_to_target_monotone_trace():
    t = _toy_trace([1.0, 0.1, 0.01, 0.001])
    assert t.rounds_to_target(0.05) == 2
    assert t.rounds_to_target(10.0) == 0


CLI_QUAD = ["--problem-kind", "quadratic", "--graph", "ring", "--n", "6",
            "--alpha", "0.1", "--tau", "2", "--runs", "1"]


def _cli_csv(tmp_path, *argv):
    """Run the CLI; returns the CSV's '#' header lines and its data rows."""
    path = tmp_path / "out.csv"
    assert cli.main(["--out", str(path), *argv]) == 0
    lines = path.read_text().splitlines()
    return ([ln for ln in lines if ln.startswith("# ")],
            [ln.split(",") for ln in lines if not ln.startswith("#")])


def test_csv_round_trip(tmp_path, monkeypatch):
    traces = []

    def run_and_keep(*args, **kwargs):
        traces.append(run_experiment(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(cli, "run_experiment", run_and_keep)
    header, rows = _cli_csv(tmp_path, "run", "--algo", "led", *CLI_QUAD,
                            "--rounds", "5")
    assert "# hyperparameters.alpha = 0.1" in header
    assert rows[0] == ["round", "grad_norm_sq", "consensus_err", "fgap",
                       "vectors_per_link"]
    assert len(rows) == 1 + 6
    # values survive a parse round trip exactly (repr serialization)
    trace = traces[0]
    for k, row in enumerate(rows[1:]):
        assert int(row[0]) == trace.rounds[k]
        assert float(row[1]) == trace.grad_norm_sq[k]
        assert float(row[2]) == trace.consensus_err[k]
        assert float(row[3]) == trace.fgap[k]
        assert int(row[4]) == trace.vectors_per_link[k]


def test_csv_empty_fgap_field(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment",
                        lambda *a, **k: _toy_trace([1.0, 0.5]))
    _, rows = _cli_csv(tmp_path, "run", "--algo", "led", *CLI_QUAD)
    assert rows[1] == ["0", "1.0", "0.0", "", "0"]
    assert rows[2][3] == ""


# ---------------------------------------------------------------------------
# tuning
# ---------------------------------------------------------------------------

def test_tune_single_node_finds_classical_optimum():
    # plain gradient descent on one node: best contraction at 2/(mu + L)
    a = np.diag([0.5, 2.0])
    prob = QuadraticProblem(a[None, :, :], np.array([[1.0, 1.0]]))
    grid = [0.2, 0.4, 0.6, 0.8, 1.0]
    cfg = ExperimentConfig(algorithm="dsgd", problem=prob,
                           mixing=complete_mixing(1),
                           hyper=HyperParams(alpha=0.1), rounds=300,
                           num_runs=1, x0=np.array([[5.0, 5.0]]))
    res = tune_to_target(cfg, 1e-20, alphas=grid)
    assert res.best is not None
    assert res.best.alpha == pytest.approx(0.8)  # 2/(0.5+2.0)


def test_tune_unreachable_target():
    cfg = _cfg(sigma=0.1, num_runs=2, rounds=40)
    res = tune_to_target(cfg, 0.0, alphas=[0.05, 0.1])
    assert res.best is None
    assert all(p.rounds_to_target is None for p in res.points)


def test_tune_huge_target_achieved_immediately():
    res = tune_to_target(_cfg(rounds=5), 1e300, alphas=[0.1])
    assert res.best_rounds() == 0


def test_tune_finer_grid_never_worse():
    cfg = _cfg(rounds=200)
    coarse = tune_to_target(cfg, 1e-10, alphas=[0.05, 0.2])
    fine = tune_to_target(cfg, 1e-10, alphas=[0.05, 0.1, 0.2, 0.4])
    assert fine.best_rounds() <= coarse.best_rounds()


def test_tune_marks_divergent_points():
    cfg = _cfg(rounds=100)
    res = tune_to_target(cfg, 1e-8, alphas=[0.1, 50.0])
    flags = {p.alpha: p.diverged for p in res.points}
    assert flags[50.0] and not flags[0.1]


def test_tune_tie_breaks_to_larger_alpha():
    res = tune_to_target(_cfg(rounds=5), 1e300, alphas=[0.05, 0.1])
    assert res.best.alpha == pytest.approx(0.1)


def test_tune_scaffnew_default_zeta_with_skipping(quad6_noisy, ring6):
    # the default dual stepsize keeps alpha*zeta/p inside the valid region
    cfg = ExperimentConfig(algorithm="scaffnew", problem=quad6_noisy,
                           mixing=ring6, hyper=HyperParams(alpha=0.1, p=0.5),
                           rounds=60, num_runs=2)
    res = tune_to_target(cfg, 1e-2, alphas=[0.02, 0.05, 0.1])
    assert len(res.points) == 3
    assert not any(p.diverged for p in res.points)


def test_tune_rejects_explicit_zeta_before_any_run(monkeypatch):
    # alpha * zeta / p = 2 at the second grid point
    calls = []
    monkeypatch.setattr(harness, "_run", lambda *a: calls.append(a))
    monkeypatch.setattr(harness, "_run_share", lambda *a: calls.append(a))
    cfg = _cfg(algorithm="scaffnew", sigma=0.05, num_runs=2,
               hyper=HyperParams(alpha=0.01, p=0.5, zeta=10.0))
    with pytest.raises(ValueError, match="zeta"):
        tune_to_target(cfg, 1e-2, alphas=[0.01, 0.1])
    assert len(calls) == 0


def test_default_alpha_grid_shape():
    grid = default_alpha_grid(1.0)
    assert len(grid) == 20
    assert grid[-1] == pytest.approx(1.0)
    assert grid[0] == pytest.approx(1e-4)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_default_alpha_grid_rejects_a_bad_stability_stepsize(bad):
    # 1/L with L = inf used to fail as "math domain error"
    with pytest.raises(ValueError, match="^the stability stepsize must be "
                       "positive and finite"):
        default_alpha_grid(bad)


def test_tune_rejects_empty_grid():
    with pytest.raises(ValueError):
        tune_to_target(_cfg(), 1e-4, alphas=[])


# ---------------------------------------------------------------------------
# comparison table
# ---------------------------------------------------------------------------

def test_compare_reports_vector_costs(tmp_path, monkeypatch):
    prob = quadratic_problem(6, 3, mu=0.3, lip=1.0, heterogeneity=1.0, seed=5)
    mixing = metropolis_weights(build_graph("ring", 6))
    cfgs = [ExperimentConfig(algorithm=a, problem=prob, mixing=mixing,
                             hyper=HyperParams(alpha=0.1, tau=3), rounds=400,
                             num_runs=1, cadence=1)
            for a in ("led", "kgt")]
    rows = compare(cfgs, 1e-10, grids={"led": [0.1, 0.2], "kgt": [0.1, 0.2]})
    by_algo = {r.algorithm: r for r in rows}
    assert by_algo["led"].rounds_to_target is not None
    assert by_algo["kgt"].vectors_to_target == 2 * by_algo["kgt"].rounds_to_target
    # the CLI writes these rows as its table, floats parsing back exactly
    missed = harness.ComparisonRow("kgt", None, None, None)
    monkeypatch.setattr(cli, "compare", lambda *a, **k: rows + [missed])
    _, table = _cli_csv(tmp_path, "compare", "--algos", "led,kgt", *CLI_QUAD)
    assert table[0] == ["algorithm", "alpha", "rounds_to_target",
                        "vectors_to_target"]
    assert len(table) == 4
    for row, fields_ in zip(rows, table[1:]):
        assert fields_ == [row.algorithm, repr(row.alpha),
                           str(row.rounds_to_target), str(row.vectors_to_target)]
        assert float(fields_[1]) == row.alpha
    assert table[3] == ["kgt", "", "", ""]


def test_compare_rows_equal_rerun_of_tuned_config():
    cfgs = [_cfg(algorithm=a, sigma=0.01, num_runs=2, rounds=150)
            for a in ("led", "kgt")]
    grids = {"led": [0.05, 0.1, 0.2], "kgt": [0.05, 0.1, 0.2]}
    rows = compare(cfgs, 1e-5, grids=grids)
    for cfg, row in zip(cfgs, rows):
        tuned = tune_to_target(cfg, 1e-5, alphas=grids[cfg.algorithm])
        assert tuned.best is not None and row.alpha == tuned.best.alpha
        rerun = run_experiment(replace(cfg, hyper=tuned.best))
        _assert_traces_equal(rerun, tuned.best_trace, cfg.algorithm)
        rtt = rerun.rounds_to_target(1e-5)
        assert row.rounds_to_target == rtt
        assert row.vectors_to_target == rerun.vectors_at_round(rtt)


def test_compare_single_algorithm_degenerate():
    cfg = _cfg(rounds=200)
    rows = compare([cfg], 1e-8, grids={"led": [0.1]})
    assert len(rows) == 1 and rows[0].algorithm == "led"


# ---------------------------------------------------------------------------
# exact pruning in compare
# ---------------------------------------------------------------------------

# reached by every method inside 60 rounds at some stepsize; 3.2 diverges
PRUNE_GRID = (0.02, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2)
PRUNE_TARGET = 1e-3


def _prune_grids(grid=PRUNE_GRID):
    shuffled = list(grid)
    random.Random(3).shuffle(shuffled)
    return {"ascending": sorted(grid), "descending": sorted(grid)[::-1],
            "shuffled": shuffled}


def _compare(monkeypatch, cfgs, target, grids, prune=True, jobs=1):
    """compare's rows and the tuning results behind them; prune=False
    switches its tuner's pruning off."""
    tunes = []
    tune = harness.tune_to_target

    def keep(*args, **kwargs):
        kwargs["prune"] &= prune
        tunes.append(tune(*args, **kwargs))
        return tunes[-1]

    with monkeypatch.context() as m:
        m.setattr(harness, "tune_to_target", keep)
        return compare(cfgs, target, grids=grids, jobs=jobs), tunes


def _assert_prune_exact(cut, full, label):
    """A pruned tuning has the unpruned best point and trace, and reports
    every point it did not prune as the unpruned one does."""
    assert cut.best == full.best, label
    if full.best is not None:
        _assert_traces_equal(cut.best_trace, full.best_trace, label)
    for p, q in zip(cut.points, full.points, strict=True):
        if p.pruned:
            assert (p.rounds_to_target, p.diverged) == (None, False), label
        else:
            assert p == q, label


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_pruned_compare_rows_equal_unpruned(algo, monkeypatch):
    for num_runs in (1, 3):
        cfg = _method_cfg(algo, num_runs=num_runs, rounds=60)
        for order, grid in _prune_grids().items():
            grids = {algo: grid}
            full, (full_tune,) = _compare(monkeypatch, [cfg], PRUNE_TARGET,
                                          grids, prune=False)
            assert full[0].alpha is not None and not any(
                p.pruned for p in full_tune.points)
            # jobs=2 starts one pool per point when num_runs > 1; points run
            # largest alpha first whatever the grid order, so that leg runs
            # on one order only
            pool_leg = num_runs == 1 or order == "shuffled"
            for jobs in (1, 2) if pool_leg else (1,):
                label = (algo, num_runs, order, jobs)
                rows, (tune,) = _compare(monkeypatch, [cfg], PRUNE_TARGET,
                                         grids, jobs=jobs)
                assert pickle.dumps(rows) == pickle.dumps(full), label
                _assert_prune_exact(tune, full_tune, label)
                assert any(p.pruned for p in tune.points), label


@pytest.mark.parametrize("algo", ["led", "kgt", "local_dsgd"])
def test_pruning_is_exact_near_the_noise_floor(algo, monkeypatch):
    # single runs cross a target near the floor while their average stays
    # below it, so only the run-averaged bound may cut
    grid = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8, 1.6)
    for num_runs, target in ((3, 1e-3), (5, 1.78e-3), (5, 5.62e-3)):
        cfg = _method_cfg(algo, sigma=0.2, num_runs=num_runs, rounds=60)
        full, (full_tune,) = _compare(monkeypatch, [cfg], target,
                                      {algo: grid}, prune=False)
        for jobs in (1, 2):
            label = (num_runs, target, jobs)
            rows, (tune,) = _compare(monkeypatch, [cfg], target,
                                     {algo: grid}, jobs=jobs)
            assert rows == full, label
            _assert_prune_exact(tune, full_tune, label)


def test_pruning_keeps_a_tie_at_the_incumbent_round(monkeypatch):
    # with cadence 5, alpha = 0.45 and 0.5 both reach the target at round 10
    cfg = _method_cfg("led", num_runs=1, rounds=60, cadence=5)
    for order, grid in _prune_grids((0.2, 0.3, 0.4, 0.45, 0.5)).items():
        grids = {"led": grid}
        full, (full_tune,) = _compare(monkeypatch, [cfg], PRUNE_TARGET,
                                      grids, prune=False)
        rows, (tune,) = _compare(monkeypatch, [cfg], PRUNE_TARGET, grids)
        assert rows == full, order
        _assert_prune_exact(tune, full_tune, order)
        assert full[0].alpha == 0.5 and full[0].rounds_to_target == 10
        tied = next(p for p in tune.points if p.alpha == 0.45)
        assert tied.rounds_to_target == 10 and not tied.pruned


def test_a_run_average_equal_to_the_target_is_not_known_above_it():
    # run 0 finished at 0.5 and the live lane of run 1 reads 1.5: the
    # average of 2 runs is the target 1.0 exactly, so the point may still tie
    assert not harness._known_above(np.array([1.5]), 0.5, 2, 1.0)
    assert harness._known_above(np.array([1.5]), 0.6, 2, 1.0)
    # a live lane at the target itself: the average is above, the lane not
    assert not harness._known_above(np.array([1.0]), 3.0, 2, 1.0)
    assert harness._known_above(np.array([1.0, 1.5]), 3.0, 3, 1.0)


def test_pruning_runs_fewer_steps(monkeypatch):
    # steps of one grid point each: an unpruned tuning steps its points as
    # one batch, one alpha per point
    steps = []
    step = algorithms.Driver.step
    monkeypatch.setattr(algorithms.Driver, "step", lambda self, *a:
                        steps.append(np.size(self.h.alpha)) or step(self, *a))
    # the alphas of each _run call
    calls = []
    run = harness._run
    monkeypatch.setattr(harness, "_run", lambda cfg, hypers, *a:
                        calls.append([h.alpha for h in hypers])
                        or run(cfg, hypers, *a))
    cfg = _method_cfg("led", num_runs=3, rounds=60)
    grids = {"led": list(PRUNE_GRID)}
    full, _ = _compare(monkeypatch, [cfg], PRUNE_TARGET, grids, prune=False)
    full_steps = sum(steps)
    # one call steps the whole grid, largest alpha first
    assert calls == [sorted(PRUNE_GRID, reverse=True)]
    steps.clear()
    calls.clear()
    assert compare([cfg], PRUNE_TARGET, grids=grids) == full
    assert 0 < sum(steps) < full_steps
    # one call per point, largest alpha first
    assert calls == [[a] for a in sorted(PRUNE_GRID, reverse=True)]


def test_tune_never_prunes_by_default():
    cfg = _method_cfg("led", num_runs=3, rounds=60)
    res = tune_to_target(cfg, PRUNE_TARGET, alphas=PRUNE_GRID)
    assert not any(p.pruned for p in res.points)
    # the points as the tuner reported them before pruning existed
    assert [(p.rounds_to_target, p.diverged) for p in res.points] == [
        (None, False), (None, False), (39, False), (21, False), (11, False),
        (54, False), (None, False), (None, True)]


# ---------------------------------------------------------------------------
# unpruned tuning in lockstep
# ---------------------------------------------------------------------------

def _per_point(cfg, alphas):
    """{alpha: run_experiment's trace}."""
    return {a: run_experiment(replace(cfg, hyper=replace(cfg.hyper, alpha=a)))
            for a in alphas}


def _assert_tune_equals_per_point(monkeypatch, cfg, target, alphas, jobs):
    """tune_to_target's points, best and every trace it builds are those of
    separate run_experiment calls, bitwise."""
    ref = _per_point(cfg, alphas)
    built = []
    trace = harness._trace
    with monkeypatch.context() as m:
        m.setattr(harness, "_trace",
                  lambda *a: built.append(trace(*a)) or built[-1])
        res = tune_to_target(cfg, target, alphas=alphas, jobs=jobs)
    label = (cfg.algorithm, cfg.num_runs, jobs)
    expect = [harness.GridPoint(a, None if t.diverged
                                else t.rounds_to_target(target), t.diverged)
              for a, t in ref.items()]
    assert res.points == tuple(expect), label
    hits = [(p.rounds_to_target, -p.alpha) for p in expect
            if p.rounds_to_target is not None]
    if hits:
        assert res.best.alpha == -min(hits)[1], label
        _assert_traces_equal(res.best_trace, ref[res.best.alpha], label)
    else:
        assert res.best is None and res.best_trace is None, label
    # traces are built, largest alpha first, for exactly the points whose
    # rounds-to-target could be set: those not diverged whose final averaged
    # error is at or below the target
    wanted = [ref[a] for a in sorted(alphas, reverse=True)
              if not ref[a].diverged and ref[a].grad_norm_sq[-1] <= target]
    assert len(built) == len(wanted), label
    for got, want in zip(built, wanted):
        _assert_traces_equal(got, want, label)
    return res


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_unpruned_tune_equals_per_point_runs(algo, monkeypatch):
    # on the quadratic 3.2 diverges for every method, so it leaves the batch
    # mid-run; logistic gradients are bounded, so no stepsize diverges there
    logistic = synth_logistic(SynthConfig(n_nodes=6, dim=4, n_samples=50,
                                          sigma=0.05), seed=7)
    for num_runs in (1, 3):
        quad = _method_cfg(algo, num_runs=num_runs, rounds=60)
        cfgs = {"quadratic": quad,
                "logistic": replace(quad, problem=logistic)}
        for name, cfg in cfgs.items():
            for jobs in (1, 2):
                res = _assert_tune_equals_per_point(
                    monkeypatch, cfg, PRUNE_TARGET, PRUNE_GRID, jobs)
                if name == "quadratic":
                    assert res.points[-1].diverged and res.best is not None


def test_unpruned_tune_points_leave_the_batch_at_their_own_round(monkeypatch):
    # 6.4, 3.2 and 2.4 leave the finite range by rounds 3, 9 and 18, with
    # cadence 3 recording in between
    cfg = _method_cfg("led", num_runs=3, rounds=60, cadence=3)
    res = _assert_tune_equals_per_point(monkeypatch, cfg, PRUNE_TARGET,
                                        (0.1, 6.4, 0.4, 3.2, 2.4), 1)
    assert [p.diverged for p in res.points] == [False, True, False, True, True]


def test_unpruned_tune_initial_point_divergence_reads_diverged(monkeypatch):
    cfg = _method_cfg("led", num_runs=2, rounds=20, x0=np.full((6, 3), 1e7))
    res = _assert_tune_equals_per_point(monkeypatch, cfg, PRUNE_TARGET,
                                        (0.05, 0.1, 0.2), 1)
    assert all(p.diverged for p in res.points) and res.best is None


def test_unpruned_tune_evaluates_the_metric_where_an_answer_needs_it(
        monkeypatch):
    # grad_norm_sq slices: a point that ends above the target needs each
    # run's final slot alone; the bound rules divergence out elsewhere on
    # this logistic problem
    slices = []
    metric = Problem.global_grad_norm_sq
    monkeypatch.setattr(Problem, "global_grad_norm_sq", lambda self, x:
                        slices.append(x.size // x.shape[-1]) or metric(self, x))
    logistic = synth_logistic(SynthConfig(n_nodes=6, dim=4, n_samples=50,
                                          sigma=0.05), seed=7)
    cfg = replace(_method_cfg("led", num_runs=3, rounds=40), problem=logistic)
    grid, slots = (0.01, 0.3, 0.1), 41
    finals = {a: t.grad_norm_sq[-1] for a, t in _per_point(cfg, grid).items()}
    # the bound's first use evaluates the metric at 0
    logistic.grad_norm_sq_bound(np.zeros(4))
    slices.clear()
    res = tune_to_target(cfg, min(finals.values()) / 2, alphas=grid)
    assert res.best is None
    assert sum(slices) == len(grid) * cfg.num_runs
    # at the smallest final average as the target, one point hits: its runs
    # get every slot, after the final slots of the first run's lane batch
    # and of the other runs' batch, in calls no wider than the first batch
    slices.clear()
    res = tune_to_target(cfg, min(finals.values()), alphas=grid)
    assert res.best.alpha == min(finals, key=finals.get)
    assert sum(slices) == len(grid) * cfg.num_runs + cfg.num_runs * slots
    assert slices[:2] == [len(grid), 2 * len(grid)]
    assert max(slices[2:]) == len(grid)


def test_deferred_blocks_match_eager_blocks():
    # the diverging quadratic lanes leave at the slot where their eager runs
    # leave; every other metric is bitwise the eager one, and grad_norm_sq
    # is too wherever it was evaluated, at the final slot at least, and
    # after _fill at every slot, for any fill width
    cfg = _method_cfg("led", num_runs=3, rounds=60, cadence=3)
    hypers = [replace(cfg.hyper, alpha=a) for a in (6.4, 0.1, 2.4, 0.4, 3.2)]
    with harness._pool(cfg, 1) as pool:
        eager = harness._run(cfg, hypers, pool)
        deferred = harness._run(cfg, hypers, pool, None, True)
    widths = set()
    for k in range(len(hypers)):
        for e, d in zip(eager[k], deferred[k]):
            widths.add(e.shape[1])
            assert d.shape == (5 + cfg.problem.dim, e.shape[1])
            assert d[1:5].tobytes() == e[1:5].tobytes()
            evaluated = ~np.isnan(d[0])
            assert d[0, evaluated].tobytes() == e[0, evaluated].tobytes()
            assert evaluated[-1] or e.shape[1] < 21
        for width in (1, 2, 5):
            harness._fill(cfg.problem, deferred[k], width)
            for e, d in zip(eager[k], deferred[k]):
                assert d[:5].tobytes() == e.tobytes()
    assert len(widths) > 2 and 21 in widths


def test_unpruned_tune_starts_one_pool(monkeypatch):
    pools = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    cfg = _method_cfg("led", num_runs=4, rounds=20)
    res = tune_to_target(cfg, PRUNE_TARGET, alphas=PRUNE_GRID[:5], jobs=2)
    assert len(res.points) == 5
    assert len(pools) == 1
    # a pruned compare runs one group per grid point, all on one pool per
    # config; the rows are those of jobs=1
    pools.clear()
    cfgs = [_method_cfg(a, num_runs=4, rounds=60) for a in ("led", "kgt")]
    grids = {a: PRUNE_GRID for a in ("led", "kgt")}
    rows, tunes = _compare(monkeypatch, cfgs, PRUNE_TARGET, grids, jobs=2)
    assert rows == compare(cfgs, PRUNE_TARGET, grids=grids)
    assert all(len(t.points) == len(PRUNE_GRID) for t in tunes)
    assert 1 <= len(pools) <= len(cfgs)


def test_tune_raises_a_runtime_error_from_a_step(monkeypatch):
    # only divergence at the initial point is a reported outcome
    def fail(self, state, stream):
        raise RuntimeError("step failed")

    monkeypatch.setattr(algorithms.Driver, "step", fail)
    with pytest.raises(RuntimeError, match="step failed"):
        tune_to_target(_cfg(), 1e-4, alphas=[0.1])


def test_a_step_error_in_a_worker_propagates_and_ends_the_pool(monkeypatch):
    # the workers fork after the patch, so each of them raises
    def fail(self, state, stream):
        raise RuntimeError("step failed")

    monkeypatch.setattr(algorithms.Driver, "step", fail)
    cfg = _cfg(num_runs=4)
    with pytest.raises(RuntimeError, match="step failed"):
        run_experiment(cfg, jobs=2)
    assert multiprocessing.active_children() == []
    with pytest.raises(RuntimeError, match="step failed"):
        tune_to_target(cfg, 1e-4, alphas=[0.1, 0.05], jobs=2)
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# the run axis: a share's runs after its first step as one batch of lanes
# ---------------------------------------------------------------------------

def _assert_runs_equal_solo_runs(cfg, alphas, jobs=1):
    """Every run's metrics block, as _run returns it for the grid `alphas`,
    is bitwise the block its run gets from a share of its own; returns the
    blocks."""
    hypers = [replace(cfg.hyper, alpha=a) for a in alphas]
    with harness._pool(cfg, jobs) as pool:
        blocks = harness._run(cfg, hypers, pool)
    for run in range(cfg.num_runs):
        solo = harness._run_share(cfg, hypers, range(run, run + 1), None)
        for k in range(len(hypers)):
            got, want = blocks[k][run], solo[k][0]
            label = (cfg.algorithm, cfg.num_runs, jobs, run, alphas[k])
            assert got.shape == want.shape, label
            assert got.tobytes() == want.tobytes(), label
    return blocks


# every method on the ring where it may run there, and on the complete graph
_METHOD_GRAPHS = [(algo, graph) for algo, spec in METHODS.items()
                  for graph in ("ring", "complete")
                  if graph == "complete" or not spec.centralized]


@settings(max_examples=40, deadline=None)
@given(method_graph=st.sampled_from(_METHOD_GRAPHS),
       num_runs=st.integers(1, 6), jobs=st.sampled_from([1, 2, 3]),
       alphas=st.sampled_from([(0.1,), (0.3, 0.1, 0.05)]),
       cadence=st.integers(1, 3), base_seed=st.integers(0, 3))
def test_batched_runs_equal_solo_runs(method_graph, num_runs, jobs, alphas,
                                      cadence, base_seed):
    algo, graph = method_graph
    mixing = (complete_mixing(6) if graph == "complete"
              else metropolis_weights(build_graph("ring", 6)))
    cfg = _method_cfg(algo, mixing=mixing, num_runs=num_runs, rounds=12,
                      cadence=cadence, base_seed=base_seed)
    _assert_runs_equal_solo_runs(cfg, alphas, jobs)


def test_batched_runs_keep_their_own_coins():
    # scaffnew at p = 0.5 flips one coin per run and round, so the runs of a
    # batch skip different rounds and their vector ledgers part
    cfg = _method_cfg("scaffnew", num_runs=5, rounds=30)
    for alphas in ((0.1,), (0.2, 0.1, 0.05)):
        blocks = _assert_runs_equal_solo_runs(cfg, alphas)
        ledgers = {block[3].tobytes() for block in blocks[0]}
        assert len(ledgers) == cfg.num_runs, alphas


@pytest.mark.parametrize("algo,unstable", [("led", 2.0), ("scaffnew", 2.2)])
def test_batched_runs_leave_the_batch_at_their_own_round(algo, unstable):
    # the unstable alpha diverges on this noisy quadratic, each run at the
    # round its own noise sets, and 0.1 stays finite; scaffnew's runs also
    # carry their own vector ledgers out of the batch
    prob = quadratic_problem(6, 3, mu=0.3, lip=1.0, heterogeneity=1.0,
                             seed=5, sigma=5.0)
    cfg = _cfg(algorithm=algo, problem=prob, num_runs=6, rounds=120,
               hyper=HyperParams(alpha=0.1, tau=2, p=0.5))
    for alphas in ((unstable,), (unstable, 0.1, unstable + 0.2)):
        blocks = _assert_runs_equal_solo_runs(cfg, alphas)
        widths = [block.shape[1] for block in blocks[0]]
        assert len(set(widths)) > 2 and max(widths) < 121, widths
        for k, alpha in enumerate(alphas):
            if alpha == 0.1:
                assert all(block.shape[1] == 121 for block in blocks[k])


def test_batched_runs_start_from_x0():
    x0 = np.random.default_rng(11).normal(size=(6, 3))
    for algo in ("led", "scaffold"):
        cfg = _method_cfg(algo, num_runs=4, rounds=15, x0=x0)
        blocks = _assert_runs_equal_solo_runs(cfg, (0.2, 0.1))
        start = harness._run_share(replace(cfg, x0=None), [cfg.hyper],
                                   range(1), None)[0][0]
        assert blocks[0][0][0, 0] != start[0, 0], algo


def test_lane_batches_chunk_under_the_byte_cap(monkeypatch):
    # two lanes per batch: the first run's 3 points go as batches of two and
    # one, then the 3 points x 4 later runs of a 5-run share as six of two
    cfg = _method_cfg("led", num_runs=5, rounds=20)
    sizes = []
    run_lanes = harness._run_lanes
    monkeypatch.setattr(harness, "_run_lanes", lambda cfg, hypers, points, *a:
                        sizes.append(len(points))
                        or run_lanes(cfg, hypers, points, *a))
    monkeypatch.setattr(harness, "LANE_BYTES", 2 * cfg.problem.point_bytes())
    _assert_runs_equal_solo_runs(cfg, (0.3, 0.1, 0.05))
    assert sizes[:8] == [2, 1, 2, 2, 2, 2, 2, 2]
    sizes.clear()
    monkeypatch.setattr(harness, "LANE_BYTES", 1 << 30)
    _assert_runs_equal_solo_runs(cfg, (0.3, 0.1, 0.05))
    assert sizes[:2] == [3, 12]
    # a logistic lane's largest temporary is its (N, S) margins
    logistic = synth_logistic(SynthConfig(), seed=1)
    assert logistic.point_bytes() == 8 * 15 * 1000


def test_pruned_compare_cuts_inside_a_lane_batch(monkeypatch):
    # three runs: the first alone, then two as one batch that the cut stops
    cuts = []
    run_lanes = harness._run_lanes

    def logged(cfg, hypers, points, *args):
        out = run_lanes(cfg, hypers, points, *args)
        cuts.append((len(points), out is None))
        return out

    monkeypatch.setattr(harness, "_run_lanes", logged)
    # near the noise floor, where a first run below the target can be
    # followed by runs that lift the average above it
    grid = (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8, 1.6)
    for algo in ("led", "kgt", "scaffnew"):
        cfg = _method_cfg(algo, num_runs=3, rounds=60)
        grids = {algo: grid}
        full, (full_tune,) = _compare(monkeypatch, [cfg], 1.78e-3, grids,
                                      prune=False)
        cuts.clear()
        rows, (tune,) = _compare(monkeypatch, [cfg], 1.78e-3, grids)
        assert pickle.dumps(rows) == pickle.dumps(full), algo
        _assert_prune_exact(tune, full_tune, algo)
        assert (2, True) in cuts, algo


# ---------------------------------------------------------------------------
# noise floor
# ---------------------------------------------------------------------------

def test_noise_floor_zero_noise():
    nf = noise_floor(_cfg(rounds=2000, cadence=10,
                          hyper=HyperParams(alpha=0.2, tau=2)))
    assert nf.value <= 1e-16
    assert nf.stationary


def _floor_of(monkeypatch, dist):
    """noise_floor of a run whose recorded dist_to_opt_sq is dist."""
    dist = np.array(dist, dtype=float)
    trace = Trace(rounds=np.arange(len(dist)), grad_norm_sq=dist,
                  consensus_err=dist, fgap=None,
                  vectors_per_link=np.zeros(len(dist)), dist_to_opt_sq=dist)
    monkeypatch.setattr(harness, "run_experiment", lambda cfg, jobs: trace)
    return noise_floor(_cfg())


def test_noise_floor_averages_the_last_quarter(monkeypatch):
    # 12 slots: the last 3 (a third would take 4); 7 slots: the last 2
    assert _floor_of(monkeypatch, range(1, 13)).value == 11.0
    assert _floor_of(monkeypatch, range(1, 8)).value == 6.5


@pytest.mark.parametrize("halves,stationary", [
    ((1.0, 2.0), True), ((2.0, 1.0), True), ((1.0, 2.0000001), False),
    ((2.5, 1.0), False), ((0.0, 0.0), True), ((0.0, 1e-300), False)])
def test_noise_floor_is_stationary_within_a_factor_of_two(monkeypatch, halves,
                                                          stationary):
    # 16 slots: a tail of 4, whose halves are 2 slots each
    first, second = halves
    nf = _floor_of(monkeypatch, [9.0] * 12 + [first] * 2 + [second] * 2)
    assert nf.stationary == stationary
    assert nf.value == pytest.approx((first + second) / 2, rel=1e-15, abs=0)


def test_noise_floor_requires_known_minimizer(small_logistic):
    cfg = _cfg(problem=small_logistic,
               mixing=metropolis_weights(build_graph("ring", 3)))
    with pytest.raises(ValueError):
        noise_floor(cfg)


@pytest.mark.parametrize("rounds,cadence,last", [(40, 4, 4), (40, 40, 0)])
def test_noise_floor_raises_on_divergence(rounds, cadence, last):
    # led at alpha = 3.5 diverges within a few rounds; the second case keeps
    # a single finite recorded slot, round 0
    prob = quadratic_problem(4, 3, mu=0.5, lip=1.0, heterogeneity=1.0, seed=1,
                             sigma=1e-2)
    cfg = _cfg(problem=prob, mixing=complete_mixing(4), num_runs=2,
               hyper=HyperParams(alpha=3.5, tau=2), rounds=rounds,
               cadence=cadence)
    trace = run_experiment(cfg)
    assert trace.diverged and trace.rounds[-1] == last
    with pytest.raises(RuntimeError, match=f"last finite recorded round is {last}$"):
        noise_floor(cfg)


def test_initial_point_divergence_is_a_trace_without_rounds():
    # run_experiment used to raise here, for its callers to catch
    cfg = _method_cfg("led", num_runs=2, rounds=20, x0=np.full((6, 3), 1e7))
    trace = run_experiment(cfg)
    assert trace.diverged and len(trace.rounds) == 0
    assert len(trace.grad_norm_sq) == len(trace.vectors_per_link) == 0
    assert trace.fgap is None and trace.dist_to_opt_sq is None
    with pytest.raises(RuntimeError, match="diverged at the initial point$"):
        noise_floor(cfg)


def test_noise_floor_positive_under_noise():
    cfg = _cfg(sigma=0.05, num_runs=5, rounds=600, cadence=2,
               mixing=complete_mixing(6), hyper=HyperParams(alpha=0.2, tau=2))
    nf = noise_floor(cfg)
    assert nf.value > 0
    assert nf.stationary
