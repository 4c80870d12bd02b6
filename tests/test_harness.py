"""Experiment runner: averaging, determinism, tuning, floors, serialization."""

import pickle
from dataclasses import fields, replace

import numpy as np
import pytest

from ledsim import (ExperimentConfig, HyperParams, QuadraticProblem,
                    complete_mixing, metropolis_weights, build_graph,
                    noise_floor, quadratic_problem, run_experiment,
                    synth_logistic, tune_to_target)
from ledsim import cli, harness
from ledsim.algorithms import ALGORITHMS, METHODS
from ledsim.harness import Trace, compare, default_alpha_grid
from ledsim.problems import SynthConfig


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


def test_reproducible_across_jobs():
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


def test_divergence_flagged_and_truncated():
    cfg = _cfg(hyper=HyperParams(alpha=10.0, tau=2), rounds=200)
    trace = run_experiment(cfg)
    assert trace.diverged
    assert len(trace.rounds) < 201
    assert np.all(np.isfinite(trace.grad_norm_sq))


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
    assert t.rounds_to_target(1e-4, sustained=False) == 1
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
    assert res.achieved
    assert res.best.alpha == pytest.approx(0.8)  # 2/(0.5+2.0)


def test_tune_unreachable_target():
    cfg = _cfg(sigma=0.1, num_runs=2, rounds=40)
    res = tune_to_target(cfg, 0.0, alphas=[0.05, 0.1])
    assert not res.achieved
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
    monkeypatch.setattr(harness, "run_experiment",
                        lambda *a, **k: calls.append(a))
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
# noise floor
# ---------------------------------------------------------------------------

def test_noise_floor_zero_noise():
    nf = noise_floor(_cfg(rounds=2000, cadence=10,
                          hyper=HyperParams(alpha=0.2, tau=2)))
    assert nf.value <= 1e-16
    assert nf.stationary


def test_noise_floor_requires_known_minimizer(small_logistic):
    cfg = _cfg(problem=small_logistic,
               mixing=metropolis_weights(build_graph("ring", 3)))
    with pytest.raises(ValueError):
        noise_floor(cfg)


def test_noise_floor_positive_under_noise():
    cfg = _cfg(sigma=0.05, num_runs=5, rounds=600, cadence=2,
               mixing=complete_mixing(6), hyper=HyperParams(alpha=0.2, tau=2))
    nf = noise_floor(cfg)
    assert nf.value > 0
    assert nf.stationary
