"""One rule for every integer size: a count is an int or numpy integer >= 1."""

import math
import re

import numpy as np
import pytest

from ledsim import (ExperimentConfig, Graph, HyperParams, RngStream,
                    build_graph, complete_mixing, harness, quadratic_problem,
                    run_experiment, synth_logistic)
from ledsim.algorithms import Driver
from ledsim.harness import default_alpha_grid
from ledsim.problems import SynthConfig


# built here, since the property refuses every draw while it checks
PROBLEM = quadratic_problem(3, 2, seed=0)


def _cfg(**kw):
    return ExperimentConfig(
        algorithm="led", problem=PROBLEM, mixing=complete_mixing(3),
        hyper=HyperParams(alpha=0.1), **{"rounds": 2, "num_runs": 1, **kw})


def _path(n):
    """A connected graph's edges on nodes 0..n-1."""
    return frozenset((i, i + 1) for i in range(n - 1))


# (site.parameter, call): call(v, k) passes the value v as that parameter; k
# is an int that stands in for v in a size that must agree with it (v where v
# is a count, else 3), so only v can fail
COUNTS = [
    ("ExperimentConfig.rounds", lambda v, k: _cfg(rounds=v)),
    ("ExperimentConfig.num_runs", lambda v, k: _cfg(num_runs=v)),
    ("ExperimentConfig.cadence", lambda v, k: _cfg(cadence=v)),
    ("HyperParams.tau", lambda v, k: HyperParams(tau=v)),
    ("SynthConfig.n_nodes", lambda v, k: synth_logistic(
        SynthConfig(n_nodes=v, dim=2, n_samples=4), seed=0)),
    ("SynthConfig.dim", lambda v, k: synth_logistic(
        SynthConfig(n_nodes=2, dim=v, n_samples=4), seed=0)),
    ("SynthConfig.n_samples", lambda v, k: synth_logistic(
        SynthConfig(n_nodes=2, dim=2, n_samples=v), seed=0)),
    ("quadratic_problem.n_nodes", lambda v, k: quadratic_problem(v, 2, seed=0)),
    ("quadratic_problem.dim", lambda v, k: quadratic_problem(3, v, seed=0)),
    ("ring.n", lambda v, k: build_graph("ring", v)),
    ("erdos_renyi.n", lambda v, k: build_graph("erdos_renyi", v, p=0.5)),
    ("grid.rows", lambda v, k: build_graph("grid", 2 * k, rows=v, cols=2)),
    ("grid.cols", lambda v, k: build_graph("grid", 2 * k, rows=2, cols=v)),
    ("Graph.n_nodes", lambda v, k: Graph(v, _path(k))),
    ("complete_mixing.n", lambda v, k: complete_mixing(v)),
    ("default_alpha_grid.points", lambda v, k: default_alpha_grid(1.0, points=v)),
    ("run_experiment.jobs", lambda v, k: run_experiment(_cfg(), jobs=v)),
]

# (value, the rule it breaks)
BAD = [(0, ">= 1"), (-1, ">= 1"), (np.int64(0), ">= 1"), (2.5, "an integer"),
       (math.nan, "an integer"), (True, "an integer"), ("3", "an integer"),
       (3.0, "an integer"), (None, "an integer")]


class _Ran(Exception):
    """A draw or a round ran before the count was checked."""


def _refuse(*args, **kwargs):
    raise _Ran


@pytest.mark.parametrize("site,call", COUNTS, ids=[s for s, _ in COUNTS])
def test_every_count_takes_an_integer_at_least_one_and_names_itself(
        monkeypatch, site, call):
    name = site.rsplit(".", 1)[1]
    with monkeypatch.context() as m:
        for target, attr in ((RngStream, "_draw"), (RngStream, "generator"),
                             (Driver, "step"), (harness, "_run_share")):
            m.setattr(target, attr, _refuse)
        for value, rule in BAD:
            message = f"{name} must be {rule}, got {value!r}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(value, 3)
    for value in (1, 3, np.int64(3)):
        call(value, int(value))


def test_a_grid_whose_sides_multiply_to_n_still_needs_counts():
    # rows * cols == 5 here; this used to fail as "graph is not connected"
    with pytest.raises(ValueError, match="^rows must be >= 1, got -1$"):
        build_graph("grid", 5, rows=-1, cols=-5)
    with pytest.raises(ValueError, match="^cols must be >= 1, got -5$"):
        build_graph("grid", 5, rows=1, cols=-5)
    # this used to divide by zero
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        complete_mixing(0)
