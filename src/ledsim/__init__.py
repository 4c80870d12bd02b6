"""Desk-scale decentralized-optimization simulator and algorithm library."""

from .algorithms import ALGORITHMS, Driver, HyperParams, RoundOutput
from .harness import (ExperimentConfig, NoiseFloor, Trace, TuneResult,
                      compare, noise_floor, run_experiment, tune_to_target)
from .problems import (LogisticProblem, NodeDataset, Problem,
                       QuadraticProblem, SynthConfig, quadratic_problem,
                       synth_logistic)
from .rng import RngStream
from .topology import (Graph, MixingMatrix, build_graph, complete_mixing,
                       lazy_transform, metropolis_weights,
                       validate_combination_matrix)

__all__ = [
    "ALGORITHMS", "Driver", "HyperParams", "RoundOutput",
    "ExperimentConfig", "NoiseFloor", "Trace", "TuneResult", "compare",
    "noise_floor", "run_experiment", "tune_to_target",
    "LogisticProblem", "NodeDataset", "Problem", "QuadraticProblem",
    "SynthConfig", "quadratic_problem", "synth_logistic",
    "RngStream",
    "Graph", "MixingMatrix", "build_graph", "complete_mixing",
    "lazy_transform", "metropolis_weights", "validate_combination_matrix",
]
