"""Command-line driver: spectra | synth | run | tune | compare.

Every config flag is declared once, in its subcommand's flag table in
COMMANDS; flags override config files, and the effective configuration
(every key the command read, defaults included) is echoed into CSV outputs
as '#' comment lines.  A key that was set but not read draws a warning.
Exit codes: 0 success, 1 usage/config error, 2 divergence-flagged completion.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import inspect
import os
import sys
from typing import Callable, NamedTuple

from . import topology as topo
from .algorithms import HyperParams, method
from .harness import (ExperimentConfig, compare, default_alpha_grid,
                      run_experiment, stability_alpha, tune_to_target)
from .problems import SynthConfig, _count, quadratic_problem, synth_logistic


class ConfigError(Exception):
    pass


_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def parse_config_file(path: str) -> dict:
    """Flat key=value file with dotted section prefixes; '#' comments."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in KNOWN_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val
    return values


class _Config(dict):
    """Config values by key; `read` maps each key a command read to the value
    it used, defaults included: the effective configuration."""

    def __init__(self, values):
        super().__init__(values)
        self.read = {}


def _merged(args) -> _Config:
    """File values, overridden by the given flags whose dest is a known key."""
    cfg = _Config(parse_config_file(args.config) if args.config else {})
    cfg.update((key, val) for key, val in vars(args).items()
               if key in KNOWN_KEYS and val is not None)
    if args.seed is not None:
        cfg[COMMANDS[args.command].seed_key] = args.seed
    return cfg


def _get(cfg: _Config, key: str, cast, default=...):
    """Read key as cast; an unset key takes default.  The value used goes
    into cfg.read, unless it is an unset optional key (default None)."""
    if key not in cfg:
        if default is ...:
            raise ConfigError(f"missing required key {key!r}")
        if default is not None:
            cfg.read[key] = str(default)
        return default
    raw = cfg.read[key] = cfg[key]
    try:
        if cast is bool:
            if raw.lower() not in _TRUE + _FALSE:
                raise ValueError(raw)
            return raw.lower() in _TRUE
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def _defaults(fn) -> dict:
    """{name: default} for each parameter of fn (a dataclass too) with one."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty}


def _fields(cfg: dict, section: str, fn, names=None) -> dict:
    """Read section.<name> for each of _defaults(fn), or for those in names,
    with the default's type as cast; a default of None (unset) is an
    optional float."""
    return {name: _get(cfg, f"{section}.{name}",
                       float if default is None else type(default), default)
            for name, default in _defaults(fn).items()
            if names is None or name in names}


# the build_graph arguments each graph kind reads, as topology.<name> keys:
# (name, cast, default, ... if required); other kinds' keys are not read
_GRAPH_KEYS = {"grid": (("rows", int, ...), ("cols", int, ...)),
               "erdos_renyi": (("p", float, None), ("seed", int, 0))}

# a config key names the parameter it sets; the keys that no signature
# declares are listed by hand
KNOWN_KEYS = {
    "topology.graph", "topology.n", "topology.lazy", "problem.kind",
    "problem.seed", "algorithm.id", "harness.rounds", "harness.num_runs",
    "harness.base_seed", "harness.cadence", "harness.target",
    *(f"topology.{name}" for kw in _GRAPH_KEYS.values() for name, _, _ in kw),
    *(f"problem.{name}" for fn in (SynthConfig, quadratic_problem)
      for name in _defaults(fn)),
    *(f"hyperparameters.{name}" for name in _defaults(HyperParams)),
}


def build_mixing(cfg: dict) -> topo.MixingMatrix:
    kind = _get(cfg, "topology.graph", str)
    n = _get(cfg, "topology.n", int)
    kwargs = {name: _get(cfg, f"topology.{name}", cast, default)
              for name, cast, default in _GRAPH_KEYS.get(kind, ())}
    try:
        g = topo.build_graph(kind, n, **kwargs)
    except RuntimeError as exc:
        # raised only when no erdos_renyi sample connects
        raise ConfigError(f"{exc}: raise 'topology.p'") from exc
    w = topo.metropolis_weights(g)
    if _get(cfg, "topology.lazy", bool, False):
        w = topo.lazy_transform(w)
    return w


def build_problem(cfg: dict):
    kind = _get(cfg, "problem.kind", str, "logistic")
    seed = _get(cfg, "problem.seed", int, 1)
    if kind == "logistic":
        return synth_logistic(SynthConfig(**_fields(cfg, "problem", SynthConfig)),
                              seed)
    if kind == "quadratic":
        return quadratic_problem(**_fields(cfg, "problem", quadratic_problem),
                                 seed=seed)
    raise ConfigError(f"unknown problem kind {kind!r}: 'problem.kind' is "
                      "logistic or quadratic")


def build_experiment(cfg: dict, algos: list) -> ExperimentConfig:
    """The experiment of algos[0], with every hyperparameter that a step of
    one of algos reads (compare runs them all on one config)."""
    if "topology.n" in cfg:
        cfg.setdefault("problem.n_nodes", cfg["topology.n"])
    problem = build_problem(cfg)
    mixing = build_mixing(cfg)
    if problem.n_nodes != mixing.n:
        raise ConfigError("problem.n_nodes must match topology.n")
    reads = {name for algo in algos for name in method(algo, mixing).reads}
    return ExperimentConfig(
        algorithm=algos[0], problem=problem, mixing=mixing,
        # a field that no step reads keeps its default, and its key is not read
        hyper=HyperParams(**_fields(cfg, "hyperparameters", HyperParams, reads)),
        rounds=_get(cfg, "harness.rounds", int, 200),
        num_runs=_get(cfg, "harness.num_runs", int, 100),
        base_seed=_get(cfg, "harness.base_seed", int, 0),
        cadence=_get(cfg, "harness.cadence", int, 1))


def _check_out(path: str) -> None:
    """Fails before any round runs where the CSV could not be written."""
    if not path:
        raise ConfigError(f"--out {path!r} is empty")
    if os.path.isdir(path):
        raise ConfigError(f"--out {path!r} is a directory")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"--out {path!r} is in a directory that does "
                          "not exist")


def _write_csv(path: str, cfg: _Config, rows) -> None:
    """rows as CSV under the effective configuration as '# key = value'
    lines.  A float is written as repr(float(v)), which parses back exactly
    (repr of a numpy float names its type), and None as an empty field (the
    csv module's rule)."""
    with open(path, "w", newline="") as fh:
        fh.writelines(f"# {key} = {val}\n" for key, val in sorted(cfg.read.items()))
        csv.writer(fh).writerows([repr(float(v)) if isinstance(v, float) else v
                                  for v in row] for row in rows)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectra(args, cfg: dict) -> int:
    w = build_mixing(cfg)
    report = topo.validate_combination_matrix(w)
    print(f"n={w.n}")
    print(f"mixing_rate={w.mixing_rate!r}")
    print(f"min_eigenvalue={report.min_eigenvalue!r}")
    print(f"symmetric={str(report.symmetric).lower()}")
    print(f"doubly_stochastic={str(report.doubly_stochastic).lower()}")
    print(f"primitive={str(report.primitive).lower()}")
    print(f"positive_definite={str(report.positive_definite).lower()}")
    return 0


def cmd_synth(args, cfg: dict) -> int:
    if _get(cfg, "problem.kind", str, "logistic") != "logistic":
        raise ConfigError("synth writes logistic datasets only; "
                          "problem.kind must be 'logistic'")
    problem = build_problem(cfg)
    _check_out(args.out)
    rows = [["node", "row"] + [f"f{j}" for j in range(problem.dim)] + ["label"]]
    for i, ds in enumerate(problem.datasets):
        for s in range(len(ds.labels)):
            rows.append([i, s, *ds.features[s], int(ds.labels[s])])
    _write_csv(args.out, cfg, rows)
    print(f"wrote {args.out}")
    return 0


def cmd_run(args, cfg: dict) -> int:
    experiment = build_experiment(cfg, [_get(cfg, "algorithm.id", str)])
    _check_out(args.out)
    header = ["round", "grad_norm_sq", "consensus_err", "fgap",
              "vectors_per_link"]
    trace = run_experiment(experiment, jobs=args.jobs)
    gaps = [None] * len(trace.rounds) if trace.fgap is None else trace.fgap
    _write_csv(args.out, cfg, [header, *(
        [int(r), g, c, gap, trace.vectors_at_round(r)] for r, g, c, gap in zip(
            trace.rounds, trace.grad_norm_sq, trace.consensus_err, gaps))])
    if not len(trace.rounds):
        print("error: experiment diverged at the initial point", file=sys.stderr)
        return 2
    final = int(trace.rounds[-1])
    print(f"rounds={final}")
    print(f"grad_norm_sq={float(trace.grad_norm_sq[-1])!r}")
    print(f"consensus_err={float(trace.consensus_err[-1])!r}")
    print(f"vectors_per_link={trace.vectors_at_round(final)!r}")
    if trace.diverged:
        print("diverged=true")
        return 2
    return 0


def cmd_tune(args, cfg: dict) -> int:
    if args.grid_points is not None:
        _count("--grid-points", args.grid_points)
    experiment = build_experiment(cfg, [_get(cfg, "algorithm.id", str)])
    target = _get(cfg, "harness.target", float, 1e-4)
    grid = None if args.grid_points is None else default_alpha_grid(
        stability_alpha(experiment.problem), points=args.grid_points)
    _check_out(args.out)
    result = tune_to_target(experiment, target, alphas=grid, jobs=args.jobs)
    _write_csv(args.out, cfg, [
        ["alpha", "rounds_to_target", "diverged"],
        *([p.alpha, p.rounds_to_target, str(p.diverged).lower()]
          for p in result.points)])
    if result.best is not None:
        print(f"best_alpha={result.best.alpha!r}")
        print(f"best_rounds={result.best_rounds()}")
    else:
        print("best_alpha=not_achieved")
    return 0


def cmd_compare(args, cfg: dict) -> int:
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ConfigError("compare needs a nonempty --algos list")
    target = _get(cfg, "harness.target", float, 1e-4)
    # one problem for every method
    base = build_experiment(cfg, algos)
    cfgs = [dataclasses.replace(base, algorithm=algo) for algo in algos]
    _check_out(args.out)
    rows = compare(cfgs, target, jobs=args.jobs)
    _write_csv(args.out, cfg, [
        ["algorithm", "alpha", "rounds_to_target", "vectors_to_target"],
        *map(dataclasses.astuple, rows)])
    for row in rows:
        print(f"{row.algorithm}: rounds={row.rounds_to_target} "
              f"vectors={row.vectors_to_target}")
    return 0


class Command(NamedTuple):
    func: Callable
    help: str
    seed_key: str   # the config key that the global --seed sets
    flags: dict     # {flag: config key}; each flag's value is a string


_GRAPH_FLAGS = {"--graph": "topology.graph", "--n": "topology.n"}
_EXPERIMENT_FLAGS = {
    **_GRAPH_FLAGS,
    "--problem-kind": "problem.kind", "--problem-seed": "problem.seed",
    "--sigma": "problem.sigma", "--sigma-h": "problem.sigma_h",
    "--alpha": "hyperparameters.alpha", "--tau": "hyperparameters.tau",
    "--gamma": "hyperparameters.gamma",
    "--rounds": "harness.rounds", "--runs": "harness.num_runs",
    "--cadence": "harness.cadence", "--target": "harness.target",
}
_ALGO_FLAGS = {"--algo": "algorithm.id", **_EXPERIMENT_FLAGS}

COMMANDS = {
    "spectra": Command(
        cmd_spectra, "spectral report of a combination matrix", "topology.seed",
        {**_GRAPH_FLAGS, "--rows": "topology.rows", "--cols": "topology.cols",
         "--p": "topology.p", "--lazy": "topology.lazy"}),
    "synth": Command(
        cmd_synth, "write a synthetic dataset as CSV", "problem.seed",
        {"--n-nodes": "problem.n_nodes", "--dim": "problem.dim",
         "--n-samples": "problem.n_samples", "--sigma-u": "problem.sigma_u",
         "--sigma-h": "problem.sigma_h"}),
    "run": Command(
        cmd_run, "run one experiment and write its trace", "harness.base_seed",
        _ALGO_FLAGS),
    "tune": Command(
        cmd_tune, "grid-search alpha to a target error", "harness.base_seed",
        _ALGO_FLAGS),
    "compare": Command(
        cmd_compare, "tuned head-to-head comparison table", "harness.base_seed",
        _EXPERIMENT_FLAGS),
}

_SWITCHES = {"--lazy"}  # flags that take no value and set their key to true


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ledsim")
    parser.add_argument("--seed", help="seed (overrides config): topology.seed "
                        "in spectra, problem.seed in synth, harness.base_seed "
                        "in run, tune and compare")
    parser.add_argument("--out", default="out.csv", help="output CSV path")
    parser.add_argument("--jobs", type=int, default=1,
                        help="run-level parallelism (same output for any value)")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, command in COMMANDS.items():
        sp = subparsers[name] = sub.add_parser(name, help=command.help)
        sp.add_argument("--config")
        for flag, key in command.flags.items():
            if flag in _SWITCHES:
                sp.add_argument(flag, dest=key, action="store_const", const="true")
            else:
                sp.add_argument(flag, dest=key)
    subparsers["tune"].add_argument("--grid-points", dest="grid_points", type=int)
    subparsers["compare"].add_argument("--algos", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = _merged(args)
        code = COMMANDS[args.command].func(args, cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # one config file may serve several subcommands: warn, do not fail
    for key in sorted(cfg.keys() - cfg.read.keys()):
        print(f"warning: {args.command} does not read {key!r}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
