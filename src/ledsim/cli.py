"""Command-line driver: spectra | synth | run | tune | compare.

Every flag has a config-file equivalent; flags override files, and the
effective configuration is echoed into CSV outputs as '#' comment lines.
Exit codes: 0 success, 1 usage/config error, 2 divergence-flagged completion.
"""

from __future__ import annotations

import argparse
import csv
import sys

from . import topology as topo
from .algorithms import HyperParams
from .harness import (ExperimentConfig, comparison_csv, compare,
                      default_alpha_grid, run_experiment, tune_to_target)
from .problems import SynthConfig, quadratic_problem, synth_logistic


class ConfigError(Exception):
    pass


# config keys mirror the dataclass field names for greppability
KNOWN_KEYS = {
    "topology.graph", "topology.n", "topology.rows", "topology.cols",
    "topology.p", "topology.seed", "topology.weights", "topology.lazy",
    "problem.kind", "problem.n_nodes", "problem.dim", "problem.n_samples",
    "problem.reg", "problem.sigma_u", "problem.sigma_h", "problem.sigma",
    "problem.feature_scale", "problem.mu", "problem.lip",
    "problem.heterogeneity", "problem.seed",
    "algorithm.id",
    "hyperparameters.alpha", "hyperparameters.beta", "hyperparameters.gamma",
    "hyperparameters.tau", "hyperparameters.p", "hyperparameters.zeta",
    "hyperparameters.eta_pd",
    "harness.rounds", "harness.num_runs", "harness.base_seed",
    "harness.cadence", "harness.target",
}


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


def _merged(args, extra_flag_map: dict) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key, attr in extra_flag_map.items():
        val = getattr(args, attr, None)
        if val is not None:
            cfg[key] = str(val)
    return cfg


def _get(cfg: dict, key: str, cast, default=...):
    if key not in cfg:
        if default is ...:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = cfg[key]
    try:
        if cast is bool:
            return raw.lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def build_mixing(cfg: dict) -> topo.MixingMatrix:
    kind = _get(cfg, "topology.graph", str)
    n = _get(cfg, "topology.n", int)
    g = topo.build_graph(
        kind, n,
        rows=_get(cfg, "topology.rows", int, 0) or None,
        cols=_get(cfg, "topology.cols", int, 0) or None,
        p=_get(cfg, "topology.p", float, None),
        seed=_get(cfg, "topology.seed", int, 0))
    weights = _get(cfg, "topology.weights", str, "metropolis")
    if weights != "metropolis":
        raise ConfigError(f"unknown weight rule {weights!r}")
    w = topo.metropolis_weights(g)
    if _get(cfg, "topology.lazy", bool, False):
        w = topo.lazy_transform(w)
    return w


def build_problem(cfg: dict):
    kind = _get(cfg, "problem.kind", str, "logistic")
    seed = _get(cfg, "problem.seed", int, 1)
    if kind == "logistic":
        sc = SynthConfig(
            n_nodes=_get(cfg, "problem.n_nodes", int, 15),
            dim=_get(cfg, "problem.dim", int, 5),
            n_samples=_get(cfg, "problem.n_samples", int, 1000),
            reg=_get(cfg, "problem.reg", float, 0.01),
            sigma_u=_get(cfg, "problem.sigma_u", float, 6.0),
            sigma_h=_get(cfg, "problem.sigma_h", float, 2.0),
            sigma=_get(cfg, "problem.sigma", float, 1e-3),
            feature_scale=_get(cfg, "problem.feature_scale", float, 5.0))
        return synth_logistic(sc, seed)
    if kind == "quadratic":
        return quadratic_problem(
            n_nodes=_get(cfg, "problem.n_nodes", int, 15),
            dim=_get(cfg, "problem.dim", int, 5),
            mu=_get(cfg, "problem.mu", float, 0.1),
            lip=_get(cfg, "problem.lip", float, 1.0),
            heterogeneity=_get(cfg, "problem.heterogeneity", float, 1.0),
            seed=seed,
            sigma=_get(cfg, "problem.sigma", float, 0.0))
    raise ConfigError(f"unknown problem kind {kind!r}")


def build_hyper(cfg: dict) -> HyperParams:
    return HyperParams(
        alpha=_get(cfg, "hyperparameters.alpha", float, 0.1),
        beta=_get(cfg, "hyperparameters.beta", float, None),
        gamma=_get(cfg, "hyperparameters.gamma", float, 1.0),
        tau=_get(cfg, "hyperparameters.tau", int, 1),
        p=_get(cfg, "hyperparameters.p", float, 1.0),
        zeta=_get(cfg, "hyperparameters.zeta", float, None),
        eta_pd=_get(cfg, "hyperparameters.eta_pd", float, 1.0))


def build_experiment(cfg: dict, algo: str) -> ExperimentConfig:
    if "problem.n_nodes" not in cfg and "topology.n" in cfg:
        cfg = dict(cfg, **{"problem.n_nodes": cfg["topology.n"]})
    problem = build_problem(cfg)
    mixing = build_mixing(cfg)
    if problem.n_nodes != mixing.n:
        raise ConfigError("problem.n_nodes must match topology.n")
    return ExperimentConfig(
        algorithm=algo, problem=problem, mixing=mixing,
        hyper=build_hyper(cfg),
        rounds=_get(cfg, "harness.rounds", int, 200),
        num_runs=_get(cfg, "harness.num_runs", int, 100),
        base_seed=_get(cfg, "harness.base_seed", int, 0),
        cadence=_get(cfg, "harness.cadence", int, 1))


def _echo_lines(cfg: dict) -> list:
    return [f"{key} = {cfg[key]}" for key in sorted(cfg)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectra(args) -> int:
    cfg = _merged(args, {"topology.graph": "graph", "topology.n": "n",
                         "topology.weights": "weights", "topology.rows": "rows",
                         "topology.cols": "cols", "topology.p": "p",
                         "topology.seed": "seed"})
    if args.lazy:
        cfg["topology.lazy"] = "true"
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


def cmd_synth(args) -> int:
    cfg = _merged(args, {"problem.n_nodes": "n_nodes", "problem.dim": "dim",
                         "problem.n_samples": "n_samples",
                         "problem.sigma_u": "sigma_u",
                         "problem.sigma_h": "sigma_h",
                         "problem.seed": "seed"})
    cfg.setdefault("problem.kind", "logistic")
    problem = build_problem(cfg)
    with open(args.out, "w", newline="") as fh:
        for line in _echo_lines(cfg):
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        m = problem.dim
        writer.writerow(["node", "row"] + [f"f{j}" for j in range(m)] + ["label"])
        for i, ds in enumerate(problem.datasets):
            for s in range(len(ds.labels)):
                writer.writerow([i, s] + [repr(float(v)) for v in ds.features[s]]
                                + [int(ds.labels[s])])
    print(f"wrote {args.out}")
    return 0


_RUN_FLAGS = {
    "algorithm.id": "algo", "topology.graph": "graph", "topology.n": "n",
    "problem.kind": "problem_kind", "problem.sigma": "sigma",
    "problem.seed": "problem_seed",
    "problem.sigma_h": "sigma_h",
    "hyperparameters.alpha": "alpha", "hyperparameters.tau": "tau",
    "hyperparameters.gamma": "gamma",
    "harness.rounds": "rounds", "harness.num_runs": "runs",
    "harness.base_seed": "seed", "harness.cadence": "cadence",
    "harness.target": "target",
}


def cmd_run(args) -> int:
    cfg = _merged(args, _RUN_FLAGS)
    algo = _get(cfg, "algorithm.id", str)
    experiment = build_experiment(cfg, algo)
    trace = run_experiment(experiment, jobs=args.jobs)
    trace.write_csv(args.out, header_comments=_echo_lines(cfg))
    final = len(trace.rounds) - 1
    print(f"rounds={int(trace.rounds[final])}")
    print(f"grad_norm_sq={float(trace.grad_norm_sq[final])!r}")
    print(f"consensus_err={float(trace.consensus_err[final])!r}")
    print(f"vectors_per_link={int(trace.vectors_per_link[final])}")
    if trace.diverged:
        print("diverged=true")
        return 2
    return 0


def cmd_tune(args) -> int:
    cfg = _merged(args, _RUN_FLAGS)
    algo = _get(cfg, "algorithm.id", str)
    experiment = build_experiment(cfg, algo)
    target = _get(cfg, "harness.target", float, 1e-4)
    grid = None
    if args.grid_points:
        grid = default_alpha_grid(1.0 / experiment.problem.lipschitz(),
                                  points=args.grid_points)
    result = tune_to_target(experiment, target, alphas=grid, jobs=args.jobs)
    with open(args.out, "w", newline="") as fh:
        for line in _echo_lines(cfg):
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["alpha", "rounds_to_target", "diverged"])
        for point in result.points:
            writer.writerow([repr(point.alpha),
                             "" if point.rounds_to_target is None
                             else point.rounds_to_target,
                             str(point.diverged).lower()])
    if result.best is not None:
        print(f"best_alpha={result.best.alpha!r}")
        print(f"best_rounds={result.best_rounds()}")
    else:
        print("best_alpha=not_achieved")
    return 0


def cmd_compare(args) -> int:
    cfg = _merged(args, {k: v for k, v in _RUN_FLAGS.items()
                         if k != "algorithm.id"})
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise ConfigError("compare needs a nonempty --algos list")
    target = _get(cfg, "harness.target", float, 1e-4)
    cfgs = [build_experiment(cfg, algo) for algo in algos]
    rows = compare(cfgs, target, jobs=args.jobs)
    with open(args.out, "w", newline="") as fh:
        for line in _echo_lines(cfg):
            fh.write(f"# {line}\n")
        fh.write(comparison_csv(rows))
    for row in rows:
        print(f"{row.algorithm}: rounds={row.rounds_to_target} "
              f"vectors={row.vectors_to_target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ledsim")
    parser.add_argument("--seed", type=int, default=None,
                        help="base seed (overrides config)")
    parser.add_argument("--out", default="out.csv", help="output CSV path")
    parser.add_argument("--jobs", type=int, default=1,
                        help="run-level parallelism (same output for any value)")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectra", help="spectral report of a combination matrix")
    sp.add_argument("--config")
    sp.add_argument("--graph", default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--weights", default=None)
    sp.add_argument("--rows", type=int, default=None)
    sp.add_argument("--cols", type=int, default=None)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--lazy", action="store_true")
    sp.set_defaults(func=cmd_spectra)

    sy = sub.add_parser("synth", help="write a synthetic dataset as CSV")
    sy.add_argument("--config")
    sy.add_argument("--n-nodes", dest="n_nodes", type=int, default=None)
    sy.add_argument("--dim", type=int, default=None)
    sy.add_argument("--n-samples", dest="n_samples", type=int, default=None)
    sy.add_argument("--sigma-u", dest="sigma_u", type=float, default=None)
    sy.add_argument("--sigma-h", dest="sigma_h", type=float, default=None)
    sy.set_defaults(func=cmd_synth)

    def add_run_flags(p):
        p.add_argument("--config")
        p.add_argument("--graph", default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--problem-kind", dest="problem_kind", default=None)
        p.add_argument("--problem-seed", dest="problem_seed", type=int, default=None)
        p.add_argument("--sigma", type=float, default=None)
        p.add_argument("--sigma-h", dest="sigma_h", type=float, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--tau", type=int, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--rounds", type=int, default=None)
        p.add_argument("--runs", type=int, default=None)
        p.add_argument("--cadence", type=int, default=None)
        p.add_argument("--target", type=float, default=None)

    rn = sub.add_parser("run", help="run one experiment and write its trace")
    rn.add_argument("--algo", default=None)
    add_run_flags(rn)
    rn.set_defaults(func=cmd_run)

    tn = sub.add_parser("tune", help="grid-search alpha to a target error")
    tn.add_argument("--algo", default=None)
    tn.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    add_run_flags(tn)
    tn.set_defaults(func=cmd_tune)

    cp = sub.add_parser("compare", help="tuned head-to-head comparison table")
    cp.add_argument("--algos", required=True)
    add_run_flags(cp)
    cp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
