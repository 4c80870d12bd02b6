"""Span tracing of ledsim's public entry points, installed from outside.

A Tracer patches the public functions and methods of each ledsim module
(topology, problems, rng, algorithms, harness, cli) with wrappers that record
one span (name, start, end, parent) per call.  Free functions are patched at
every name a caller looks them up by: ``cli`` imports ``tune_to_target`` by
name, so both ``ledsim.harness.tune_to_target`` and
``ledsim.cli.tune_to_target`` are wrapped.  Mixing products ``W @ X`` are
inline operators, so mixing matrices built while tracing carry their weights
as an ndarray subclass whose ``@`` records a ``topology.mix`` span.

Spans stay in memory; ``summarize`` turns one traced pass into per-layer
metrics.  A layer's self time is its span time minus the time of its child
spans.  ``uninstall`` restores every original attribute.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

import numpy as np
from ledsim import algorithms, cli, harness, problems, rng, topology

import kernels

LAYERS = ("topology", "problems", "rng", "algorithms", "harness", "cli")
# spans that record() in harness._single_run makes, directly under run_experiment
RECORD_CALLEES = ("algorithms.positions", "problems.global_grad_norm_sq",
                  "problems.mean_value")


def _count_grads(counts, args, result):
    problem, x_nodes = args[0], args[1]
    rows = int(x_nodes.shape[0])
    counts["problems.grads.rows"] += rows
    counts["problems.grads.computed_bytes"] += kernels.grads_cost(problem, rows)[1]


def _count_step(counts, args, result):
    counts["algorithms.vectors_per_link"] += int(result.vectors_per_link)


def _count_runs(counts, args, result):
    counts["harness.runs"] += int(args[0].num_runs)


def _count_tune(counts, args, result):
    counts["harness.tune.grid_points"] += len(result.points)
    counts["harness.tune.hits"] += sum(p.rounds_to_target is not None
                                       for p in result.points)


def entry_points():
    """(owner, attribute, span name, counter hook) for every wrapped call."""
    return [
        (topology, "build_graph", "topology.build_graph", None),
        (topology, "metropolis_weights", "topology.metropolis_weights", None),
        (topology, "complete_mixing", "topology.complete_mixing", None),
        (topology, "lazy_transform", "topology.lazy_transform", None),
        (topology.MixingMatrix, "from_dense", "topology.from_dense", None),
        (problems, "synth_logistic", "problems.synth_logistic", None),
        (problems, "quadratic_problem", "problems.quadratic_problem", None),
        (cli, "synth_logistic", "problems.synth_logistic", None),
        (cli, "quadratic_problem", "problems.quadratic_problem", None),
        (problems.LogisticProblem, "grads", "problems.grads", _count_grads),
        (problems.QuadraticProblem, "grads", "problems.grads", _count_grads),
        (problems.LogisticProblem, "lipschitz", "problems.lipschitz", None),
        (problems.QuadraticProblem, "lipschitz", "problems.lipschitz", None),
        (problems.Problem, "sampled_grads", "problems.sampled_grads", None),
        (problems.Problem, "grads_at", "problems.grads_at", None),
        (problems.Problem, "global_grad_norm_sq",
         "problems.global_grad_norm_sq", None),
        (problems.Problem, "mean_value", "problems.mean_value", None),
        (rng.RngStream, "child", "rng.child", None),
        (rng.RngStream, "generator", "rng.generator", None),
        (rng.RngStream, "normal", "rng.normal", None),
        (rng.RngStream, "uniform", "rng.uniform", None),
        (algorithms.Driver, "init", "algorithms.init", None),
        (algorithms.Driver, "step", "algorithms.step", _count_step),
        (algorithms.Driver, "positions", "algorithms.positions", None),
        (harness, "run_experiment", "harness.run_experiment", _count_runs),
        (harness, "tune_to_target", "harness.tune_to_target", _count_tune),
        (harness, "compare", "harness.compare", None),
        (harness, "noise_floor", "harness.noise_floor", None),
        (harness, "default_alpha_grid", "harness.default_alpha_grid", None),
        (cli, "run_experiment", "harness.run_experiment", _count_runs),
        (cli, "tune_to_target", "harness.tune_to_target", _count_tune),
        (cli, "compare", "harness.compare", None),
        (cli, "default_alpha_grid", "harness.default_alpha_grid", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Records spans of wrapped calls while installed."""

    def __init__(self):
        self.spans = []     # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._saved = []
        self.mix_operand = self._mix_operand_type()

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def call(self, name, fn, args, kwargs, hook=None):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent)
        if hook is not None:
            hook(self.counts, args, result)
        return result

    def _mix_operand_type(self):
        tracer = self

        def matmul(w, x):
            return tracer.call("topology.mix", np.matmul,
                               (w.view(np.ndarray), x), {})

        return type("MixOperand", (np.ndarray,), {"__matmul__": matmul})

    def _wrap(self, fn, name, hook):
        tracer = self
        mixing_result = name.startswith("topology.") and name != "topology.build_graph"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs, hook)
            if mixing_result:
                # every W built while tracing counts its products W @ X
                object.__setattr__(result, "w", result.w.view(tracer.mix_operand))
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in entry_points():
            static = inspect.getattr_static(owner, attr)
            if isinstance(static, classmethod):
                patched = classmethod(self._wrap(static.__func__, name, hook))
            else:
                patched = self._wrap(static, name, hook)
            self._saved.append((owner, attr, static))
            setattr(owner, attr, patched)
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, static = self._saved.pop()
            setattr(owner, attr, static)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _durations(spans):
    names = np.array([s[0] for s in spans], dtype=object)
    start = np.array([s[1] for s in spans])
    end = np.array([s[2] for s in spans])
    parent = np.array([s[3] for s in spans], dtype=np.int64)
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(spans))
    return names, parent, dur, dur - child


def _under(names, parent, ancestor):
    """Mask of spans that have a span named `ancestor` on their parent chain."""
    mask = names == ancestor
    chain = parent.copy()
    while np.any(chain >= 0):
        live = chain >= 0
        mask[live] |= names[chain[live]] == ancestor
        chain[live] = parent[chain[live]]
    return mask


def _us(values, q):
    return float(np.percentile(values, q) * 1e6) if len(values) else 0.0


def layer_self_times(spans):
    """{layer}.self_s for every layer: summed self time of its spans."""
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    if spans:
        names, _, _, self_t = _durations(spans)
        for name, t in zip(names, self_t):
            out[f"{name.split('.', 1)[0]}.self_s"] += float(t)
    return out


def summarize(spans, counts):
    """Per-layer metrics of one traced pass; BENCHMARK.json gives their units."""
    names, parent, dur, self_t = _durations(spans)
    parent_name = np.where(parent >= 0, names[np.maximum(parent, 0)], "")

    def sel(name):
        return names == name

    grads = sel("problems.grads")
    grads_time = float(dur[grads].sum())
    compare_time = float(dur[sel("harness.compare")].sum())
    rerun = sel("harness.run_experiment") & (parent_name == "harness.compare")
    record = np.isin(names, RECORD_CALLEES) & (parent_name == "harness.run_experiment")
    draws = int(sel("rng.normal").sum() + sel("rng.uniform").sum())
    grid_points = counts["harness.tune.grid_points"]

    m = layer_self_times(spans)
    m.update({
        "problems.grads.calls": int(grads.sum()),
        "problems.grads.rows": counts["problems.grads.rows"],
        "problems.grads.self_s": float(self_t[grads].sum()),
        "problems.grads.us_p50": _us(dur[grads], 50),
        "problems.grads.us_p99": _us(dur[grads], 99),
        "problems.grads.computed_bytes": counts["problems.grads.computed_bytes"],
        "problems.grads.computed_gbps": (counts["problems.grads.computed_bytes"]
                                         / grads_time / 1e9 if grads_time else 0.0),
        "problems.metric_grads.self_s": float(
            self_t[grads & _under(names, parent, "problems.global_grad_norm_sq")].sum()),
        "problems.mean_value.calls": int(sel("problems.mean_value").sum()),
        "problems.mean_value.self_s": float(self_t[sel("problems.mean_value")].sum()),
        "rng.generator.calls": int(sel("rng.generator").sum()),
        "rng.generator.self_s": float(self_t[sel("rng.generator")].sum()),
        "rng.draws": draws,
        "rng.normal.us_p50": _us(dur[sel("rng.normal")], 50),
        "algorithms.step.calls": int(sel("algorithms.step").sum()),
        "algorithms.step.self_s": float(self_t[sel("algorithms.step")].sum()),
        "algorithms.step.us_p50": _us(dur[sel("algorithms.step")], 50),
        "algorithms.vectors_per_link": counts["algorithms.vectors_per_link"],
        "topology.mix.products": int(sel("topology.mix").sum()),
        "harness.runs": counts["harness.runs"],
        "harness.record.calls": int((record & sel("problems.global_grad_norm_sq")).sum()),
        "harness.record.s": float(dur[record].sum()),
        "harness.tune.grid_points": grid_points,
        "harness.tune.hit_ratio": (counts["harness.tune.hits"] / grid_points
                                   if grid_points else 0.0),
        "harness.compare.rerun_s": float(dur[rerun].sum()),
        "harness.compare.rerun_share": (float(dur[rerun].sum()) / compare_time
                                        if compare_time else 0.0),
        "cli.main.self_s": float(self_t[sel("cli.main")].sum()),
        "trace.spans": len(spans),
    })
    return m


def closed_form_check(seed):
    """Traced counters of a pinned led run against their closed forms.

    led with tau local steps over R rounds and `runs` runs evaluates
    N*tau*R gradient rows for the trajectory plus N rows per recorded round,
    draws one noise block per local step, mixes once at init and once per
    round, and sends one vector per link per round.  Returns a list of errors.
    """
    n, tau, rounds, runs, cadence = 4, 3, 20, 2, 5
    recorded = 1 + rounds // cadence
    with Tracer() as tracer:
        prob = problems.quadratic_problem(n, 3, mu=0.5, lip=1.0, heterogeneity=1.0,
                                          seed=seed, sigma=1e-2)
        cfg = harness.ExperimentConfig(
            algorithm="led", problem=prob, mixing=topology.complete_mixing(n),
            hyper=algorithms.HyperParams(alpha=0.1, tau=tau), rounds=rounds,
            num_runs=runs, base_seed=seed, cadence=cadence)
        tracer.reset()
        trace = harness.run_experiment(cfg)
    m = summarize(tracer.spans, tracer.counts)
    expected = {
        "problems.grads.rows": runs * (n * tau * rounds + n * recorded),
        "rng.draws": runs * tau * rounds,
        "algorithms.step.calls": runs * rounds,
        "algorithms.vectors_per_link": runs * rounds,
        "topology.mix.products": runs * (rounds + 1),
        "harness.record.calls": runs * recorded,
        "problems.mean_value.calls": runs * recorded,
        "harness.runs": runs,
    }
    errors = [f"closed form: {key} = {m[key]}, expected {want}"
              for key, want in expected.items() if m[key] != want]
    if trace.diverged:
        errors.append("closed form: pinned led run diverged")
    return errors


# counts that must repeat exactly from pass to pass
EXACT_COUNTS = ("problems.grads.calls", "problems.grads.rows",
                "problems.grads.computed_bytes", "rng.draws",
                "rng.generator.calls", "algorithms.step.calls",
                "algorithms.vectors_per_link", "topology.mix.products",
                "harness.runs", "harness.record.calls",
                "problems.mean_value.calls", "harness.tune.grid_points",
                "trace.spans")
