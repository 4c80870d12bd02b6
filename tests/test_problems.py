"""Objectives and oracles against straight-loop and Monte-Carlo references."""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledsim import (ExperimentConfig, HyperParams, LogisticProblem,
                    NodeDataset, QuadraticProblem, RngStream, build_graph, cli,
                    harness, metropolis_weights, quadratic_problem,
                    synth_logistic)
from ledsim.harness import DIVERGENCE_LIMIT
from ledsim.problems import (SCALE_MAX, Problem, SynthConfig, sigmoid,
                             softplus)


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------

def test_softplus_matches_naive_in_safe_range():
    t = np.linspace(-30, 30, 101)
    assert np.allclose(softplus(t), np.log(1 + np.exp(t)), atol=1e-12)


def test_softplus_stable_at_extremes():
    assert softplus(np.array([1000.0]))[0] == 1000.0
    assert softplus(np.array([-1000.0]))[0] == 0.0
    assert np.all(np.isfinite(softplus(np.array([-1e8, 1e8]))))


def test_sigmoid_basics():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    t = np.linspace(-20, 20, 81)
    assert np.allclose(sigmoid(t) + sigmoid(-t), 1.0, atol=1e-12)
    assert np.all(np.isfinite(sigmoid(np.array([-1e4, 1e4]))))


def _sigmoid_mask(t):
    """Reference: the per-sign boolean-mask form the branch-free sigmoid
    replaced."""
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_sigmoid_bitwise_equals_mask_form():
    t = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 709.9, -709.9,
                         745.2, -745.2], np.linspace(-800.0, 800.0, 20001)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fast, ref = sigmoid(t), _sigmoid_mask(t)
    # compared as bit patterns, so the sign of -0.0 and of NaN counts too
    assert np.array_equal(_bits(fast), _bits(ref))
    assert np.array_equal(_bits(sigmoid(t[::-7])), _bits(_sigmoid_mask(t[::-7])))


# ---------------------------------------------------------------------------
# logistic values and gradients
# ---------------------------------------------------------------------------

def _naive_value(ds: NodeDataset, reg: float, x: np.ndarray) -> float:
    total = 0.0
    for h, y in zip(ds.features, ds.labels):
        total += math.log(1 + math.exp(-y * float(h @ x)))
    total /= len(ds.labels)
    for xj in x:
        total += reg * xj * xj / (1 + xj * xj)
    return total


def test_value_at_zero_is_ln2(small_logistic):
    for i in range(small_logistic.n_nodes):
        v = small_logistic.value(i, np.zeros(small_logistic.dim))
        assert v == pytest.approx(math.log(2.0), abs=1e-12)


def test_value_single_sample_closed_form():
    ds = NodeDataset(features=np.array([[1.0]]), labels=np.array([1]))
    p = LogisticProblem([ds], reg=1.0)
    assert p.value(0, np.array([1.0])) == pytest.approx(
        math.log(1 + math.exp(-1)) + 0.5, abs=1e-12)


def test_value_matches_straight_loop(small_logistic):
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=small_logistic.dim)
        i = int(rng.integers(small_logistic.n_nodes))
        naive = _naive_value(small_logistic.datasets[i], small_logistic.reg, x)
        assert small_logistic.value(i, x) == pytest.approx(naive, abs=1e-12)


def test_grad_at_zero_closed_form(small_logistic):
    for i in range(small_logistic.n_nodes):
        ds = small_logistic.datasets[i]
        expect = -(ds.labels[:, None] * ds.features).mean(axis=0) / 2.0
        got = small_logistic.grad(i, np.zeros(small_logistic.dim))
        assert np.allclose(got, expect, atol=1e-14)


def test_regularizer_derivative_closed_form():
    ds = NodeDataset(features=np.zeros((1, 1)), labels=np.array([1]))
    p = LogisticProblem([ds], reg=1.0)
    # the data term vanishes at h=0; only the smooth nonconvex penalty remains
    g = p.grad(0, np.array([1.0]))
    assert g[0] == pytest.approx(0.5, abs=1e-14)


def test_grad_finite_difference(small_logistic):
    rng = np.random.default_rng(3)
    eps = 1e-6
    for _ in range(20):
        x = rng.normal(size=small_logistic.dim)
        i = int(rng.integers(small_logistic.n_nodes))
        g = small_logistic.grad(i, x)
        fd = np.empty_like(g)
        for j in range(len(x)):
            e = np.zeros_like(x)
            e[j] = eps
            fd[j] = (small_logistic.value(i, x + e)
                     - small_logistic.value(i, x - e)) / (2 * eps)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_batched_grads_match_per_node(small_logistic):
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(small_logistic.n_nodes, small_logistic.dim))
    batched = small_logistic.grads(xs)
    loop = np.stack([small_logistic.grad(i, xs[i])
                     for i in range(small_logistic.n_nodes)])
    assert np.max(np.abs(batched - loop)) <= 1e-12


def _per_node_grads(problem, xs):
    return np.stack([problem.grad(i, xs[i]) for i in range(problem.n_nodes)])


@pytest.mark.parametrize("scale", [0.1, 1.0, 30.0])
def test_vectorized_logistic_grads_match_per_node_grad(scale):
    # scale 30 puts most margins deep in the sigmoid's saturated tails
    prob = synth_logistic(SynthConfig(n_nodes=4, dim=5, n_samples=200), seed=3)
    rng = np.random.default_rng(17)
    for _ in range(10):
        xs = scale * rng.normal(size=(prob.n_nodes, prob.dim))
        loop = _per_node_grads(prob, xs)
        err = np.max(np.abs(prob.grads(xs) - loop))
        assert err <= 1e-12 * np.max(np.abs(loop))
        # grads_at evaluates one shared point at every node
        shared = np.broadcast_to(xs[0], xs.shape)
        loop = _per_node_grads(prob, shared)
        err = np.max(np.abs(prob.grads_at(xs[0]) - loop))
        assert err <= 1e-12 * np.max(np.abs(loop))


def test_logistic_grads_saturated_margins_warn_nothing():
    # margins of +-1e4 overflow exp(-t) to inf on one side and underflow it
    # on the other; sigma(t) must come out as exactly 0 and 1, silently
    rows = np.array([[1e4, 0.0], [-1e4, 0.0], [0.0, 1.0], [1e4, 1.0]])
    datasets = [NodeDataset(features=rows * (k + 1), labels=np.array([1, -1, 1, -1]))
                for k in range(3)]
    prob = LogisticProblem(datasets, reg=0.01)
    xs = np.array([[1.0, 0.5], [-1.0, 0.5], [1.0, -2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = prob.grads(xs)
        shared = prob.grads_at(xs[0])
        loop = _per_node_grads(prob, xs)
        loop_shared = _per_node_grads(prob, np.broadcast_to(xs[0], xs.shape))
    assert np.all(np.isfinite(fast))
    assert np.max(np.abs(fast - loop)) <= 1e-12 * np.max(np.abs(loop))
    assert np.max(np.abs(shared - loop_shared)) <= 1e-12 * np.max(np.abs(loop_shared))


def test_lipschitz_bounds_observed_curvature(small_logistic):
    lip = small_logistic.lipschitz()
    assert np.isfinite(lip) and lip > 0
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, y = rng.normal(size=(2, small_logistic.dim))
        for i in range(small_logistic.n_nodes):
            lhs = np.linalg.norm(small_logistic.grad(i, x)
                                 - small_logistic.grad(i, y))
            assert lhs <= lip * np.linalg.norm(x - y) * (1 + 1e-9)


def test_logistic_L_is_derived_once_at_construction(tmp_path, monkeypatch):
    # counts eigendecompositions of (N, m, m) Gram stacks; a mixing matrix's
    # spectrum is an (n, n) call and does not count
    stacks = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 3:
            stacks.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    p = synth_logistic(SynthConfig(n_nodes=4, dim=3, n_samples=30), seed=2)
    assert stacks == [(4, 3, 3)]
    lip = p.lipschitz()
    assert harness.stability_alpha(p) == 1.0 / lip
    assert p.safe_radius > 0
    cfg = ExperimentConfig(
        algorithm="led", problem=p,
        mixing=metropolis_weights(build_graph("ring", 4)),
        hyper=HyperParams(alpha=0.1, tau=2), rounds=3, num_runs=1)
    assert len(harness.tune_to_target(cfg, 1e-4).points) == 20
    assert stacks == [(4, 3, 3)] and p.lipschitz() == lip
    # the CLI builds its problem once, and reads L from it for the default
    # grid, --grid-points' grid and the safe radius
    (tmp_path / "small.cfg").write_text("problem.dim = 3\n"
                                        "problem.n_samples = 30\n")
    for command in (["tune", "--algo", "led", "--grid-points", "3"],
                    ["compare", "--algos", "led,kgt"]):
        stacks.clear()
        assert cli.main(["--out", str(tmp_path / "out.csv"), *command,
                         "--config", str(tmp_path / "small.cfg"), "--graph",
                         "ring", "--n", "4", "--rounds", "3", "--runs", "1"]) == 0
        assert stacks == [(4, 3, 3)], command


def _lipschitz_loop(problem):
    """Reference: one eigvalsh per node, as before the batched call."""
    worst = 0.0
    for d in problem.datasets:
        gram = d.features.T @ d.features
        worst = max(worst, float(np.linalg.eigvalsh(gram)[-1]))
    return worst / (4.0 * len(problem.datasets[0].labels)) + 2.0 * problem.reg


def test_dataset_validation():
    with pytest.raises(ValueError):
        NodeDataset(features=np.zeros((2, 3)), labels=np.array([1, 2]))
    with pytest.raises(ValueError):
        LogisticProblem([NodeDataset(np.zeros((1, 2)), np.array([1])),
                         NodeDataset(np.zeros((1, 3)), np.array([1]))], reg=0.0)


# ---------------------------------------------------------------------------
# synthetic data generation
# ---------------------------------------------------------------------------

def test_synth_default_shapes():
    p = synth_logistic(SynthConfig(), seed=1)
    assert p.n_nodes == 15 and p.dim == 5
    for ds in p.datasets:
        assert ds.features.shape == (1000, 5)
        assert set(np.unique(ds.labels)) <= {-1, 1}


def test_synth_deterministic():
    a = synth_logistic(SynthConfig(n_nodes=4, n_samples=100), seed=3)
    b = synth_logistic(SynthConfig(n_nodes=4, n_samples=100), seed=3)
    for da, db in zip(a.datasets, b.datasets):
        assert np.array_equal(da.features, db.features)
        assert np.array_equal(da.labels, db.labels)
    c = synth_logistic(SynthConfig(n_nodes=4, n_samples=100), seed=4)
    assert not np.array_equal(a.datasets[0].labels, c.datasets[0].labels)


def _synth_loop(cfg, seed):
    """Reference: synth_logistic's per-node loop with a fresh Generator per
    node for the labels and the mask-form sigmoid, and the per-node _zt fill."""
    root = RngStream(seed).child("synth")
    u0 = root.child("shared").normal(cfg.dim, cfg.sigma_u)
    feats, labels = [], []
    for i in range(cfg.n_nodes):
        node = root.child("node", i)
        u_i = u0 + node.child("shift").normal(cfg.dim, cfg.sigma_h)
        h = node.child("features").normal((cfg.n_samples, cfg.dim), cfg.feature_scale)
        z = node.child("labels").generator().random(cfg.n_samples)
        feats.append(h)
        labels.append(np.where(z <= _sigmoid_mask(h @ u_i), 1, -1))
    zt = np.empty((cfg.n_nodes, cfg.dim, cfg.n_samples))
    for n, (h, y) in enumerate(zip(feats, labels)):
        zt[n] = h.T * y
    return feats, labels, zt


@pytest.mark.parametrize("cfg", [
    SynthConfig(), SynthConfig(sigma_h=0.1),
    SynthConfig(n_nodes=3, dim=4, n_samples=50, sigma=0.0),
    SynthConfig(n_nodes=1, dim=1, n_samples=1),
    SynthConfig(n_nodes=6, dim=9, n_samples=257, sigma_u=0.0, feature_scale=40.0),
])
def test_synth_and_lipschitz_bitwise_equal_per_node_loops(cfg):
    for seed in (0, 1, 2, 7, 2 ** 40 + 3):
        p = synth_logistic(cfg, seed)
        feats, labels, zt = _synth_loop(cfg, seed)
        assert len(p.datasets) == cfg.n_nodes
        for d, h, y in zip(p.datasets, feats, labels):
            assert np.array_equal(d.features, h)
            assert np.array_equal(d.labels, y) and d.labels.dtype == y.dtype
        assert p._zt.flags.c_contiguous
        assert np.array_equal(_bits(p._zt), _bits(zt))
        assert p.lipschitz() == _lipschitz_loop(p)


def test_synth_label_balance_with_zero_generator():
    # sigma_u = sigma_h = 0 forces every generating vector to zero, so labels
    # are fair coin flips
    cfg = SynthConfig(n_nodes=2, dim=5, n_samples=1000, sigma_u=0.0, sigma_h=0.0)
    p = synth_logistic(cfg, seed=2)
    for ds in p.datasets:
        assert np.mean(ds.labels == 1) == pytest.approx(0.5, abs=0.05)


def test_synth_labels_correlate_with_margin():
    # with a strong generating vector the labels should mostly agree with the
    # sign of the margin, confirming the logistic label rule is informative
    cfg = SynthConfig(n_nodes=1, dim=5, n_samples=1000, sigma_u=6.0, sigma_h=0.0)
    p = synth_logistic(cfg, seed=8)
    ds = p.datasets[0]
    # recover an informative direction via the mean of y*h (proportional to a
    # separating direction when one exists)
    direction = (ds.labels[:, None] * ds.features).mean(axis=0)
    agreement = np.mean(np.sign(ds.features @ direction) == ds.labels)
    assert agreement > 0.8


def test_synth_heterogeneity_grows_with_sigma_h():
    base = dict(n_nodes=8, dim=4, n_samples=400, sigma_u=3.0)
    lo = synth_logistic(SynthConfig(sigma_h=0.1, **base), seed=6)
    hi = synth_logistic(SynthConfig(sigma_h=5.0, **base), seed=6)
    x = np.zeros(4)
    assert hi.heterogeneity_at(x) > lo.heterogeneity_at(x)


# ---------------------------------------------------------------------------
# quadratic suite
# ---------------------------------------------------------------------------

def test_quadratic_identical_nodes_minimizer():
    b = np.tile(np.array([2.0, -1.0, 0.5]), (4, 1))
    p = QuadraticProblem(np.eye(3), b)
    assert np.allclose(p.x_star, b[0], atol=1e-14)
    assert p.mu == pytest.approx(1.0) and p.lip == pytest.approx(1.0)


def test_quadratic_two_node_symmetric_example():
    b = np.array([[1.0, 0.0], [-1.0, 0.0]])
    p = QuadraticProblem(np.eye(2), b)
    assert np.allclose(p.x_star, 0.0, atol=1e-15)
    assert p.heterogeneity_at(np.zeros(2)) == pytest.approx(1.0, abs=1e-14)


def test_quadratic_minimizer_matches_gd_oracle():
    p = quadratic_problem(6, 4, mu=0.3, lip=1.2, heterogeneity=2.0, seed=11)
    x = np.zeros(4)
    for _ in range(2000):  # long-run gradient descent on the average objective
        x = x - 1.0 / p.lip * p.grads_at(x).mean(axis=0)
    assert np.linalg.norm(x - p.x_star) <= 1e-10


def test_quadratic_spectrum_request():
    p = quadratic_problem(5, 6, mu=0.2, lip=1.5, heterogeneity=1.0, seed=3)
    eigs = np.linalg.eigvalsh(p.a_bar)
    assert eigs[0] == pytest.approx(0.2, abs=1e-12)
    assert eigs[-1] == pytest.approx(1.5, abs=1e-12)
    # per-node Hessians symmetric PSD, aggregate equals the stored mean
    for ai in p.a:
        assert np.array_equal(ai, ai.T)
        assert np.linalg.eigvalsh(ai)[0] >= -1e-10
    assert np.allclose(p.a.mean(axis=0), p.a_bar, atol=1e-13)


def test_quadratic_heterogeneity_zero_means_identical_nodes():
    p = quadratic_problem(4, 3, mu=0.5, lip=1.0, heterogeneity=0.0, seed=2)
    assert p.heterogeneity_at(np.zeros(3)) == 0.0
    for ai in p.a:
        assert np.array_equal(ai, p.a[0])


def test_quadratic_suite_defaults_and_keyword_seed():
    # the CLI takes its quadratic defaults from this signature
    p = quadratic_problem(seed=4)
    assert (p.n_nodes, p.dim, p.sigma) == (15, 5, 0.0)
    eigs = np.linalg.eigvalsh(p.a_bar)
    assert eigs[0] == pytest.approx(0.1, abs=1e-12)
    assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
    same = quadratic_problem(15, 5, 0.1, 1.0, 1.0, seed=4)
    assert np.array_equal(p.a, same.a) and np.array_equal(p.b, same.b)
    # the seed is keyword-only and has no default
    with pytest.raises(TypeError):
        quadratic_problem(15, 5, 0.1, 1.0, 1.0, 0.0, 4)
    with pytest.raises(TypeError):
        quadratic_problem()


def test_quadratic_infeasible_spectrum_rejected():
    with pytest.raises(ValueError):
        quadratic_problem(3, 2, mu=2.0, lip=1.0, heterogeneity=0.0, seed=0)
    with pytest.raises(ValueError, match="lip < inf"):
        quadratic_problem(3, 2, mu=0.5, lip=math.inf, heterogeneity=0.0, seed=0)
    with pytest.raises(ValueError):
        QuadraticProblem(np.array([[1.0, 0.5], [0.4, 1.0]]),
                         np.zeros((2, 2)))  # asymmetric Hessian


@pytest.mark.parametrize("build,message", [
    (lambda: NodeDataset(np.zeros(3), np.ones(3)), "nonempty S x m matrix"),
    (lambda: NodeDataset(np.zeros((0, 2)), np.ones(0)), "nonempty S x m matrix"),
    (lambda: QuadraticProblem(np.zeros((2, 2)), np.zeros((3, 2))),
     "aggregate Hessian must be positive definite"),
    (lambda: QuadraticProblem(np.array([np.diag([2.0, 1.0]), np.diag([-1.0, 1.0])]),
                              np.zeros((2, 2))),
     "every per-node Hessian must be PSD")],
    ids=["features_1d", "no_samples", "aggregate_singular", "node_indefinite"])
def test_malformed_data_or_hessians_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("field", ["a", "b"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quadratic_problem_rejects_non_finite_inputs(field, bad):
    # each used to build: a NaN passed the symmetry test and gave
    # lipschitz() = nan, and a NaN or inf in b gave a non-finite x_star
    a, b = np.array([np.eye(2), 2 * np.eye(2)]), np.ones((2, 2))
    if field == "a":
        a[1, 0, 1] = a[1, 1, 0] = bad
    else:
        b[1, 0] = bad
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        QuadraticProblem(a, b)


def test_quadratic_lipschitz_is_the_largest_node_eigenvalue(quad6):
    # found once, by the PSD check's eigendecomposition
    want = float(np.linalg.eigvalsh(quad6.a)[:, -1].max())
    assert quad6.lipschitz() == want
    assert QuadraticProblem(np.diag([3.0, 1.0]), np.zeros((2, 2))).lipschitz() == 3.0


def test_logistic_problem_rejects_a_reg_past_scale_max(small_logistic):
    # reg = 1e308 made lipschitz() inf, so tune failed with "math domain
    # error"; the largest accepted reg keeps lipschitz() finite
    assert math.isfinite(LogisticProblem(small_logistic.datasets,
                                         reg=SCALE_MAX).lipschitz())
    for reg in (np.nextafter(SCALE_MAX, math.inf), 1e308):
        with pytest.raises(ValueError, match=r"^reg must be at most 1e\+100, "):
            LogisticProblem(small_logistic.datasets, reg=reg)


_PAST_SCALE_MAX = float(np.nextafter(SCALE_MAX, math.inf))


@pytest.mark.parametrize("field", ["reg", "sigma_u", "sigma_h", "sigma",
                                   "feature_scale"])
def test_a_logistic_scale_up_to_scale_max_builds_without_overflow(field):
    # every set-up product of a scale stays finite: h u, H^T H, 2 reg, and
    # the metric at 0 that safe_radius takes
    cfg = SynthConfig(n_nodes=3, dim=2, n_samples=20, **{field: SCALE_MAX})
    problem = synth_logistic(cfg, seed=1)
    assert math.isfinite(problem.lipschitz())
    assert problem.safe_radius <= 1e99
    with pytest.raises(ValueError, match=f"^{field} must be at most 1e\\+100"):
        SynthConfig(**{field: _PAST_SCALE_MAX})


@pytest.mark.parametrize("field", ["sigma", "heterogeneity", "lip"])
def test_a_quadratic_scale_up_to_scale_max_builds_without_overflow(field):
    # lip = SCALE_MAX needs mu within the 1e12 spread
    base = dict(n_nodes=4, dim=3, mu=SCALE_MAX / 10, lip=SCALE_MAX, seed=1)
    problem = quadratic_problem(**{**base, field: SCALE_MAX})
    assert math.isfinite(problem.lipschitz()) and math.isfinite(problem.f_star)
    with pytest.raises(ValueError, match=f"^{field} must be at most 1e\\+100"):
        quadratic_problem(**{**base, field: _PAST_SCALE_MAX})


def test_a_quadratic_spread_up_to_1e12_builds_and_the_next_float_is_refused():
    # a lip / mu spread near 1e15 left the aggregate Hessian indefinite after
    # rounding, and set-up failed with a message that named no key
    mu = 0.1
    lip = 1e12 * mu
    for dim in (2, 3, 5, 10, 20, 50):
        for n_nodes in (1, 4, 15):
            for heterogeneity in (0.0, 1.0):
                for seed in range(1, 11):
                    problem = quadratic_problem(n_nodes, dim, mu=mu, lip=lip,
                                                heterogeneity=heterogeneity,
                                                seed=seed)
                    assert problem.mu > 0, (dim, n_nodes, heterogeneity, seed)
    for mu, lip in ((mu, np.nextafter(lip, math.inf)), (1e-320, 1.0),
                    (0.1, 1e17)):
        with pytest.raises(ValueError, match=r"^need lip <= 1e12 \* mu, got "
                                             r"mu=.*, lip="):
            quadratic_problem(15, 5, mu=mu, lip=lip, seed=1)


@pytest.mark.parametrize("bad", [-1.0, -1e-300, float("nan"), float("inf")])
def test_both_families_reject_a_bad_sigma(small_logistic, bad):
    # a negative or NaN sigma used to run on exact gradients, since
    # sampled_grads adds noise only where sigma > 0
    for build in (
            lambda: QuadraticProblem(np.eye(2), np.zeros((3, 2)), sigma=bad),
            lambda: quadratic_problem(3, 2, mu=0.5, lip=1.0, heterogeneity=1.0,
                                      seed=0, sigma=bad),
            lambda: LogisticProblem(small_logistic.datasets, reg=0.01,
                                    sigma=bad),
            lambda: SynthConfig(sigma=bad)):
        with pytest.raises(ValueError, match="^sigma must be finite and >= 0"):
            build()


@pytest.mark.parametrize("field,bad", [
    ("reg", -1.0), ("reg", float("nan")), ("reg", float("inf")),
    ("features", float("nan")), ("features", float("inf"))])
def test_logistic_problem_rejects_bad_data(small_logistic, field, bad):
    # a negative reg made lipschitz() negative, and a NaN feature made it
    # raise LinAlgError; safe_radius needs L >= the true smoothness
    datasets, reg = list(small_logistic.datasets), 0.01
    if field == "reg":
        reg = bad
    else:
        features = datasets[1].features.copy()
        features[2, 1] = bad
        datasets[1] = NodeDataset(features, datasets[1].labels)
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        LogisticProblem(datasets, reg=reg)


@pytest.mark.parametrize("field", ["reg", "sigma_u", "sigma_h",
                                   "feature_scale"])
@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_synth_config_rejects_bad_scales(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0"):
        SynthConfig(**{field: bad})
    SynthConfig(**{field: 0.0})


@pytest.mark.parametrize("field", ["n_nodes", "dim", "n_samples"])
def test_synth_config_rejects_empty_sizes(field):
    # dim = 0 used to build a problem with no coordinates and run it
    with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0"):
        SynthConfig(**{field: 0})


def test_quadratic_suite_rejects_bad_sizes_and_heterogeneity():
    # heterogeneity = nan used to build a NaN problem that diverged at once
    base = dict(n_nodes=3, dim=2, mu=0.5, lip=1.0, heterogeneity=1.0, seed=0)
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="^heterogeneity must be finite"):
            quadratic_problem(**{**base, "heterogeneity": bad})
    for key in ("n_nodes", "dim"):
        with pytest.raises(ValueError, match=f"^{key} must be >= 1, got 0$"):
            quadratic_problem(**{**base, key: 0})


# ---------------------------------------------------------------------------
# gradient oracles: exactness, unbiasedness, variance
# ---------------------------------------------------------------------------

def test_sampled_grads_sigma_zero_is_exact(quad6):
    x = np.ones((quad6.n_nodes, quad6.dim))
    g = quad6.sampled_grads(x, RngStream(0))
    assert np.array_equal(g, quad6.grads(x))


def test_sampled_grads_unbiased_and_correct_variance():
    p = quadratic_problem(2, 3, mu=0.5, lip=1.0, heterogeneity=0.0, seed=1,
                          sigma=0.1)
    x = np.array([[0.3, -0.7, 1.1], [-1.0, 0.2, 0.5]])
    exact = p.grads(x)
    n_draws = 100_000
    root = RngStream(123)
    draws = np.stack([p.sampled_grads(x, root.child("mc", k))
                      for k in range(n_draws)])
    mean_err = np.abs(draws.mean(axis=0) - exact)
    assert np.all(mean_err <= 3.0 * p.sigma / math.sqrt(n_draws))
    var = draws.var(axis=0)
    assert np.all(np.abs(var - p.sigma ** 2) <= 0.05 * p.sigma ** 2)


def test_sampled_grads_requires_stream_when_noisy(quad6_noisy):
    with pytest.raises(ValueError):
        quad6_noisy.sampled_grads(np.zeros((6, 4)), None)


# ---------------------------------------------------------------------------
# derived metrics
# ---------------------------------------------------------------------------

def test_global_grad_norm_sq_at_optimum(quad6):
    assert quad6.global_grad_norm_sq(quad6.x_star) <= 1e-24


def test_global_grad_norm_sq_single_node():
    p = QuadraticProblem(np.eye(2), np.array([[1.0, 2.0]]))
    x = np.array([0.0, 0.0])
    assert p.global_grad_norm_sq(x) == pytest.approx(
        float(np.sum(p.grad(0, x) ** 2)), abs=1e-15)


def test_global_grad_norm_sq_matches_loop(small_logistic):
    rng = np.random.default_rng(7)
    x = rng.normal(size=small_logistic.dim)
    acc = np.zeros(small_logistic.dim)
    for i in range(small_logistic.n_nodes):
        acc += small_logistic.grad(i, x)
    acc /= small_logistic.n_nodes
    assert small_logistic.global_grad_norm_sq(x) == pytest.approx(
        float(np.sum(acc ** 2)), abs=1e-12)


def test_heterogeneity_matches_loop(small_logistic):
    rng = np.random.default_rng(9)
    x = rng.normal(size=small_logistic.dim)
    gs = [small_logistic.grad(i, x) for i in range(small_logistic.n_nodes)]
    gbar = np.mean(gs, axis=0)
    expect = float(np.mean([np.sum((g - gbar) ** 2) for g in gs]))
    assert small_logistic.heterogeneity_at(x) == pytest.approx(expect, abs=1e-12)


def test_mean_value_and_fgap(quad6):
    assert quad6.f_star == pytest.approx(quad6.mean_value(quad6.x_star), abs=1e-12)
    assert quad6.mean_value(quad6.x_star + 0.5) > quad6.f_star


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), dim=st.integers(1, 6), batch=st.integers(1, 7),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_oracles_equal_slice_by_slice(n, dim, batch, seed):
    # leading batch axes: every slice bitwise as computed alone, with one
    # noise draw shared by the slices
    quad = quadratic_problem(n, dim, mu=0.2, lip=1.0, heterogeneity=1.0,
                             seed=seed, sigma=0.1)
    logistic = synth_logistic(SynthConfig(n_nodes=n, dim=dim, n_samples=30,
                                          sigma=0.1), seed=seed % 1000)
    points = RngStream(seed).child("points")
    xs = points.child("nodes").normal((batch, n, dim))
    xbars = points.child("shared").normal((batch, dim))
    noise = RngStream(seed).child("noise")
    for p in (quad, logistic):
        for batched, alone in (
                (p.grads(xs), [p.grads(x) for x in xs]),
                (p.sampled_grads(xs, noise), [p.sampled_grads(x, noise) for x in xs]),
                (p.grads_at(xbars), [p.grads_at(x) for x in xbars]),
                (p.global_grad_norm_sq(xbars),
                 [p.global_grad_norm_sq(x) for x in xbars])):
            assert batched.tobytes() == np.array(alone).tobytes()
    # the closed form of 1-D points, as written before batching
    alone = [float(0.5 * x @ quad.a_bar @ x - quad.b_bar @ x) for x in xbars]
    assert [quad.mean_value(x) for x in xbars] == alone
    assert quad.mean_value(xbars).tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("dim", [1, 3, 5, 10])
@pytest.mark.parametrize("lanes", [1, 2, 9, 10, 33])
def test_quadratic_mean_value_batch_bitwise_per_point(dim, lanes):
    # the stacked gemv and dots of a batch round as one point alone does,
    # at every lane count a run batch can have
    quad = quadratic_problem(6, dim, mu=0.2, lip=1.0, heterogeneity=1.0,
                             seed=dim)
    for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
        xbars = scale * RngStream(lanes).child("x", dim).normal((lanes, dim))
        alone = [float(0.5 * x @ quad.a_bar @ x - quad.b_bar @ x) for x in xbars]
        assert quad.mean_value(xbars).tobytes() == np.array(alone).tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), dim=st.integers(1, 5),
       mu=st.floats(0.01, 1.0), spread=st.floats(1.0, 100.0),
       heterogeneity=st.floats(0.0, 10.0), seed=st.integers(0, 2 ** 32 - 1),
       x_scale=st.floats(1e-3, 1e3))
def test_quadratic_mean_value_closed_form_matches_node_loop(
        n, dim, mu, spread, heterogeneity, seed, x_scale):
    p = quadratic_problem(n, dim, mu=mu, lip=mu * spread,
                          heterogeneity=heterogeneity, seed=seed)
    assert p.mean_value(p.x_star) == p.f_star
    x = x_scale * RngStream(seed).child("x").normal(dim)
    terms = [p.value(i, x) for i in range(n)]
    loop = sum(terms) / n
    # relative to the size of the summed terms, which may cancel
    size = sum(0.5 * abs(x @ p.a[i] @ x) + abs(p.b[i] @ x) for i in range(n)) / n
    assert abs(p.mean_value(x) - loop) <= 1e-12 * size


# ---------------------------------------------------------------------------
# the divergence certificate
# ---------------------------------------------------------------------------

class _LogCosh(Problem):
    """A family that defines only grads and lipschitz():
    f_i(x) = sum_j ln cosh(x_j - c_ij), whose gradient is 1-Lipschitz."""

    n_nodes, dim, sigma = 3, 4, 0.0
    centers = np.arange(12.0).reshape(3, 4) - 5.0

    def grads(self, x_nodes):
        return np.tanh(x_nodes - self.centers)

    def lipschitz(self):
        return 1.0


class _SteepLogCosh(_LogCosh):
    """_LogCosh with an infinite, so still valid, Lipschitz bound."""

    def lipschitz(self):
        return math.inf


def _radius_family(name, quad6, small_logistic):
    zero = [NodeDataset(np.zeros_like(d.features), d.labels)
            for d in small_logistic.datasets]
    return {"quadratic": lambda: quad6,
            "logistic": lambda: small_logistic,
            "quadratic, b = 0":
                lambda: QuadraticProblem(quad6.a, np.zeros_like(quad6.b)),
            # the metric at 0 is about 1e14, past the limit
            "quadratic, b * 1e7": lambda: QuadraticProblem(quad6.a, 1e7 * quad6.b),
            "one node": lambda: synth_logistic(SynthConfig(
                n_nodes=1, dim=3, n_samples=20, sigma=0.0), seed=3),
            "grads and lipschitz only": _LogCosh,
            "L = inf": _SteepLogCosh,
            "L = 0": lambda: LogisticProblem(zero, reg=0.0)}[name]()


@settings(max_examples=500, deadline=None)
@given(family=st.sampled_from(["quadratic", "logistic", "quadratic, b = 0",
                               "quadratic, b * 1e7", "one node",
                               "grads and lipschitz only", "L = inf", "L = 0"]),
       lanes=st.sampled_from([None, 1, 3]), exponent=st.floats(-3.0, 300.0),
       near=st.floats(-3.0, 0.5), scale=st.sampled_from(["radius", "exponent", 0]),
       special=st.sampled_from([None, math.inf, -math.inf, math.nan]),
       data=st.data())
def test_the_metric_is_finite_and_within_the_limit_inside_the_safe_radius(
        quad6, small_logistic, family, lanes, exponent, near, scale, special,
        data):
    # points of magnitude 10**near times the radius, or up to 1e300, or 0,
    # one entry maybe +-inf or NaN; b = 0 gives grad f(0) = 0, so the radius
    # is L's alone
    p = _radius_family(family, quad6, small_logistic)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radius = p.safe_radius
    shape = (p.dim,) if lanes is None else (lanes, p.dim)
    size = math.prod(shape)
    x = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=size,
                                    max_size=size))).reshape(shape)
    if scale == "radius" and 0 < radius < math.inf:
        x *= 10.0 ** near * radius
    elif scale == "exponent":
        x *= 10.0 ** exponent
    elif scale == 0:
        x[...] = 0.0
    if special is not None:
        x.flat[data.draw(st.integers(0, size - 1))] = special
    # the metric itself may overflow at such points
    with np.errstate(all="ignore"):
        g = np.asarray(p.global_grad_norm_sq(x))
        # NaN at a lane inside the radius, the metric outside it
        certified, finite = harness._certified(p, x)
    inside = np.broadcast_to(np.isnan(certified) & finite, g.shape)
    assert np.array_equal(inside, np.max(np.abs(x), axis=-1) <= radius)
    assert np.all(g[inside] <= DIVERGENCE_LIMIT)   # False for NaN too
    assert np.array_equal(np.broadcast_to(finite, g.shape), g <= DIVERGENCE_LIMIT)
    assert not np.any(inside & ~np.isfinite(x).all(axis=-1))
    # the metric at 0 alone decides whether 0 is inside
    at_zero = p.global_grad_norm_sq(np.zeros(p.dim))
    assert (0 <= radius) == (at_zero <= DIVERGENCE_LIMIT / (1 + 1e-9))
    assert radius == {"quadratic, b * 1e7": -math.inf, "L = inf": 0.0,
                      "L = 0": 1e99}.get(family, radius)


def test_safe_radius_is_computed_on_first_use(tmp_path, monkeypatch):
    # set-up runs no code of the radius; at the radius the rule's bound,
    # with its slack, reaches the limit, up to rounding
    p = synth_logistic(SynthConfig(sigma_h=0.1), seed=1)
    assert "safe_radius" not in vars(p)
    slope = p.lipschitz() * math.sqrt(p.dim)
    offset = math.sqrt(p.global_grad_norm_sq(np.zeros(p.dim)))
    assert (1 + 1e-9) * (offset + slope * p.safe_radius) ** 2 == pytest.approx(
        DIVERGENCE_LIMIT, rel=1e-15, abs=0)
    assert "safe_radius" in vars(p)
    # pickled with the problem, so a pool worker does not compute it again
    assert vars(pickle.loads(pickle.dumps(p)))["safe_radius"] == p.safe_radius
    # along the seed-1 benchmark tune (5 points, 1500 rounds, led with
    # tau = 1 on the complete graph) x_bar stays far inside it
    peaks = []
    certified = harness._certified

    def recorded(problem, xbar):
        peaks.append(np.abs(xbar).max() / problem.safe_radius)
        return certified(problem, xbar)

    monkeypatch.setattr(harness, "_certified", recorded)
    code = cli.main(["--out", str(tmp_path / "tune.csv"), "--seed", "1",
                     "tune", "--algo", "led", "--graph", "complete", "--n",
                     "15", "--sigma-h", "0.1", "--tau", "1", "--rounds",
                     "1500", "--grid-points", "5", "--runs", "1", "--target",
                     "1e-4", "--problem-seed", "1"])
    assert code == 0
    assert len(peaks) == 1500 and max(peaks) <= 1e-3
