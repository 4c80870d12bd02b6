"""Per-node objectives with exact and noisy gradient oracles.

Two problem families are provided: heterogeneous synthetic logistic
regression with a smooth nonconvex regularizer, and quadratics with a
closed-form minimizer used as a test bed for exact-convergence and
noise-floor experiments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream

# a recorded grad_norm_sq above this (or inf, or NaN) ends its run
DIVERGENCE_LIMIT = 1e12

# a scale's bound: set-up products of two scales and a size stay finite
SCALE_MAX = 1e100


def _scale(name: str, value) -> float:
    """value as a float, once it is in [0, SCALE_MAX]; NaN fails too."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    if value > SCALE_MAX:
        raise ValueError(f"{name} must be at most {SCALE_MAX:g}, got {value!r}")
    return float(value)


def _count(name: str, value):
    """value, once it is an int (a numpy one too, never a bool) >= 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return value


def softplus(t: np.ndarray) -> np.ndarray:
    """Numerically stable ln(1 + exp(t))."""
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def sigmoid(t: np.ndarray) -> np.ndarray:
    """1/(1 + exp(-t)), with exp taken of -|t| only, so it cannot overflow;
    a NaN keeps its sign bit, which -abs(t) would set."""
    pos = t >= 0
    e = np.exp(np.where(pos, -t, t))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class NodeDataset:
    """One node's training data: S feature rows and +-1 labels."""

    features: np.ndarray  # (S, m)
    labels: np.ndarray    # (S,) in {-1, +1}

    def __post_init__(self):
        if self.features.ndim != 2 or len(self.features) < 1:
            raise ValueError("features must be a nonempty S x m matrix")
        if not np.all(np.abs(self.labels) == 1):
            raise ValueError("labels must be exactly +-1")


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic heterogeneous logistic benchmark."""

    n_nodes: int = 15
    dim: int = 5
    n_samples: int = 1000
    reg: float = 0.01
    sigma_u: float = 6.0
    sigma_h: float = 2.0
    sigma: float = 1e-3
    feature_scale: float = 5.0

    def __post_init__(self):
        for name in ("n_nodes", "dim", "n_samples"):
            _count(name, getattr(self, name))
        for name in ("reg", "sigma_u", "sigma_h", "sigma", "feature_scale"):
            _scale(name, getattr(self, name))


class Problem:
    """Base class: N nodes sharing dimension m, plus a noisy-gradient oracle.

    grads, grads_at, sampled_grads and global_grad_norm_sq take leading
    batch axes, (..., N, m) node points or (..., m) shared points, and give
    each slice bitwise what it gives alone; so does the quadratic
    mean_value.  A family defines grads and lipschitz(), a bound on every
    node's gradient Lipschitz constant, which tuning needs: for its default
    grid and for safe_radius.  A family with a known f_star defines
    _mean_value, (1/N) sum_i f_i(x), which the harness needs for fgap.
    Every scale passes _scale, so set-up stays finite; an oracle may still
    overflow far from 0, and the harness reads that as divergence."""

    n_nodes: int
    dim: int
    sigma: float
    x_star: np.ndarray | None = None
    f_star: float | None = None

    def value(self, i: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, i: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grads(self, x_nodes: np.ndarray) -> np.ndarray:
        """Stacked per-node gradients at distinct points, (..., N, m) ->
        (..., N, m)."""
        raise NotImplementedError

    def grads_at(self, x: np.ndarray) -> np.ndarray:
        """All node gradients evaluated at the same point."""
        # a filled (..., N, m) array is cheaper to build than a broadcast view
        x_nodes = np.empty(x.shape[:-1] + (self.n_nodes, self.dim))
        x_nodes[...] = x[..., None, :]
        return self.grads(x_nodes)

    def mean_value(self, x: np.ndarray) -> float:
        """(1/N) sum_i f_i(x), from the family's _mean_value, so every call
        still passes through this method."""
        return self._mean_value(x)

    def sampled_grads(self, x_nodes: np.ndarray, stream: RngStream | None) -> np.ndarray:
        """grads plus iid N(0, sigma^2) noise: one (N, m) draw per call that
        every batch slice shares, or one per lane from a lane stream; with
        sigma == 0 it is grads(x_nodes) bit for bit."""
        g = self.grads(x_nodes)
        if self.sigma > 0:
            if stream is None:
                raise ValueError("sigma > 0 requires a random stream")
            g = g + stream.normal((self.n_nodes, self.dim), self.sigma)
        return g

    def global_grad_norm_sq(self, x_bar: np.ndarray) -> float:
        """||(1/N) sum_i grad f_i(x_bar)||^2, the error criterion: a numpy
        float, or one per batch slice."""
        # add.reduce is what mean and sum call, without their dispatch
        g = np.add.reduce(self.grads_at(x_bar), axis=-2) / self.n_nodes
        return np.add.reduce(g * g, axis=-1)

    @functools.cached_property
    def safe_radius(self) -> float:
        """The largest ||x_bar||_inf at which global_grad_norm_sq(x_bar), as
        computed, is at most DIVERGENCE_LIMIT, by ||grad f(x)|| <= ||grad
        f(0)|| + L sqrt(m) ||x||_inf with a 1e-9 slack on the square for
        rounding, not for node gradients near 1e22 that cancel; computed on
        first use.  -inf where the metric at 0 is past the limit or NaN, 0
        where L sqrt(m) is inf, and at most 1e99, below which grads is finite."""
        slope = self.lipschitz() * math.sqrt(self.dim)
        reach = (math.sqrt(DIVERGENCE_LIMIT / (1 + 1e-9))
                 - math.sqrt(self.global_grad_norm_sq(np.zeros(self.dim))))
        if not reach >= 0:   # NaN too
            return -math.inf
        return 1e99 if reach >= 1e99 * slope else reach / slope

    def heterogeneity_at(self, x: np.ndarray) -> float:
        """(1/N) sum_i ||grad f_i(x) - grad f(x)||^2."""
        g = self.grads_at(x)
        return float(np.mean(np.sum((g - g.mean(axis=0)) ** 2, axis=1)))

    def lipschitz(self) -> float:
        raise NotImplementedError

    def point_bytes(self) -> int:
        """Bytes of the largest temporary that grads builds per (N, m) point."""
        return 8 * self.n_nodes * self.dim


class LogisticProblem(Problem):
    """Regularized logistic regression; each node holds its own dataset.

    f_i(x) = (1/S) sum_s ln(1 + exp(-y_s h_s^T x)) + reg * sum_j x_j^2/(1+x_j^2)
    """

    def __init__(self, datasets: list, reg: float, sigma: float = 0.0):
        dims = {d.features.shape[1] for d in datasets}
        if len(dims) != 1:
            raise ValueError("all nodes must share the feature dimension")
        self.datasets = list(datasets)
        self.n_nodes = len(datasets)
        self.dim = dims.pop()
        self.reg = _scale("reg", reg)
        self.sigma = _scale("sigma", sigma)
        # Labels folded into transposed features for the vectorized
        # whole-network gradient: _zt[n] = (y_s h_s)^T, shape (N, m, S), so
        # x @ _zt[n] is the margin y_s h_s^T x = -t, where t is the argument
        # of the loss ln(1 + exp(t)).
        # It must be C-contiguous: both products in grads then run over
        # contiguous S (about 2x faster), and a pickled copy sent to a
        # worker process keeps the layout, so the sums round the same way.
        self._zt = np.empty((self.n_nodes, self.dim, len(datasets[0].labels)))
        for zt, d in zip(self._zt, datasets):
            np.multiply(d.features.T, d.labels, out=zt)
        if not np.isfinite(self._zt).all():
            raise ValueError("features must be finite")

    def value(self, i: int, x: np.ndarray) -> float:
        d = self.datasets[i]
        t = -d.labels * (d.features @ x)
        reg = self.reg * np.sum(x * x / (1.0 + x * x))
        return float(np.mean(softplus(t)) + reg)

    def grad(self, i: int, x: np.ndarray) -> np.ndarray:
        d = self.datasets[i]
        t = -d.labels * (d.features @ x)
        coeff = -d.labels * sigmoid(t)  # (S,)
        loss_grad = (coeff @ d.features) / len(d.labels)
        reg_grad = self.reg * 2.0 * x / (1.0 + x * x) ** 2
        return loss_grad + reg_grad

    def grads(self, x_nodes: np.ndarray) -> np.ndarray:
        # hot path: batched matmuls around sigma(t) = 1 / (1 + exp(-t)),
        # computed in place on -t.  Where exp(-t) overflows to inf, sigma(t)
        # is 1/inf = 0, its correct limit.  Agrees with grad() to rounding
        # (~1e-14), not bitwise.
        s = (x_nodes[..., None, :] @ self._zt)[..., 0, :]        # (..., N, S), -t
        with np.errstate(over="ignore"):
            np.exp(s, out=s)
        s += 1.0
        np.reciprocal(s, out=s)
        # _zt holds +y h, so the loss gradient is the negated product
        loss = (self._zt @ s[..., None])[..., 0] / -self._zt.shape[2]
        reg = self.reg * 2.0 * x_nodes / (1.0 + x_nodes * x_nodes) ** 2
        return loss + reg

    def point_bytes(self) -> int:
        # the (N, S) margins
        return 8 * self._zt.shape[0] * self._zt.shape[2]

    def lipschitz(self) -> float:
        """Smoothness bound: logistic term (1/4S) lam_max(H_i^T H_i), plus the
        regularizer whose second derivative is bounded by 2."""
        grams = np.stack([d.features.T @ d.features for d in self.datasets])
        worst = float(np.linalg.eigvalsh(grams)[:, -1].max())
        return worst / (4.0 * self._zt.shape[2]) + 2.0 * self.reg


def synth_logistic(cfg: SynthConfig, seed: int) -> LogisticProblem:
    """Draw the heterogeneous synthetic logistic problem.

    Each node gets a generating vector u_i = u0 + v_i with u0 ~ N(0, sigma_u^2 I)
    and v_i ~ N(0, sigma_h^2 I); features h ~ N(0, feature_scale^2 I); the label
    is +1 with the logistic probability 1/(1 + exp(-h^T u_i)).
    """
    root = RngStream(seed).child("synth")
    u0 = root.child("shared").normal(cfg.dim, cfg.sigma_u)
    datasets = []
    for i in range(cfg.n_nodes):
        node = root.child("node", i)
        u_i = u0 + node.child("shift").normal(cfg.dim, cfg.sigma_h)
        h = node.child("features").normal((cfg.n_samples, cfg.dim), cfg.feature_scale)
        z = node.child("labels").uniform(cfg.n_samples)
        y = np.where(z <= sigmoid(h @ u_i), 1, -1)
        datasets.append(NodeDataset(features=h, labels=y))
    return LogisticProblem(datasets, reg=cfg.reg, sigma=cfg.sigma)


class QuadraticProblem(Problem):
    """Per-node f_i(x) = 0.5 x^T A_i x - b_i^T x with node-dependent Hessians.

    Each A_i is symmetric PSD; the aggregate Hessian (1/N) sum A_i is positive
    definite with extreme eigenvalues stored as mu and lip.  The consensus
    minimizer (mean A)^{-1} (mean b) is stored in closed form.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, sigma: float = 0.0):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        # before any eigendecomposition; a NaN passes the symmetry test
        for name, value in (("a", a), ("b", b)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
        if a.ndim == 2:
            a = np.broadcast_to(a, (b.shape[0],) + a.shape).copy()
        if np.max(np.abs(a - np.transpose(a, (0, 2, 1)))) > 0:
            raise ValueError("every per-node Hessian must be symmetric")
        self.a = a
        self.b = b
        self.n_nodes, self.dim = b.shape
        self.sigma = _scale("sigma", sigma)
        self.a_bar = a.mean(axis=0)
        eigs = np.linalg.eigvalsh(self.a_bar)
        if eigs[0] <= 0:
            raise ValueError("aggregate Hessian must be positive definite")
        per_node = np.linalg.eigvalsh(a)
        if float(per_node[:, 0].min()) < -1e-10:
            raise ValueError("every per-node Hessian must be PSD")
        self._lipschitz = float(per_node[:, -1].max())
        self.mu = float(eigs[0])
        self.lip = float(eigs[-1])
        self.b_bar = b.mean(axis=0)
        self.x_star = np.linalg.solve(self.a_bar, self.b_bar)
        self.f_star = self._mean_value(self.x_star)

    def value(self, i: int, x: np.ndarray) -> float:
        return float(0.5 * x @ self.a[i] @ x - self.b[i] @ x)

    def grad(self, i: int, x: np.ndarray) -> np.ndarray:
        return self.a[i] @ x - self.b[i]

    def _mean_value(self, x: np.ndarray) -> float:
        # (1/N) sum_i f_i(x) = 0.5 x^T a_bar x - b_bar^T x, by a gemv and a
        # dot; each point, a lone one too, is stacked as a (1, m) row and an
        # (m, 1) column, which matmul takes to the same gemv and dot per
        # point, never a gemm (x @ b_bar would be a gemv)
        col = x[..., :, None]
        return ((0.5 * x[..., None, :] @ self.a_bar @ col)[..., 0, 0]
                - (self.b_bar @ col)[..., 0])

    def grads(self, x_nodes: np.ndarray) -> np.ndarray:
        return np.einsum("nij,...nj->...ni", self.a, x_nodes) - self.b

    def lipschitz(self) -> float:
        """The largest per-node Hessian eigenvalue, found by __init__."""
        return self._lipschitz


def quadratic_problem(n_nodes: int = 15, dim: int = 5, mu: float = 0.1,
                      lip: float = 1.0, heterogeneity: float = 1.0,
                      sigma: float = 0.0, *, seed: int) -> QuadraticProblem:
    """Random strongly convex quadratic suite with controlled heterogeneity.

    The aggregate Hessian gets eigenvalues spread over [mu, lip] exactly, in a
    random orthogonal basis.  Per-node Hessians deviate by centered symmetric
    perturbations scaled so every A_i stays PSD; with heterogeneity == 0 the
    nodes are identical.  b_i = b_bar + heterogeneity * d_i with centered d_i,
    so the gradient spread at the all-zeros point is set by the b spread alone.
    """
    _count("n_nodes", n_nodes)
    _count("dim", dim)
    if not 0 < mu <= lip < math.inf:
        raise ValueError(f"need 0 < mu <= lip < inf, got mu={mu!r}, lip={lip!r}")
    _scale("lip", lip)
    # a_bar may round indefinite near a 1e15 spread; lip / mu could overflow
    if lip > 1e12 * mu:
        raise ValueError(f"need lip <= 1e12 * mu, got mu={mu!r}, lip={lip!r}")
    _scale("heterogeneity", heterogeneity)
    rng = RngStream(seed).child("quadratic")
    gauss = rng.child("basis").normal((dim, dim))
    q, _ = np.linalg.qr(gauss)
    eigs = np.linspace(mu, lip, dim) if dim > 1 else np.array([mu])
    a_bar = (q * eigs) @ q.T
    a_bar = 0.5 * (a_bar + a_bar.T)  # kill asymmetric rounding

    a = a_bar   # QuadraticProblem gives every node a 2-D a
    if heterogeneity > 0 and n_nodes > 1:
        raw = rng.child("hessians").normal((n_nodes, dim, dim))
        sym = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
        sym -= sym.mean(axis=0)  # centered: aggregate Hessian stays a_bar
        worst = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
        if worst > 0:
            # cap the deviation so A_i = a_bar + E_i keeps min eigenvalue >= mu/10
            scale = min(0.5, 0.9 * mu / worst)
            a = a_bar + scale * sym

    b_bar = rng.child("center").normal(dim)
    d = rng.child("spread").normal((n_nodes, dim))
    d -= d.mean(axis=0)
    b = b_bar + heterogeneity * d
    return QuadraticProblem(a, b, sigma=sigma)
