"""Per-round state transitions for the locally updated diffusion family.

Every method is a pure function from (state, problem, mixing, hyperparameters,
stream) to a RoundOutput.  States are row-major (N, m) arrays; mixing is a
single dense matrix product W @ X.  Stochastic gradients are drawn from
path-addressed streams so two methods fed the same stream see the same noise,
which is what the equivalence tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import Problem
from .rng import RngStream
from .topology import MixingMatrix, complete_mixing


@dataclass(frozen=True)
class HyperParams:
    """Stepsizes and schedule knobs shared across the algorithm family.

    beta defaults to 1/tau when left unset.  p is the communication
    probability of the probabilistic-skipping method; zeta its dual stepsize,
    defaulting to p/alpha (mixing weight alpha*zeta/p = 1);
    eta_pd the relaxation of the primal-dual single-step method; gamma the
    server/global stepsize of the server-workers variants.
    """

    alpha: float = 0.1
    beta: Optional[float] = None
    gamma: float = 1.0
    tau: int = 1
    p: float = 1.0
    zeta: Optional[float] = None
    eta_pd: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0 or self.gamma <= 0:
            raise ValueError("stepsizes must be positive")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if not 0 < self.p <= 1:
            raise ValueError("p must be in (0, 1]")

    @property
    def beta_eff(self) -> float:
        return 1.0 / self.tau if self.beta is None else self.beta

    @property
    def zeta_eff(self) -> float:
        return self.p / self.alpha if self.zeta is None else self.zeta


@dataclass(frozen=True)
class RoundOutput:
    """Result of one communication round.

    grad_ledger holds the network-mean sampled gradient of each local step,
    shape (tau, m); it lets tests replay the centroid recursion
    x_bar' = x_bar - alpha * sum_t mean_i grad_i(phi_t).
    """

    state: object
    grad_ledger: Optional[np.ndarray]
    vectors_per_link: int


def default_stepsize(lip: float, tau: int, rounds: int, n_nodes: int) -> float:
    """Practical default alpha = 1 / (L + sqrt(tau R / N))."""
    return 1.0 / (lip + np.sqrt(tau * rounds / n_nodes))


def consensus_sqrt(w: MixingMatrix) -> np.ndarray:
    """Symmetric square root of I - W, clamping eigenvalues below 1e-12 to 0.

    The consensus eigenvalue of I - W is analytically zero; the clamp removes
    the eigensolver's negative rounding noise before the square root.
    """
    b = np.eye(w.n) - w.w
    eigs, q = np.linalg.eigh(b)
    eigs = np.where(eigs < 1e-12, 0.0, eigs)
    return (q * np.sqrt(eigs)) @ q.T


# ---------------------------------------------------------------------------
# Locally updated exact-diffusion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LedState:
    x: np.ndarray  # (N, m) primal estimates
    y: np.ndarray  # (N, m) dual estimates, columns sum to ~0
    r: int = 0


def led_init(x0: np.ndarray, w: MixingMatrix, mode: str = "dual_from_mixing") -> LedState:
    """Initialize the dual as (I - W) x0, or as zero."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape[0] != w.n:
        raise ValueError("x0 row count must match the mixing matrix")
    if mode == "dual_from_mixing":
        y0 = x0 - w.w @ x0
    elif mode == "zero":
        y0 = np.zeros_like(x0)
    else:
        raise ValueError(f"unknown init mode {mode!r}")
    return LedState(x=x0, y=y0, r=0)


def _local_pass(problem: Problem, x: np.ndarray, pull: np.ndarray, alpha: float,
                tau: int, stream: Optional[RngStream]):
    """tau corrected gradient steps: phi <- phi - alpha*grad - pull.

    Returns the final iterate and the (tau, m) ledger of network-mean sampled
    gradients.  pull is the constant per-step correction term.
    """
    phi = x.copy()
    ledger = np.empty((tau, problem.dim))
    for t in range(tau):
        g = problem.sampled_grads(
            phi, stream.child("grad_noise", t) if stream is not None else None)
        ledger[t] = g.mean(axis=0)
        phi = phi - alpha * g - pull
    return phi, ledger


def led_round(state: LedState, problem: Problem, w: MixingMatrix,
              h: HyperParams, stream: Optional[RngStream] = None) -> RoundOutput:
    """One round: tau corrected local steps, one diffusion, one dual update."""
    phi, ledger = _local_pass(problem, state.x, h.beta_eff * state.y,
                              h.alpha, h.tau, stream)
    x_new = w.w @ phi
    y_new = state.y + phi - x_new
    return RoundOutput(LedState(x_new, y_new, state.r + 1), ledger, 1)


def led1_step(state: LedState, problem: Problem, w: MixingMatrix,
              alpha: float, beta: float,
              stream: Optional[RngStream] = None) -> RoundOutput:
    """Single-local-step form; shares the code path of led_round with tau=1."""
    return led_round(state, problem, w,
                     HyperParams(alpha=alpha, beta=beta, tau=1), stream)


# ---------------------------------------------------------------------------
# Eliminated two-term recursion and its analysis-form twin
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdState:
    x_prev: Optional[np.ndarray]
    x_curr: np.ndarray
    grad_prev: Optional[np.ndarray]
    r: int = 0


def ed_init(x0: np.ndarray, problem: Problem, w: MixingMatrix, alpha: float) -> EdState:
    """Bootstrap x1 = W (x0 - alpha * grad f(x0)) for the two-term recursion."""
    x0 = np.asarray(x0, dtype=float)
    g0 = problem.grads(x0)
    x1 = w.w @ (x0 - alpha * g0)
    return EdState(x_prev=x0, x_curr=x1, grad_prev=g0, r=1)


def ed_eliminated_step(state: EdState, problem: Problem, w: MixingMatrix,
                       alpha: float) -> RoundOutput:
    """x+ = W (2 x - x_prev - alpha (grad f(x) - grad f(x_prev))).

    Deterministic gradients only; this is the noiseless analytical ancestor.
    """
    if state.x_prev is None or state.grad_prev is None:
        raise ValueError("two-term recursion stepped before its bootstrap")
    g = problem.grads(state.x_curr)
    x_next = w.w @ (2.0 * state.x_curr - state.x_prev - alpha * (g - state.grad_prev))
    new = EdState(x_prev=state.x_curr, x_curr=x_next, grad_prev=g, r=state.r + 1)
    return RoundOutput(new, g.mean(axis=0, keepdims=True), 1)


@dataclass(frozen=True)
class UdaEdState:
    x: np.ndarray
    z: np.ndarray
    b_half: np.ndarray  # precomputed (I - W)^(1/2)
    r: int = 0


def uda_ed_init(x0: np.ndarray, w: MixingMatrix) -> UdaEdState:
    return UdaEdState(x=np.asarray(x0, dtype=float),
                      z=np.zeros_like(np.asarray(x0, dtype=float)),
                      b_half=consensus_sqrt(w), r=0)


def uda_ed_step(state: UdaEdState, problem: Problem, w: MixingMatrix,
                alpha: float) -> RoundOutput:
    """Analysis-form step through the square root of I - W.

    Not decentralizable (the square root is dense); used as an oracle.
    """
    g = problem.grads(state.x)
    phi = state.x - alpha * g - state.b_half @ state.z
    x_new = w.w @ phi
    z_new = state.z + state.b_half @ phi
    new = UdaEdState(x_new, z_new, state.b_half, state.r + 1)
    return RoundOutput(new, g.mean(axis=0, keepdims=True), 1)


# ---------------------------------------------------------------------------
# Primal-dual single-step method (relaxed diffusion)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimalDualState:
    x: np.ndarray
    y: np.ndarray
    r: int = 0


def pdfp2o_step(state: PrimalDualState, problem: Problem, w: MixingMatrix,
                alpha: float, eta: float,
                stream: Optional[RngStream] = None) -> RoundOutput:
    """Phi = x - alpha*grad - eta*y; y+ = y + (I-W)Phi; x+ = ((1-eta)I + eta W)Phi."""
    if not 0 < eta <= 1:
        raise ValueError("eta must be in (0, 1]")
    phi, ledger = _local_pass(problem, state.x, eta * state.y, alpha, 1, stream)
    mixed = w.w @ phi
    y_new = state.y + phi - mixed
    x_new = (1.0 - eta) * phi + eta * mixed
    return RoundOutput(PrimalDualState(x_new, y_new, state.r + 1), ledger, 1)


# ---------------------------------------------------------------------------
# Probabilistic communication skipping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaffnewState:
    x: np.ndarray
    z: np.ndarray
    r: int = 0


def scaffnew_round(state: ScaffnewState, problem: Problem, w: MixingMatrix,
                   alpha: float, zeta: float, p: float,
                   stream: Optional[RngStream] = None) -> RoundOutput:
    """Local step always; mix with probability p, scaled by alpha*zeta/p."""
    mix_weight = alpha * zeta / p
    if mix_weight > 1.0 + 1e-12:
        raise ValueError(
            f"alpha*zeta/p = {mix_weight:.4g} > 1 leaves the convex-combination "
            "region of the skipping update")
    g = problem.sampled_grads(
        state.x, stream.child("grad_noise", 0) if stream is not None else None)
    phi = state.x - alpha * (g + state.z)
    if p >= 1.0:
        communicate = True
    else:
        if stream is None:
            raise ValueError("p < 1 requires a stream for the coin flip")
        communicate = stream.child("comm").uniform() < p
    if communicate:
        mixed = w.w @ phi
        x_new = (1.0 - mix_weight) * phi + mix_weight * mixed
        z_new = state.z + (p / alpha) * (phi - x_new)
        vectors = 1
    else:
        x_new = phi
        z_new = state.z
        vectors = 0
    new = ScaffnewState(x_new, z_new, state.r + 1)
    return RoundOutput(new, g.mean(axis=0, keepdims=True), vectors)


# ---------------------------------------------------------------------------
# Uncorrected diffusion with local steps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimalState:
    x: np.ndarray
    r: int = 0


def local_dsgd_round(state: PrimalState, problem: Problem, w: MixingMatrix,
                     alpha: float, tau: int,
                     stream: Optional[RngStream] = None) -> RoundOutput:
    """tau plain SGD steps per node, then one adapt-then-combine mixing."""
    phi, ledger = _local_pass(problem, state.x, np.zeros(problem.dim),
                              alpha, tau, stream)
    x_new = w.w @ phi
    return RoundOutput(PrimalState(x_new, state.r + 1), ledger, 1)


# ---------------------------------------------------------------------------
# Gradient tracking with local steps (two vectors per link)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrackingState:
    x: np.ndarray
    c: np.ndarray  # per-node correction; columns sum to 0 when started at 0
    r: int = 0


def k_gt_round(state: TrackingState, problem: Problem, w: MixingMatrix,
               alpha: float, tau: int,
               stream: Optional[RngStream] = None) -> RoundOutput:
    """Corrected local steps, then mix parameters and the tracker separately.

    Local direction is grad + c_i.  With b_i the round-average corrected
    direction, the tracker update c+ = c + (W - I) b reduces to classical
    gradient tracking at tau = 1 and keeps sum_i c_i constant.  The exact
    variant of locally updated tracking differs between published methods;
    this one is chosen for its single clean invariant, not as canonical.
    """
    phi, ledger = _local_pass(problem, state.x, alpha * state.c, alpha, tau, stream)
    b = (state.x - phi) / (alpha * tau)
    x_new = w.w @ phi
    c_new = state.c + w.w @ b - b
    return RoundOutput(TrackingState(x_new, c_new, state.r + 1), ledger, 2)


# ---------------------------------------------------------------------------
# Centralized baselines and server-workers variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaffoldState:
    x: np.ndarray       # (m,) shared server iterate
    c: np.ndarray       # (N, m) per-node controls
    c_bar: np.ndarray   # (m,) server control
    r: int = 0


def scaffold_round(state: ScaffoldState, problem: Problem, alpha: float,
                   tau: int, stream: Optional[RngStream] = None) -> RoundOutput:
    """Control-variate local steps with full participation, server stepsize 1.

    Controls refresh from the realized local progress:
    c_i+ = c_i - c_bar + (x - phi_i_tau) / (tau alpha).
    """
    start = np.broadcast_to(state.x, (problem.n_nodes, problem.dim)).copy()
    phi, ledger = _local_pass(problem, start, alpha * (state.c_bar - state.c),
                              alpha, tau, stream)
    x_new = phi.mean(axis=0)
    c_new = state.c - state.c_bar + (state.x - phi) / (tau * alpha)
    new = ScaffoldState(x_new, c_new, c_new.mean(axis=0), state.r + 1)
    return RoundOutput(new, ledger, 2)


@dataclass(frozen=True)
class GateState:
    x: np.ndarray  # (m,) shared iterate
    y: np.ndarray  # (N, m) per-node correctors, columns sum to 0
    r: int = 0


def fedgate_round(state: GateState, problem: Problem, alpha: float,
                  gamma: float, tau: int,
                  stream: Optional[RngStream] = None) -> RoundOutput:
    """Gated averaging: local steps pulled by y/tau, relaxed server average.

    alpha*gamma = 1 recovers the variance-reduced local SGD special case.
    """
    start = np.broadcast_to(state.x, (problem.n_nodes, problem.dim)).copy()
    phi, ledger = _local_pass(problem, start, state.y / tau, alpha, tau, stream)
    phi_bar = phi.mean(axis=0)
    x_new = (1.0 - alpha * gamma) * state.x + alpha * gamma * phi_bar
    y_new = state.y + (phi - phi_bar)
    return RoundOutput(GateState(x_new, y_new, state.r + 1), ledger, 1)


def led_server_round(state: GateState, problem: Problem, alpha: float,
                     beta: float, gamma: float, tau: int,
                     stream: Optional[RngStream] = None) -> RoundOutput:
    """Server-workers form: x+ = (1-gamma) x + gamma mean(phi_tau);
    y_i+ = y_i + phi_i_tau - mean(phi_tau).  gamma = 1 equals the
    complete-graph decentralized round."""
    start = np.broadcast_to(state.x, (problem.n_nodes, problem.dim)).copy()
    phi, ledger = _local_pass(problem, start, beta * state.y, alpha, tau, stream)
    phi_bar = phi.mean(axis=0)
    x_new = (1.0 - gamma) * state.x + gamma * phi_bar
    y_new = state.y + (phi - phi_bar)
    return RoundOutput(GateState(x_new, y_new, state.r + 1), ledger, 1)


# ---------------------------------------------------------------------------
# Uniform driver interface for the harness
# ---------------------------------------------------------------------------

ALGORITHMS = ("led", "led1", "ed", "uda_ed", "pdfp2o", "scaffnew", "dsgd",
              "local_dsgd", "kgt", "scaffold", "local_sgd", "fedgate",
              "vrl_sgd", "led_server")

CENTRALIZED = {"scaffold", "local_sgd", "fedgate", "vrl_sgd", "led_server"}

# methods whose step calls the exact oracle and ignores gradient noise
EXACT_ORACLE = {"ed", "uda_ed"}


class Driver:
    """init/step/positions adapter so the harness can run any method."""

    def __init__(self, algo: str, problem: Problem, w: MixingMatrix,
                 h: HyperParams, init_mode: str = "dual_from_mixing"):
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
        if algo in CENTRALIZED:
            ref = complete_mixing(w.n)
            if not np.allclose(w.w, ref.w, atol=1e-12):
                raise ValueError(
                    f"{algo} is a centralized method and requires the complete graph")
        if algo in EXACT_ORACLE and problem.sigma > 0:
            raise ValueError(
                f"{algo} uses exact gradients and cannot run on a noisy problem "
                f"(sigma = {problem.sigma:g}); set sigma = 0")
        self.algo = algo
        self.problem = problem
        self.w = w
        self.h = h
        self.init_mode = init_mode

    def init(self, x0: np.ndarray):
        x0 = np.asarray(x0, dtype=float)
        a = self.algo
        if a in ("led", "led1"):
            return led_init(x0, self.w, self.init_mode)
        if a == "ed":
            return ed_init(x0, self.problem, self.w, self.h.alpha)
        if a == "uda_ed":
            return uda_ed_init(x0, self.w)
        if a == "pdfp2o":
            return PrimalDualState(x=x0, y=np.zeros_like(x0))
        if a == "scaffnew":
            return ScaffnewState(x=x0, z=np.zeros_like(x0))
        if a in ("dsgd", "local_dsgd", "local_sgd"):
            return PrimalState(x=x0)
        if a == "kgt":
            return TrackingState(x=x0, c=np.zeros_like(x0))
        if a == "scaffold":
            xm = x0.mean(axis=0)
            zeros = np.zeros((self.problem.n_nodes, self.problem.dim))
            return ScaffoldState(x=xm, c=zeros, c_bar=zeros.mean(axis=0))
        if a in ("fedgate", "vrl_sgd", "led_server"):
            return GateState(x=x0.mean(axis=0),
                             y=np.zeros((self.problem.n_nodes, self.problem.dim)))
        raise AssertionError(a)

    def step(self, state, stream: Optional[RngStream]) -> RoundOutput:
        a, h, p, w = self.algo, self.h, self.problem, self.w
        if a == "led":
            return led_round(state, p, w, h, stream)
        if a == "led1":
            return led1_step(state, p, w, h.alpha, h.beta_eff, stream)
        if a == "ed":
            return ed_eliminated_step(state, p, w, h.alpha)
        if a == "uda_ed":
            return uda_ed_step(state, p, w, h.alpha)
        if a == "pdfp2o":
            return pdfp2o_step(state, p, w, h.alpha, h.eta_pd, stream)
        if a == "scaffnew":
            return scaffnew_round(state, p, w, h.alpha, h.zeta_eff, h.p, stream)
        if a == "dsgd":
            return local_dsgd_round(state, p, w, h.alpha, 1, stream)
        if a in ("local_dsgd", "local_sgd"):
            return local_dsgd_round(state, p, w, h.alpha, h.tau, stream)
        if a == "kgt":
            return k_gt_round(state, p, w, h.alpha, h.tau, stream)
        if a == "scaffold":
            return scaffold_round(state, p, h.alpha, h.tau, stream)
        if a == "fedgate":
            return fedgate_round(state, p, h.alpha, h.gamma, h.tau, stream)
        if a == "vrl_sgd":
            return fedgate_round(state, p, h.alpha, 1.0 / h.alpha, h.tau, stream)
        if a == "led_server":
            return led_server_round(state, p, h.alpha, h.beta_eff, h.gamma,
                                    h.tau, stream)
        raise AssertionError(a)

    def positions(self, state) -> np.ndarray:
        """Node estimates as an (N, m) matrix (replicated for shared iterates)."""
        if self.algo == "ed":
            return state.x_curr
        x = state.x
        if x.ndim == 1:
            return np.broadcast_to(x, (self.problem.n_nodes, self.problem.dim))
        return x
