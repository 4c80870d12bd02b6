"""Per-round state transitions for the locally updated diffusion family.

Every method is a pure function from (state, problem, mixing, hyperparameters,
stream) to a RoundOutput.  States are row-major (N, m) arrays; mixing is a
single dense matrix product W @ X.  Stochastic gradients are drawn from
path-addressed streams so two methods fed the same stream see the same noise,
which is what the equivalence tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .problems import Problem
from .rng import RngStream
from .topology import MixingMatrix


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
        for name in ("p", "eta_pd"):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in (0, 1]")
        for name in ("beta", "zeta"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive when set")
        if self.zeta is not None and self.alpha * self.zeta / self.p > 1.0 + 1e-12:
            raise ValueError(f"zeta = {self.zeta!r} puts alpha*zeta/p above 1 "
                             f"at alpha = {self.alpha!r}")

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
    return LedState(x=x0, y=y0)


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
        # in place, bitwise equal to g.mean(axis=0) and phi - alpha*g - pull
        np.add.reduce(g, out=ledger[t])
        phi -= alpha * g
        phi -= pull
    ledger /= problem.n_nodes
    return phi, ledger


def led_round(state: LedState, problem: Problem, w: MixingMatrix,
              h: HyperParams, stream: Optional[RngStream] = None) -> RoundOutput:
    """One round: tau corrected local steps, one diffusion, one dual update."""
    phi, ledger = _local_pass(problem, state.x, h.beta_eff * state.y,
                              h.alpha, h.tau, stream)
    x_new = w.w @ phi
    y_new = state.y + phi - x_new
    return RoundOutput(LedState(x_new, y_new), ledger, 1)


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


def ed_init(x0: np.ndarray, problem: Problem, w: MixingMatrix, alpha: float) -> EdState:
    """Bootstrap x1 = W (x0 - alpha * grad f(x0)) for the two-term recursion."""
    x0 = np.asarray(x0, dtype=float)
    g0 = problem.grads(x0)
    x1 = w.w @ (x0 - alpha * g0)
    return EdState(x_prev=x0, x_curr=x1, grad_prev=g0)


def ed_eliminated_step(state: EdState, problem: Problem, w: MixingMatrix,
                       alpha: float) -> RoundOutput:
    """x+ = W (2 x - x_prev - alpha (grad f(x) - grad f(x_prev))).

    Deterministic gradients only; this is the noiseless analytical ancestor.
    """
    if state.x_prev is None or state.grad_prev is None:
        raise ValueError("two-term recursion stepped before its bootstrap")
    g = problem.grads(state.x_curr)
    x_next = w.w @ (2.0 * state.x_curr - state.x_prev - alpha * (g - state.grad_prev))
    new = EdState(x_prev=state.x_curr, x_curr=x_next, grad_prev=g)
    return RoundOutput(new, g.mean(axis=0, keepdims=True), 1)


@dataclass(frozen=True)
class UdaEdState:
    x: np.ndarray
    z: np.ndarray
    b_half: np.ndarray  # precomputed (I - W)^(1/2)


def uda_ed_init(x0: np.ndarray, w: MixingMatrix) -> UdaEdState:
    return UdaEdState(x=np.asarray(x0, dtype=float),
                      z=np.zeros_like(np.asarray(x0, dtype=float)),
                      b_half=consensus_sqrt(w))


def uda_ed_step(state: UdaEdState, problem: Problem, w: MixingMatrix,
                alpha: float) -> RoundOutput:
    """Analysis-form step through the square root of I - W.

    Not decentralizable (the square root is dense); used as an oracle.
    """
    g = problem.grads(state.x)
    phi = state.x - alpha * g - state.b_half @ state.z
    x_new = w.w @ phi
    z_new = state.z + state.b_half @ phi
    new = UdaEdState(x_new, z_new, state.b_half)
    return RoundOutput(new, g.mean(axis=0, keepdims=True), 1)


# ---------------------------------------------------------------------------
# Primal-dual single-step method (relaxed diffusion)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimalDualState:
    x: np.ndarray
    y: np.ndarray


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
    return RoundOutput(PrimalDualState(x_new, y_new), ledger, 1)


# ---------------------------------------------------------------------------
# Probabilistic communication skipping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaffnewState:
    x: np.ndarray
    z: np.ndarray


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
    new = ScaffnewState(x_new, z_new)
    return RoundOutput(new, g.mean(axis=0, keepdims=True), vectors)


# ---------------------------------------------------------------------------
# Uncorrected diffusion with local steps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimalState:
    x: np.ndarray


def local_dsgd_round(state: PrimalState, problem: Problem, w: MixingMatrix,
                     alpha: float, tau: int,
                     stream: Optional[RngStream] = None) -> RoundOutput:
    """tau plain SGD steps per node, then one adapt-then-combine mixing."""
    phi, ledger = _local_pass(problem, state.x, np.zeros(problem.dim),
                              alpha, tau, stream)
    x_new = w.w @ phi
    return RoundOutput(PrimalState(x_new), ledger, 1)


# ---------------------------------------------------------------------------
# Gradient tracking with local steps (two vectors per link)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrackingState:
    x: np.ndarray
    c: np.ndarray  # per-node correction; columns sum to 0 when started at 0


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
    return RoundOutput(TrackingState(x_new, c_new), ledger, 2)


# ---------------------------------------------------------------------------
# Centralized baselines and server-workers variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaffoldState:
    x: np.ndarray       # (m,) shared server iterate
    c: np.ndarray       # (N, m) per-node controls
    c_bar: np.ndarray   # (m,) server control


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
    new = ScaffoldState(x_new, c_new, c_new.mean(axis=0))
    return RoundOutput(new, ledger, 2)


@dataclass(frozen=True)
class GateState:
    x: np.ndarray  # (m,) shared iterate
    y: np.ndarray  # (N, m) per-node correctors, columns sum to 0


def _gated_round(state: GateState, problem: Problem, alpha: float,
                 pull: np.ndarray, mix: float, tau: int,
                 stream: Optional[RngStream]) -> RoundOutput:
    """Local steps from the shared iterate, then x+ = (1-mix) x +
    mix mean(phi_tau); y_i+ = y_i + phi_i_tau - mean(phi_tau)."""
    start = np.broadcast_to(state.x, (problem.n_nodes, problem.dim)).copy()
    phi, ledger = _local_pass(problem, start, pull, alpha, tau, stream)
    phi_bar = phi.mean(axis=0)
    x_new = (1.0 - mix) * state.x + mix * phi_bar
    y_new = state.y + (phi - phi_bar)
    return RoundOutput(GateState(x_new, y_new), ledger, 1)


def fedgate_round(state: GateState, problem: Problem, alpha: float,
                  gamma: float, tau: int,
                  stream: Optional[RngStream] = None) -> RoundOutput:
    """Gated averaging: local steps pulled by y/tau, server average relaxed
    by alpha*gamma; alpha*gamma = 1 recovers variance-reduced local SGD."""
    return _gated_round(state, problem, alpha, state.y / tau, alpha * gamma,
                        tau, stream)


def led_server_round(state: GateState, problem: Problem, alpha: float,
                     beta: float, gamma: float, tau: int,
                     stream: Optional[RngStream] = None) -> RoundOutput:
    """Server-workers form: local steps pulled by beta*y, server average
    relaxed by gamma; gamma = 1 equals the complete-graph decentralized round."""
    return _gated_round(state, problem, alpha, beta * state.y, gamma, tau, stream)


# ---------------------------------------------------------------------------
# Method table and the uniform driver interface for the harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MethodSpec:
    """init(x0, problem, w, h) builds the first state; step(state, problem, w,
    h, stream) runs one round.  A centralized method needs the complete graph."""

    init: Callable
    step: Callable
    centralized: bool = False


def _zero_init(cls, shared=False):
    """init of cls(x, correction): x0, or its mean as a centralized method's
    shared iterate, with every node's correction at zero."""
    return lambda x0, p, w, h: cls(x0.mean(axis=0) if shared else x0,
                                   np.zeros_like(x0))


# Steps take (state, problem, w, h, stream).  led1 and dsgd pin tau = 1, and
# led1 takes an unset beta as 1 (exact diffusion, which the analysis forms
# ed_eliminated_step and uda_ed_step restate); local_sgd is local_dsgd on the
# complete graph, vrl_sgd is fedgate with alpha * gamma = 1.
METHODS = {
    "led": MethodSpec(lambda x0, p, w, h: led_init(x0, w), led_round),
    "led1": MethodSpec(lambda x0, p, w, h: led_init(x0, w), lambda s, p, w, h, r:
                       led1_step(s, p, w, h.alpha,
                                 1.0 if h.beta is None else h.beta, r)),
    "pdfp2o": MethodSpec(_zero_init(PrimalDualState), lambda s, p, w, h, r:
                         pdfp2o_step(s, p, w, h.alpha, h.eta_pd, r)),
    "scaffnew": MethodSpec(_zero_init(ScaffnewState), lambda s, p, w, h, r:
                           scaffnew_round(s, p, w, h.alpha, h.zeta_eff, h.p, r)),
    "dsgd": MethodSpec(lambda x0, p, w, h: PrimalState(x0), lambda s, p, w, h, r:
                       local_dsgd_round(s, p, w, h.alpha, 1, r)),
    "local_dsgd": MethodSpec(lambda x0, p, w, h: PrimalState(x0), lambda s, p, w, h, r:
                             local_dsgd_round(s, p, w, h.alpha, h.tau, r)),
    "kgt": MethodSpec(_zero_init(TrackingState), lambda s, p, w, h, r:
                      k_gt_round(s, p, w, h.alpha, h.tau, r)),
    "scaffold": MethodSpec(
        lambda x0, p, w, h: ScaffoldState(x0.mean(axis=0), np.zeros_like(x0),
                                          np.zeros(x0.shape[1])),
        lambda s, p, w, h, r: scaffold_round(s, p, h.alpha, h.tau, r),
        centralized=True),
    "local_sgd": MethodSpec(lambda x0, p, w, h: PrimalState(x0), lambda s, p, w, h, r:
                            local_dsgd_round(s, p, w, h.alpha, h.tau, r),
                            centralized=True),
    "fedgate": MethodSpec(_zero_init(GateState, shared=True), lambda s, p, w, h, r:
                          fedgate_round(s, p, h.alpha, h.gamma, h.tau, r),
                          centralized=True),
    "vrl_sgd": MethodSpec(_zero_init(GateState, shared=True), lambda s, p, w, h, r:
                          fedgate_round(s, p, h.alpha, 1.0 / h.alpha, h.tau, r),
                          centralized=True),
    "led_server": MethodSpec(_zero_init(GateState, shared=True), lambda s, p, w, h, r:
                             led_server_round(s, p, h.alpha, h.beta_eff, h.gamma,
                                              h.tau, r), centralized=True),
}

ALGORITHMS = tuple(METHODS)
CENTRALIZED = frozenset(a for a, spec in METHODS.items() if spec.centralized)


def method(algo: str, w: MixingMatrix) -> MethodSpec:
    """The table entry of algo, once it is known to run on w."""
    spec = METHODS.get(algo)
    if spec is None:
        raise ValueError(f"unknown algorithm {algo!r}")
    if spec.centralized and w.mixing_rate > 1e-12:
        raise ValueError(
            f"{algo} is a centralized method and requires the complete graph")
    return spec


class Driver:
    """init/step/positions adapter so the harness can run any method."""

    def __init__(self, algo: str, problem: Problem, w: MixingMatrix,
                 h: HyperParams):
        self.spec = method(algo, w)
        self.problem = problem
        self.w = w
        self.h = h

    def init(self, x0: np.ndarray):
        return self.spec.init(np.asarray(x0, dtype=float), self.problem,
                              self.w, self.h)

    def step(self, state, stream: Optional[RngStream]) -> RoundOutput:
        return self.spec.step(state, self.problem, self.w, self.h, stream)

    def positions(self, state) -> np.ndarray:
        """Node estimates as an (N, m) matrix (replicated for shared iterates)."""
        if state.x.ndim == 1:
            return np.broadcast_to(state.x, (self.problem.n_nodes, self.problem.dim))
        return state.x
