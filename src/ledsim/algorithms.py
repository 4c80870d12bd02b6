"""Per-round state transitions for the locally updated diffusion family.

Every method is a pure function from (state, problem, mixing, hyperparameters,
stream) to a RoundOutput.  States are row-major (N, m) arrays; mixing is a
single dense matrix product W @ X.  Stochastic gradients are drawn from
path-addressed streams so two methods fed the same stream see the same noise,
which is what the equivalence tests rely on.

Every METHODS entry also steps a batch of L lanes, states stacked as
(L, N, m) and alpha an (L, 1, 1) array, which HyperParams checks entry by
entry; the harness makes a lane of each (grid point, run) pair.  Draws are
per run: a plain stream's (N, m) draw serves every lane, and a lane stream
gives each lane its run's draw, stacked on the lane axis.  scaffnew then
flips its coin per lane too, and picks each lane's mixed or skipped update
with np.where.  Node means run over axis -2, and each lane comes out bitwise
as its state stepped alone on its run's stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .problems import Problem, _count
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

    alpha may be an array, the (L, 1, 1) stepsizes of a batch of lanes;
    each entry is checked as a lone alpha would be.
    """

    alpha: float = 0.1
    beta: Optional[float] = None
    gamma: float = 1.0
    tau: int = 1
    p: float = 1.0
    zeta: Optional[float] = None
    eta_pd: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "gamma", "beta", "zeta"):
            value = getattr(self, name)
            # entry by entry, and written so that NaN fails too
            if value is not None and not np.all((0 < value)
                                                & (value < math.inf)):
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value!r}")
        _count("tau", self.tau)
        for name in ("p", "eta_pd"):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in (0, 1]")
        if (self.zeta is not None
                and np.any(self.alpha * self.zeta / self.p > 1.0 + 1e-12)):
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
    shape (..., tau, m); it lets tests replay the centroid recursion
    x_bar' = x_bar - alpha * sum_t mean_i grad_i(phi_t).
    """

    state: object
    grad_ledger: Optional[np.ndarray]
    vectors_per_link: int


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
    if x0.shape[-2] != w.n:
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

    Returns the final iterate and the (..., tau, m) ledger of network-mean
    sampled gradients.  pull is the constant per-step correction term; x is
    copied, so it may be a read-only view such as a broadcast shared iterate.
    """
    phi = x.copy()
    ledger = np.empty(x.shape[:-2] + (tau, problem.dim))
    for t in range(tau):
        g = problem.sampled_grads(
            phi, stream.child("grad_noise", t) if stream is not None else None)
        # in place, bitwise equal to g.mean(axis=-2) and phi - alpha*g - pull
        np.add.reduce(g, axis=-2, out=ledger[..., t, :])
        phi -= alpha * g
        phi -= pull
    ledger /= problem.n_nodes
    return phi, ledger


def led_round(state: LedState, problem: Problem, w: MixingMatrix,
              h: HyperParams, stream: Optional[RngStream] = None) -> RoundOutput:
    """One round: tau corrected local steps, one diffusion, one dual update."""
    return _led(state, problem, w, h.alpha, h.beta_eff, h.tau, stream)


def led1_step(state: LedState, problem: Problem, w: MixingMatrix,
              alpha: float, beta: float,
              stream: Optional[RngStream] = None) -> RoundOutput:
    """Single-local-step form; shares the code path of led_round with tau=1."""
    return led_round(state, problem, w,
                     HyperParams(alpha=alpha, beta=beta, tau=1), stream)


def _led(state: LedState, problem: Problem, w: MixingMatrix, alpha, beta: float,
         tau: int, stream: Optional[RngStream]) -> RoundOutput:
    """led_round on unpacked hyperparameters, so alpha may be a batch array."""
    phi, ledger = _local_pass(problem, state.x, beta * state.y, alpha, tau, stream)
    x_new = w.w @ phi
    y_new = state.y + phi - x_new
    return RoundOutput(LedState(x_new, y_new), ledger, 1)


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


def _exact_only(problem: Problem, name: str) -> None:
    """Refuse a noisy problem in a step that takes exact gradients only."""
    if problem.sigma > 0:
        raise ValueError(f"{name} takes exact gradients only; the problem "
                         f"has sigma = {problem.sigma!r}")


def ed_eliminated_step(state: EdState, problem: Problem, w: MixingMatrix,
                       alpha: float) -> RoundOutput:
    """x+ = W (2 x - x_prev - alpha (grad f(x) - grad f(x_prev))).

    Deterministic gradients only; this is the noiseless analytical ancestor,
    and it refuses a problem with sigma > 0.
    """
    _exact_only(problem, "ed_eliminated_step")
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

    Not decentralizable (the square root is dense); used as an oracle, on
    exact gradients only, so it refuses a problem with sigma > 0.
    """
    _exact_only(problem, "uda_ed_step")
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
    HyperParams(alpha=alpha, eta_pd=eta)   # checks eta in (0, 1] too
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
    HyperParams(alpha=alpha, zeta=zeta, p=p)   # checks alpha*zeta/p <= 1 too
    mix_weight = alpha * zeta / p
    g = problem.sampled_grads(
        state.x, stream.child("grad_noise", 0) if stream is not None else None)
    phi = state.x - alpha * (g + state.z)
    communicate = True
    if p < 1.0:
        if stream is None:
            raise ValueError("p < 1 requires a stream for the coin flip")
        # a bool, or one per lane of a lane batch
        communicate = stream.child("comm").uniform() < p
    x_new, z_new = phi, state.z
    if np.any(communicate):
        mixed = w.w @ phi
        x_new = (1.0 - mix_weight) * phi + mix_weight * mixed
        z_new = state.z + (p / alpha) * (phi - x_new)
        if np.ndim(communicate):
            # lane by lane: a lane whose coin says skip keeps phi and z
            lane = communicate[:, None, None]
            x_new = np.where(lane, x_new, phi)
            z_new = np.where(lane, z_new, state.z)
    new = ScaffnewState(x_new, z_new)
    # 1 or 0 per lane
    return RoundOutput(new, g.mean(axis=-2, keepdims=True), 1 * communicate)


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
    x: np.ndarray       # (..., m) shared server iterate
    c: np.ndarray       # (..., N, m) node controls; their mean is c_bar


def scaffold_round(state: ScaffoldState, problem: Problem, alpha: float,
                   tau: int, stream: Optional[RngStream] = None) -> RoundOutput:
    """Control-variate local steps with full participation, server stepsize 1.

    Controls refresh from the realized local progress, c_bar the server
    control: c_i+ = c_i - c_bar + (x - phi_i_tau) / (tau alpha).
    """
    # x[..., None, :] puts a shared vector against the node axis
    x, c_bar = state.x[..., None, :], state.c.mean(axis=-2, keepdims=True)
    phi, ledger = _local_pass(problem, np.broadcast_to(x, state.c.shape),
                              alpha * (c_bar - state.c), alpha, tau, stream)
    x_new = phi.mean(axis=-2)
    c_new = state.c - c_bar + (x - phi) / (tau * alpha)
    return RoundOutput(ScaffoldState(x_new, c_new), ledger, 2)


@dataclass(frozen=True)
class GateState:
    x: np.ndarray  # (..., m) shared iterate
    y: np.ndarray  # (..., N, m) per-node correctors, columns sum to 0


def _gated_round(state: GateState, problem: Problem, alpha: float,
                 pull: np.ndarray, mix: float, tau: int,
                 stream: Optional[RngStream]) -> RoundOutput:
    """Local steps from the shared iterate, then x+ = (1-mix) x +
    mix mean(phi_tau); y_i+ = y_i + phi_i_tau - mean(phi_tau)."""
    x = state.x[..., None, :]
    phi, ledger = _local_pass(problem, np.broadcast_to(x, state.y.shape), pull,
                              alpha, tau, stream)
    phi_bar = phi.mean(axis=-2, keepdims=True)
    # on the node axis, so that an (L, 1, 1) mix meets x row by row
    x_new = ((1.0 - mix) * x + mix * phi_bar)[..., 0, :]
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
    h, stream) runs one round and reads the HyperParams fields in `reads`,
    no other.  A centralized method needs the complete graph; a shared one
    keeps its iterate state.x as one vector for all nodes, with no node
    axis."""

    init: Callable
    step: Callable
    reads: tuple
    centralized: bool = False
    shared: bool = False


def _zero_init(cls):
    """init of cls(x, correction): x0, with every node's correction at zero."""
    return lambda x0, p, w, h: cls(x0, np.zeros_like(x0))


def _server(step, reads, cls=GateState):
    """The spec of a server-workers method: a cls(x, correction) whose shared
    iterate starts at the mean of x0, every node's correction at zero."""
    return MethodSpec(lambda x0, p, w, h: cls(x0.mean(axis=-2),
                                              np.zeros_like(x0)),
                      step, reads, centralized=True, shared=True)


# Steps take (state, problem, w, h, stream).  led1 and dsgd pin tau = 1, and
# led1 takes an unset beta as 1 (exact diffusion, which the analysis forms
# ed_eliminated_step and uda_ed_step restate); local_sgd is local_dsgd on the
# complete graph, vrl_sgd is fedgate with alpha * gamma = 1.
METHODS = {
    "led": MethodSpec(lambda x0, p, w, h: led_init(x0, w), led_round,
                      ("alpha", "beta", "tau")),
    "led1": MethodSpec(lambda x0, p, w, h: led_init(x0, w), lambda s, p, w, h, r:
                       _led(s, p, w, h.alpha, 1.0 if h.beta is None else h.beta,
                            1, r), ("alpha", "beta")),
    "pdfp2o": MethodSpec(_zero_init(PrimalDualState), lambda s, p, w, h, r:
                         pdfp2o_step(s, p, w, h.alpha, h.eta_pd, r),
                         ("alpha", "eta_pd")),
    "scaffnew": MethodSpec(_zero_init(ScaffnewState), lambda s, p, w, h, r:
                           scaffnew_round(s, p, w, h.alpha, h.zeta_eff, h.p, r),
                           ("alpha", "p", "zeta")),
    "dsgd": MethodSpec(lambda x0, p, w, h: PrimalState(x0), lambda s, p, w, h, r:
                       local_dsgd_round(s, p, w, h.alpha, 1, r), ("alpha",)),
    "local_dsgd": MethodSpec(lambda x0, p, w, h: PrimalState(x0), lambda s, p, w, h, r:
                             local_dsgd_round(s, p, w, h.alpha, h.tau, r),
                             ("alpha", "tau")),
    "kgt": MethodSpec(_zero_init(TrackingState), lambda s, p, w, h, r:
                      k_gt_round(s, p, w, h.alpha, h.tau, r), ("alpha", "tau")),
    "scaffold": _server(lambda s, p, w, h, r:
                        scaffold_round(s, p, h.alpha, h.tau, r),
                        ("alpha", "tau"), ScaffoldState),
    "local_sgd": MethodSpec(lambda x0, p, w, h: PrimalState(x0), lambda s, p, w, h, r:
                            local_dsgd_round(s, p, w, h.alpha, h.tau, r),
                            ("alpha", "tau"), centralized=True),
    "fedgate": _server(lambda s, p, w, h, r:
                       fedgate_round(s, p, h.alpha, h.gamma, h.tau, r),
                       ("alpha", "gamma", "tau")),
    "vrl_sgd": _server(lambda s, p, w, h, r:
                       fedgate_round(s, p, h.alpha, 1.0 / h.alpha, h.tau, r),
                       ("alpha", "tau")),
    "led_server": _server(lambda s, p, w, h, r:
                          led_server_round(s, p, h.alpha, h.beta_eff, h.gamma,
                                           h.tau, r),
                          ("alpha", "beta", "gamma", "tau")),
}

ALGORITHMS = tuple(METHODS)


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
        """Node estimates as (..., N, m) (replicated for shared iterates)."""
        if self.spec.shared:
            x = state.x[..., None, :]
            return np.broadcast_to(x, x.shape[:-2] + (self.problem.n_nodes,
                                                      self.problem.dim))
        return state.x
