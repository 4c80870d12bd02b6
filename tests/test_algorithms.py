"""Single-round behavior, invariants, and communication accounting."""

import pickle
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ledsim import (Driver, ExperimentConfig, HyperParams, QuadraticProblem,
                    RngStream, complete_mixing, quadratic_problem,
                    run_experiment, synth_logistic)
from ledsim.algorithms import (ALGORITHMS, METHODS, GateState,
                               PrimalDualState, PrimalState, ScaffnewState,
                               ScaffoldState, TrackingState, consensus_sqrt,
                               ed_eliminated_step, ed_init, fedgate_round,
                               k_gt_round, led1_step, led_init, led_round,
                               led_server_round, local_dsgd_round, pdfp2o_step,
                               scaffnew_round, scaffold_round, uda_ed_init,
                               uda_ed_step)
from ledsim.problems import SynthConfig


def _single_node_half_xsq():
    """N=1 problem f(x) = x^2/2 so the gradient is x itself."""
    return QuadraticProblem(np.eye(1), np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_led_init_consensus_start_gives_zero_dual(ring6):
    x0 = np.tile(np.array([1.0, -2.0, 0.5]), (6, 1))
    st = led_init(x0, ring6, "dual_from_mixing")
    assert np.max(np.abs(st.y)) <= 1e-14


def test_led_init_zero_mode(ring6):
    x0 = np.random.default_rng(0).normal(size=(6, 3))
    st = led_init(x0, ring6, "zero")
    assert np.array_equal(st.y, np.zeros_like(x0))


def test_led_init_dual_column_sums_vanish(ring6):
    x0 = np.random.default_rng(1).normal(size=(6, 3))
    st = led_init(x0, ring6, "dual_from_mixing")
    assert np.max(np.abs(st.y.sum(axis=0))) <= 1e-14


def test_led_init_rejects_bad_shape_and_mode(ring6):
    with pytest.raises(ValueError):
        led_init(np.zeros((5, 3)), ring6)
    with pytest.raises(ValueError):
        led_init(np.zeros((6, 3)), ring6, "bogus")


# ---------------------------------------------------------------------------
# core round: closed-form single-node check and fixed point
# ---------------------------------------------------------------------------

def test_led_single_node_three_local_steps():
    p = _single_node_half_xsq()
    w = complete_mixing(1)
    st = led_init(np.array([[1.0]]), w)
    out = led_round(st, p, w, HyperParams(alpha=0.1, tau=3))
    assert out.state.x[0, 0] == pytest.approx(0.9 ** 3, abs=1e-15)
    assert out.state.y[0, 0] == 0.0
    assert out.vectors_per_link == 1
    assert out.grad_ledger.shape == (3, 1)


@pytest.mark.parametrize("tau", [1, 3, 10])
def test_led_fixed_point_invariance(quad6, ring6, tau):
    h = HyperParams(alpha=0.05, tau=tau)
    x = np.tile(quad6.x_star, (6, 1))
    y = np.stack([-(h.alpha / h.beta_eff) * quad6.grad(i, quad6.x_star)
                  for i in range(6)])
    from ledsim.algorithms import LedState
    state = LedState(x=x, y=y)
    for _ in range(100):
        state = led_round(state, quad6, ring6, h).state
    assert np.max(np.abs(state.x - x)) <= 1e-12
    assert np.max(np.abs(state.y - y)) <= 1e-12


def test_led1_matches_led_round_tau1_bitwise(quad6_noisy, ring6):
    x0 = np.random.default_rng(3).normal(size=(6, 4))
    a = led_init(x0, ring6)
    b = led_init(x0, ring6)
    for r in range(20):
        s = RngStream(7).child("round", r)
        a = led_round(a, quad6_noisy, ring6, HyperParams(alpha=0.1, beta=0.7),
                      s).state
        b = led1_step(b, quad6_noisy, ring6, 0.1, 0.7, s).state
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_led_dual_sum_conserved(quad6_noisy, ring6):
    x0 = np.random.default_rng(4).normal(size=(6, 4))
    for mode in ("dual_from_mixing", "zero"):
        st = led_init(x0, ring6, mode)
        for r in range(200):
            st = led_round(st, quad6_noisy, ring6,
                           HyperParams(alpha=0.05, tau=3),
                           RngStream(1).child(mode, r)).state
            assert np.max(np.abs(st.y.sum(axis=0))) <= 1e-10


# ---------------------------------------------------------------------------
# two-term recursion and its dense-square-root twin
# ---------------------------------------------------------------------------

def test_ed_requires_bootstrap(quad6, ring6):
    from ledsim.algorithms import EdState
    with pytest.raises(ValueError):
        ed_eliminated_step(EdState(None, np.zeros((6, 4)), None), quad6, ring6,
                           0.1)


def test_analysis_forms_refuse_noisy_problems(quad6_noisy, ring6):
    # both take exact gradients; on a noisy problem they used to run silently
    x0 = np.zeros((6, 4))
    with pytest.raises(ValueError, match="sigma = 0.05"):
        ed_eliminated_step(ed_init(x0, quad6_noisy, ring6, 0.1), quad6_noisy,
                           ring6, 0.1)
    with pytest.raises(ValueError, match="sigma = 0.05"):
        uda_ed_step(uda_ed_init(x0, ring6), quad6_noisy, ring6, 0.1)


def test_ed_identity_mixing_reduces_to_two_term_identity(quad6, identity6):
    st = ed_init(np.zeros((6, 4)), quad6, identity6, 0.1)
    out = ed_eliminated_step(st, quad6, identity6, 0.1)
    g = quad6.grads(st.x_curr)
    expect = 2 * st.x_curr - st.x_prev - 0.1 * (g - st.grad_prev)
    assert np.allclose(out.state.x_curr, expect, atol=1e-15)


def test_ed_zero_gradient_keeps_consensus(ring6):
    p = QuadraticProblem(np.eye(3) * 1e-30, np.zeros((6, 3)))
    x0 = np.tile(np.array([1.0, 2.0, 3.0]), (6, 1))
    st = ed_init(x0, p, ring6, 0.1)
    out = ed_eliminated_step(st, p, ring6, 0.1)
    assert np.allclose(out.state.x_curr, x0, atol=1e-12)


def test_consensus_sqrt_squares_back(ring6, complete6):
    for w in (ring6, complete6):
        b_half = consensus_sqrt(w)
        assert np.max(np.abs(b_half @ b_half - (np.eye(6) - w.w))) <= 1e-10
        assert np.max(np.abs(b_half - b_half.T)) <= 1e-12


def test_uda_ed_fixed_point_at_optimum(quad6, ring6):
    x = np.tile(quad6.x_star, (6, 1))
    # consensus start at a common stationary point with zero dual is only
    # fixed when per-node gradients vanish, so use identical nodes
    p = QuadraticProblem(quad6.a_bar, np.tile(quad6.a_bar @ quad6.x_star, (6, 1)))
    st = uda_ed_init(x, ring6)
    for _ in range(10):
        st = uda_ed_step(st, p, ring6, 0.1).state
    assert np.max(np.abs(st.x - x)) <= 1e-12


# ---------------------------------------------------------------------------
# primal-dual single-step method
# ---------------------------------------------------------------------------

def test_pdfp2o_complete_graph_averages(complete6, quad6):
    x0 = np.random.default_rng(5).normal(size=(6, 4))
    st = PrimalDualState(x=x0, y=np.zeros_like(x0))
    out = pdfp2o_step(st, quad6, complete6, 0.1, 1.0)
    phi = x0 - 0.1 * quad6.grads(x0)
    assert np.allclose(out.state.x, phi.mean(axis=0), atol=1e-12)


def test_pdfp2o_eta_validated(quad6, ring6):
    st = PrimalDualState(x=np.zeros((6, 4)), y=np.zeros((6, 4)))
    with pytest.raises(ValueError):
        pdfp2o_step(st, quad6, ring6, 0.1, 1.5)


def test_pdfp2o_relaxed_matches_direct_oracle(quad6, ring6):
    """Half-relaxed steps against an independent splitting-form evaluator.

    The oracle runs the (p, v) formulation through the dense square root of
    I - W: p = x - a*grad - eta*B_half v ; v+ = v + B_half p ;
    x+ = p - eta*B_half (v+ - v) ... algebraically x+ = (I - eta*B) p.
    """
    eta = 0.5
    b = np.eye(6) - ring6.w
    x = np.random.default_rng(6).normal(size=(6, 4))
    st = PrimalDualState(x=x.copy(), y=np.zeros_like(x))
    xo = x.copy()
    yo = np.zeros_like(x)
    for _ in range(200):
        st = pdfp2o_step(st, quad6, ring6, 0.1, eta).state
        phi = xo - 0.1 * quad6.grads(xo) - eta * yo
        yo = yo + b @ phi
        xo = phi - eta * (b @ phi)
        assert np.max(np.abs(st.x - xo)) <= 1e-12
        assert np.max(np.abs(st.y - yo)) <= 1e-12


# ---------------------------------------------------------------------------
# probabilistic communication skipping
# ---------------------------------------------------------------------------

def test_scaffnew_rejects_bad_mix_weight(quad6, ring6):
    st = ScaffnewState(x=np.zeros((6, 4)), z=np.zeros((6, 4)))
    with pytest.raises(ValueError):
        scaffnew_round(st, quad6, ring6, alpha=0.5, zeta=3.0, p=0.5)


@pytest.mark.parametrize("lanes", [0, 2])
def test_scaffnew_coin_flip_without_a_stream_is_refused(quad6, ring6, lanes):
    # lanes = 0 steps (N, m) states, lanes = 2 (L, N, m) states with an
    # (L, 1, 1) alpha
    shape, alpha = (6, 4), 0.1
    if lanes:
        shape, alpha = (lanes, 6, 4), np.array([0.1, 0.05])[:, None, None]
    st = ScaffnewState(x=np.zeros(shape), z=np.zeros(shape))
    with pytest.raises(ValueError, match="p < 1 requires a stream"):
        scaffnew_round(st, quad6, ring6, alpha, 1.0, 0.5)


def test_scaffnew_skipped_round_is_free(quad6, ring6):
    p_comm = 0.3
    st = ScaffnewState(x=np.random.default_rng(8).normal(size=(6, 4)),
                       z=np.zeros((6, 4)))
    # find a stream whose coin flip lands on the skip branch
    stream = next(RngStream(0).child("round", r) for r in range(100)
                  if RngStream(0).child("round", r, "comm").uniform() >= p_comm)
    out = scaffnew_round(st, quad6, ring6, 0.1, 1.0, p_comm, stream)
    assert out.vectors_per_link == 0
    phi = st.x - 0.1 * (quad6.grads(st.x) + st.z)
    assert np.array_equal(out.state.x, phi)
    assert np.array_equal(out.state.z, st.z)


def test_scaffnew_dual_sum_conserved(quad6_noisy, ring6):
    st = ScaffnewState(x=np.random.default_rng(9).normal(size=(6, 4)),
                       z=np.zeros((6, 4)))
    comms = 0
    for r in range(300):
        out = scaffnew_round(st, quad6_noisy, ring6, 0.1, 1.0, 0.4,
                             RngStream(2).child("round", r))
        st = out.state
        comms += out.vectors_per_link
        assert np.max(np.abs(st.z.sum(axis=0))) <= 1e-10
    assert 0.25 <= comms / 300 <= 0.55  # communication frequency near p


@pytest.mark.parametrize("lanes", [0, 3])
def test_scaffnew_relaxed_mix_with_an_explicit_zeta(quad6, ring6, lanes):
    # an explicit zeta with alpha*zeta/p < 1 mixes x+ = (1 - c) phi + c W phi,
    # c = alpha*zeta/p, and z+ = z + (p/alpha)(phi - x+); lanes = 3 steps
    # (L, N, m) states at p < 1, where a lane whose coin says skip keeps phi
    # and z
    rng = np.random.default_rng(11)
    shape = (lanes, 6, 4) if lanes else (6, 4)
    x, z = rng.normal(size=shape), rng.normal(size=shape)
    alpha, zeta, p, stream = 0.1, 4.0, 1.0, RngStream(0).child("round", 0)
    if lanes:
        alpha, zeta, p = np.array([0.1, 0.05, 0.02])[:, None, None], 2.0, 0.5
        # a round whose coins both communicate and skip
        for r in range(100):
            stream = RngStream.for_runs(0, range(lanes)).child("round", r)
            communicate = stream.child("comm").uniform() < p
            if 0 < communicate.sum() < lanes:
                break
    out = scaffnew_round(ScaffnewState(x, z), quad6, ring6, alpha, zeta, p,
                         stream)
    c = alpha * zeta / p
    assert np.all(c < 1)
    phi = x - alpha * (quad6.grads(x) + z)
    x_want = (1 - c) * phi + c * (ring6.w @ phi)
    z_want = z + (p / alpha) * (phi - x_want)
    if lanes:
        lane = communicate[:, None, None]
        x_want, z_want = np.where(lane, x_want, phi), np.where(lane, z_want, z)
    assert np.abs(out.state.x - x_want).max() <= 1e-12
    assert np.abs(out.state.z - z_want).max() <= 1e-12


# ---------------------------------------------------------------------------
# uncorrected diffusion
# ---------------------------------------------------------------------------

def test_local_dsgd_identity_mixing_is_plain_sgd(quad6, identity6):
    x0 = np.random.default_rng(10).normal(size=(6, 4))
    out = local_dsgd_round(PrimalState(x=x0), quad6, identity6, 0.2, 1)
    assert np.allclose(out.state.x, x0 - 0.2 * quad6.grads(x0), atol=1e-15)


def test_local_dsgd_identical_nodes_match_centralized_gd(complete6):
    p = QuadraticProblem(np.diag([1.0, 0.5]), np.tile([1.0, -1.0], (6, 1)))
    x = np.zeros((6, 2))
    xc = np.zeros(2)
    st = PrimalState(x=x)
    for _ in range(30):
        st = local_dsgd_round(st, p, complete6, 0.3, 4).state
        for _ in range(4):
            xc = xc - 0.3 * (np.diag([1.0, 0.5]) @ xc - np.array([1.0, -1.0]))
        assert np.max(np.abs(st.x - xc)) <= 1e-12


# ---------------------------------------------------------------------------
# gradient tracking with local steps
# ---------------------------------------------------------------------------

def test_kgt_identity_mixing_zero_tracker_is_local_sgd(quad6, identity6):
    x0 = np.random.default_rng(12).normal(size=(6, 4))
    a = k_gt_round(TrackingState(x=x0, c=np.zeros_like(x0)), quad6, identity6,
                   0.1, 3)
    b = local_dsgd_round(PrimalState(x=x0), quad6, identity6, 0.1, 3)
    assert np.allclose(a.state.x, b.state.x, atol=1e-15)
    assert np.max(np.abs(a.state.c)) <= 1e-15


def test_kgt_tracker_sum_conserved(quad6_noisy, ring6):
    st = TrackingState(x=np.random.default_rng(13).normal(size=(6, 4)),
                       c=np.zeros((6, 4)))
    for r in range(200):
        st = k_gt_round(st, quad6_noisy, ring6, 0.05, 3,
                        RngStream(3).child("round", r)).state
        assert np.max(np.abs(st.c.sum(axis=0))) <= 1e-10


def test_kgt_tau1_matches_classical_tracking(quad6, ring6):
    """At tau = 1 the tracker recursion is adapt-then-combine gradient
    tracking: x+ = W(x - a(g + c)); c+ = c + (W - I)(g + c)."""
    x = np.random.default_rng(14).normal(size=(6, 4))
    c = np.zeros((6, 4))
    st = TrackingState(x=x.copy(), c=c.copy())
    for _ in range(50):
        st = k_gt_round(st, quad6, ring6, 0.1, 1).state
        d = quad6.grads(x) + c
        x = ring6.w @ (x - 0.1 * d)
        c = c + ring6.w @ d - d
        assert np.max(np.abs(st.x - x)) <= 1e-12
        assert np.max(np.abs(st.c - c)) <= 1e-12


# ---------------------------------------------------------------------------
# centralized baselines
# ---------------------------------------------------------------------------

def test_scaffold_zero_controls_tau1_is_averaged_sgd(quad6):
    from ledsim.algorithms import ScaffoldState
    x0 = np.array([0.5, -0.5, 1.0, 0.0])
    st = ScaffoldState(x=x0, c=np.zeros((6, 4)))
    out = scaffold_round(st, quad6, 0.1, 1)
    expect = (x0 - 0.1 * quad6.grads_at(x0)).mean(axis=0)
    assert np.allclose(out.state.x, expect, atol=1e-14)
    assert out.vectors_per_link == 2


def test_scaffold_identical_nodes_match_local_sgd():
    # symmetry: equal controls cancel in the corrected direction, so the
    # shared iterate follows plain averaged local SGD
    p = QuadraticProblem(np.eye(2), np.tile([1.0, 0.0], (5, 1)))
    from ledsim.algorithms import ScaffoldState
    st = ScaffoldState(x=np.zeros(2), c=np.zeros((5, 2)))
    xc = np.zeros(2)
    for _ in range(20):
        st = scaffold_round(st, p, 0.2, 3).state
        for _ in range(3):
            xc = xc - 0.2 * (xc - np.array([1.0, 0.0]))
        assert np.max(np.abs(st.c - st.c[0])) <= 1e-14  # controls stay equal
        assert np.max(np.abs(st.x - xc)) <= 1e-12
    assert np.linalg.norm(st.x - np.array([1.0, 0.0])) <= 1e-5


@pytest.mark.parametrize("alpha,tau", [(0.1, 4), (0.01, 3), (0.3, 1)])
def test_scaffold_control_is_the_mean_sampled_gradient(quad6_noisy, alpha,
                                                       tau):
    # c_i+ = c_i - c_bar + (x - phi_i)/(tau alpha), and phi_i = x -
    # alpha sum_t g_i,t - tau alpha (c_bar - c_i), so c_i+ is node i's mean
    # sampled gradient (1/tau) sum_t g_i,t over the round, whatever c was
    from ledsim.algorithms import ScaffoldState
    rng = np.random.default_rng(12)
    x, c = rng.normal(size=4), rng.normal(size=(6, 4))
    stream = RngStream(6).child("round", 0)
    out = scaffold_round(ScaffoldState(x, c), quad6_noisy, alpha, tau, stream)
    # replay the local steps on the same stream
    phi, g_sum = np.tile(x, (6, 1)), np.zeros((6, 4))
    for t in range(tau):
        g = quad6_noisy.sampled_grads(phi, stream.child("grad_noise", t))
        g_sum += g
        phi = phi - alpha * g - alpha * (c.mean(axis=0) - c)
    scale = np.abs(x).max() / (tau * alpha) + np.abs(g_sum / tau).max()
    assert np.abs(out.state.c - g_sum / tau).max() <= 1e-12 * scale


def test_fedgate_single_node_dual_stays_zero():
    p = QuadraticProblem(np.eye(1), np.array([[2.0]]))
    st = GateState(x=np.zeros(1), y=np.zeros((1, 1)))
    for _ in range(50):
        st = fedgate_round(st, p, 0.1, 10.0, 4).state
        assert np.array_equal(st.y, np.zeros((1, 1)))
    assert abs(st.x[0] - 2.0) <= 1e-6


def test_fedgate_dual_sum_conserved(quad6_noisy):
    st = GateState(x=np.zeros(4), y=np.zeros((6, 4)))
    for r in range(200):
        st = fedgate_round(st, quad6_noisy, 0.1, 5.0, 3,
                           RngStream(4).child("round", r)).state
        assert np.max(np.abs(st.y.sum(axis=0))) <= 1e-10


def test_led_server_gamma_one_matches_complete_graph_round(quad6, complete6):
    x0 = np.zeros((6, 4))
    sl = led_init(x0, complete6, "zero")
    ss = GateState(x=np.zeros(4), y=np.zeros((6, 4)))
    for _ in range(100):
        sl = led_round(sl, quad6, complete6, HyperParams(alpha=0.1, tau=3)).state
        ss = led_server_round(ss, quad6, 0.1, 1.0 / 3.0, 1.0, 3).state
        assert np.max(np.abs(sl.x - ss.x)) <= 1e-12


def test_led_server_identical_nodes_keep_zero_dual():
    p = QuadraticProblem(np.eye(2), np.tile([1.0, -2.0], (4, 1)))
    st = GateState(x=np.zeros(2), y=np.zeros((4, 2)))
    for _ in range(30):
        st = led_server_round(st, p, 0.2, 0.5, 1.0, 2).state
        assert np.max(np.abs(st.y)) <= 1e-14


def test_led_server_large_gamma_keeps_dual_sum(quad6_noisy):
    gamma = np.sqrt(6.0)
    st = GateState(x=np.zeros(4), y=np.zeros((6, 4)))
    for r in range(100):
        st = led_server_round(st, quad6_noisy, 0.02, 0.5, gamma, 2,
                              RngStream(5).child("round", r)).state
        assert np.max(np.abs(st.y.sum(axis=0))) <= 1e-10


# the correction whose node sum each corrected method keeps at its start;
# scaffold's controls do not keep theirs
_CONSERVED = {"led": "y", "led1": "y", "pdfp2o": "y", "fedgate": "y",
              "vrl_sgd": "y", "led_server": "y", "scaffnew": "z", "kgt": "c"}


@settings(max_examples=60, deadline=None)
@given(algo=st.sampled_from(sorted(_CONSERVED)), seed=st.integers(0, 2**32),
       tau=st.integers(1, 4), alpha=st.floats(0.01, 0.2),
       p=st.sampled_from([0.5, 1.0]), lanes=st.integers(0, 3))
def test_corrections_keep_their_node_sum(quad6_noisy, ring6, complete6, algo,
                                         seed, tau, alpha, p, lanes):
    # lanes = 0 steps (N, m) states on a run's stream; lanes >= 1 steps
    # (L, N, m) states with an (L, 1, 1) alpha on the streams of runs 0, 0, 1
    w = complete6 if METHODS[algo].centralized else ring6
    x0 = np.random.default_rng(seed).normal(size=(6, 4))
    runs = [0]
    if lanes:
        x0 = np.stack([x0 + k for k in range(lanes)])
        alpha = alpha * np.array([1.0, 0.7, 0.4])[:lanes, None, None]
        runs = [0, 0, 1][:lanes]
    driver = Driver(algo, quad6_noisy, w, HyperParams(alpha=alpha, tau=tau, p=p))
    stream = RngStream.for_runs(seed, runs)
    state = driver.init(x0)
    name = _CONSERVED[algo]
    start = getattr(state, name).sum(axis=-2)
    for r in range(10):
        state = driver.step(state, stream.child("round", r)).state
        corr = getattr(state, name)
        scale = np.abs(corr).sum(axis=-2).max()
        assert np.abs(corr.sum(axis=-2) - start).max() <= 1e-12 * scale, r


# the optimal correction of each corrected method: its field and its value
# from alpha, the HyperParams and g_i = grad f_i(x*); None for the
# uncorrected methods
_OPTIMAL = {
    "led": ("y", lambda a, h, g: -(a / h.beta_eff) * g),
    "led1": ("y", lambda a, h, g: -a * g),  # led1 takes an unset beta as 1
    "pdfp2o": ("y", lambda a, h, g: -(a / h.eta_pd) * g),
    "scaffnew": ("z", lambda a, h, g: -g),
    "kgt": ("c", lambda a, h, g: -g),
    "scaffold": ("c", lambda a, h, g: g),
    "fedgate": ("y", lambda a, h, g: -h.tau * a * g),
    "vrl_sgd": ("y", lambda a, h, g: -h.tau * a * g),
    "led_server": ("y", lambda a, h, g: -(a / h.beta_eff) * g),
    "dsgd": None, "local_dsgd": None, "local_sgd": None,
}


@settings(max_examples=80, deadline=None)
@given(algo=st.sampled_from(sorted(_OPTIMAL)), seed=st.integers(0, 2**32),
       tau=st.integers(1, 4), alpha=st.floats(0.01, 0.2),
       complete=st.booleans(), p=st.sampled_from([0.5, 1.0]),
       eta=st.sampled_from([0.5, 1.0]), lanes=st.integers(0, 3))
def test_corrected_methods_stay_at_the_optimum(ring6, complete6, algo, seed,
                                               tau, alpha, complete, p, eta,
                                               lanes):
    # started at x* from its optimal correction, each corrected method stays
    # there on an exact heterogeneous quadratic; an uncorrected method stays
    # only when it takes one local step per round on the complete graph.
    # lanes >= 1 steps (L, N, m) states with an (L, 1, 1) alpha
    problem = quadratic_problem(6, 3, mu=0.3, lip=1.0, heterogeneity=1.0,
                                seed=seed)
    w = complete6 if complete or METHODS[algo].centralized else ring6
    x0 = np.tile(problem.x_star, (6, 1))
    g = problem.grads(x0)
    runs = [0]
    if lanes:
        x0 = np.stack([x0] * lanes)
        alpha = alpha * np.array([1.0, 0.7, 0.4])[:lanes, None, None]
        runs = [0, 0, 1][:lanes]
    h = HyperParams(alpha=alpha, tau=tau, p=p, eta_pd=eta)
    driver = Driver(algo, problem, w, h)
    state = driver.init(x0)
    if _OPTIMAL[algo] is not None:
        name, optimal = _OPTIMAL[algo]
        corr = np.zeros_like(getattr(state, name)) + optimal(alpha, h, g)
        state = replace(state, **{name: corr})
    start = state
    stream = RngStream.for_runs(seed, runs)
    for r in range(20):
        state = driver.step(state, stream.child("round", r)).state
    moved = max(np.abs(getattr(state, f.name) - getattr(start, f.name)).max()
                for f in fields(state))
    if _OPTIMAL[algo] is not None or (
            w is complete6 and (tau == 1 or algo == "dsgd")):
        assert moved <= 1e-12
    else:
        assert moved > 1e-8


@settings(max_examples=80, deadline=None)
@given(algo=st.sampled_from(sorted(_OPTIMAL)), seed=st.integers(0, 2**32),
       tau=st.integers(1, 4), alpha=st.floats(0.01, 0.2),
       complete=st.booleans(), p=st.sampled_from([0.5, 1.0]),
       eta=st.sampled_from([0.5, 1.0]), lanes=st.integers(0, 3))
def test_heterogeneity_does_not_enter_a_corrected_error(ring6, complete6, algo,
                                                        seed, tau, alpha,
                                                        complete, p, eta,
                                                        lanes):
    # on quadratics a corrected method's error (the state minus its optimum:
    # x*, and the optimal correction) evolves by a recursion in A_i, W, the
    # stepsizes and the noise alone; two problems with the same A_i and
    # different b, stepped on one stream from one error, give one error
    # trajectory.  An uncorrected method carries grad f_i(x*), which depends
    # on b, except where it stays at x* (see above)
    rng = np.random.default_rng(seed)
    one = quadratic_problem(6, 3, mu=0.3, lip=1.0, heterogeneity=1.0,
                            seed=seed, sigma=0.05)
    two = QuadraticProblem(one.a, one.b + 3 * rng.normal(size=one.b.shape),
                           sigma=0.05)
    w = complete6 if complete or METHODS[algo].centralized else ring6
    e0, d0 = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
    runs = [0]
    if lanes:
        e0, d0 = np.stack([e0 + k for k in range(lanes)]), np.stack([d0] * lanes)
        alpha = alpha * np.array([1.0, 0.7, 0.4])[:lanes, None, None]
        runs = [0, 0, 1][:lanes]
    h = HyperParams(alpha=alpha, tau=tau, p=p, eta_pd=eta)
    errors, scale = [], 1.0
    for problem in (one, two):
        driver = Driver(algo, problem, w, h)
        state = driver.init(problem.x_star + e0)
        optimum = {"x": problem.x_star}
        if _OPTIMAL[algo] is not None:
            name, optimal = _OPTIMAL[algo]
            optimum[name] = optimal(alpha, h, problem.grads_at(problem.x_star))
            state = replace(state, **{name: optimum[name] + d0})
        scale = max(scale, *(np.abs(v).max() for v in optimum.values()))
        stream = RngStream.for_runs(seed, runs)
        trajectory = []
        for r in range(20):
            state = driver.step(state, stream.child("round", r)).state
            trajectory.append([getattr(state, f.name) - optimum.get(f.name, 0.0)
                               for f in fields(state)])
        errors.append(trajectory)
    gap = max(np.abs(a - b).max() for ra, rb in zip(*errors)
              for a, b in zip(ra, rb))
    if _OPTIMAL[algo] is not None:
        assert gap <= 1e-11 * scale
    elif not (w is complete6 and (tau == 1 or algo == "dsgd")):
        assert gap > 1e-6


# the centroid moves by -s * alpha * sum_t grad_ledger_t, where s is the
# server relaxation: alpha * gamma for fedgate, gamma for led_server, and 1
# otherwise (vrl_sgd is fedgate with alpha * gamma = 1)
_RELAXATION = {"fedgate": lambda h: h.alpha * h.gamma,
               "led_server": lambda h: h.gamma}


@settings(max_examples=80, deadline=None)
# scaffnew at p < 1 on three lanes of two runs: its coins differ between the
# runs in some round, which takes the lane-skip branch
@example(algo="scaffnew", seed=0, tau=2, alpha=0.1, gamma=1.0, complete=False,
         p=0.5, lanes=3)
@given(algo=st.sampled_from(ALGORITHMS), seed=st.integers(0, 2**32),
       tau=st.integers(1, 4), alpha=st.floats(0.01, 0.2),
       gamma=st.floats(0.5, 2.0), complete=st.booleans(),
       p=st.sampled_from([0.5, 1.0]), lanes=st.integers(0, 3))
def test_centroid_replays_from_the_gradient_ledger(quad6_noisy, ring6,
                                                   complete6, algo, seed, tau,
                                                   alpha, gamma, complete, p,
                                                   lanes):
    # each round, on a noisy quadratic; lanes >= 1 steps (L, N, m) states
    # with an (L, 1, 1) alpha on the streams of runs 0, 0, 1
    w = complete6 if complete or METHODS[algo].centralized else ring6
    x0 = np.random.default_rng(seed).normal(size=(6, 4))
    runs = [0]
    if lanes:
        x0 = np.stack([x0 + k for k in range(lanes)])
        alpha = alpha * np.array([1.0, 0.7, 0.4])[:lanes, None, None]
        runs = [0, 0, 1][:lanes]
    h = HyperParams(alpha=alpha, gamma=gamma, tau=tau, p=p)
    driver = Driver(algo, quad6_noisy, w, h)
    step = alpha * _RELAXATION.get(algo, lambda h: 1.0)(h)
    stream = RngStream.for_runs(seed, runs)
    state = driver.init(x0)
    xbar = driver.positions(state).mean(axis=-2)
    for r in range(20):
        out = driver.step(state, stream.child("round", r))
        replay = xbar - (step * out.grad_ledger).sum(axis=-2)
        state, xbar = out.state, driver.positions(out.state).mean(axis=-2)
        assert np.abs(xbar - replay).max() <= 1e-12, r


# ---------------------------------------------------------------------------
# hyperparameters, accounting, driver
# ---------------------------------------------------------------------------

def test_hyperparams_defaults_and_validation():
    h = HyperParams(alpha=0.1, tau=5)
    assert h.beta_eff == pytest.approx(0.2)
    assert h.zeta_eff == pytest.approx(10.0)
    assert HyperParams(alpha=0.1, p=0.5).zeta_eff == pytest.approx(5.0)
    assert HyperParams(alpha=0.1, beta=0.7).beta_eff == 0.7
    with pytest.raises(ValueError):
        HyperParams(alpha=-1.0)
    with pytest.raises(ValueError):
        HyperParams(alpha=0.1, tau=0)
    # tau counts local steps: a float one used to fail at the first step
    assert HyperParams(tau=np.int64(3)).beta_eff == pytest.approx(1 / 3)
    for bad in (2.5, 3.0, float("nan"), "3", None, True):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"tau must be an integer, got {bad!r}") + "$"):
            HyperParams(alpha=0.1, tau=bad)
    with pytest.raises(ValueError):
        HyperParams(alpha=0.1, p=0.0)
    assert HyperParams(alpha=0.1, eta_pd=0.5).eta_pd == 0.5
    for bad in (0.0, -0.5, 2.0):
        with pytest.raises(ValueError, match="eta_pd"):
            HyperParams(alpha=0.1, eta_pd=bad)
    # an explicit dual stepsize must keep alpha*zeta/p <= 1
    assert HyperParams(alpha=0.05, p=0.5, zeta=10.0).zeta_eff == 10.0
    for bad, field in (({"p": 0.5, "zeta": 10.0}, "zeta"),
                       ({"beta": 0.0}, "beta"), ({"beta": -0.5}, "beta"),
                       ({"zeta": 0.0}, "zeta"), ({"zeta": -1.0}, "zeta")):
        with pytest.raises(ValueError, match=field):
            HyperParams(alpha=0.1, **bad)
    # every stepsize must be positive and finite; NaN fails every comparison
    for field in ("alpha", "gamma", "beta", "zeta"):
        for bad in (float("nan"), float("inf"), -float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match=f"^{field} must be positive"):
                HyperParams(**{"alpha": 0.1, field: bad})


def test_hyperparams_check_a_lane_alpha_entry_by_entry():
    # the harness steps a batch of lanes with an (L, 1, 1) alpha
    alphas = np.array([0.01, 0.1, 1.0])[:, None, None]
    h = HyperParams(alpha=alphas, tau=3, p=0.5)
    assert h.alpha is alphas and h.zeta_eff.shape == (3, 1, 1)
    assert replace(h, alpha=alphas[[True, False, True]]).alpha.shape == (2, 1, 1)
    for bad in (float("nan"), float("inf"), 0.0, -0.1):
        lanes = np.array([0.01, bad, 0.1])[:, None, None]
        with pytest.raises(ValueError, match="^alpha must be positive"):
            HyperParams(alpha=lanes)
        with pytest.raises(ValueError, match="^alpha must be positive"):
            replace(h, alpha=lanes)
    # alpha*zeta/p = 0.4 and 0.8 pass, and the third lane's 2.0 fails
    lanes = np.array([0.02, 0.04, 0.1])[:, None, None]
    HyperParams(alpha=lanes[:2], zeta=2.0, p=0.1)
    with pytest.raises(ValueError, match="^zeta = 2.0 puts alpha"):
        HyperParams(alpha=lanes, zeta=2.0, p=0.1)


def test_communication_accounting_matches_costs(quad6, ring6, complete6):
    h = HyperParams(alpha=0.05, tau=2)
    one_vector = {"led", "led1", "pdfp2o", "dsgd", "local_dsgd", "scaffnew"}
    for algo in ALGORITHMS:
        w = complete6 if METHODS[algo].centralized else ring6
        d = Driver(algo, quad6, w, h)
        out = d.step(d.init(np.zeros((6, 4))), RngStream(0).child("r", 0))
        expect = 1 if algo in one_vector or algo in (
            "local_sgd", "fedgate", "vrl_sgd", "led_server") else 2
        assert out.vectors_per_link == expect, algo
    assert Driver("kgt", quad6, ring6, h).step(
        Driver("kgt", quad6, ring6, h).init(np.zeros((6, 4))),
        None).vectors_per_link == 2


def test_driver_rejects_unknown_and_incompatible(quad6, quad6_noisy, ring6):
    with pytest.raises(ValueError):
        Driver("bogus", quad6, ring6, HyperParams())
    with pytest.raises(ValueError):
        Driver("scaffold", quad6, ring6, HyperParams())
    # the analysis forms are functions only, not table entries
    for algo in ("ed", "uda_ed"):
        for problem in (quad6, quad6_noisy):
            with pytest.raises(ValueError, match=f"unknown algorithm '{algo}'"):
                Driver(algo, problem, ring6, HyperParams())


def test_centralized_methods_are_refused_on_a_ring(quad6, ring6):
    # the README's list, written out so that a flipped table flag shows
    centralized = {"scaffold", "local_sgd", "fedgate", "vrl_sgd", "led_server"}
    assert centralized <= set(ALGORITHMS)
    for algo in ALGORITHMS:
        if algo in centralized:
            with pytest.raises(ValueError, match=f"^{algo} is a centralized "
                               "method and requires the complete graph"):
                Driver(algo, quad6, ring6, HyperParams())
        else:
            Driver(algo, quad6, ring6, HyperParams())


# a valid value, other than the default, for every HyperParams field
_OTHER_VALUES = {"alpha": 0.05, "beta": 0.7, "gamma": 3.0, "tau": 3, "p": 0.5,
                 "zeta": 2.0, "eta_pd": 0.5}


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_a_method_reads_exactly_its_declared_hyperparameters(
        algo, quad6_noisy, ring6, complete6):
    # the CLI reads only the declared keys, so the declaration must not lie:
    # a field outside it leaves a 3-round trace bitwise as it is, and each
    # field in it moves the trace
    assert set(_OTHER_VALUES) == {f.name for f in fields(HyperParams)}
    spec = METHODS[algo]
    assert set(spec.reads) <= set(_OTHER_VALUES), algo
    w = complete6 if spec.centralized else ring6
    cfg = ExperimentConfig(algo, quad6_noisy, w, HyperParams(alpha=0.1, tau=2),
                           rounds=3, num_runs=2)
    want = pickle.dumps(run_experiment(cfg))
    for name, value in _OTHER_VALUES.items():
        hyper = replace(cfg.hyper, **{name: value})
        got = pickle.dumps(run_experiment(replace(cfg, hyper=hyper)))
        assert (got != want) == (name in spec.reads), (algo, name)


def test_driver_positions_shape(quad6, ring6, complete6):
    for algo in ALGORITHMS:
        w = complete6 if METHODS[algo].centralized else ring6
        d = Driver(algo, quad6, w, HyperParams(alpha=0.01, tau=2))
        pos = d.positions(d.init(np.zeros((6, 4))))
        assert pos.shape == (6, 4), algo


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_stacked_states_step_as_separate_states(algo, quad6_noisy, ring6,
                                                complete6):
    # G = N = 6, so a batch of shared iterates has the (N, m) shape of one
    # unshared state; p = 0.5 makes scaffnew flip its coins
    logistic = synth_logistic(SynthConfig(n_nodes=6, dim=4, n_samples=50,
                                          sigma=0.05), seed=7)
    w = complete6 if METHODS[algo].centralized else ring6
    alphas = np.array([0.02, 0.05, 0.1, 0.2, 0.3, 0.4])
    h = HyperParams(alpha=0.1, tau=2, p=0.5)
    x0 = np.random.default_rng(5).normal(size=(6, 4))
    for problem in (quad6_noisy, logistic):
        solo = [Driver(algo, problem, w, replace(h, alpha=a)) for a in alphas]
        batch = Driver(algo, problem, w,
                       replace(h, alpha=alphas[:, None, None]))
        states = [d.init(x0) for d in solo]
        stacked = batch.init(np.stack([x0] * len(alphas)))
        for r in range(4):
            stream = RngStream(3).child("round", r)
            outs = [d.step(st, stream) for d, st in zip(solo, states)]
            out = batch.step(stacked, stream)
            states, stacked = [o.state for o in outs], out.state
            for k, (d, o) in enumerate(zip(solo, outs)):
                label = (algo, problem.n_nodes, r, k)
                for f in fields(o.state):
                    got, want = getattr(stacked, f.name)[k], getattr(o.state, f.name)
                    assert got.shape == want.shape, label
                    assert got.tobytes() == want.tobytes(), (label, f.name)
                assert out.grad_ledger[k].tobytes() == o.grad_ledger.tobytes()
                assert out.vectors_per_link == o.vectors_per_link, label
                got = batch.positions(stacked)[k]
                assert got.tobytes() == d.positions(o.state).tobytes(), label


def test_dsgd_id_ignores_tau(quad6, ring6):
    x0 = np.random.default_rng(20).normal(size=(6, 4))
    h = HyperParams(alpha=0.1, tau=7)
    d1 = Driver("dsgd", quad6, ring6, h)
    out = d1.step(d1.init(x0), None)
    expect = ring6.w @ (x0 - 0.1 * quad6.grads(x0))
    assert np.allclose(out.state.x, expect, atol=1e-15)


def test_led1_ignores_tau(quad6_noisy, ring6):
    # led1 pins tau = 1, and an unset beta is 1: exact diffusion
    x0 = np.random.default_rng(21).normal(size=(6, 4))
    for tau in (1, 5):
        d = Driver("led1", quad6_noisy, ring6, HyperParams(alpha=0.1, tau=tau))
        st, ref = d.init(x0), led_init(x0, ring6)
        for r in range(3):
            stream = RngStream(4).child("round", r)
            st = d.step(st, stream).state
            ref = led1_step(ref, quad6_noisy, ring6, 0.1, 1.0, stream).state
        assert np.array_equal(st.x, ref.x) and np.array_equal(st.y, ref.y), tau


# ---------------------------------------------------------------------------
# per-node, per-step loop references, each from its step's docstring formula
# ---------------------------------------------------------------------------

def _noise(problem, stream, t):
    """The (N, m) gradient noise of local step t, drawn through generator(),
    not through the oracle's shared draw."""
    draw = stream.child("grad_noise", t).generator().standard_normal(
        (problem.n_nodes, problem.dim))
    return problem.sigma * draw


def _mix(w, v, i):
    """sum_j w_ij v_j, term by term."""
    return sum(w[i, j] * v[j] for j in range(len(v)))


def _kgt_loop(x, c, problem, w, alpha, tau, eta, stream):
    """k_gt_round: tau steps along grad + c_i from x_i; b_i the round-average
    direction; x+ = W phi, c+ = c + (W - I) b."""
    n, m = x.shape
    noise = [_noise(problem, stream, t) for t in range(tau)]
    phi, b, ledger = np.empty((n, m)), np.empty((n, m)), np.zeros((tau, m))
    for i in range(n):
        p, direction = x[i].copy(), np.zeros(m)
        for t in range(tau):
            g = problem.grad(i, p) + noise[t][i]
            ledger[t] += g / n
            p = p - alpha * (g + c[i])
            direction += (g + c[i]) / tau
        phi[i], b[i] = p, direction
    x_new = np.array([_mix(w, phi, i) for i in range(n)])
    c_new = np.array([c[i] + _mix(w, b, i) - b[i] for i in range(n)])
    return (x_new, c_new), ledger


def _scaffold_loop(x, c, problem, w, alpha, tau, eta, stream):
    """scaffold_round: tau steps along grad - c_i + c_bar from the server's
    x; x+ = mean_i phi_i; c_i+ = c_i - c_bar + (x - phi_i) / (tau alpha)."""
    n, m = c.shape
    noise = [_noise(problem, stream, t) for t in range(tau)]
    c_bar = sum(c[i] for i in range(n)) / n
    phi, ledger = np.empty((n, m)), np.zeros((tau, m))
    for i in range(n):
        p = x.copy()
        for t in range(tau):
            g = problem.grad(i, p) + noise[t][i]
            ledger[t] += g / n
            p = p - alpha * (g - c[i] + c_bar)
        phi[i] = p
    x_new = sum(phi[i] for i in range(n)) / n
    c_new = np.array([c[i] - c_bar + (x - phi[i]) / (tau * alpha)
                      for i in range(n)])
    return (x_new, c_new), ledger


def _pdfp2o_loop(x, y, problem, w, alpha, tau, eta, stream):
    """pdfp2o_step: Phi_i = x_i - alpha grad_i - eta y_i; y+ = y + (I - W) Phi;
    x+ = ((1 - eta) I + eta W) Phi."""
    n, m = x.shape
    noise = _noise(problem, stream, 0)
    phi, ledger = np.empty((n, m)), np.zeros((1, m))
    for i in range(n):
        g = problem.grad(i, x[i]) + noise[i]
        ledger[0] += g / n
        phi[i] = x[i] - alpha * g - eta * y[i]
    y_new = np.array([y[i] + phi[i] - _mix(w, phi, i) for i in range(n)])
    x_new = np.array([(1 - eta) * phi[i] + eta * _mix(w, phi, i)
                      for i in range(n)])
    return (x_new, y_new), ledger


# name: (state class, step(state, problem, w, alpha, tau, eta, stream), loop)
_LOOPS = {
    "kgt": (TrackingState, lambda s, p, w, a, tau, eta, r:
            k_gt_round(s, p, w, a, tau, r), _kgt_loop),
    "scaffold": (ScaffoldState, lambda s, p, w, a, tau, eta, r:
                 scaffold_round(s, p, a, tau, r), _scaffold_loop),
    "pdfp2o": (PrimalDualState, lambda s, p, w, a, tau, eta, r:
               pdfp2o_step(s, p, w, a, eta, r), _pdfp2o_loop),
}


@settings(max_examples=60, deadline=None)
@given(algo=st.sampled_from(sorted(_LOOPS)), seed=st.integers(0, 2**32),
       tau=st.integers(1, 5), alpha=st.floats(0.01, 0.3),
       eta=st.floats(0.05, 1.0), lanes=st.integers(0, 3))
def test_steps_equal_their_per_node_loop_references(quad6_noisy, ring6, algo,
                                                    seed, tau, alpha, eta,
                                                    lanes):
    # lanes = 0 steps (N, m) states on run 0's stream; lanes >= 1 steps
    # (L, N, m) states with an (L, 1, 1) alpha on the streams of runs 0, 0, 1,
    # and lane k's loop runs on its run's own stream
    cls, step, loop = _LOOPS[algo]
    count = max(lanes, 1)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(count,) + ((4,) if algo == "scaffold" else (6, 4)))
    corr = 0.1 * rng.normal(size=(count, 6, 4))
    alphas = alpha * np.array([1.0, 0.7, 0.4])[:count]
    runs = [0, 0, 1][:count]
    state = cls(x, corr) if lanes else cls(x[0], corr[0])
    stream = RngStream.for_runs(seed, runs)
    refs = list(zip(x, corr))
    for r in range(3):
        out = step(state, quad6_noisy, ring6,
                   alphas[:, None, None] if lanes else alpha, tau, eta,
                   stream.child("round", r))
        state = out.state
        for k, run in enumerate(runs):
            refs[k], ledger = loop(*refs[k], quad6_noisy, ring6.w, alphas[k],
                                   tau, eta, RngStream(seed).child(
                                       "run", run, "round", r))
            got = [getattr(state, f.name) for f in fields(state)]
            got.append(out.grad_ledger)
            if lanes:
                got = [g[k] for g in got]
            for name, g, want in zip(("x", "correction", "ledger"), got,
                                     (*refs[k], ledger)):
                assert g.shape == want.shape, (r, k, name)
                assert np.max(np.abs(g - want)) <= 1e-12, (r, k, name)
