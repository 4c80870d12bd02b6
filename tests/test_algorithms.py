"""Single-round behavior, invariants, and communication accounting."""

import numpy as np
import pytest

from ledsim import (Driver, HyperParams, QuadraticProblem, RngStream,
                    complete_mixing, default_stepsize)
from ledsim.algorithms import (ALGORITHMS, CENTRALIZED, GateState,
                               PrimalDualState, PrimalState, ScaffnewState,
                               TrackingState, consensus_sqrt,
                               ed_eliminated_step, ed_init, fedgate_round,
                               k_gt_round, led1_step, led_init, led_round,
                               led_server_round, local_dsgd_round, pdfp2o_step,
                               scaffnew_round, scaffold_round, uda_ed_init,
                               uda_ed_step)


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
    st = ScaffoldState(x=x0, c=np.zeros((6, 4)), c_bar=np.zeros(4))
    out = scaffold_round(st, quad6, 0.1, 1)
    expect = (x0 - 0.1 * quad6.grads_at(x0)).mean(axis=0)
    assert np.allclose(out.state.x, expect, atol=1e-14)
    assert out.vectors_per_link == 2


def test_scaffold_identical_nodes_match_local_sgd():
    # symmetry: equal controls cancel in the corrected direction, so the
    # shared iterate follows plain averaged local SGD
    p = QuadraticProblem(np.eye(2), np.tile([1.0, 0.0], (5, 1)))
    from ledsim.algorithms import ScaffoldState
    st = ScaffoldState(x=np.zeros(2), c=np.zeros((5, 2)), c_bar=np.zeros(2))
    xc = np.zeros(2)
    for _ in range(20):
        st = scaffold_round(st, p, 0.2, 3).state
        for _ in range(3):
            xc = xc - 0.2 * (xc - np.array([1.0, 0.0]))
        assert np.max(np.abs(st.c - st.c[0])) <= 1e-14  # controls stay equal
        assert np.max(np.abs(st.x - xc)) <= 1e-12
    assert np.linalg.norm(st.x - np.array([1.0, 0.0])) <= 1e-5


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


# ---------------------------------------------------------------------------
# hyperparameters, accounting, driver
# ---------------------------------------------------------------------------

def test_default_stepsize_values():
    assert default_stepsize(1.0, 4, 100, 4) == pytest.approx(1.0 / 11.0)
    assert default_stepsize(1.0, 1, 16, 16) == pytest.approx(0.5)
    assert default_stepsize(2.0, 1, 10 ** 8, 1) < 1e-3


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


def test_communication_accounting_matches_costs(quad6, ring6, complete6):
    h = HyperParams(alpha=0.05, tau=2)
    one_vector = {"led", "led1", "pdfp2o", "dsgd", "local_dsgd", "scaffnew"}
    for algo in ALGORITHMS:
        w = complete6 if algo in CENTRALIZED else ring6
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


def test_driver_positions_shape(quad6, ring6, complete6):
    for algo in ALGORITHMS:
        w = complete6 if algo in CENTRALIZED else ring6
        d = Driver(algo, quad6, w, HyperParams(alpha=0.01, tau=2))
        pos = d.positions(d.init(np.zeros((6, 4))))
        assert pos.shape == (6, 4), algo


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
