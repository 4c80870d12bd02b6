"""Cross-method trajectory identities under shared noise streams.

Three families are checked:
  * the single-local-step triad (dual-corrected diffusion == relaxed
    primal-dual with full relaxation == probabilistic skipping with p = 1),
  * the two-term eliminated recursion and its dense-square-root twin,
  * the server-workers reduction on the complete graph.

The first and third are also hypothesis properties over seeds, sizes, tau
and alpha, with led_server's gamma = 1 link beside fedgate's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledsim import (HyperParams, RngStream, build_graph, complete_mixing,
                    metropolis_weights, quadratic_problem)
from ledsim.algorithms import (GateState, LedState, PrimalDualState,
                               ScaffnewState, ed_init, ed_eliminated_step,
                               fedgate_round, led1_step, led_init, led_round,
                               led_server_round, pdfp2o_step, scaffnew_round,
                               uda_ed_init, uda_ed_step)


def _mixings(n):
    return [metropolis_weights(build_graph("ring", n)), complete_mixing(n)]


@pytest.mark.parametrize("n", [3, 8])
@pytest.mark.parametrize("topo", [0, 1], ids=["ring", "complete"])
def test_single_step_triad(n, topo):
    """led1(beta=1) == pdfp2o(eta=1) == scaffnew(p=1, zeta=1/alpha).

    The skipping method's z maps to the dual via y = alpha * z; all three
    start from y = z = 0.
    """
    w = _mixings(n)[topo]
    alpha = 0.2
    prob = quadratic_problem(n, 3, mu=0.3, lip=1.0, heterogeneity=1.5,
                             seed=100 + n + topo, sigma=0.02)
    x0 = RngStream(50 + n).child("x0").normal((n, 3))
    a = led_init(x0, w, "zero")
    b = PrimalDualState(x=x0.copy(), y=np.zeros_like(x0))
    c = ScaffnewState(x=x0.copy(), z=np.zeros_like(x0))
    dev = 0.0
    for r in range(200):
        s = RngStream(1).child("round", r)
        a = led_round(a, prob, w, HyperParams(alpha=alpha, beta=1.0), s).state
        b = pdfp2o_step(b, prob, w, alpha, 1.0, s).state
        c = scaffnew_round(c, prob, w, alpha, 1.0 / alpha, 1.0, s).state
        dev = max(dev,
                  np.max(np.abs(a.x - b.x)),
                  np.max(np.abs(a.x - c.x)),
                  np.max(np.abs(b.x - c.x)),
                  np.max(np.abs(a.y - b.y)),
                  np.max(np.abs(a.y - alpha * c.z)))
    assert dev <= 1e-10


@pytest.mark.parametrize("n", [3, 8])
def test_eliminated_recursion_equals_square_root_form_and_led1(n):
    """Deterministic identity: the two-term recursion, the dense-root form
    (z0 = 0), and the single-step dual form (y0 = 0) share one trajectory.

    The mapping: the first dual-form round computes x1 = W(x0 - a grad(x0)),
    exactly the two-term bootstrap, and thereafter y accumulates (I - W) Phi
    while z accumulates B_half Phi, so B_half z = y for all rounds.
    """
    w = metropolis_weights(build_graph("ring", n))
    alpha = 0.3
    prob = quadratic_problem(n, 4, mu=0.2, lip=1.0, heterogeneity=2.0,
                             seed=200 + n)
    x0 = RngStream(60 + n).child("x0").normal((n, 4))
    led = led_init(x0, w, "zero")
    uda = uda_ed_init(x0, w)
    ed = ed_init(x0, prob, w, alpha)
    dev = 0.0
    for r in range(200):
        led = led1_step(led, prob, w, alpha, 1.0).state
        uda = uda_ed_step(uda, prob, w, alpha).state
        dev = max(dev, np.max(np.abs(led.x - uda.x)),
                  np.max(np.abs(led.x - ed.x_curr)))
        ed = ed_eliminated_step(ed, prob, w, alpha).state
    assert dev <= 1e-9


@pytest.mark.parametrize("tau", [1, 5])
def test_gated_averaging_reduces_to_complete_graph_rounds(tau):
    """Server-relaxed gated averaging with alpha*gamma = 1 equals the
    dual-corrected diffusion on the complete graph with beta = 1/tau,
    fed identical noise streams."""
    n = 6
    w = complete_mixing(n)
    alpha = 0.5
    prob = quadratic_problem(n, 3, mu=0.5, lip=1.0, heterogeneity=1.0,
                             seed=9, sigma=0.05)
    sf = GateState(x=np.zeros(3), y=np.zeros((n, 3)))
    sl = led_init(np.zeros((n, 3)), w, "zero")
    hp = HyperParams(alpha=alpha, beta=1.0 / tau, tau=tau)
    dev = 0.0
    for r in range(200):
        s = RngStream(0).child("round", r)
        sf = fedgate_round(sf, prob, alpha, 1.0 / alpha, tau, s).state
        sl = led_round(sl, prob, w, hp, s).state
        dev = max(dev, np.max(np.abs(sf.x - sl.x)),
                  np.max(np.abs(sf.y - sl.y)))
    assert dev <= 1e-12


# The same links as properties: random seeds, sizes, tau and alpha, on (N, m)
# states and on (L, N, m) states with an (L, 1, 1) alpha, whose lanes draw
# the noise of runs 0, 0, 1.  Every method of a link is fed the same stream.
_LINKS = dict(seed=st.integers(0, 2**32), n=st.integers(2, 8),
              alpha=st.floats(0.01, 0.5), lanes=st.integers(0, 3))


def _link_setup(seed, n, alpha, lanes):
    """A noisy quadratic, a start point, alpha and the stream of the lanes."""
    prob = quadratic_problem(n, 3, mu=0.3, lip=1.0, heterogeneity=1.0,
                             seed=seed, sigma=0.05)
    x0 = RngStream(seed).child("x0").normal((n, 3))
    runs = [0]
    if lanes:
        x0 = np.stack([x0 + k for k in range(lanes)])
        alpha = alpha * np.array([1.0, 0.7, 0.4])[:lanes, None, None]
        runs = [0, 0, 1][:lanes]
    return prob, x0, alpha, RngStream.for_runs(seed, runs)


def _centered(x0, seed):
    """A dual whose node sum is zero, shaped as x0."""
    y0 = RngStream(seed).child("y0").normal(x0.shape)
    return y0 - y0.mean(axis=-2, keepdims=True)


@settings(max_examples=100, deadline=None)
@given(complete=st.booleans(), **_LINKS)
def test_single_step_triad_as_a_property(seed, n, alpha, lanes, complete):
    """led(beta=1) == pdfp2o(eta=1) == scaffnew(p=1, zeta=1/alpha) at
    tau = 1, with y = alpha * z, from the dual (I - W) x0."""
    prob, x0, alpha, stream = _link_setup(seed, n, alpha, lanes)
    w = _mixings(n)[complete]
    a = led_init(x0, w)
    b = PrimalDualState(x=a.x.copy(), y=a.y.copy())
    c = ScaffnewState(x=a.x.copy(), z=a.y / alpha)
    h = HyperParams(alpha=alpha, beta=1.0)
    for r in range(100):
        s = stream.child("round", r)
        a = led_round(a, prob, w, h, s).state
        b = pdfp2o_step(b, prob, w, alpha, 1.0, s).state
        c = scaffnew_round(c, prob, w, alpha, 1.0 / alpha, 1.0, s).state
        assert max(np.abs(a.x - b.x).max(), np.abs(a.x - c.x).max(),
                   np.abs(a.y - b.y).max(),
                   np.abs(a.y - alpha * c.z).max()) <= 1e-10, r


@settings(max_examples=100, deadline=None)
@given(tau=st.integers(1, 6), **_LINKS)
def test_gated_averaging_link_as_a_property(seed, n, tau, alpha, lanes):
    """fedgate with alpha * gamma = 1 == led on the complete graph with
    beta = 1/tau, from a shared iterate and a centered dual."""
    prob, x0, alpha, stream = _link_setup(seed, n, alpha, lanes)
    w = complete_mixing(n)
    y0 = _centered(x0, seed)
    sf = GateState(x=x0[..., 0, :], y=y0)
    sl = LedState(x=np.broadcast_to(x0[..., :1, :], x0.shape).copy(), y=y0)
    h = HyperParams(alpha=alpha, beta=1.0 / tau, tau=tau)
    for r in range(100):
        s = stream.child("round", r)
        sf = fedgate_round(sf, prob, alpha, 1.0 / alpha, tau, s).state
        sl = led_round(sl, prob, w, h, s).state
        assert max(np.abs(sf.x[..., None, :] - sl.x).max(),
                   np.abs(sf.y - sl.y).max()) <= 1e-10, r


@settings(max_examples=100, deadline=None)
@given(tau=st.integers(1, 6), tau_beta=st.floats(0.05, 1.0), **_LINKS)
def test_server_workers_link_as_a_property(seed, n, tau, alpha, lanes,
                                           tau_beta):
    """led_server with gamma = 1 == led on the complete graph with the same
    beta, from a shared iterate and a centered dual.  beta * tau <= 1: at
    beta * tau = 3 both grow to about 1e28 in 100 rounds."""
    prob, x0, alpha, stream = _link_setup(seed, n, alpha, lanes)
    beta = tau_beta / tau
    w = complete_mixing(n)
    y0 = _centered(x0, seed)
    sv = GateState(x=x0[..., 0, :], y=y0)
    sl = LedState(x=np.broadcast_to(x0[..., :1, :], x0.shape).copy(), y=y0)
    h = HyperParams(alpha=alpha, beta=beta, tau=tau)
    for r in range(100):
        s = stream.child("round", r)
        sv = led_server_round(sv, prob, alpha, beta, 1.0, tau, s).state
        sl = led_round(sl, prob, w, h, s).state
        assert max(np.abs(sv.x[..., None, :] - sl.x).max(),
                   np.abs(sv.y - sl.y).max()) <= 1e-10, r
