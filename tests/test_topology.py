"""Graphs, combination matrices, and spectra against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledsim import (Graph, MixingMatrix, build_graph, complete_mixing,
                    lazy_transform, metropolis_weights,
                    validate_combination_matrix)

# frozen oracle values: dense symmetric eigensolver on the stated matrices
RING4_RATE = 1.0 / 3.0
RING15_RATE = 0.9423636384284008
RING15_MIN_EIG = -0.31876506715587044


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

def test_ring3_is_triangle():
    g = build_graph("ring", 3)
    assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})


def test_complete4_has_six_edges():
    assert len(build_graph("complete", 4).edges) == 6


def test_ring15_degrees():
    g = build_graph("ring", 15)
    assert len(g.edges) == 15
    assert np.all(g.degrees() == 2)


def test_grid_structure():
    g = build_graph("grid", 6, rows=2, cols=3)
    # 2x3 grid: 3 horizontal pairs per row boundary pattern
    assert len(g.edges) == 7
    assert sorted(g.neighbors(0)) == [1, 3]


def test_grid_requires_matching_dims():
    with pytest.raises(ValueError):
        build_graph("grid", 6, rows=2, cols=2)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        build_graph("hexagon", 4)


def test_erdos_renyi_connected_and_deterministic():
    g1 = build_graph("erdos_renyi", 12, p=0.3, seed=2)
    g2 = build_graph("erdos_renyi", 12, p=0.3, seed=2)
    assert g1.edges == g2.edges
    # Graph __post_init__ enforces connectivity; reaching here is the check.
    assert g1.n_nodes == 12


def test_erdos_renyi_impossible_fails_loudly():
    with pytest.raises(RuntimeError):
        build_graph("erdos_renyi", 5, p=0.0, seed=0, max_retries=5)


def test_disconnected_graph_rejected():
    with pytest.raises(ValueError):
        Graph(4, frozenset({(0, 1), (2, 3)}))


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 0), (0, 1), (1, 2)}))


# ---------------------------------------------------------------------------
# metropolis weights
# ---------------------------------------------------------------------------

def test_metropolis_ring3_all_thirds():
    w = metropolis_weights(build_graph("ring", 3))
    assert np.allclose(w.w, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_metropolis_ring4():
    w = metropolis_weights(build_graph("ring", 4))
    assert w.w[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert w.w[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert w.w[0, 2] == 0.0  # non-edge
    assert w.mixing_rate == pytest.approx(RING4_RATE, abs=1e-12)


def test_metropolis_ring15_rate_anchor():
    w = metropolis_weights(build_graph("ring", 15))
    assert w.mixing_rate == pytest.approx(0.943, abs=1e-3)
    assert w.mixing_rate == pytest.approx(RING15_RATE, abs=1e-12)


def test_metropolis_sparsity_pattern():
    g = build_graph("grid", 6, rows=2, cols=3)
    w = metropolis_weights(g)
    for i in range(6):
        for j in range(6):
            if i != j and (min(i, j), max(i, j)) not in g.edges:
                assert w.w[i, j] == 0.0


# ---------------------------------------------------------------------------
# combination-matrix invariants and spectra
# ---------------------------------------------------------------------------

def _check_invariants(w: MixingMatrix):
    assert np.max(np.abs(w.w - w.w.T)) == 0.0
    assert np.max(np.abs(w.w.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(w.w >= 0)
    # mixing_rate equals the spectral norm of W - (1/N) 1 1^T
    dev = w.w - np.full((w.n, w.n), 1.0 / w.n)
    assert abs(w.mixing_rate - np.linalg.norm(dev, ord=2)) <= 1e-10


@pytest.mark.parametrize("kind,n,kw", [
    ("ring", 3, {}), ("ring", 15, {}), ("complete", 8, {}),
    ("grid", 12, {"rows": 3, "cols": 4}),
    ("erdos_renyi", 10, {"p": 0.4, "seed": 1}),
])
def test_mixing_invariants(kind, n, kw):
    _check_invariants(metropolis_weights(build_graph(kind, n, **kw)))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=20),
       p=st.floats(min_value=0.5, max_value=1.0),
       seed=st.integers(min_value=0, max_value=1000))
def test_mixing_invariants_random(n, p, seed):
    _check_invariants(metropolis_weights(
        build_graph("erdos_renyi", n, p=p, seed=seed)))


def test_complete_rate_zero():
    for n in (2, 5, 30):
        assert complete_mixing(n).mixing_rate <= 1e-12


def test_identity_rate_one():
    assert MixingMatrix.from_dense(np.eye(4)).mixing_rate == 1.0


def test_from_dense_rejects_bad_input():
    with pytest.raises(ValueError):
        MixingMatrix.from_dense(np.array([[0.5, 0.5], [0.4, 0.6]]))  # asymmetric
    with pytest.raises(ValueError):
        MixingMatrix.from_dense(np.array([[1.5, -0.5], [-0.5, 1.5]]))  # negative
    with pytest.raises(ValueError):
        MixingMatrix.from_dense(np.array([[0.5, 0.4], [0.4, 0.5]]))  # rows != 1


# ---------------------------------------------------------------------------
# lazy transform
# ---------------------------------------------------------------------------

def test_lazy_identity_fixed_point():
    w = MixingMatrix.from_dense(np.eye(5))
    assert np.array_equal(lazy_transform(w).w, np.eye(5))


def test_lazy_complete2():
    out = lazy_transform(complete_mixing(2))
    assert np.allclose(out.w, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)


def test_lazy_eigenvalue_map(ring15):
    lazy = lazy_transform(ring15)
    mapped = np.sort((1.0 + ring15.spectrum) / 2.0)
    assert np.max(np.abs(np.sort(lazy.spectrum) - mapped)) <= 1e-10
    assert lazy.mixing_rate == pytest.approx((1.0 + RING15_RATE) / 2.0, abs=1e-10)
    assert lazy.mixing_rate == pytest.approx(0.971, abs=1e-3)


# ---------------------------------------------------------------------------
# structural report
# ---------------------------------------------------------------------------

def test_report_ring15_not_positive_definite(ring15):
    rep = validate_combination_matrix(ring15)
    assert rep.symmetric and rep.doubly_stochastic and rep.primitive
    assert not rep.positive_definite
    assert rep.min_eigenvalue == pytest.approx(-0.319, abs=1e-3)
    assert rep.min_eigenvalue == pytest.approx(RING15_MIN_EIG, abs=1e-12)


def test_report_lazy_ring15_all_ok(ring15):
    rep = validate_combination_matrix(lazy_transform(ring15))
    assert rep.all_ok()
    assert rep.min_eigenvalue > 0


def test_report_identity_not_primitive():
    rep = validate_combination_matrix(MixingMatrix.from_dense(np.eye(4)))
    assert not rep.primitive
    assert rep.symmetric and rep.doubly_stochastic and rep.positive_definite
