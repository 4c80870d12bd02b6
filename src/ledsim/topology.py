"""Communication graphs, combination matrices, and their spectra."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problems import _count
from .rng import RngStream


@dataclass(frozen=True)
class Graph:
    """Undirected connected communication graph on nodes 0..n_nodes-1."""

    n_nodes: int
    edges: frozenset

    def __post_init__(self):
        _count("n_nodes", self.n_nodes)
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) not allowed")
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(f"edge ({i},{j}) out of range")
            if _edge(i, j) in seen:
                raise ValueError(f"edge ({i},{j}) repeated as ({j},{i})")
            seen.add(_edge(i, j))
        if not _connected(self.n_nodes, self.edges):
            raise ValueError("graph is not connected")

    def degrees(self) -> np.ndarray:
        return np.bincount(np.array(list(self.edges), dtype=int).ravel(),
                           minlength=self.n_nodes)


def _edge(i: int, j: int) -> tuple:
    return (i, j) if i < j else (j, i)


def _connected(n: int, edges) -> bool:
    if n == 1:
        return True
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def build_graph(kind: str, n: int, rows: int | None = None, cols: int | None = None,
                p: float | None = None, seed: int = 0) -> Graph:
    """Build a connected graph of the requested shape.

    kind is one of "ring", "grid", "complete", "erdos_renyi".  A grid needs
    rows*cols == n; erdos_renyi resamples up to 100 times until the draw is
    connected, attempt k drawing from RngStream(seed).child("erdos_renyi", k).
    """
    _count("n", n)
    if kind == "ring":
        if n == 1:
            edges = set()
        else:
            edges = {_edge(i, (i + 1) % n) for i in range(n)}
    elif kind == "complete":
        edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    elif kind == "grid":
        if _count("rows", rows) * _count("cols", cols) != n:
            raise ValueError("grid requires rows*cols == n")
        edges = set()
        for r in range(rows):
            for c in range(cols):
                u = r * cols + c
                if c + 1 < cols:
                    edges.add(_edge(u, u + 1))
                if r + 1 < rows:
                    edges.add(_edge(u, u + cols))
    elif kind == "erdos_renyi":
        if p is None or not (0.0 <= p <= 1.0):
            raise ValueError("erdos_renyi requires edge probability p in [0,1]")
        for attempt in range(100):
            mask = RngStream(seed).child("erdos_renyi", attempt).uniform((n, n)) < p
            edges = {(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]}
            if _connected(n, edges):
                break
        else:
            raise RuntimeError(
                "no connected erdos_renyi sample after 100 tries "
                f"(n={n}, p={p})")
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    return Graph(n, frozenset(edges))


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic combination matrix with cached spectrum.

    spectrum holds the eigenvalues sorted in descending order;
    mixing_rate is max_{i>=2} |lambda_i|, which equals the spectral norm of
    W - (1/N) 1 1^T for symmetric doubly stochastic W.
    """

    n: int
    w: np.ndarray
    spectrum: np.ndarray = field(repr=False)
    mixing_rate: float

    @classmethod
    def from_dense(cls, w: np.ndarray) -> "MixingMatrix":
        w = np.asarray(w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("combination matrix must be square")
        n = w.shape[0]
        if not np.array_equal(w, w.T):
            raise ValueError("combination matrix must be symmetric as stored")
        if np.any(w < 0):
            raise ValueError("combination matrix must be nonnegative")
        row_err = np.max(np.abs(w.sum(axis=1) - 1.0))
        if row_err > 1e-12:
            raise ValueError(f"rows must sum to 1 (max deviation {row_err:.3e})")
        eigs = np.linalg.eigvalsh(w)[::-1]
        rate = float(np.max(np.abs(eigs[1:]))) if n > 1 else 0.0
        return cls(n=n, w=w, spectrum=eigs, mixing_rate=rate)


def metropolis_weights(g: Graph) -> MixingMatrix:
    """Metropolis rule: w_ij = 1/(1+max(deg_i,deg_j)) on edges, diagonal fills."""
    n = g.n_nodes
    deg = g.degrees()
    i, j = np.array(list(g.edges), dtype=int).reshape(-1, 2).T
    w = np.zeros((n, n))
    w[i, j] = w[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return MixingMatrix.from_dense(w)


def lazy_transform(w: MixingMatrix) -> MixingMatrix:
    """Half-lazy walk 0.5*(W + I); maps each eigenvalue to (1+lambda)/2."""
    return MixingMatrix.from_dense(0.5 * (w.w + np.eye(w.n)))


@dataclass(frozen=True)
class CombinationReport:
    symmetric: bool
    doubly_stochastic: bool
    primitive: bool
    positive_definite: bool
    min_eigenvalue: float


def validate_combination_matrix(w: MixingMatrix) -> CombinationReport:
    """Diagnostic report on the structural requirements of a combination matrix.

    This reports rather than rejects: a ring with raw Metropolis weights is a
    perfectly usable matrix that simply is not positive definite.
    """
    m = w.w
    sym = bool(np.max(np.abs(m - m.T)) == 0.0)
    row_err = float(max(np.max(np.abs(m.sum(axis=1) - 1.0)),
                        np.max(np.abs(m.sum(axis=0) - 1.0))))
    ds = row_err <= 1e-12 and bool(np.all(m >= 0))
    # For symmetric doubly stochastic matrices, primitivity is exactly
    # "all nonleading eigenvalues have magnitude < 1".
    primitive = w.mixing_rate < 1.0 - 1e-12 if w.n > 1 else True
    min_eig = float(w.spectrum[-1])
    return CombinationReport(
        symmetric=sym,
        doubly_stochastic=ds,
        primitive=primitive,
        positive_definite=min_eig > 0.0,
        min_eigenvalue=min_eig,
    )


def complete_mixing(n: int) -> MixingMatrix:
    """Fully connected averaging matrix (1/N) 1 1^T."""
    _count("n", n)
    return MixingMatrix.from_dense(np.full((n, n), 1.0 / n))
