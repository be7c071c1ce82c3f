"""Opinion propagators for tie-decay Laplacian dynamics.

The opinion row vector x evolves as dx/dt = -x L(t)^T, where L(t) is
the tie-decay Laplacian. Over an interval between event times the
solution is a single matrix exponential (the interval factor), and the
map from x(0) to x(t_n) is the left-to-right product of those factors.
The discrete-time DeGroot model and its correspondence to the
continuous dynamics live here as well, along with an independent RK4
integrator used only to verify the matrix-exponential path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dsyevd

from .events import Event, EventStream
from .tie_decay import apply_events, intervals

_COLSUM_TOL = 1e-10
_NEG_TOL = 1e-12
# Ties with |c|*w below this are dropped: they move no entry of the factor
# by more than rounding does.
_DEAD_TIE = np.finfo(float).eps
# Above this share of live nodes, all live nodes form one block and the
# component search is skipped (chosen by timing the benchmark workloads).
_DENSE_SHARE = 0.5


@dataclass(frozen=True)
class IntervalFactor:
    """Column-stochastic map of opinions across one inter-event interval.

    The factor is the identity outside its diagonal blocks: ``blocks``
    holds pairs ``(idx, Y)`` of disjoint node indices and the factor
    restricted to them, so entry ``[idx[a], idx[b]]`` is ``Y[a, b]``.
    The dense ``matrix`` is built only when it is read.
    """

    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    node_count: int
    t_start: float
    t_end: float

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("interval factor times must be finite")
        for _, Y in self.blocks:
            # written so that NaN entries fail too
            if not Y.min() >= -_NEG_TOL:
                raise ValueError(f"interval factor has entry {Y.min()} < -{_NEG_TOL}")
            if not abs(Y.sum(axis=0) - 1.0).max() <= _COLSUM_TOL:
                raise ValueError("interval factor columns do not sum to 1")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense N x N factor."""
        Y = np.eye(self.node_count)
        for idx, block in self.blocks:
            Y[np.ix_(idx, idx)] = block
        return Y

    def apply(self, M: np.ndarray) -> np.ndarray:
        """Overwrite ``M`` (a row vector or a matrix) with ``M @ Y``, block
        by block, and return it."""
        for idx, block in self.blocks:
            if len(idx) == self.node_count:  # every node: no gather or scatter
                M[...] = M @ block
            else:
                M[..., idx] = M[..., idx] @ block
        return M


@dataclass
class Propagator:
    """Accumulated opinion map M(t): x(t) = x(0) @ M."""

    matrix: np.ndarray


def _stable_coefficient(delta_t: float, alpha: float) -> float:
    """(e^{-alpha*dt} - 1)/alpha without cancellation for small alpha*dt."""
    return math.expm1(-alpha * delta_t) / alpha


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) for a generator A: off-diagonals >= 0, columns summing to 0.

    Symmetric A: the Householder reflector H = I - beta v v^T with
    v = 1/sqrt(n) + e1, which maps 1/sqrt(n) to -e1, deflates the null
    vector: B = H A H has zero first row and column. ``eigh`` runs on the
    trailing block, B22 = V Lambda V^T, and exp(A) = Z Z^T with
    Z = H diag(1, V e^{Lambda/2}). Its columns sum to 1 to rounding of
    order eps, whatever the norm of A.

    Other A: ``scipy.linalg.expm``, whose column sums drift from 1 by
    about eps * ||A||.
    """
    n = A.shape[0]
    if not (A == A.T).all():
        return scipy.linalg.expm(A)
    r = 1.0 / math.sqrt(n)
    beta = 1.0 / (1.0 + r)  # 2 / (v @ v)
    # rows and columns sum to 0, so A v = A[:, 0] and v^T A v = A[0, 0]:
    # B22 = A22 - y 1^T - 1 y^T
    y = (beta * r) * A[1:, 0] - 0.5 * (beta * r) ** 2 * A[0, 0]
    B = A[1:, 1:] - y[:, None]
    B -= y
    # LAPACK directly: numpy's eigh costs more per call on small blocks;
    # B.T is B's Fortran-ordered transpose, and only one triangle is read
    vals, vecs, info = dsyevd(B.T, compute_v=1, lower=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevd failed with info={info}")
    W = vecs * np.exp(0.5 * vals)
    colsum = W.sum(axis=0)
    Z = np.empty_like(A)
    Z[:, 0] = r  # H e1 = -1/sqrt(n); the sign cancels in Z Z^T
    Z[0, 1:] = -r * colsum
    np.subtract(W, (beta * r * r) * colsum, out=Z[1:, 1:])
    return Z @ Z.T


def _components(link: np.ndarray) -> list[np.ndarray]:
    """Node sets of the connected components of a symmetric boolean
    adjacency matrix, each in increasing order.

    Label propagation with pointer jumping: on the small graphs of one
    interval this is several times faster than
    ``scipy.sparse.csgraph.connected_components``, whose input
    validation costs about 0.2 ms a call.
    """
    k = link.shape[0]
    labels = np.arange(k)
    while True:
        # smallest label among self and neighbours, then pointer jumping
        new = np.where(link, labels, k).min(axis=1, initial=k)
        np.minimum(new, labels, out=new)
        new = new[new]
        if (new == labels).all():
            break
        labels = new
    roots = (labels == np.arange(k)).nonzero()[0]
    return [(labels == root).nonzero()[0] for root in roots]


def interval_factor(L: np.ndarray, delta_t: float, alpha: float,
                    t_start: float = 0.0) -> IntervalFactor:
    """exp(c * L^T) with c = (e^{-alpha*dt} - 1)/alpha <= 0, by blocks.

    -L^T has non-negative off-diagonals and zero column sums, so the
    result is entrywise non-negative and column-stochastic. Ties with
    |c|*|L_ij| below double-precision epsilon are dropped, and the
    factor is the identity on nodes without a live tie. Each connected
    component of the live ties is one block; when more than
    ``_DENSE_SHARE`` of the nodes are live, all live nodes form a
    single block instead, without the component search.
    """
    if not np.all(np.isfinite(L)):
        raise ValueError("nonfinite Laplacian")
    if not 0 <= delta_t < math.inf:
        raise ValueError(f"delta_t must be finite and >= 0, got {delta_t}")
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    n = L.shape[0]
    A = _stable_coefficient(delta_t, alpha) * L.T
    keep = A >= _DEAD_TIE  # off-diagonal only: the diagonal is <= 0
    nodes = (keep.any(axis=0) | keep.any(axis=1)).nonzero()[0]
    A *= keep
    A.flat[::n + 1] = -A.sum(axis=0)
    if len(nodes) > _DENSE_SHARE * n:
        groups = [nodes]
    else:
        live = keep[np.ix_(nodes, nodes)]
        groups = [nodes[c] for c in _components(live | live.T)]
    blocks = []
    for idx in groups:
        Y = _expm(A if len(idx) == n else A[np.ix_(idx, idx)])
        np.maximum(Y, 0.0, out=Y)
        blocks.append((idx, Y))
    return IntervalFactor(tuple(blocks), n, t_start, t_start + delta_t)


def iter_factors(stream: EventStream, alpha: float,
                 upto: float | None = None) -> Iterator[IntervalFactor]:
    """Yield interval factors in time order up to ``upto``.

    The intervals, and the ``upto`` rule, are those of
    ``tie_decay.intervals``.
    """
    for t_start, dt, L in intervals(stream, alpha, upto):
        yield interval_factor(L, dt, alpha, t_start=t_start)


def propagate(stream: EventStream, alpha: float,
              upto: float | None = None) -> Propagator:
    """Accumulate M(upto) as the time-ordered product of interval factors."""
    M = np.eye(stream.node_count)
    for fac in iter_factors(stream, alpha, upto):
        fac.apply(M)
    return Propagator(M)


def evolve_opinions(x0: np.ndarray, stream: EventStream, alpha: float,
                    upto: float | None = None) -> np.ndarray:
    """x0 @ M(upto), applied one interval factor at a time."""
    x = np.array(x0, dtype=float)
    if x.shape != (stream.node_count,):
        raise ValueError(
            f"opinion vector has shape {x.shape}, stream has N={stream.node_count}"
        )
    for fac in iter_factors(stream, alpha, upto):
        fac.apply(x)
    return x


def ode_oracle(x0: np.ndarray, stream: EventStream, alpha: float,
               upto: float | None = None, step: float = 1e-4) -> np.ndarray:
    """Integrate dx/dt = -x L(t)^T with classical RK4 at fixed step.

    Within each inter-event interval the Laplacian decays continuously,
    L(t) = L(t_prev+) e^{-alpha (t - t_prev)}. This path is independent
    of the matrix-exponential propagator and exists for verification.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x0, dtype=float).copy()

    def deriv(s: float, x: np.ndarray, LT: np.ndarray) -> np.ndarray:
        # s is the time elapsed since the start of the interval
        return -math.exp(-alpha * s) * (x @ LT)

    for _, dt, L in intervals(stream, alpha, upto):
        LT = L.T
        s = 0.0
        while s < dt:
            h = min(step, dt - s)
            k1 = deriv(s, x, LT)
            k2 = deriv(s + h / 2, x + h / 2 * k1, LT)
            k3 = deriv(s + h / 2, x + h / 2 * k2, LT)
            k4 = deriv(s + h, x + h * k3, LT)
            x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            s += h
    return x


# ---------------------------------------------------------------------------
# DeGroot model


def degroot_transition(weights: np.ndarray) -> np.ndarray:
    """Column-normalize tie weights; all-zero (isolated) columns become
    identity columns, so those nodes keep their opinion."""
    colsums = weights.sum(axis=0)
    B = np.eye(weights.shape[0])
    nz = colsums > 0
    B[:, nz] = weights[:, nz] / colsums[nz]
    return B


def degroot_from_laplacian(L: np.ndarray, t_prev: float, t_next: float,
                           alpha: float) -> IntervalFactor:
    """The DeGroot transition over [t_prev, t_next]: the interval factor."""
    if t_next < t_prev:
        raise ValueError("t_next must be >= t_prev")
    return interval_factor(L, t_next - t_prev, alpha, t_start=t_prev)


def degroot_run(y_init: np.ndarray, stream: EventStream, alpha: float,
                delta_t: float, steps: int) -> np.ndarray:
    """Discrete-time DeGroot opinions after ``steps`` transitions.

    Events are assigned to the grid by flooring their time to the
    nearest multiple of ``delta_t`` at or below. At each step the tie
    matrix decays by e^{-alpha*delta_t}, the step's event adjacency is
    added, and opinions are averaged through the column-normalized
    transition.
    """
    if delta_t <= 0:
        raise ValueError("delta_t must be positive")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    n = stream.node_count
    y = np.asarray(y_init, dtype=float).copy()
    if y.shape != (n,):
        raise ValueError("opinion vector dimension mismatch")

    per_step: dict[int, list[Event]] = {}
    for ev in stream.events:
        per_step.setdefault(int(ev.time // delta_t), []).append(ev)

    A_tilde = np.zeros((n, n))
    decay = math.exp(-alpha * delta_t)
    for k in range(steps):
        A_tilde = A_tilde * decay
        apply_events(A_tilde, per_step.get(k, ()), stream.directed)
        y = y @ degroot_transition(A_tilde)
    return y
