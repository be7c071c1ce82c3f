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
from typing import Iterator

import numpy as np
import scipy.linalg

from .events import Event, EventStream
from .tie_decay import intervals

_COLSUM_TOL = 1e-10
_NEG_TOL = 1e-12


@dataclass(frozen=True)
class IntervalFactor:
    """Column-stochastic map of opinions across one inter-event interval."""

    matrix: np.ndarray
    t_start: float
    t_end: float

    def __post_init__(self):
        Y = self.matrix
        if np.min(Y) < -_NEG_TOL:
            raise ValueError(f"interval factor has entry {np.min(Y)} < -{_NEG_TOL}")
        colsums = Y.sum(axis=0)
        if np.max(np.abs(colsums - 1.0)) > _COLSUM_TOL:
            raise ValueError("interval factor columns do not sum to 1")


@dataclass
class Propagator:
    """Accumulated opinion map M(t): x(t) = x(0) @ M."""

    matrix: np.ndarray
    time: float
    n_intervals: int


def _stable_coefficient(delta_t: float, alpha: float) -> float:
    """(e^{-alpha*dt} - 1)/alpha without cancellation for small alpha*dt."""
    return math.expm1(-alpha * delta_t) / alpha


def _expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential; spectral fast path for exactly symmetric input."""
    if np.array_equal(A, A.T):
        vals, vecs = np.linalg.eigh(A)
        return (vecs * np.exp(vals)) @ vecs.T
    return scipy.linalg.expm(A)


def interval_factor(L: np.ndarray, delta_t: float, alpha: float,
                    t_start: float = 0.0) -> IntervalFactor:
    """exp(c * L^T) with c = (e^{-alpha*dt} - 1)/alpha <= 0.

    -L^T has non-negative off-diagonals and zero column sums, so the
    result is entrywise non-negative and column-stochastic.
    """
    if not np.all(np.isfinite(L)):
        raise ValueError("nonfinite Laplacian")
    if delta_t < 0:
        raise ValueError("delta_t must be >= 0")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    c = _stable_coefficient(delta_t, alpha)
    Y = _expm(c * L.T)
    np.clip(Y, 0.0, None, out=Y)
    return IntervalFactor(Y, t_start, t_start + delta_t)


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
    if upto is None:
        upto = stream.horizon
    M = np.eye(stream.node_count)
    count = 0
    for fac in iter_factors(stream, alpha, upto):
        M = M @ fac.matrix
        count += 1
    return Propagator(M, upto, count)


def evolve_opinions(x0: np.ndarray, stream: EventStream, alpha: float,
                    upto: float | None = None) -> np.ndarray:
    """x0 @ M(upto), applied one interval factor at a time."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (stream.node_count,):
        raise ValueError(
            f"opinion vector has shape {x.shape}, stream has N={stream.node_count}"
        )
    for fac in iter_factors(stream, alpha, upto):
        x = x @ fac.matrix
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
        for ev in per_step.get(k, ()):
            A_tilde[ev.source, ev.target] += 1.0
            if not stream.directed:
                A_tilde[ev.target, ev.source] += 1.0
        y = y @ degroot_transition(A_tilde)
    return y
