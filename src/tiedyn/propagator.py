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
import os
from collections import deque
from contextlib import closing, suppress
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .events import EventStream
from .tie_decay import apply_events, event_cells, intervals


def _eigh_lower(B: np.ndarray, signature: str | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(B, UPLO="L") with the contract of numpy's ``eigh_lo``
    gufunc: NaN eigenvalues and vectors where ``syevd`` does not converge."""
    try:
        return np.linalg.eigh(B, UPLO="L")
    except np.linalg.LinAlgError:
        return np.full(B.shape[-1], np.nan), np.full(B.shape, np.nan)


try:
    # numpy's syevd gufunc on the lower triangle: np.linalg.eigh(B, UPLO="L")
    # without its wrapper, which costs more than the solve on small blocks
    from numpy.linalg._umath_linalg import eigh_lo
except ImportError:  # a private name, which a numpy release may drop
    eigh_lo = _eigh_lower

_COLSUM_TOL = 1e-10
_NEG_TOL = 1e-12
# Ties with |c|*w below this are dropped: they move no entry of the factor
# by more than rounding does.
_DEAD_TIE = np.finfo(float).eps

# iter_factors sends an interval to its factor thread when it built the
# interval before on its own thread with at least this many live nodes: while
# live blocks stay this large, the intervals alternate between the threads.
# The factor thread's syevd and GEMMs release the GIL, but a small block
# spends most of its time in numpy calls that hold it. On 2 vCPUs with one BLAS
# thread, in process, 11 alternating runs of bench/gen.py streams of 399
# steps at alpha 0.01, with every block on the thread's turn sent to it:
# median walk 0.070 -> 0.108 s with live blocks of 32 nodes (slower in all
# 11), 0.110 -> 0.103 s at 40 (faster in 6) and 0.148 -> 0.136 s at 48
# (faster in 8). At 238 nodes (bench/run.py's aggregate-large input) it
# took 0.74x the serial time, median of 7.
_THREAD_MIN_LIVE = 48

# Factors, built or still on the thread, that the walk may hold ahead of the
# product; it bounds the blocks held at once. A window of 8 was no faster
# on the aggregate-large input (0.418 against 0.406 s, medians of 10).
_AHEAD = 4

# True while a pool of experiments._map_tasks uses the CPUs: set in its
# parent before the workers fork, so they inherit it, and cleared after.
_pool_busy = False


def _cpus() -> int:
    """CPUs this process may run on (its affinity mask, as ``taskset`` sets)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _in_order(items: Iterable, window: int) -> Iterator:
    """Yield ``items`` in order, a future (an item with a ``result`` method)
    as its result, holding at most ``window`` items drawn beyond the one
    yielded. A failed future raises its error in its place, and an error
    that drawing ``items`` raises comes after the items before it, as in
    a serial loop."""
    held, items, error = deque(), iter(items), None
    while True:
        try:
            held.append(next(items))
        except StopIteration:
            break
        except Exception as raised:
            error = raised
            break
        if len(held) > window:
            item = held.popleft()
            yield item.result() if hasattr(item, "result") else item
    while held:
        item = held.popleft()
        yield item.result() if hasattr(item, "result") else item
    if error is not None:
        raise error


@dataclass(frozen=True)
class IntervalFactor:
    """Column-stochastic map of opinions across one inter-event interval.

    The factor is the identity outside one diagonal block on the live
    nodes ``idx``: entry ``[idx[a], idx[b]]`` is ``block[a, b]``. With
    no live node, ``idx`` and ``block`` are empty and the factor is the
    identity. The dense ``matrix`` is built only when it is read.
    """

    idx: np.ndarray
    block: np.ndarray
    node_count: int

    def __post_init__(self):
        Y = self.block
        # written so that NaN entries fail too
        if not Y.min(initial=0.0) >= -_NEG_TOL:
            raise ValueError(f"interval factor has entry {Y.min()} < -{_NEG_TOL}")
        if not abs(Y.sum(axis=0) - 1.0).max(initial=0.0) <= _COLSUM_TOL:
            raise ValueError("interval factor columns do not sum to 1")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense N x N factor."""
        Y = np.eye(self.node_count)
        Y[np.ix_(self.idx, self.idx)] = self.block
        return Y

    def apply(self, M: np.ndarray) -> np.ndarray:
        """Overwrite ``M`` (a row vector or a matrix) with ``M @ Y`` and
        return it."""
        idx = self.idx
        if len(idx) == self.node_count:  # every node: no gather or scatter
            M[...] = M @ self.block
        elif len(idx):
            M[..., idx] = M[..., idx] @ self.block
        return M


@dataclass
class Propagator:
    """Accumulated opinion map M(t): x(t) = x(0) @ M."""

    matrix: np.ndarray


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) for a generator A: off-diagonals >= 0, columns summing to 0.

    Symmetric A: the Householder reflector H = I - beta v v^T with
    v = 1/sqrt(n) + e1, which maps 1/sqrt(n) to -e1, deflates the null
    vector: B = H A H has zero first row and column. ``eigh`` runs on the
    trailing block, B22 = V Lambda V^T, and exp(A) = Z Z^T with
    Z = H diag(1, V e^{Lambda/2}). Its columns sum to 1 to rounding of
    order eps, whatever the norm of A.

    Other A: ``scipy.linalg.expm``, whose column sums drift from 1 by
    about eps * ||A||. Only this branch imports scipy.
    """
    n = A.shape[0]
    if not (A == A.T).all():
        import scipy.linalg
        return scipy.linalg.expm(A)
    r = 1.0 / math.sqrt(n)
    beta = 1.0 / (1.0 + r)  # 2 / (v @ v)
    # rows and columns sum to 0, so A v = A[:, 0] and v^T A v = A[0, 0]:
    # B22 = A22 - y 1^T - 1 y^T
    y = (beta * r) * A[1:, 0] - 0.5 * (beta * r) ** 2 * A[0, 0]
    B = A[1:, 1:] - y[:, None]
    B -= y
    vals, vecs = eigh_lo(B, signature="d->dd")
    if vals[0] != vals[0]:  # no convergence: the gufunc returns NaN
        raise np.linalg.LinAlgError("syevd did not converge")
    W = vecs * np.exp(0.5 * vals)
    colsum = W.sum(axis=0)
    Z = np.empty_like(A)
    Z[:, 0] = r  # H e1 = -1/sqrt(n); the sign cancels in Z Z^T
    Z[0, 1:] = -r * colsum
    np.subtract(W, (beta * r * r) * colsum, out=Z[1:, 1:])
    return Z @ Z.T


def _live_factor(L: np.ndarray, c: float) -> IntervalFactor:
    """exp(c * L^T) for c <= 0, on one block of the live nodes.

    Ties with |c|*|L_ij| below double-precision epsilon are dropped, and
    the factor is the identity on nodes without a live tie. All live
    nodes form one block, so rounding of about eps * ||c L|| from a heavy
    tie can reach every live entry, as it does in a dense ``expm``.
    """
    if not np.all(np.isfinite(L)):
        raise ValueError("nonfinite Laplacian")
    n = L.shape[0]
    A = c * L.T
    keep = A >= _DEAD_TIE  # off-diagonal only: the diagonal is <= 0
    idx = (keep.any(axis=0) | keep.any(axis=1)).nonzero()[0]
    A *= keep
    A.flat[::n + 1] = -A.sum(axis=0)
    if len(idx) < n:
        A = A[np.ix_(idx, idx)]
    Y = _expm(A) if len(idx) else A  # no live tie: the empty block
    np.maximum(Y, 0.0, out=Y)
    return IntervalFactor(idx, Y, n)


def interval_factor(L: np.ndarray, delta_t: float, alpha: float) -> IntervalFactor:
    """exp(c * L^T) with c = (e^{-alpha*dt} - 1)/alpha <= 0.

    -L^T has non-negative off-diagonals and zero column sums, so the
    result is entrywise non-negative and column-stochastic. It is one
    block on the nodes with a live tie (``_live_factor``).
    """
    if not 0 <= delta_t < math.inf:
        raise ValueError(f"delta_t must be finite and >= 0, got {delta_t}")
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    # expm1: no cancellation for small alpha * dt
    return _live_factor(L, math.expm1(-alpha * delta_t) / alpha)


def _this_cpu() -> int | None:
    """The CPU this thread runs on, where Linux reports it."""
    try:
        with open("/proc/thread-self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _move_off(cpu: int | None) -> None:
    """Move this thread to another CPU than ``cpu``, then allow every CPU
    of its affinity mask again. Linux can leave a new thread, like a forked
    process, on its parent's CPU beside the busy parent for most of a
    second."""
    allowed = os.sched_getaffinity(0)
    if cpu in allowed and len(allowed) > 1:
        with suppress(OSError):
            os.sched_setaffinity(0, allowed - {cpu})
            os.sched_setaffinity(0, allowed)


def iter_factors(stream: EventStream, alpha: float,
                 upto: float | None = None) -> Iterator[IntervalFactor]:
    """Yield interval factors in time order up to ``upto``.

    The intervals, and the ``upto`` rule, are those of
    ``tie_decay.intervals``. With a CPU to spare (``_cpus``, and no pool of
    ``experiments._map_tasks`` running), an interval goes to a factor
    thread when the interval before it was built here with at least
    ``_THREAD_MIN_LIVE`` live nodes; this thread builds the others with
    ``interval_factor``. The thread starts with its first interval and
    moves off this thread's CPU once. Factors come out in interval order
    (``_in_order``), at most ``_AHEAD`` intervals behind the walk, and so
    do their errors, the thread's too. The thread is joined before this
    generator returns, raises or is closed, so a caller that may stop
    early closes it (``contextlib.closing``).
    """
    spare = not _pool_busy and _cpus() > 1
    thread = None

    def built():  # factors and the thread's futures, in interval order
        nonlocal thread
        live = -1  # live nodes of the previous interval's factor, if built here
        for _, dt, L in intervals(stream, alpha, upto):
            if spare and live >= _THREAD_MIN_LIVE:
                if thread is None:
                    from concurrent.futures import ThreadPoolExecutor
                    thread = ThreadPoolExecutor(1, "tiedyn-factor", _move_off,
                                                (_this_cpu(),))
                c = math.expm1(-alpha * dt) / alpha  # as in interval_factor
                yield thread.submit(_live_factor, L, c)
                live = -1
            else:
                yield (fac := interval_factor(L, dt, alpha))
                live = len(fac.idx)

    try:
        yield from _in_order(built(), _AHEAD)
    finally:
        if thread is not None:
            thread.shutdown(cancel_futures=True)


def _product(M: np.ndarray, stream: EventStream, alpha: float,
             upto: float | None) -> np.ndarray:
    """Overwrite ``M`` with ``M`` times every factor of ``iter_factors``, in
    interval order on this thread, and return it."""
    with closing(iter_factors(stream, alpha, upto)) as factors:
        for fac in factors:
            fac.apply(M)
    return M


def propagate(stream: EventStream, alpha: float,
              upto: float | None = None) -> Propagator:
    """Accumulate M(upto) as the time-ordered product of interval factors
    (``iter_factors``). The products run on this thread, in interval
    order, so M is bit-identical with or without the factor thread."""
    return Propagator(_product(np.eye(stream.node_count), stream, alpha, upto))


def _opinions(x0: np.ndarray, stream: EventStream) -> np.ndarray:
    """A float copy of ``x0``, which must hold one opinion per node."""
    x = np.array(x0, dtype=float)
    if x.shape != (stream.node_count,):
        raise ValueError(
            f"opinion vector has shape {x.shape}, stream has N={stream.node_count}"
        )
    return x


def evolve_opinions(x0: np.ndarray, stream: EventStream, alpha: float,
                    upto: float | None = None) -> np.ndarray:
    """x0 @ M(upto), applied one interval factor at a time."""
    return _product(_opinions(x0, stream), stream, alpha, upto)


def ode_oracle(x0: np.ndarray, stream: EventStream, alpha: float,
               upto: float | None = None, step: float = 1e-4) -> np.ndarray:
    """Integrate dx/dt = -x L(t)^T with classical RK4 at fixed step.

    Within each inter-event interval the Laplacian decays continuously,
    L(t) = L(t_prev+) e^{-alpha (t - t_prev)}. This path is independent
    of the matrix-exponential propagator and exists for verification.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    x = _opinions(x0, stream)

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


def degroot_run(y_init: np.ndarray, stream: EventStream, alpha: float,
                delta_t: float, steps: int) -> np.ndarray:
    """Discrete-time DeGroot opinions after ``steps`` transitions.

    Events are assigned to the grid by flooring their time to the
    nearest multiple of ``delta_t`` at or below. At each step the tie
    matrix decays by e^{-alpha*delta_t}, the step's event adjacency is
    added, and opinions are averaged through the column-normalized
    transition. It decays by a plain multiply, not the timeline's
    flushing ``decay_to``, on purpose: column normalization is
    scale-invariant, so a column of tiny weights still defines a full
    transition, which flushing them to zero would erase.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not 0 < delta_t < math.inf:
        raise ValueError(f"delta_t must be positive and finite, got {delta_t}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    n = stream.node_count
    y = _opinions(y_init, stream)

    # step of each event, non-decreasing since the times are sorted
    step_of = stream.times // delta_t
    cells = event_cells(stream.sources, stream.targets, n, stream.directed)
    A_tilde = np.zeros((n, n))
    decay = math.exp(-alpha * delta_t)
    for k in range(steps):
        A_tilde = A_tilde * decay
        start, stop = np.searchsorted(step_of, (k, k + 1))
        apply_events(A_tilde, cells[start:stop])
        y = y @ degroot_transition(A_tilde)
    return y
