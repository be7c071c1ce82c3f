"""Opinion propagators for tie-decay Laplacian dynamics.

The opinion row vector x evolves as dx/dt = -x L(t)^T, where L(t) is
the tie-decay Laplacian. Over an interval between event times the
solution is a single matrix exponential (the interval factor), and the
map from x(0) to x(t_n) is the left-to-right product of those factors.
The discrete-time DeGroot model and its correspondence to the
continuous dynamics live here as well.
"""

from __future__ import annotations

import math
import os
import sys
from collections import deque
from contextlib import closing
from dataclasses import InitVar, dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .events import EventStream
from .tie_decay import (Ties, apply_events, dense_ties, laplacian, off_diagonal,
                        stream_ties, timeline, weight_matrix)

if TYPE_CHECKING:  # a serial run does not import concurrent.futures
    from concurrent.futures import Future


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

# _expm builds blocks of up to this many nodes, and every directed block,
# with _taylor's GEMMs; larger symmetric blocks with syevd.
# scripts/kernel_gate.py --rounds 9 (one CPU, one BLAS thread; median
# microseconds per slow-decay block of N nodes, _taylor / _deflated_eigh):
# N=16 113/84 (1.35x), 32 180/213 (0.84x), 48 286/469 (0.61x), 64 434/719
# (0.60x), 80 613/1077 (0.57x), 96 1012/1491 (0.68x), 113 1678/1986
# (0.84x), 128 2280/2530 (0.90x), 238 12436/8794 (1.41x); entries within
# 8.6e-14 of each other. The same measurement at N = 104-144 gave 0.81-0.97x,
# and 1.11-1.19x at 160-192. But 113 nodes gained nothing in a walk: one
# propagate of a bench/gen.py StreamSpec(113, 1000, 2500, 500) stream at
# alpha 0.01, medians of 5, took 1.02 s with syevd and 0.99 s with Taylor
# on one CPU (faster in 2 of 5), and 0.76 against 0.90 s on two CPUs,
# where the factor thread then ran every other block (iter_factors).
#
# iter_factors also queues every block above the gate on its factor thread,
# with a CPU to spare, and takes back the queued blocks that the thread has
# not started whenever it would wait for one (_in_order). The thread's syevd
# and GEMMs release the GIL, but _taylor's many short numpy calls each take
# it back, so below the gate the two threads mostly wait on each other.
# scripts/helper_gate.py (bench/gen.py StreamSpec(N, 4N, max(1600, 4N),
# 400), alpha 0.01, every block padded to N nodes, 7 alternating walks on 2
# vCPUs with one BLAS thread; median seconds serial -> every block queued on
# the thread, undirected and directed, the thread faster in n of 7):
# N=48 0.105 -> 0.247 and 0.100 -> 0.244 (0, 0), 64 0.155 -> 0.255 and
# 0.141 -> 0.235 (0, 0), 80 0.217 -> 0.281 and 0.207 -> 0.272 (0, 1), 96
# 0.340 -> 0.292 and 0.318 -> 0.288 (7, 7), 113 0.612 -> 0.385 and 0.579 ->
# 0.434 (7, 7), 160 1.170 -> 0.699 and 1.416 -> 0.824 (7, 7); the thread
# built 227-265 of the 399 blocks, and every M was the serial one. So the
# thread pays from 96 nodes and loses from 80 down. The gate stays at 96:
# lowering it to reach 81-96 would also move those blocks to syevd, which
# is slower there and changes their bits.
_GEMM_MAX = 96


def _taylor_terms(m: int, p: int) -> tuple[int, float, np.ndarray]:
    """The Paterson-Stockmeyer block p of the Taylor polynomial T_m, the
    largest theta with theta^(m+1) / (m+1)! <= 2^-53, and the coefficients
    K ((J+1) x (p+1), J = (m-1) // p) of T_m(X) = C_0 + X^p (C_1 + ... +
    X^p C_J), C_j = sum_i K[j, i] X^i: K[j, i] = 1/(jp+i)!, where row J
    runs to degree m."""
    top = (m - 1) // p
    K = np.zeros((top + 1, p + 1))
    for k in range(m + 1):
        j = min(k // p, top)
        K[j, k - j * p] = 1.0 / math.factorial(k)
    return p, (2.0 ** -53 * math.factorial(m + 1)) ** (1.0 / (m + 1)), K


# _taylor's Taylor degrees m, each of them with its _taylor_terms
_TAYLOR = {m: _taylor_terms(m, p)
           for m, p in ((4, 2), (6, 3), (8, 3), (12, 4), (16, 4))}

# iter_factors builds blocks of up to _STACK_MAX live nodes in stacks, one
# per size and _taylor_order, over windows of _STACK intervals. One CPU,
# one BLAS thread, medians of 5-7 walks of bench/gen.py streams (the
# sweep-fast-decay input at alphas 1 and 100, StreamSpec(113, 2196, 4000,
# 1441) at alphas 100, 1, 0.1 and 0.01, the ensemble-slow-decay input at
# 0.01 and 0.1): against no stacking, a gate of 24 took 0.58x, 0.63x, 0.55x,
# 0.64x, 0.83x, 1.03x, 0.90x and 1.00x; gates of 8, 16, 32 and 48 were no
# faster anywhere by more than the noise, and 32 and 48 were slower at
# 0.01. Windows of 16, 32, 64, 128 and 256 intervals: 64 -> 128 took
# 0.88-1.00x, 128 -> 256 another 0.91-0.97x on the fast-decay walks.
# Measured again with _taylor, in process on 2 vCPUs, medians of 5 walks of
# the same inputs (and the timeseries input at alpha 1) against a gate of
# 24: no stacking took 0.96-1.66x, a gate of 8 0.93-1.67x, 16 0.95-1.32x,
# and gates of 32, 48 and 64 0.98-1.06x, so 24 stays. Windows against 128,
# medians of 11 walks: 256 took 0.90, 0.99, 0.93, 0.94, 1.08 and 1.03x,
# so 128 stays too. _STACK_MAX must stay at most _GEMM_MAX: every stack
# then goes to _taylor, which raises no LinAlgError, and only a block built
# alone can fail a syevd solve (_stacked).
_STACK_MAX = 24
_STACK = 128

# Factors, built or still queued on the thread, that the walk may hold ahead
# of the product, beside the held stack window. A window of 8 was no faster
# on the aggregate-large input (0.418 against 0.406 s, medians of 10). With
# blocks taken back, medians of 5 walks of that input in each of 3 rounds:
# windows of 1, 2, 4 and 8 took 0.58-0.72, 0.46-0.53, 0.45-0.49 and
# 0.44-0.54 s.
_AHEAD = 4

# True while a pool of experiments._map_tasks uses the CPUs: set in its
# parent before the workers fork, so they inherit it, and cleared after.
_pool_busy = False


def _cpus() -> int:
    """CPUs this process may run on (its affinity mask, as ``taskset`` sets)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class _Job(NamedTuple):
    """A call queued on a helper thread: its ``future``, and the same
    ``call`` to run here instead once ``future.cancel()`` takes it back
    from the queue."""

    future: Future
    call: Callable[[], object]


def _queue(executor, fn, *args) -> _Job:
    """Queue ``fn(*args)`` on ``executor`` as a job this thread may take back."""
    return _Job(executor.submit(fn, *args), partial(fn, *args))


def _ran(call: Callable[[], object]) -> Future:
    """A finished future that holds the result or error of ``call()``."""
    from concurrent.futures import Future

    future = Future()
    try:
        future.set_result(call())
    except Exception as raised:
        future.set_exception(raised)
    return future


def _in_order(items: Iterable, window: int) -> Iterator:
    """Yield ``items`` in order, a future (an item with a ``result`` method)
    or a job (``_Job``) as its result, holding at most ``window`` items drawn
    beyond the one yielded. A failed future raises its error in its place,
    and an error that drawing ``items`` raises comes after the items before
    it, as in a serial loop.

    This thread does not wait while work is queued: when the item to yield
    next is a job no helper has started, it runs the job itself; while that
    item is still running on a helper, it takes back the first held job that
    no helper has started and runs it, again and again, and waits only when
    there is none. A job taken back keeps its result or error until its
    turn, so results and errors still come out in order.
    """
    held, items, error = deque(), iter(items), None

    def taken_back() -> bool:  # the first queued job, run here, if any
        for k, item in enumerate(held):
            if isinstance(item, _Job) and item.future.cancel():
                held[k] = _ran(item.call)
                return True
        return False

    def result(item):
        if isinstance(item, _Job):
            if item.future.cancel():
                return item.call()
            item = item.future
        if not hasattr(item, "result"):
            return item
        while not item.done() and taken_back():
            pass
        return item.result()

    while True:
        try:
            held.append(next(items))
        except StopIteration:
            break
        except Exception as raised:
            error = raised
            break
        if len(held) > window:
            yield result(held.popleft())
    while held:
        yield result(held.popleft())
    if error is not None:
        raise error


def _failures(Y: np.ndarray) -> list[ValueError | None]:
    """The sign and column-sum checks of each block of the stack ``Y``
    (m x k x k): the error of a block that fails them, None for one that
    passes. Written so that NaN entries fail too."""
    low = Y.min(axis=(1, 2), initial=0.0).tolist()
    drift = abs(Y.sum(axis=1) - 1.0).max(axis=1, initial=0.0).tolist()
    errors = []
    for lo, d in zip(low, drift):
        if not lo >= -_NEG_TOL:
            errors.append(ValueError(f"interval factor has entry {lo} < -{_NEG_TOL}"))
        elif not d <= _COLSUM_TOL:
            errors.append(ValueError("interval factor columns do not sum to 1"))
        else:
            errors.append(None)
    return errors


@dataclass(frozen=True)
class IntervalFactor:
    """Column-stochastic map of opinions across one inter-event interval.

    The factor is the identity outside one diagonal block on the live
    nodes ``idx``: entry ``[idx[a], idx[b]]`` is ``block[a, b]``. With
    no live node, ``idx`` and ``block`` are empty and the factor is the
    identity. The dense ``matrix`` is built only when it is read. The
    block is checked (``_failures``) unless ``checked`` says that its
    builder already did.
    """

    idx: np.ndarray
    block: np.ndarray
    node_count: int
    checked: InitVar[bool] = False

    def __post_init__(self, checked):
        if not checked and (error := _failures(self.block[None])[0]):
            raise error

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
    """exp(A) for a generator A, or for each of a stack of them
    (m x n x n): off-diagonals >= 0, columns summing to 0.

    Blocks of up to ``_GEMM_MAX`` nodes, and directed blocks of any size,
    go to the GEMM-only kernel ``_taylor``; larger symmetric blocks to
    ``_deflated_eigh``. Both broadcast, and each block of a stack comes
    out bit for bit as it would alone (for ``_taylor``, in a stack of one
    ``_taylor_order``).
    """
    if A.shape[-1] <= _GEMM_MAX or not (A == A.swapaxes(-1, -2)).all():
        return _taylor(A)
    return _deflated_eigh(A)


def _shift(A: np.ndarray) -> np.ndarray:
    """mu = max_j(-A_jj) of a generator block, or of each block of a stack."""
    return -A.diagonal(0, -2, -1).min(axis=-1, initial=0.0)


def _taylor_order(mu: float) -> tuple[int, int]:
    """The Taylor degree m and the squarings s that ``_taylor`` takes for a
    shift ``mu``: the fewest matrix products with mu / 2^s < theta_m, and
    of those the fewest squarings. Each degree costs one product more than
    the one below it, and its theta is more than twice as large, so that is
    the lowest degree with mu < theta_m, or else degree 16 and the fewest
    squarings."""
    for m, (_, theta, _) in _TAYLOR.items():
        if mu < theta:
            return m, 0
    return m, math.frexp(mu / theta)[1]  # the highest degree, 16


def _taylor(A: np.ndarray) -> np.ndarray:
    """exp(A) of a generator block or stack, from GEMMs only.

    With mu = max_j(-A_jj), B = A + mu I >= 0 entrywise and ||B||_1 = mu,
    since the columns of A sum to 0. P = e^{-mu/2^s} T_m(B/2^s), the
    Taylor polynomial summed by Paterson-Stockmeyer (``_taylor_terms``), is
    then squared s times, each column divided by its sum before each
    squaring (Xue & Ye, Math. Comp. 82, 2013; scaling and squaring after
    Al-Mohy & Higham, SIMAX 31, 2009). Every term is non-negative, so
    nothing cancels, columns sum to 1 to rounding whatever the norm of A,
    and exact zeros stay zero: an acyclic directed factor stays triangular.
    The last squaring is not renormalized, so the column-sum check of
    ``_failures`` still tests the result. A stack takes the
    ``_taylor_order`` of its largest mu. Every step is a ``matmul``, an
    elementwise operation or a column sum, so each block of a stack of one
    order comes out bit for bit as it would alone.
    """
    mu = _shift(A)
    m, s = _taylor_order(mu.max(initial=0.0))
    p, _, K = _TAYLOR[m]
    n = A.shape[-1]
    # X^0..X^p of X = B / 2^s, C-ordered so that a flat stride of n + 1
    # walks each diagonal (A itself may be an F-ordered view)
    X = np.zeros((*A.shape[:-2], p + 1, n, n))
    flat = X.reshape(*X.shape[:-2], n * n)
    flat[..., 0, ::n + 1] = 1.0
    np.multiply(A, 2.0 ** -s, out=X[..., 1, :, :])
    flat[..., 1, ::n + 1] += np.ldexp(mu, -s)[..., None]
    for k in range(2, p + 1):
        np.matmul(X[..., k - 1, :, :], X[..., 1, :, :], out=X[..., k, :, :])
    C = (K @ flat).reshape(*X.shape[:-3], len(K), n, n)
    P = C[..., -1, :, :]
    for j in range(len(K) - 2, -1, -1):
        P = np.add(C[..., j, :, :], X[..., p, :, :] @ P)
    if not s:  # otherwise the first renormalization cancels e^{-mu/2^s}
        P *= np.exp(-mu)[..., None, None]
    for _ in range(s):
        P /= np.add.reduce(P, axis=-2, keepdims=True)
        P = P @ P
    return P


def _deflated_eigh(A: np.ndarray) -> np.ndarray:
    """exp(A) of a symmetric generator block or stack, from ``syevd``.

    The Householder reflector H = I - beta v v^T with v = 1/sqrt(n) + e1,
    which maps 1/sqrt(n) to -e1, deflates the null vector: B = H A H has
    zero first row and column. ``eigh`` runs on the trailing block,
    B22 = V Lambda V^T, and exp(A) = Z Z^T with Z = H diag(1, V
    e^{Lambda/2}). Its columns sum to 1 to rounding of order eps, whatever
    the norm of A. ``eigh_lo``, ``exp`` and ``matmul`` broadcast, and each
    block of a stack comes out bit for bit as it would alone.
    """
    n = A.shape[-1]
    r = 1.0 / math.sqrt(n)
    beta = 1.0 / (1.0 + r)  # 2 / (v @ v)
    # rows and columns sum to 0, so A v = A[:, 0] and v^T A v = A[0, 0]:
    # B22 = A22 - y 1^T - 1 y^T
    y = (beta * r) * A[..., 1:, 0] - 0.5 * (beta * r) ** 2 * A[..., :1, 0]
    B = A[..., 1:, 1:] - y[..., :, None]
    B -= y[..., None, :]
    vals, vecs = eigh_lo(B, signature="d->dd")
    if np.isnan(vals[..., 0]).any():  # no convergence: the gufunc returns NaN
        raise np.linalg.LinAlgError("syevd did not converge")
    W = vecs * np.exp(0.5 * vals)[..., None, :]
    colsum = W.sum(axis=-2)
    Z = np.empty_like(A)
    Z[..., :, 0] = r  # H e1 = -1/sqrt(n); the sign cancels in Z Z^T
    Z[..., 0, 1:] = -r * colsum
    np.subtract(W, (beta * r * r) * colsum[..., None, :], out=Z[..., 1:, 1:])
    return Z @ Z.swapaxes(-1, -2)


def _live_block(ties: Ties, c: float) -> tuple[np.ndarray, np.ndarray]:
    """The live nodes ``idx`` of exp(c L^T), c <= 0, and the block of the
    generator c L^T on them.

    Ties with |c|*w below double-precision epsilon are dropped, and the
    live nodes are the ends of the others. The block is -laplacian(W')^T
    with W' = |c| W on the live ties. Row a of W' holds node ``idx[a]``'s
    ties over all N columns, so each diagonal entry is the sum of a whole
    row of N, zeros in place, as in the dense N x N generator.
    """
    cw = -c * ties.weights
    live = (cw >= _DEAD_TIE).nonzero()[0]
    sources, targets, cw = ties.sources[live], ties.targets[live], cw[live]
    if not ties.directed:  # each direction on its own
        sources, targets = (np.concatenate((sources, targets)),
                            np.concatenate((targets, sources)))
        cw = np.concatenate((cw, cw))
    n = ties.node_count
    ends = np.zeros(n, bool)
    ends[sources] = ends[targets] = True
    idx = ends.nonzero()[0]
    rank = np.empty(n, np.intp)
    rank[idx] = np.arange(len(idx))
    rows = np.zeros((len(idx), n))
    rows[rank[sources], targets] = cw
    return idx, -laplacian(rows, idx).T


def _stacked(blocks: list[tuple[np.ndarray, np.ndarray]], node_count: int
             ) -> Iterator[IntervalFactor]:
    """Yield the factors exp(A) of generator blocks ``(idx, A)`` in order.

    The blocks of each size and ``_taylor_order`` run through ``_expm`` as
    one stack, and their sign and column-sum checks run over the stack. The
    first block in order that fails them raises its error in its place,
    after the factors before it. A failed solve (``LinAlgError``, from
    ``syevd`` only) is raised as it happens: the walk holds only blocks of
    up to ``_STACK_MAX`` nodes, which go to ``_taylor``, so that is a
    single block.
    """
    groups: dict[tuple, list[int]] = {}
    for k, (idx, A) in enumerate(blocks):
        groups.setdefault((len(idx), _taylor_order(_shift(A))), []).append(k)
    built: list = [None] * len(blocks)
    for (size, _), ks in groups.items():
        As = [blocks[k][1] for k in ks]
        # a lone block goes as a view: np.stack would copy it
        Y = (_expm(As[0][None] if len(As) == 1 else np.stack(As)) if size
             else np.zeros((len(ks), 0, 0)))  # no live tie: the empty block
        np.maximum(Y, 0.0, out=Y)
        for k, block, error in zip(ks, Y, _failures(Y)):
            built[k] = error or IntervalFactor(blocks[k][0], block, node_count,
                                               checked=True)
    for fac in built:
        if isinstance(fac, Exception):
            raise fac
        yield fac


def _factor(idx: np.ndarray, A: np.ndarray, node_count: int) -> IntervalFactor:
    """The factor exp(A) of one generator block (``_stacked``); raises its
    error."""
    return next(_stacked([(idx, A)], node_count))


# The smallest normal double. Below it a product keeps fewer than 53 bits.
_NORMAL_MIN = sys.float_info.min


def _decay_c(alpha: float, dt: float) -> float:
    """c = (e^{-alpha*dt} - 1)/alpha, with expm1: no cancellation for
    small alpha * dt. Where alpha * dt is below the smallest normal double,
    expm1 returns it with too few bits; c is then its limit -dt, to within
    a relative alpha * dt / 2."""
    x = alpha * dt
    return math.expm1(-x) / alpha if x >= _NORMAL_MIN else -dt


def interval_factor(L: np.ndarray, delta_t: float, alpha: float) -> IntervalFactor:
    """exp(c * L^T) with c = (e^{-alpha*dt} - 1)/alpha <= 0.

    ``L`` is a dense N x N Laplacian; its diagonal is not read, and its
    off-diagonal entries must be <= 0 (``dense_ties``). -L^T has
    non-negative off-diagonals and zero column sums, so the result is
    entrywise non-negative and column-stochastic. It is one block on the
    nodes with a live tie (``_live_block``); all live nodes form one block,
    so rounding of about eps * ||c L|| from a heavy tie can reach every live
    entry, as it does in a dense ``expm``.
    """
    if not 0 <= delta_t < math.inf:
        raise ValueError(f"delta_t must be finite and >= 0, got {delta_t}")
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return _factor(*_live_block(dense_ties(-L), _decay_c(alpha, delta_t)), len(L))


def iter_factors(stream: EventStream, alpha: float,
                 upto: float | None = None) -> Iterator[IntervalFactor]:
    """Yield interval factors in time order up to ``upto``.

    The intervals, and the ``upto`` rule, are those of
    ``tie_decay.timeline``; each interval's generator block is built on this
    thread from its live ties (``_live_block``), and goes by its own size. A
    block of at most ``_STACK_MAX`` nodes is held, up to ``_STACK``
    intervals, and the held ones are built in stacks (``_stacked``). With a
    CPU to spare (``_cpus``, and no pool of ``experiments._map_tasks``
    running), every block of more than ``_GEMM_MAX`` nodes is queued on one
    factor thread, and this thread takes back the queued ones that the
    factor thread has not started whenever it would wait for a factor
    (``_in_order``). Every other block is built here (``_factor``), after
    the held ones. The thread starts with its first block. Factors come out
    in interval order, and so do their errors, wherever they were built. The
    thread is joined before this generator returns, raises or is closed, so
    a caller that may stop early closes it (``contextlib.closing``).
    """
    spare = not _pool_busy and _cpus() > 1
    n = stream.node_count
    thread = None

    def built():  # factors and the thread's jobs, in interval order
        nonlocal thread
        held = []  # stackable blocks, not yet built
        for _, dt, ties in timeline(stream, alpha, upto):
            idx, A = _live_block(ties, _decay_c(alpha, dt))
            if len(idx) <= _STACK_MAX:
                held.append((idx, A))
                if len(held) == _STACK:
                    yield from _stacked(held, n)
                    held = []
                continue
            yield from _stacked(held, n)
            held = []
            if spare and len(idx) > _GEMM_MAX:
                if thread is None:
                    from concurrent.futures import ThreadPoolExecutor
                    thread = ThreadPoolExecutor(1, "tiedyn-factor")
                yield _queue(thread, _factor, idx, A, n)
            else:
                yield _factor(idx, A, n)
        yield from _stacked(held, n)

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
    """A float copy of ``x0``, which must hold one finite opinion per node."""
    x = np.array(x0, dtype=float)
    if x.shape != (stream.node_count,):
        raise ValueError(
            f"opinion vector has shape {x.shape}, stream has N={stream.node_count}"
        )
    if not np.isfinite(x).all():
        raise ValueError("opinions must be finite")
    return x


def evolve_opinions(x0: np.ndarray, stream: EventStream, alpha: float,
                    upto: float | None = None) -> np.ndarray:
    """x0 @ M(upto), applied one interval factor at a time."""
    return _product(_opinions(x0, stream), stream, alpha, upto)


# ---------------------------------------------------------------------------
# DeGroot model


def degroot_transition(weights: np.ndarray) -> np.ndarray:
    """Column-normalize tie weights; all-zero (isolated) columns become
    identity columns, so those nodes keep their opinion. ``weights`` must
    pass the checks of ``off_diagonal``, and its diagonal (self-ties) must
    be >= 0 too."""
    weights = np.asarray(weights, dtype=float)
    off_diagonal(weights)
    if (weights.diagonal() < 0).any():
        raise ValueError("negative self-weights")
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
    weights (``stream_ties``) decay by e^{-alpha*delta_t}, the step's
    events are added, and opinions are averaged through the
    column-normalized transition. They decay by a plain multiply, not the
    timeline's flushing ``decay_to``, on purpose: column normalization is
    scale-invariant, so a column of tiny weights still defines a full
    transition, which flushing them to zero would erase.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not 0 < delta_t < math.inf:
        raise ValueError(f"delta_t must be positive and finite, got {delta_t}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    y = _opinions(y_init, stream)

    # step of each event, non-decreasing since the times are sorted
    step_of = stream.times // delta_t
    ties, edge_of_event = stream_ties(stream)
    w = ties.weights
    decay = math.exp(-alpha * delta_t)
    for k in range(steps):
        w *= decay
        start, stop = np.searchsorted(step_of, (k, k + 1))
        apply_events(w, edge_of_event[start:stop])
        y = y @ degroot_transition(weight_matrix(ties))
    return y
