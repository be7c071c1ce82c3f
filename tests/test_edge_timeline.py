"""The edge-list walk against the dense walk it replaced, bit for bit.

The reference is the dense N x N walk: the whole weight matrix decayed
and bumped per event time, a fresh dense Laplacian per interval
(``dense_intervals`` of conftest), and the live block cut out of the
masked N x N generator ``c L^T``. It exponentiates each block alone
through the kernels' dispatch ``propagator._expm``. ``M`` of
``propagate``, ``x0 @ M`` of ``evolve_opinions`` and every time-series
snapshot must equal it exactly (``np.array_equal``), on small random
streams and on the four seed-101 inputs of ``bench/gen.py``. The stacked
kernel must give each block of a stack as it gives the block alone, and
a failing block of a stack must raise in interval order.
"""

import hashlib
import math

import numpy as np
import pytest

import tiedyn.experiments as experiments
import tiedyn.propagator as propagator
from conftest import STREAMS, dense_intervals, load_bench, stream_of, upto_points
from tiedyn.experiments import ExperimentConfig, run_time_series
from tiedyn.propagator import evolve_opinions, iter_factors, propagate
from tiedyn.tie_decay import timeline

ALPHAS = [0.01, 1.0, 100.0]


# ---------------------------------------------------------------------------
# the dense reference walk: conftest's dense_intervals, and its factors


def dense_expm(A):
    """exp(A) of one generator block, never in a stack."""
    return propagator._expm(A)


def dense_factor(L, dt, alpha):
    """(idx, Y): exp(c L^T) on the live block, from the masked N x N
    generator."""
    c = math.expm1(-alpha * dt) / alpha
    n = L.shape[0]
    A = c * L.T
    keep = A >= np.finfo(float).eps
    idx = (keep.any(axis=0) | keep.any(axis=1)).nonzero()[0]
    A *= keep
    A.flat[::n + 1] = -A.sum(axis=0)
    if len(idx) < n:
        A = A[np.ix_(idx, idx)]
    Y = dense_expm(A) if len(idx) else A
    np.maximum(Y, 0.0, out=Y)
    return idx, Y


def dense_apply(M, idx, Y):
    if len(idx) == M.shape[-1]:
        M[...] = M @ Y
    elif len(idx):
        M[..., idx] = M[..., idx] @ Y
    return M


def digest(*arrays):
    """One digest of the bytes of ``arrays`` (-0.0 read as 0.0)."""
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a + 0).tobytes())
    return h.hexdigest()


_dense = {}


def dense_walk(case, alpha, upto):
    """The reference ``M`` and ``x0 @ M`` (``x0 = linspace(-1, 1, N)``) of
    ``stream_of(case)`` up to ``upto``, and per interval one digest of
    (the product before it, its idx, its block); kept for the other tests."""
    key = (case, alpha, upto)
    if key not in _dense:
        stream = stream_of(case)
        M, x, rows = np.eye(stream.node_count), np.linspace(-1.0, 1.0, stream.node_count), []
        for _, dt, L in dense_intervals(stream, alpha, upto):
            idx, Y = dense_factor(L, dt, alpha)
            rows.append(digest(M, idx, Y))
            dense_apply(M, idx, Y)
            dense_apply(x, idx, Y)
        _dense[key] = M, x, rows
    return _dense[key]


# the random streams and the bench/gen.py inputs (conftest's stream_of)
BENCH_INPUTS = ["sweep-fast-decay", "ensemble-slow-decay", "timeseries", "aggregate-large"]
CASES = [*STREAMS, *BENCH_INPUTS]
CASE_IDS = [*(f"random-{k}" for k in range(len(STREAMS))), *BENCH_INPUTS]


@pytest.fixture
def cpus(monkeypatch):
    """A CPU to spare: blocks of more than _GEMM_MAX nodes are queued on
    the factor thread, and taken back by this thread where the factor
    thread has not started them, so a walk takes the stacked, the
    one-block and the thread's paths."""
    monkeypatch.setattr(propagator, "_cpus", lambda: 2)


# ---------------------------------------------------------------------------
# M, x0 @ M and the time-series snapshots equal the dense walk's


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_propagate_is_the_dense_walk(case, alpha, cpus):
    stream = stream_of(case)
    x0 = np.linspace(-1.0, 1.0, stream.node_count)
    for upto in upto_points(stream):
        M, x, _ = dense_walk(case, alpha, upto)
        assert np.array_equal(propagate(stream, alpha, upto).matrix, M)
    # x0 @ M up to a point inside an interval
    assert np.array_equal(evolve_opinions(x0, stream, alpha, upto), x)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
def test_time_series_snapshots_are_the_dense_walk(case, alpha, cpus, monkeypatch):
    # every row's M(t_n) and following factor, as run_time_series hands them
    # to _series_row, with the pool off so the rows stay in this process
    stream = stream_of(case)
    rows = []
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)
    monkeypatch.setattr(experiments, "_series_row",
                        lambda M, Y: rows.append((M.copy(), Y)) or (0.0, None, ""))
    run_time_series(stream, ExperimentConfig(alphas=[alpha]))
    M, _, expected = dense_walk(case, alpha, None)
    assert len(rows) == len(expected) + 1 and rows[-1][1] is None
    assert [digest(M_k, Y.idx, Y.block) for M_k, Y in rows[:-1]] == expected
    assert np.array_equal(rows[-1][0], M)


def test_bench_inputs_take_the_stacked_and_the_one_block_paths():
    # each block goes by its own size (iter_factors): the sweep's blocks
    # are all small enough to stack, slow decay and the time series build
    # almost all of theirs one at a time on _taylor, and every block of
    # aggregate-large is above the gate, where the factor thread takes
    # every other one
    sizes = {case: np.array([len(fac.idx) for alpha in load_bench("run").WORKLOADS[case].alphas
                             for fac in iter_factors(stream_of(case), alpha)])
             for case in BENCH_INPUTS}
    stack_max, gemm_max = propagator._STACK_MAX, propagator._GEMM_MAX
    assert sizes["sweep-fast-decay"].max() <= stack_max
    for case in ("ensemble-slow-decay", "timeseries"):
        one_at_a_time = (sizes[case] > stack_max) & (sizes[case] <= gemm_max)
        assert one_at_a_time.mean() > 0.95, case
    assert sizes["aggregate-large"].min() > gemm_max


# ---------------------------------------------------------------------------
# the stacked kernel


def random_generators(rng, k, m):
    """``m`` symmetric generator blocks of ``k`` nodes, built as the walk
    builds them (-laplacian(W')^T, F-ordered)."""
    blocks = []
    for _ in range(m):
        W = np.triu(rng.random((k, k)) * (rng.random((k, k)) < 0.6), 1)
        W = (W + W.T) * rng.choice([1e-3, 1.0, 40.0])
        L = -W
        np.fill_diagonal(L, W.sum(axis=1))
        blocks.append(-L.T)
    return blocks


def taylor_orders(blocks):
    """``blocks`` grouped by the ``_taylor_order`` that each takes alone."""
    groups = {}
    for A in blocks:
        order = propagator._taylor_order(propagator._shift(A))
        groups.setdefault(order, []).append(A)
    return list(groups.values())


@pytest.mark.parametrize("k", range(2, propagator._GEMM_MAX + 1))
def test_stacked_expm_is_each_block_alone(k):
    rng = np.random.default_rng(k)
    groups = taylor_orders(random_generators(rng, k, 15))
    assert max(map(len, groups)) > 1
    for group in groups:
        stacked = propagator._expm(np.stack(group))
        assert stacked.shape == (len(group), k, k)
        for A, Y in zip(group, stacked):
            assert np.array_equal(Y, propagator._expm(A))


@pytest.mark.parametrize("k", [2, 3, 5, 8, 13, 24, 48, 97, 120])
def test_stacked_syevd_is_each_block_alone(k):
    blocks = random_generators(np.random.default_rng(k), k, 5)
    stacked = propagator._deflated_eigh(np.stack(blocks))
    assert stacked.shape == (5, k, k)
    for A, Y in zip(blocks, stacked):
        assert np.array_equal(Y, propagator._deflated_eigh(A))


def test_stacked_factors_are_each_block_alone(monkeypatch):
    # _stacked groups the blocks of one size by _taylor_order
    stacks = []
    original = propagator._expm
    monkeypatch.setattr(propagator, "_expm", lambda A: stacks.append(len(A)) or original(A))
    blocks = [(np.arange(k), A) for k in (3, 7) for A in
              random_generators(np.random.default_rng(k), k, 12)]
    for fac, block in zip(propagator._stacked(blocks, 9), blocks, strict=True):
        alone = propagator._factor(*block, 9)
        assert np.array_equal(fac.block, alone.block)
        assert np.array_equal(fac.idx, alone.idx)
    assert max(stacks) > 1


def stacked_walk(monkeypatch):
    """STREAMS[0] at alpha 1 on one CPU: every block has at most 12 nodes,
    so with windows of 64 its 101 intervals go through the stacks of two
    windows. Returns the stream and the blocks (idx, A) of its intervals,
    in order."""
    monkeypatch.setattr(propagator, "_cpus", lambda: 1)
    monkeypatch.setattr(propagator, "_STACK", 64)
    stream = stream_of(STREAMS[0])
    blocks = []
    for _, dt, ties in timeline(stream, 1.0):
        blocks.append(propagator._live_block(ties, propagator._decay_c(1.0, dt)))
    assert len(blocks) > propagator._STACK
    assert max(len(idx) for idx, _ in blocks) <= propagator._STACK_MAX
    return stream, blocks


def walk_until_error(stream, error, match):
    """The factors a walk yields before it raises ``error``."""
    got = []
    with pytest.raises(error, match=match):
        for fac in iter_factors(stream, 1.0):
            got.append(fac)
    return got


@pytest.mark.parametrize("failing", [5, 70])
def test_stack_raises_a_failed_check_in_interval_order(monkeypatch, failing):
    stream, blocks = stacked_walk(monkeypatch)
    expected = list(iter_factors(stream, 1.0))
    target, original, stacks = blocks[failing][1], propagator._taylor, []

    def drifting(A):
        Y = original(A)
        for j, slice_ in enumerate(A.reshape(-1, *A.shape[-2:])):
            if np.array_equal(slice_, target):
                Y.reshape(-1, *Y.shape[-2:])[j] *= 1.001
                stacks.append(len(A) if A.ndim == 3 else 1)
        return Y

    monkeypatch.setattr(propagator, "_taylor", drifting)
    got = walk_until_error(stream, ValueError, "columns do not sum to 1")
    assert stacks and min(stacks) > 1  # found in its stack, not alone
    assert len(got) == failing
    for fac, want in zip(got, expected):
        assert np.array_equal(fac.idx, want.idx) and np.array_equal(fac.block, want.block)


def test_stack_keeps_the_sign_check(monkeypatch):
    stream, blocks = stacked_walk(monkeypatch)
    target, original = blocks[9][1], propagator._taylor

    def nan_block(A):
        Y = original(A)
        for j, slice_ in enumerate(A.reshape(-1, *A.shape[-2:])):
            if np.array_equal(slice_, target):
                Y.reshape(-1, *Y.shape[-2:])[j, 0, 0] = np.nan
        return Y

    monkeypatch.setattr(propagator, "_taylor", nan_block)
    assert len(walk_until_error(stream, ValueError, "has entry nan")) == 9
