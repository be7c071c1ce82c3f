"""Live-block interval factors against the dense reference.

The reference factor of an interval is scipy.linalg.expm(c L^T) on the
full N x N Laplacian, c = (e^{-alpha dt} - 1)/alpha; the reference
propagator is the product of those. Live-block factors, propagators,
opinions and time-series rows must match it to 1e-12 entrywise.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import tiedyn.propagator as propagator
from tiedyn.events import EventStream, group_event_times, parse_events
from tiedyn.experiments import ExperimentConfig, run_time_series
from tiedyn.propagator import (IntervalFactor, _deflated_eigh, _expm, _taylor,
                               evolve_opinions, interval_factor, iter_factors,
                               propagate)
from tiedyn.spectral import DegenerateFiedlerError, shrinkage_ratio, spectral_gap
from tiedyn.tie_decay import laplacian

from conftest import dense_intervals, heavy_edge_laplacian, make_random_stream

ALPHAS = np.geomspace(1e-3, 1e3, 7)
TOL = 1e-12


def reference_factors(stream, alpha, upto=None):
    return [scipy.linalg.expm(math.expm1(-alpha * dt) / alpha * L.T)
            for _, dt, L in dense_intervals(stream, alpha, upto)]


def reference_product(stream, alpha, upto=None):
    M = np.eye(stream.node_count)
    for Y in reference_factors(stream, alpha, upto):
        M = M @ Y
    return M


def sparse_stream(seed, directed=False, n=12, n_events=40):
    """Few contacts per time among many nodes: small live sets."""
    rng = np.random.default_rng(seed)
    times = np.round(np.sort(rng.uniform(0, 40, size=n_events)), 1)
    times -= times[0]
    pairs = np.array([rng.choice(n, size=2, replace=False) for _ in times])
    return EventStream(times, pairs[:, 0], pairs[:, 1], n,
                       tuple(map(str, range(n))), directed)


def crossing_stream():
    """Live set of 2 of 10 nodes, then all 10 at once, then 2 again.

    At alpha=5 and unit gaps the ties of one time are dead (|c| w < eps)
    after about 8 time units, so the live set grows to every node at
    t=10 and shrinks again once the crowd's ties have died.
    """
    lines = [f"{t} a b" for t in range(10)]
    lines += [f"10 {u} {w}" for u, w in zip("abcdefghij", "bcdefghija")]
    lines += [f"{t} c d" for t in range(11, 30)]
    return parse_events("\n".join(lines))


def check_factors_match_dense_expm(seed, directed):
    for stream in (make_random_stream(seed, directed=directed),
                   sparse_stream(seed, directed=directed)):
        for alpha in ALPHAS:
            refs = reference_factors(stream, alpha)
            facs = list(iter_factors(stream, alpha))
            assert len(facs) == len(refs)
            for fac, ref in zip(facs, refs):
                assert np.max(np.abs(fac.matrix - ref)) < TOL


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_factors_match_dense_expm(seed, directed):
    check_factors_match_dense_expm(seed, directed)


@pytest.mark.parametrize("seed", range(6))
def test_factors_match_dense_expm_on_syevd(seed, syevd):
    # directed blocks take _taylor at every size
    check_factors_match_dense_expm(seed, False)
    assert syevd


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_propagate_matches_dense_product(seed, directed):
    stream = sparse_stream(seed, directed=directed)
    for alpha in ALPHAS:
        M = propagate(stream, alpha).matrix
        assert np.max(np.abs(M - reference_product(stream, alpha))) < TOL


@pytest.mark.parametrize("seed", range(4))
def test_propagate_upto_inside_interval(seed):
    stream = sparse_stream(seed)
    times = [t for t, _, _ in group_event_times(stream)]
    for k in (1, len(times) // 2, len(times) - 1):
        upto = 0.5 * (times[k - 1] + times[k])
        for alpha in (1e-3, 1.0, 1e3):
            M = propagate(stream, alpha, upto=upto).matrix
            ref = reference_product(stream, alpha, upto=upto)
            assert np.max(np.abs(M - ref)) < TOL


def test_live_set_grows_and_shrinks():
    stream = crossing_stream()
    alpha = 5.0
    sizes = [len(fac.idx) for fac in iter_factors(stream, alpha)]
    assert sizes[:9] == [2] * 9 and 10 in sizes and sizes[-1] == 2
    M = propagate(stream, alpha).matrix
    assert np.max(np.abs(M - reference_product(stream, alpha))) < TOL
    for fac, ref in zip(iter_factors(stream, alpha),
                        reference_factors(stream, alpha)):
        assert np.max(np.abs(fac.matrix - ref)) < TOL


@pytest.mark.parametrize("seed", range(4))
def test_evolve_opinions_matches_dense(seed):
    stream = sparse_stream(seed)
    x0 = np.random.default_rng(seed).normal(size=stream.node_count)
    before = x0.copy()
    for alpha in (1e-2, 1.0, 100.0):
        x = evolve_opinions(x0, stream, alpha)
        assert np.max(np.abs(x - x0 @ reference_product(stream, alpha))) < TOL
    assert np.array_equal(x0, before)  # the caller's vector is not touched


@pytest.mark.parametrize("seed", range(4))
def test_time_series_matches_dense(seed):
    stream = sparse_stream(seed, n=8, n_events=25)
    alpha = 0.5
    rows = run_time_series(stream, ExperimentConfig(alphas=[alpha]))
    M = np.eye(stream.node_count)
    refs = reference_factors(stream, alpha)
    assert len(rows) == len(refs) + 1
    for k, row in enumerate(rows):
        assert abs(row.gap - spectral_gap(M)) < TOL
        if k < len(refs):
            try:
                ratio = shrinkage_ratio(M, refs[k])
            except DegenerateFiedlerError:
                ratio = None
            if ratio is None:
                assert row.shrinkage_ratio is None
            else:
                assert abs(row.shrinkage_ratio - ratio) < TOL
            M = M @ refs[k]


def test_shrinkage_ratio_blocked_equals_dense_matrix():
    stream = sparse_stream(3, n=8, n_events=25)
    facs = list(iter_factors(stream, 1.0))
    M = np.eye(stream.node_count)
    checked = 0
    for fac in facs:
        try:
            blocked = shrinkage_ratio(M, fac)
        except DegenerateFiedlerError:
            pass
        else:
            dense = shrinkage_ratio(M, fac.matrix)
            assert abs(blocked - dense) < TOL
            checked += 1
        M = M @ fac.matrix
    assert checked > 0


def test_dead_nodes_are_exact_identity():
    # at alpha=100 the tie a-b of t=0 is dead long before t=5
    s = parse_events("0 a b\n5 c d\n6 a c")
    fac = list(iter_factors(s, 100.0))[1]
    Y = fac.matrix
    a, b = s.labels.index("a"), s.labels.index("b")
    assert np.array_equal(Y[:, a], np.eye(4)[:, a])
    assert np.array_equal(Y[b], np.eye(4)[b])
    assert list(fac.idx) == sorted([s.labels.index("c"), s.labels.index("d")])


def test_one_expm_call_per_factor(monkeypatch):
    calls = []

    def counted(A):
        calls.append(A.shape[-1])
        return _expm(A)

    monkeypatch.setattr(propagator, "_expm", counted)
    stream = sparse_stream(0)  # live sets of several separate pairs
    for _, dt, L in dense_intervals(stream, 1.0):
        calls.clear()
        fac = interval_factor(L, dt, 1.0)
        assert calls == ([len(fac.idx)] if len(fac.idx) else [])


@pytest.mark.parametrize("cpus", [1, 2])
def test_failed_syevd_raises_in_its_interval(monkeypatch, cpus):
    # np.linalg.eigh raises LinAlgError for a failed solve, and _expm lets
    # it through
    eigh = np.linalg.eigh

    def fail(B, UPLO):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    L, c = heavy_edge_laplacian(0, scale=10.0, n=propagator._GEMM_MAX + 1)
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", fail)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            _expm(c * L.T)
    # a walk raises it in the failing interval's place, after the factors
    # before it; with the gate and the stack bound below 0, every live
    # block goes alone to syevd, in interval order on one CPU
    monkeypatch.setattr(propagator, "_GEMM_MAX", -1)
    monkeypatch.setattr(propagator, "_STACK_MAX", -1)
    monkeypatch.setattr(propagator, "_cpus", lambda: 1)
    stream, solved = sparse_stream(0), []

    def recorded(B, UPLO):
        solved.append(B.copy())
        return eigh(B, UPLO=UPLO)

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", recorded)
        factors = list(iter_factors(stream, 1.0))
    live = [k for k, fac in enumerate(factors) if len(fac.idx)]
    assert len(solved) == len(live) > 5
    target = solved[5]
    assert sum(np.array_equal(B, target) for B in solved) == 1

    def failing(B, UPLO):
        if np.array_equal(B, target):
            fail(B, UPLO)
        return eigh(B, UPLO=UPLO)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    monkeypatch.setattr(propagator, "_cpus", lambda: cpus)
    got = []
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        for fac in iter_factors(stream, 1.0):
            got.append(fac)
    assert len(got) == live[5]
    for fac, expected in zip(got, factors):
        assert np.array_equal(fac.idx, expected.idx)
        assert np.array_equal(fac.block, expected.block)


@pytest.mark.parametrize("stream", [sparse_stream(1), make_random_stream(1)],
                         ids=["sparse", "dense"])
def test_apply_matches_dense_product(stream):
    # the dense stream's factors mostly have every node live
    rng = np.random.default_rng(0)
    for fac in iter_factors(stream, 1.0):
        X = rng.normal(size=(3, stream.node_count))
        expected = X @ fac.matrix
        assert np.max(np.abs(fac.apply(X.copy()) - expected)) < TOL
        x = X[0].copy()
        assert fac.apply(x) is x
        assert np.max(np.abs(x - expected[0])) < TOL


# ---------------------------------------------------------------------------
# large |c| L: both kernels keep columns summing to 1 (the syevd fixture
# sends symmetric blocks to _deflated_eigh), and the 50-digit oracle of
# tests/test_taylor_kernel.py holds for both


def check_heavy_edge_factor(L, c):
    Y = interval_factor(L, 1000.0, 0.001).matrix
    assert np.max(np.abs(Y.sum(axis=0) - 1.0)) <= 1e-15
    assert np.min(Y) >= 0.0
    # scipy is accurate to about eps * ||c L|| ~ 1e-8 here
    assert np.max(np.abs(Y - scipy.linalg.expm(c * L.T))) < 1e-7


@pytest.mark.parametrize("seed", range(40))
def test_heavy_edge_factor_column_sums(seed):
    check_heavy_edge_factor(*heavy_edge_laplacian(seed))


@pytest.mark.parametrize("seed", range(40))
def test_heavy_edge_factor_column_sums_on_syevd(seed, syevd):
    check_heavy_edge_factor(*heavy_edge_laplacian(seed))
    assert syevd


@pytest.mark.parametrize("seed", range(40))
def test_heavy_directed_factor_column_sums(seed):
    check_heavy_edge_factor(*heavy_edge_laplacian(seed, directed=True))


@pytest.mark.parametrize("n", [propagator._GEMM_MAX + 1, 160, 238])
@pytest.mark.parametrize("norm", [1e-3, 1e-1, 10.0, 1e3, 1e5])
def test_kernels_agree_above_the_gate(n, norm):
    # the symmetric blocks that stay on syevd: it, _taylor and scipy agree,
    # and its columns sum to 1
    rng = np.random.default_rng(n)
    W = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.1), 1)
    W += W.T
    W *= norm / (2 * W.sum(axis=1).max())
    A = -laplacian(W).T
    Y = _deflated_eigh(A)
    assert np.array_equal(_expm(A), Y)
    assert np.max(np.abs(Y - _taylor(A))) < 1e-13
    assert np.max(np.abs(Y - scipy.linalg.expm(A))) < 1e-13
    assert np.max(np.abs(Y.sum(axis=0) - 1.0)) < 1e-14
    assert np.min(Y) >= -1e-15


def check_heavy_component_is_exact_average():
    pair = np.array([[1.0, -1.0], [-1.0, 1.0]])
    c = math.expm1(-1.0) / 0.001
    # the heavy pair as the only live tie
    L = np.zeros((10, 10))
    L[:2, :2] = 1.6e5 * pair
    Y = interval_factor(L, 1000.0, 0.001).matrix
    assert np.max(np.abs(Y[:2, :2] - 0.5)) <= 1e-15
    assert np.array_equal(Y[2:, 2:], np.eye(8))
    # with a light pair beside it: one live block of 4 nodes, so rounding
    # of about eps * ||c L|| from the heavy pair reaches the light one
    L[2:4, 2:4] = pair
    Y = interval_factor(L, 1000.0, 0.001).matrix
    bound = np.finfo(float).eps * np.linalg.norm(c * L, 2)  # 4.5e-8
    assert np.max(np.abs(Y[:4, :4] - scipy.linalg.expm(c * L[:4, :4]))) < bound
    assert np.max(np.abs(Y[:2, 2:4])) < bound
    assert np.array_equal(Y[4:, 4:], np.eye(6))
    assert np.array_equal(Y[:4, 4:], np.zeros((4, 6)))


def test_heavy_component_is_exact_average():
    check_heavy_component_is_exact_average()


def test_heavy_component_is_exact_average_on_syevd(syevd):
    check_heavy_component_is_exact_average()
    assert len(syevd) == 2


def test_acyclic_directed_factor_stays_triangular():
    # ties 0->1 and 1->2 only: L^T is triangular with eigenvalues c, c, 0
    s = parse_events("0 0 1\n0 1 2\n1 0 1", directed=True)
    for alpha in (0.01, 1.0, 100.0):
        Y = next(iter_factors(s, alpha)).matrix
        order = [s.labels.index(x) for x in "012"]
        P = Y[np.ix_(order, order)]
        assert np.array_equal(P, np.tril(P))
        c = math.expm1(-alpha) / alpha
        assert abs(spectral_gap(Y) - (1.0 - math.exp(c))) < 1e-15


# ---------------------------------------------------------------------------
# non-finite inputs


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_factor_rejects_nonfinite_alpha(alpha):
    L = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="alpha"):
        interval_factor(L, 1.0, alpha)


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_factor_rejects_nonfinite_interval(dt):
    L = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="delta_t"):
        interval_factor(L, dt, 1.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_propagate_rejects_nonfinite_alpha(alpha):
    s = parse_events("0 a b\n1 b c\n2 a c")
    with pytest.raises(ValueError, match="alpha"):
        propagate(s, alpha)


@pytest.mark.parametrize("block", [
    np.full((2, 2), np.nan),
    np.array([[1.5, 0.5], [-0.5, 0.5]]),
    np.array([[0.9, 0.5], [0.2, 0.5]]),
])
def test_interval_factor_validates_each_block(block):
    with pytest.raises(ValueError):
        IntervalFactor(np.array([0, 1]), block, 3)


@pytest.mark.parametrize("dt", [0.0, 1e-17])
def test_no_live_tie_is_identity(dt):
    # |c| * w = dt * w is below eps: the only tie is dead
    L = laplacian(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    fac = interval_factor(L, dt, 1.0)
    assert len(fac.idx) == 0 and fac.block.shape == (0, 0)
    assert np.array_equal(fac.matrix, np.eye(3))
    X = np.random.default_rng(0).normal(size=(2, 3))
    assert np.array_equal(fac.apply(X.copy()), X)


# ---------------------------------------------------------------------------
# property test: live-block factors and both kernels agree with dense expm


@st.composite
def small_laplacians(draw):
    n = draw(st.integers(2, 7))
    directed = draw(st.booleans())
    weights = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
        min_size=n * n, max_size=n * n))
    W = np.array(weights).reshape(n, n)
    np.fill_diagonal(W, 0.0)
    if not directed:
        W = np.triu(W) + np.triu(W).T
    return laplacian(W)


@settings(max_examples=150, deadline=None)
@given(L=small_laplacians(),
       alpha=st.floats(1e-3, 1e3),
       dt=st.floats(0.0, 20.0))
def test_blocked_dense_deflated_agree(L, alpha, dt):
    c = math.expm1(-alpha * dt) / alpha
    A = c * L.T
    live = interval_factor(L, dt, alpha).matrix
    # each kernel on one block over all N nodes; syevd on symmetric ones
    kernels = [_taylor(A)]
    if (A == A.T).all():
        kernels.append(_deflated_eigh(A))
    reference = scipy.linalg.expm(A)
    for Y in (live, *kernels):
        assert np.max(np.abs(Y - reference)) < TOL
        assert np.min(Y) >= -TOL
        assert np.max(np.abs(Y.sum(axis=0) - 1.0)) < TOL
