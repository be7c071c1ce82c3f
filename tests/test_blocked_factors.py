"""Component-blocked interval factors against the dense reference.

The reference factor of an interval is scipy.linalg.expm(c L^T) on the
full N x N Laplacian, c = (e^{-alpha dt} - 1)/alpha; the reference
propagator is the product of those. Blocked factors, propagators,
opinions and time-series rows must match it to 1e-12 entrywise.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import tiedyn.propagator as propagator
from tiedyn.events import Event, EventStream, group_event_times, parse_events
from tiedyn.experiments import ExperimentConfig, run_time_series
from tiedyn.propagator import (IntervalFactor, _expm, evolve_opinions,
                               interval_factor, iter_factors, propagate)
from tiedyn.spectral import DegenerateFiedlerError, shrinkage_ratio, spectral_gap
from tiedyn.tie_decay import intervals, laplacian

from conftest import make_random_stream

ALPHAS = np.geomspace(1e-3, 1e3, 7)
TOL = 1e-12


def reference_factors(stream, alpha, upto=None):
    return [scipy.linalg.expm(math.expm1(-alpha * dt) / alpha * L.T)
            for _, dt, L in intervals(stream, alpha, upto)]


def reference_product(stream, alpha, upto=None):
    M = np.eye(stream.node_count)
    for Y in reference_factors(stream, alpha, upto):
        M = M @ Y
    return M


def sparse_stream(seed, directed=False, n=12, n_events=40):
    """Few contacts per time among many nodes: small live components."""
    rng = np.random.default_rng(seed)
    times = np.round(np.sort(rng.uniform(0, 40, size=n_events)), 1)
    times -= times[0]
    events = tuple(Event(float(t), *map(int, rng.choice(n, size=2, replace=False)))
                   for t in times)
    return EventStream(events=events, node_count=n,
                       labels=tuple(map(str, range(n))), directed=directed)


def crossing_stream():
    """Live set of 2 of 10 nodes, then all 10 at once, then 2 again.

    At alpha=5 and unit gaps the ties of one time are dead (|c| w < eps)
    after about 8 time units, so the live share crosses 1/2 upward at
    t=10 and downward again once the crowd's ties have died.
    """
    lines = [f"{t} a b" for t in range(10)]
    lines += [f"10 {u} {w}" for u, w in zip("abcdefghij", "bcdefghija")]
    lines += [f"{t} c d" for t in range(11, 30)]
    return parse_events("\n".join(lines))


def live_shares(stream, alpha):
    shares = []
    for _, dt, L in intervals(stream, alpha):
        fac = interval_factor(L, dt, alpha)
        live = sum(len(idx) for idx, _ in fac.blocks)
        shares.append(live / stream.node_count)
    return shares


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(6))
def test_factors_match_dense_expm(seed, directed):
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
def test_propagate_matches_dense_product(seed, directed):
    stream = sparse_stream(seed, directed=directed)
    for alpha in ALPHAS:
        M = propagate(stream, alpha).matrix
        assert np.max(np.abs(M - reference_product(stream, alpha))) < TOL


@pytest.mark.parametrize("seed", range(4))
def test_propagate_upto_inside_interval(seed):
    stream = sparse_stream(seed)
    times = [t for t, _ in group_event_times(stream)]
    for k in (1, len(times) // 2, len(times) - 1):
        upto = 0.5 * (times[k - 1] + times[k])
        for alpha in (1e-3, 1.0, 1e3):
            M = propagate(stream, alpha, upto=upto).matrix
            ref = reference_product(stream, alpha, upto=upto)
            assert np.max(np.abs(M - ref)) < TOL


def test_live_set_crosses_dense_share_both_ways():
    stream = crossing_stream()
    alpha = 5.0
    shares = live_shares(stream, alpha)
    dense = [s > propagator._DENSE_SHARE for s in shares]
    assert dense[:9] == [False] * 9
    assert True in dense
    assert dense[-1] is False
    # goes up to the dense block and comes back down
    first = dense.index(True)
    assert False in dense[first:]
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
    assert [list(idx) for idx, _ in fac.blocks] == [
        sorted([s.labels.index("c"), s.labels.index("d")])]


def test_components_are_separate_blocks():
    # 5 of 11 nodes live in the first interval: below the dense share
    s = parse_events("0 a b\n0 c d\n0 d e\n1 a b\n1 f g\n1 h i\n1 j k")
    fac = next(iter_factors(s, 10.0))
    blocks = sorted(sorted(s.labels[i] for i in idx) for idx, _ in fac.blocks)
    assert blocks == [["a", "b"], ["c", "d", "e"]]
    Y = fac.matrix
    assert Y[s.labels.index("a"), s.labels.index("c")] == 0.0


@pytest.mark.parametrize("stream", [sparse_stream(1), make_random_stream(1)],
                         ids=["sparse", "dense"])
def test_apply_matches_dense_product(stream):
    # the dense stream's factors are mostly one block of every node
    rng = np.random.default_rng(0)
    for fac in iter_factors(stream, 1.0):
        X = rng.normal(size=(3, stream.node_count))
        expected = X @ fac.matrix
        assert np.max(np.abs(fac.apply(X.copy()) - expected)) < TOL
        x = X[0].copy()
        assert fac.apply(x) is x
        assert np.max(np.abs(x - expected[0])) < TOL


# ---------------------------------------------------------------------------
# large |c| L: the deflated symmetric kernel keeps columns summing to 1


def heavy_edge_laplacian(seed, scale=1e8):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    W = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.6), 1)
    i, j = sorted(rng.choice(n, size=2, replace=False))
    c = math.expm1(-0.001 * 1000.0) / 0.001
    W[i, j] = scale / abs(c)
    return laplacian(W + W.T), c


@pytest.mark.parametrize("seed", range(40))
def test_heavy_edge_factor_column_sums(seed):
    L, c = heavy_edge_laplacian(seed)
    Y = interval_factor(L, 1000.0, 0.001).matrix
    assert np.max(np.abs(Y.sum(axis=0) - 1.0)) <= 1e-15
    assert np.min(Y) >= 0.0
    # both are accurate to about eps * ||c L|| ~ 1e-8 here
    assert np.max(np.abs(Y - scipy.linalg.expm(c * L.T))) < 1e-7


def test_heavy_component_is_exact_average():
    # 4 of 10 nodes live: the heavy pair and the light pair are two blocks
    L = np.zeros((10, 10))
    L[:2, :2] = 1.6e5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    L[2:4, 2:4] = np.array([[1.0, -1.0], [-1.0, 1.0]])
    fac = interval_factor(L, 1000.0, 0.001)
    assert len(fac.blocks) == 2
    Y = fac.matrix
    assert np.max(np.abs(Y[:2, :2] - 0.5)) <= 1e-15
    ref = scipy.linalg.expm(math.expm1(-1.0) / 0.001 * L[2:4, 2:4])
    assert np.max(np.abs(Y[2:4, 2:4] - ref)) < TOL
    assert np.array_equal(Y[4:, 4:], np.eye(6))


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


@pytest.mark.parametrize("t_start,t_end", [(0.0, math.nan), (math.inf, math.inf),
                                           (0.0, math.inf)])
def test_interval_factor_rejects_nonfinite_times(t_start, t_end):
    with pytest.raises(ValueError, match="finite"):
        IntervalFactor((), 2, t_start, t_end)


@pytest.mark.parametrize("block", [
    np.full((2, 2), np.nan),
    np.array([[1.5, 0.5], [-0.5, 0.5]]),
    np.array([[0.9, 0.5], [0.2, 0.5]]),
])
def test_interval_factor_validates_each_block(block):
    with pytest.raises(ValueError):
        IntervalFactor(((np.array([0, 1]), block),), 3, 0.0, 1.0)


# ---------------------------------------------------------------------------
# property test: blocked, dense and deflated factors agree


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
    saved = propagator._DENSE_SHARE
    try:
        propagator._DENSE_SHARE = 1.0  # always search components
        blocked = interval_factor(L, dt, alpha).matrix
        propagator._DENSE_SHARE = 0.0  # one block of all live nodes
        dense = interval_factor(L, dt, alpha).matrix
    finally:
        propagator._DENSE_SHARE = saved
    deflated = _expm(c * L.T)  # one Householder block over all N nodes
    reference = scipy.linalg.expm(c * L.T)
    for Y in (blocked, dense, deflated):
        assert np.max(np.abs(Y - reference)) < TOL
        assert np.min(Y) >= -TOL
        assert np.max(np.abs(Y.sum(axis=0) - 1.0)) < TOL
