import math
import sys

import numpy as np
import pytest

from tiedyn.aggregate import aggregate_propagator, aggregate_weights
from tiedyn.events import group_event_times, parse_events
from tiedyn.tie_decay import laplacian

from conftest import make_random_stream, pair_seen_both_ways


def time_averaged_weights(stream, alpha, n_sub=2000):
    """Numerical time average of the tie weights (the oracle).

    Midpoint rule applied separately on each inter-event interval, where
    the weights decay smoothly; events only occur at interval boundaries.
    """
    T = stream.horizon
    groups = group_event_times(stream)
    n = stream.node_count
    integral = np.zeros((n, n))
    w = np.zeros((n, n))
    t_prev = groups[0][0]
    for k, (t_k, start, stop) in enumerate(groups):
        w *= math.exp(-alpha * (t_k - t_prev))
        for ev in stream.events[start:stop]:
            w[ev.source, ev.target] += 1.0
            if not stream.directed:
                w[ev.target, ev.source] += 1.0
        t_prev = t_k
        t_next = groups[k + 1][0] if k + 1 < len(groups) else T
        if t_next <= t_k:
            continue
        h = (t_next - t_k) / n_sub
        mids = t_k + (np.arange(n_sub) + 0.5) * h
        scale = np.exp(-alpha * (mids - t_k)).sum() * h
        integral += w * scale
    return integral / T


def test_single_event_closed_form():
    s = parse_events("0 a b\n1 a b")  # second event defines T=1
    w = aggregate_weights(parse_events("0 a b\n1 c d"), 1.0)
    # pair (a,b): one event at t=0, T=1, alpha=1
    assert w[0, 1] == pytest.approx(1 - math.exp(-1), abs=1e-12)


def test_no_events_pair_is_zero():
    w = aggregate_weights(parse_events("0 a b\n1 c d"), 1.0)
    assert w[0, 2] == 0.0


def test_small_alpha_limit():
    # single event at time t: w -> (T - t)/T as alpha -> 0
    s = parse_events("0 a b\n3 a b\n10 c d")
    w = aggregate_weights(s, 1e-8)
    T = s.horizon
    assert w[0, 1] == pytest.approx((T - 0) / T + (T - 3) / T, abs=1e-6)


# (b, c) has one event at 0.37 and T = 1.7; (a, c)'s event is at T
SUBNORMAL_STREAM = "0 a b\n0.37 b c\n1.7 a c\n"


@pytest.mark.parametrize("alpha", [1e-320, 5e-324])
def test_subnormal_alpha_gives_the_limit(alpha):
    # alpha * (T - t) and alpha * T are subnormal, so every term is its
    # limit (T - t) / T; expm1 and the division used to lose bits there
    # (0.78233072 against 0.78235294 for (b, c) at 1e-320)
    s = parse_events(SUBNORMAL_STREAM)
    T = s.horizon
    w = aggregate_weights(s, alpha)
    assert w[0, 1] == w[1, 0] == 1.0
    assert w[1, 2] == w[2, 1] == (T - 0.37) / T
    assert w[0, 2] == 0.0


def test_normal_products_keep_the_closed_form():
    # at 1e-300 every product is normal: the terms are today's expm1 ones;
    # at 1e-305 only the term of the event at T - 1e-4 goes to its limit
    s = parse_events(SUBNORMAL_STREAM)
    T = s.horizon
    w = aggregate_weights(s, 1e-300)
    assert w[0, 1] == -math.expm1(-1e-300 * T) / (1e-300 * T)
    assert w[1, 2] == -math.expm1(-1e-300 * (T - 0.37)) / (1e-300 * T)
    s = parse_events("0 a b\n1.6999 b c\n1.7 a c\n")
    T = s.horizon
    w = aggregate_weights(s, 1e-305)
    assert 1e-305 * (T - 1.6999) < sys.float_info.min <= 1e-305 * T
    assert w[0, 1] == -math.expm1(-1e-305 * T) / (1e-305 * T)
    assert w[1, 2] == (T - 1.6999) / T


def test_rejects_bad_inputs():
    s = parse_events("0 a b\n1 a b")
    with pytest.raises(ValueError):
        aggregate_weights(s, 0.0)
    with pytest.raises(ValueError, match="horizon"):
        aggregate_weights(parse_events("0 a b"), 1.0)


@pytest.mark.parametrize("seed", range(10))
def test_matches_time_average_oracle(seed):
    stream = make_random_stream(seed, n_max=5, max_events=12)
    alpha = 0.5
    w = aggregate_weights(stream, alpha)
    oracle = time_averaged_weights(stream, alpha)
    mask = w > 0
    rel = np.abs(w[mask] - oracle[mask]) / w[mask]
    assert np.max(rel) < 1e-4


def event_loop_weights(stream, alpha):
    """The per-event loop that the columnar sum replaced."""
    T = stream.horizon
    w = np.zeros((stream.node_count, stream.node_count))
    for ev in stream.events:
        contrib = -math.expm1(-alpha * (T - ev.time)) / (alpha * T)
        w[ev.source, ev.target] += contrib
        if not stream.directed:
            w[ev.target, ev.source] += contrib
    return w


@pytest.mark.parametrize("directed", [False, True])
def test_weights_equal_event_loop_bit_for_bit(directed):
    # same terms, summed per cell in the same order: equal, not just close
    for seed in range(40):
        stream = make_random_stream(seed, n_max=4, max_events=40, directed=directed)
        for alpha in (0.01, 0.7, 30.0):
            assert np.array_equal(aggregate_weights(stream, alpha),
                                  event_loop_weights(stream, alpha))


def dense_aggregate_weights(stream, alpha):
    """The dense accumulation that the tie vector replaced: one np.add.at
    into N x N, both cells of an undirected event interleaved, so that
    every cell sums its terms in event order."""
    T = stream.horizon
    n = stream.node_count
    decay = (-alpha * (T - stream.times)).tolist()
    contrib = -np.fromiter(map(math.expm1, decay), float, len(decay)) / (alpha * T)
    i, j = stream.sources, stream.targets
    if not stream.directed:
        i, j = np.column_stack([i, j]).ravel(), np.column_stack([j, i]).ravel()
        contrib = contrib.repeat(2)
    w = np.zeros((n, n))
    np.add.at(w, (i, j), contrib)
    return w


@pytest.mark.parametrize("directed", [False, True])
def test_weights_equal_dense_accumulation_bitwise(directed):
    streams = [make_random_stream(seed, n_max=5, max_events=60, directed=directed)
               for seed in range(20)]
    assert any(map(pair_seen_both_ways, streams))
    for stream in streams:
        for alpha in (0.01, 0.7, 30.0):
            assert np.array_equal(aggregate_weights(stream, alpha),
                                  dense_aggregate_weights(stream, alpha))


def test_smaller_alpha_larger_weights():
    stream = make_random_stream(2)
    w_small = aggregate_weights(stream, 0.1)
    w_large = aggregate_weights(stream, 10.0)
    mask = w_large > 0
    assert np.all(w_small[mask] > w_large[mask])


def test_symmetry_and_zero_diagonal():
    stream = make_random_stream(5)
    w = aggregate_weights(stream, 1.0)
    assert np.array_equal(w, w.T)
    assert np.all(np.diag(w) == 0)
    assert np.all(w >= 0)


def test_propagator_at_zero_is_identity():
    w = aggregate_weights(parse_events("0 a b\n1 a b"), 1.0)
    assert np.allclose(aggregate_propagator(w, 0.0), np.eye(2), atol=1e-14)


def test_propagator_column_stochastic():
    stream = make_random_stream(6)
    w = aggregate_weights(stream, 0.7)
    for t in (0.5, 3.0, 50.0):
        M = aggregate_propagator(w, t)
        assert np.min(M) >= 0
        assert np.max(np.abs(M.sum(axis=0) - 1.0)) < 1e-10


def test_two_node_analytic_gap():
    from tiedyn.spectral import spectral_gap
    w = aggregate_weights(parse_events("0 a b\n1 a b"), 1.0)
    for t in (0.3, 2.0):
        gap = spectral_gap(aggregate_propagator(w, t))
        assert gap == pytest.approx(1 - math.exp(-2 * w[0, 1] * t), abs=1e-10)


def test_laplacian_row_sums_zero():
    w = aggregate_weights(make_random_stream(8), 1.0)
    L = laplacian(w)
    assert np.max(np.abs(L.sum(axis=1))) < 1e-12


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_weights_reject_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        aggregate_weights(parse_events("0 a b\n1 a b"), alpha)


def test_propagator_rejects_negative_weights():
    # dropped as dead ties, they gave the identity
    with pytest.raises(ValueError, match="negative off-diagonal weights"):
        aggregate_propagator(np.array([[0.0, -1.0], [-1.0, 0.0]]), 1.0)
    w = aggregate_weights(make_random_stream(6), 0.7)
    w[0, 1] = -w[0, 1] - 1.0
    with pytest.raises(ValueError, match="negative off-diagonal weights"):
        aggregate_propagator(w, 1.0)


@pytest.mark.parametrize("weights", [
    np.ones((3, 2)),  # gave a 3 x 3 propagator
    np.ones((2, 3)),
    np.ones(3),
], ids=["tall", "wide", "vector"])
def test_propagator_rejects_non_square_weights(weights):
    with pytest.raises(ValueError, match="square matrix"):
        aggregate_propagator(weights, 1.0)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_propagator_rejects_bad_t(t):
    w = aggregate_weights(parse_events("0 a b\n1 a b"), 1.0)
    with pytest.raises(ValueError, match="t must be"):
        aggregate_propagator(w, t)
