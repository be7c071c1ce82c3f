import math

import numpy as np
import pytest

from tiedyn.aggregate import aggregate_propagator, aggregate_weights
from tiedyn.events import group_event_times, parse_events
from tiedyn.tie_decay import TieDecayState, apply_events, decay_to, laplacian

from conftest import make_random_stream


def time_averaged_weights(stream, alpha, n_sub=2000):
    """Numerical time average of the tie weights (the oracle).

    Midpoint rule applied separately on each inter-event interval, where
    the weights decay smoothly; events only occur at interval boundaries.
    """
    T = stream.horizon
    groups = group_event_times(stream)
    n = stream.node_count
    integral = np.zeros((n, n))
    state = TieDecayState.zeros(n, alpha, stream.directed, time=groups[0][0])
    for k, (t_k, evs) in enumerate(groups):
        state = decay_to(state, t_k)
        state = apply_events(state, evs)
        t_next = groups[k + 1][0] if k + 1 < len(groups) else T
        if t_next <= t_k:
            continue
        h = (t_next - t_k) / n_sub
        mids = t_k + (np.arange(n_sub) + 0.5) * h
        scale = np.exp(-alpha * (mids - t_k)).sum() * h
        integral += state.weights * scale
    return integral / T


def test_single_event_closed_form():
    s = parse_events("0 a b\n1 a b")  # second event defines T=1
    agg = aggregate_weights(parse_events("0 a b\n1 c d"), 1.0)
    # pair (a,b): one event at t=0, T=1, alpha=1
    assert agg.weights[0, 1] == pytest.approx(1 - math.exp(-1), abs=1e-12)


def test_no_events_pair_is_zero():
    agg = aggregate_weights(parse_events("0 a b\n1 c d"), 1.0)
    assert agg.weights[0, 2] == 0.0


def test_small_alpha_limit():
    # single event at time t: w -> (T - t)/T as alpha -> 0
    s = parse_events("0 a b\n3 a b\n10 c d")
    agg = aggregate_weights(s, 1e-8)
    T = s.horizon
    assert agg.weights[0, 1] == pytest.approx((T - 0) / T + (T - 3) / T,
                                              abs=1e-6)


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
    agg = aggregate_weights(stream, alpha)
    oracle = time_averaged_weights(stream, alpha)
    mask = agg.weights > 0
    rel = np.abs(agg.weights[mask] - oracle[mask]) / agg.weights[mask]
    assert np.max(rel) < 1e-4


def test_smaller_alpha_larger_weights():
    stream = make_random_stream(2)
    w_small = aggregate_weights(stream, 0.1).weights
    w_large = aggregate_weights(stream, 10.0).weights
    mask = w_large > 0
    assert np.all(w_small[mask] > w_large[mask])


def test_symmetry_and_zero_diagonal():
    stream = make_random_stream(5)
    agg = aggregate_weights(stream, 1.0)
    assert np.array_equal(agg.weights, agg.weights.T)
    assert np.all(np.diag(agg.weights) == 0)
    assert np.all(agg.weights >= 0)


def test_propagator_at_zero_is_identity():
    agg = aggregate_weights(parse_events("0 a b\n1 a b"), 1.0)
    assert np.allclose(aggregate_propagator(agg, 0.0), np.eye(2), atol=1e-14)


def test_propagator_column_stochastic():
    stream = make_random_stream(6)
    agg = aggregate_weights(stream, 0.7)
    for t in (0.5, 3.0, 50.0):
        M = aggregate_propagator(agg, t)
        assert np.min(M) >= 0
        assert np.max(np.abs(M.sum(axis=0) - 1.0)) < 1e-10


def test_two_node_analytic_gap():
    from tiedyn.spectral import spectral_gap
    agg = aggregate_weights(parse_events("0 a b\n1 a b"), 1.0)
    w = agg.weights[0, 1]
    for t in (0.3, 2.0):
        gap = spectral_gap(aggregate_propagator(agg, t))
        assert gap == pytest.approx(1 - math.exp(-2 * w * t), abs=1e-10)


def test_laplacian_row_sums_zero():
    agg = aggregate_weights(make_random_stream(8), 1.0)
    L = laplacian(agg.weights)
    assert np.max(np.abs(L.sum(axis=1))) < 1e-12
