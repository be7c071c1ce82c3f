import math

import numpy as np
import pytest

from tiedyn.events import group_event_times, parse_events
from tiedyn.tie_decay import (apply_events, decay_to, intervals, laplacian,
                              stream_ties, weight_matrix)

from conftest import make_random_stream, stream_from_rows


def pair_weights(b01):
    """Weights of a 2-node undirected tie of strength b01."""
    w = np.zeros((2, 2))
    w[0, 1] = w[1, 0] = b01
    return w


def test_decay_zero_elapsed():
    w = pair_weights(1.0)
    decay_to(w, 1.0, 0.0)
    assert w[0, 1] == 1.0


def test_decay_half_life():
    w = pair_weights(1.0)
    decay_to(w, math.log(2), 1.0)
    assert w[0, 1] == pytest.approx(0.5, abs=1e-15)


def test_decay_scalar_exponential():
    w = pair_weights(3.0)
    decay_to(w, 0.01, 100.0)
    assert w[0, 1] == pytest.approx(3 * math.exp(-1), abs=1e-12)


def test_decay_rejects_time_travel():
    w = pair_weights(1.0)
    with pytest.raises(ValueError, match="backwards"):
        decay_to(w, 1.0, -1.0)
    assert np.array_equal(w, pair_weights(1.0))


def test_decay_semigroup():
    via = pair_weights(2.0)
    decay_to(via, 0.7, 1.3)
    decay_to(via, 0.7, 4.2 - 1.3)
    direct = pair_weights(2.0)
    decay_to(direct, 0.7, 4.2)
    assert np.allclose(via, direct, atol=1e-12)


def test_decay_flushes_tiny_weights():
    w = pair_weights(1.0)
    decay_to(w, 1.0, 1e6)
    assert np.all(w == 0.0)


def ties_of(text, directed=False):
    """``stream_ties`` of the stream parsed from ``text``."""
    return stream_ties(parse_events(text, directed))


def test_apply_empty_is_noop():
    ties, edge_of_event = ties_of("0 a b")
    ties.weights[:] = 1.0
    apply_events(ties.weights, edge_of_event[:0])
    assert np.array_equal(weight_matrix(ties), pair_weights(1.0))


def test_apply_undirected_bump():
    ties, edge_of_event = ties_of("0 a b")
    apply_events(ties.weights, edge_of_event)
    w = weight_matrix(ties)
    assert w[0, 1] == 1.0
    assert w[1, 0] == 1.0


def test_apply_directed_bump():
    ties, edge_of_event = ties_of("0 a b", directed=True)
    apply_events(ties.weights, edge_of_event)
    w = weight_matrix(ties)
    assert w[0, 1] == 1.0
    assert w[1, 0] == 0.0


def test_apply_simultaneous_events_add():
    ties, edge_of_event = ties_of("0 a b\n0 a b")
    apply_events(ties.weights, edge_of_event)
    assert weight_matrix(ties)[0, 1] == 2.0


def two_call_apply(w, sources, targets, directed):
    """The former kernel: one np.add.at per direction on (row, column) pairs."""
    np.add.at(w, (sources, targets), 1.0)
    if not directed:
        np.add.at(w, (targets, sources), 1.0)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_apply_equals_two_call_kernel_bitwise(seed, directed):
    # repeated pairs, both orientations, on decayed (non-integer) weights
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    sources = rng.integers(0, n, 40)
    targets = (sources + rng.integers(1, n, 40)) % n
    sources[:5], targets[:5] = sources[5], targets[5]
    sources[6], targets[6] = targets[5], sources[5]
    stream = stream_from_rows(zip(range(40), sources, targets), n, directed=directed)
    ties, edge_of_event = stream_ties(stream)
    ties.weights[:] = rng.random(len(ties.weights)) * rng.integers(0, 2, len(ties.weights))
    want = weight_matrix(ties)
    two_call_apply(want, sources, targets, directed)
    for start, stop in ((0, 7), (7, 7), (7, 40)):
        apply_events(ties.weights, edge_of_event[start:stop])
    assert np.array_equal(weight_matrix(ties).view(np.int64), want.view(np.int64))


def test_apply_rejects_a_matrix():
    # a 2-D array would be bumped a row at a time, without any error
    w = np.zeros((2, 2))
    with pytest.raises(ValueError, match="one vector"):
        apply_events(w, np.array([0]))
    assert not w.any()


def test_laplacian_zero_state():
    assert np.array_equal(laplacian(np.zeros((3, 3))), np.zeros((3, 3)))


def test_laplacian_two_node():
    L = laplacian(pair_weights(1.0))
    assert np.array_equal(L, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def _evolve(stream, alpha):
    """Reference walk, a fresh weight matrix per event time: decay by
    e^{-alpha dt} with weights below 1e-300 flushed to zero, then add 1
    per event. Yields (t, weights) after the events at each time."""
    w = np.zeros((stream.node_count, stream.node_count))
    t_prev = None
    for t, start, stop in group_event_times(stream):
        w = w.copy()
        if t_prev is not None:
            w *= np.exp(-alpha * (t - t_prev))
            w[w < 1e-300] = 0.0
        for ev in stream.events[start:stop]:
            w[ev.source, ev.target] += 1.0
            if not stream.directed:
                w[ev.target, ev.source] += 1.0
        t_prev = t
        yield t, w


@pytest.mark.parametrize("seed", range(8))
def test_laplacian_row_sums_zero(seed):
    stream = make_random_stream(seed)
    for _, _, L in intervals(stream, alpha=0.5):
        assert np.max(np.abs(L.sum(axis=1))) < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_undirected_symmetry_preserved(seed):
    stream = make_random_stream(seed)
    for _, _, L in intervals(stream, alpha=2.0):
        assert np.array_equal(L, L.T)


def _recursion_laplacians(stream, alpha):
    """Evolve the Laplacian directly by the event-time recursion
    L~(t_n+) = L~(t_{n-1}+) e^{-a dt} + L(t_n), yielding (t_n, L~(t_n+))."""
    n = stream.node_count
    L_rec = np.zeros((n, n))
    t_prev = None
    for t, start, stop in group_event_times(stream):
        if t_prev is not None:
            L_rec = L_rec * math.exp(-alpha * (t - t_prev))
        L_step = np.zeros((n, n))
        for ev in stream.events[start:stop]:
            for i, j in ((ev.source, ev.target), (ev.target, ev.source)):
                L_step[i, j] -= 1.0
                L_step[i, i] += 1.0
        L_rec = L_rec + L_step
        t_prev = t
        yield t, L_rec


@pytest.mark.parametrize("seed", range(5))
def test_laplacian_recursion_equivalence(seed):
    # compare the recursion with the Laplacian derived from the
    # weight-matrix path, and with every L the shared timeline yields
    alpha = 0.3
    stream = make_random_stream(seed, max_events=10)
    rec = dict(_recursion_laplacians(stream, alpha))
    states = list(_evolve(stream, alpha))
    L_direct = laplacian(states[-1][1])
    assert np.max(np.abs(rec[stream.horizon] - L_direct)) < 1e-12

    times = list(rec)
    k = len(times) // 2
    cases = [
        (None, times[:-1]),                        # up to the horizon
        (times[0], []),                            # no time elapses
        (times[k], times[:k]),                     # exactly at an event time
        ((times[k - 1] + times[k]) / 2, times[:k]),  # partial interval
        (times[-1] + 2.5, times),                  # partial past the horizon
    ]
    for upto, starts in cases:
        yielded = list(intervals(stream, alpha, upto))
        assert [t for t, _, _ in yielded] == starts
        end = stream.horizon if upto is None else upto
        ends = [*starts[1:], end][:len(starts)]
        assert [t + dt for t, dt, _ in yielded] == pytest.approx(ends)
        for t, _, L in yielded:
            assert np.max(np.abs(L - rec[t])) < 1e-12


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_intervals_match_state_walk_bitwise(seed, directed):
    # the in-place walk writes the same weights as the reference walk
    alpha = 0.7
    stream = make_random_stream(seed, directed=directed)
    states = list(_evolve(stream, alpha))
    yielded = list(intervals(stream, alpha))
    assert len(yielded) == len(states) - 1
    for (t, _, L), (t_state, w) in zip(yielded, states):
        assert t == t_state
        assert np.array_equal(L, laplacian(w))


def test_intervals_yield_fresh_arrays():
    stream = make_random_stream(3)
    Ls = [L for _, _, L in intervals(stream, 0.5)]
    assert len(Ls) > 2
    for a in range(len(Ls)):
        for b in range(a + 1, len(Ls)):
            assert not np.shares_memory(Ls[a], Ls[b])


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_intervals_reject_bad_alpha(alpha):
    stream = make_random_stream(0)
    with pytest.raises(ValueError, match="alpha"):
        next(intervals(stream, alpha))
