import math
import re

import numpy as np
import pytest

from tiedyn.events import Event, EventStream, group_event_times, parse_events
import tiedyn.propagator as propagator
from tiedyn.propagator import (degroot_run, degroot_transition,
                               evolve_opinions, interval_factor, iter_factors,
                               propagate)

from conftest import (dense_intervals, make_random_stream, pair_seen_both_ways,
                      rk4_lockstep)

L2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


def test_factor_zero_laplacian_is_identity():
    fac = interval_factor(np.zeros((4, 4)), 3.0, 1.0)
    assert np.allclose(fac.matrix, np.eye(4), atol=1e-14)


def test_factor_zero_interval_is_identity():
    fac = interval_factor(L2, 0.0, 1.0)
    assert np.allclose(fac.matrix, np.eye(2), atol=1e-14)


def test_factor_two_node_analytic():
    # alpha=1, dt -> inf gives coefficient c = -1; eigenvalues {1, e^-2}
    fac = interval_factor(L2, 1e9, 1.0)
    a = (1 + math.exp(-2)) / 2
    b = (1 - math.exp(-2)) / 2
    assert np.allclose(fac.matrix, [[a, b], [b, a]], atol=1e-12)


def test_factor_small_alpha_no_cancellation():
    # c ~ -dt for alpha*dt << 1
    fac = interval_factor(L2, 1e-8, 1e-3)
    expected = np.eye(2) - 1e-8 * L2.T  # first-order expansion
    assert np.allclose(fac.matrix, expected, atol=1e-14)


@pytest.mark.parametrize("alpha", [1e-320, 5e-324])
def test_decay_term_at_subnormal_products_is_the_limit(alpha):
    # alpha * dt is subnormal: c is its limit -dt; expm1 used to give
    # -0.0998023715 at 1e-320 and -0.0 at 5e-324
    assert propagator._decay_c(alpha, 0.1) == -0.1
    assert propagator._decay_c(alpha, 0.0) == 0.0


def test_decay_term_at_normal_products_is_unchanged():
    for alpha, dt in ((1e-300, 0.1), (1e-300, 1e-6), (0.5, 3.0), (3e-308, 1.0)):
        assert propagator._decay_c(alpha, dt) == math.expm1(-alpha * dt) / alpha


def test_factor_rejects_bad_inputs():
    with pytest.raises(ValueError):
        interval_factor(np.full((2, 2), np.nan), 1.0, 1.0)
    with pytest.raises(ValueError):
        interval_factor(L2, -1.0, 1.0)
    with pytest.raises(ValueError):
        interval_factor(L2, 1.0, 0.0)


@pytest.mark.parametrize("L", [
    np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]]),  # gave a 2 x 2 factor
    np.array([[1.0, -1.0], [-1.0, 1.0], [0.0, 0.0]]),
    np.array([1.0, -1.0]),
], ids=["wide", "tall", "vector"])
def test_factor_rejects_a_non_square_laplacian(L):
    with pytest.raises(ValueError, match="square matrix"):
        interval_factor(L, 1.0, 1.0)


@pytest.mark.parametrize("L", [
    np.array([[0.0, 1.0], [1.0, 0.0]]),  # both off-diagonals positive
    np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.5], [0.0, 0.0, 0.0]]),  # one
], ids=["two-node", "one-entry"])
def test_factor_rejects_a_positive_off_diagonal(L):
    # a negative tie weight is not a Laplacian: it must fail, not be dropped
    with pytest.raises(ValueError, match="negative off-diagonal weights"):
        interval_factor(L, 1.0, 1.0)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("alpha", [0.01, 1.0, 100.0])
def test_factors_column_stochastic(seed, alpha):
    stream = make_random_stream(seed)
    ones = np.ones(stream.node_count)
    for fac in iter_factors(stream, alpha):
        assert np.min(fac.matrix) >= -1e-12
        assert np.max(np.abs(fac.matrix.sum(axis=0) - 1.0)) < 1e-10
        assert np.max(np.abs(ones @ fac.matrix - ones)) < 1e-10


def test_propagate_upto_first_event_is_identity(two_node_stream):
    p = propagate(two_node_stream, 1.0, upto=0.0)
    assert np.array_equal(p.matrix, np.eye(2))


def test_propagate_upto_event_time_excludes_those_events():
    s = parse_events("0 a b\n5 a b\n5 b c")
    p5 = propagate(s, 1.0, upto=5.0)
    # only the first interval factor contributes
    fac = interval_factor(L2_padded(3), 5.0, 1.0)
    assert np.allclose(p5.matrix, fac.matrix, atol=1e-12)


def L2_padded(n):
    L = np.zeros((n, n))
    L[:2, :2] = L2
    return L


def test_propagate_empty_stream_rejected():
    with pytest.raises(Exception):
        propagate(parse_events(""), 1.0)


def test_propagate_rejects_bad_alpha(two_node_stream):
    with pytest.raises(ValueError):
        propagate(two_node_stream, -1.0)


@pytest.mark.parametrize("seed", range(5))
def test_propagate_factor_associativity(seed):
    stream = make_random_stream(seed)
    alpha = 0.8
    groups = group_event_times(stream)
    if len(groups) < 3:
        pytest.skip("needs at least 3 event times")
    mid = groups[len(groups) // 2][0]
    full = propagate(stream, alpha)
    head = propagate(stream, alpha, upto=mid)
    tail = np.eye(stream.node_count)
    for t_start, dt, L in dense_intervals(stream, alpha):
        if t_start >= mid:
            tail = tail @ interval_factor(L, dt, alpha).matrix
    assert np.allclose(head.matrix @ tail, full.matrix, atol=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_consensus_is_fixed_point(seed):
    stream = make_random_stream(seed)
    x0 = 3.7 * np.ones(stream.node_count)
    x = evolve_opinions(x0, stream, 1.0)
    assert np.max(np.abs(x - x0)) < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_undirected_opinion_sum_conserved(seed):
    stream = make_random_stream(seed)
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=stream.node_count)
    x = evolve_opinions(x0, stream, 0.5)
    assert x.sum() == pytest.approx(x0.sum(), abs=1e-8)


def test_two_node_long_time_limit():
    s = parse_events("0 a b")
    # single event at 0; as t -> inf the factor approaches the analytic limit
    x = evolve_opinions(np.array([1.0, 0.0]), s, 1.0, upto=1e9)
    a = (1 + math.exp(-2)) / 2
    assert np.allclose(x, [a, 1 - a], atol=1e-10)


def ode_oracle(x0, stream, alpha, upto=None, step=1e-4):
    """x(upto) of the one case ``(x0, stream, alpha)`` by conftest's RK4."""
    return rk4_lockstep([(x0, stream, alpha)], step, upto)[0]


def test_ode_oracle_zero_laplacian():
    s = parse_events("0 a b")
    # after full decay the Laplacian is ~0; opinions barely move far out
    x0 = np.array([1.0, -1.0])
    x = ode_oracle(x0, s, alpha=100.0, upto=0.0, step=1e-3)
    assert np.array_equal(x, x0)


def test_ode_oracle_rejects_bad_step(two_node_stream):
    with pytest.raises(ValueError):
        ode_oracle(np.zeros(2), two_node_stream, 1.0, step=0.0)


@pytest.mark.parametrize("step", [math.nan, math.inf, 0.0, -1e-3])
def test_ode_oracle_step_must_be_positive_and_finite(two_node_stream, step):
    with pytest.raises(ValueError, match="step must be positive and finite"):
        ode_oracle(np.zeros(2), two_node_stream, 1.0, step=step)


def test_ode_oracle_matches_two_node():
    s = parse_events("0 a b")
    x0 = np.array([1.0, 0.0])
    upto = 3.0
    x = evolve_opinions(x0, s, 1.0, upto=upto)
    xo = ode_oracle(x0, s, 1.0, upto=upto, step=1e-4)
    assert np.max(np.abs(x - xo)) < 1e-6


def test_ode_oracle_matches_random_stream():
    stream = make_random_stream(11, n_max=5, max_events=20)
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=stream.node_count)
    upto = min(stream.horizon, 10.0)
    x = evolve_opinions(x0, stream, 1.0, upto=upto)
    xo = ode_oracle(x0, stream, 1.0, upto=upto, step=1e-3)
    assert np.max(np.abs(x - xo)) < 1e-6


def test_degroot_transition_permutation():
    tr = degroot_transition(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(tr, [[0.0, 1.0], [1.0, 0.0]])


def test_degroot_transition_isolated_column():
    w = np.array([[0.0, 2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    tr = degroot_transition(w)
    assert np.allclose(tr.sum(axis=0), 1.0)
    assert np.array_equal(tr[:, 2], [0.0, 0.0, 1.0])


@pytest.mark.parametrize("weights,message", [
    ([[0.0, -1.0], [1.0, 0.0]], "negative off-diagonal weights"),  # gave an identity column
    ([[-1.0, 1.0], [1.0, 0.0]], "negative self-weights"),
    ([[0.0, math.nan], [1.0, 0.0]], "nonfinite weights"),
    ([[0.0, 1.0], [math.inf, 0.0]], "nonfinite weights"),
    ([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]], "square matrix"),
    ([1.0, 1.0], "square matrix"),
], ids=["negative", "negative-self", "nan", "inf", "wide", "vector"])
def test_degroot_transition_rejects_bad_weights(weights, message):
    with pytest.raises(ValueError, match=message):
        degroot_transition(weights)


def test_degroot_run_zero_steps():
    s = parse_events("0 a b")
    y = degroot_run(np.array([2.0, -1.0]), s, 1.0, 1.0, 0)
    assert np.array_equal(y, [2.0, -1.0])


def test_degroot_run_consensus_fixed():
    s = parse_events("0 a b\n1 b c\n3 a c")
    y0 = 5.0 * np.ones(3)
    y = degroot_run(y0, s, 1.0, 1.0, 6)
    assert np.max(np.abs(y - y0)) < 1e-12


def dense_degroot_run(y, stream, alpha, delta_t, steps):
    """The dense walk that degroot_run replaced, with no package code: an
    N x N tie matrix decayed by a plain multiply, bumped at each event's
    flat cell ``i*N + j`` (and at ``j*N + i`` unless directed), and each
    step's transition built column by column, an all-zero column kept as
    the identity's."""
    n = stream.node_count
    step_of = stream.times // delta_t
    cells = stream.sources * n + stream.targets
    if stream.directed:
        cells = cells[:, None]
    else:
        cells = np.stack([cells, stream.targets * n + stream.sources], axis=1)
    A_tilde = np.zeros((n, n))
    decay = math.exp(-alpha * delta_t)
    for k in range(steps):
        A_tilde = A_tilde * decay
        start, stop = np.searchsorted(step_of, (k, k + 1))
        np.add.at(A_tilde.reshape(-1), cells[start:stop], 1.0)
        B = np.eye(n)
        for j in range(n):
            col = A_tilde[:, j].sum()
            if col > 0:
                B[:, j] = A_tilde[:, j] / col
        y = y @ B
    return y


@pytest.mark.parametrize("directed", [False, True])
def test_degroot_run_equals_dense_walk_bitwise(directed):
    streams = [make_random_stream(seed, n_max=5, max_events=40, directed=directed)
               for seed in range(12)] + [parse_events("0 a b\n2 b c", directed=directed)]
    assert any(map(pair_seen_both_ways, streams))
    for seed, stream in enumerate(streams):
        y0 = np.random.default_rng(seed).normal(size=stream.node_count)
        # from slow decay to weights far below the timeline's flush threshold
        for alpha, delta_t, steps in ((0.05, 0.7, 80), (0.5, 1.0, 5), (1.0, 3.0, 20),
                                      (30.0, 5.0, 12)):
            assert np.array_equal(degroot_run(y0, stream, alpha, delta_t, steps),
                                  dense_degroot_run(y0, stream, alpha, delta_t, steps))


@pytest.mark.parametrize("seed", range(5))
def test_propagator_eigenvalues_in_unit_disk(seed):
    stream = make_random_stream(seed)
    # products of 3+ symmetric PD factors can still have complex
    # eigenvalues, but their magnitudes stay in (0, 1]
    M = propagate(stream, 1.0).matrix
    w = np.linalg.eigvals(M)
    assert np.max(np.abs(w)) <= 1 + 1e-10
    assert np.min(np.abs(w)) > 0


@pytest.mark.parametrize("upto", [math.nan, math.inf, -math.inf])
def test_nonfinite_upto_rejected(upto):
    # nan used to return M(T), -inf the identity, and inf failed later on dt
    s = parse_events("0 a b\n1 b c\n2 a c")
    with pytest.raises(ValueError, match="upto"):
        propagate(s, 1.0, upto=upto)
    with pytest.raises(ValueError, match="upto"):
        evolve_opinions(np.ones(3), s, 1.0, upto=upto)


def test_negative_upto_is_identity():
    s = parse_events("0 a b\n1 b c\n2 a c")
    assert np.array_equal(propagate(s, 1.0, upto=-1.0).matrix, np.eye(3))


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_degroot_run_rejects_bad_alpha(alpha):
    s = parse_events("0 a b\n1 b c\n2 a c")
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        degroot_run(np.array([1.0, 0.0, -1.0]), s, alpha, 0.5, 8)


@pytest.mark.parametrize("delta_t", [0.0, -1.0, math.nan, math.inf])
def test_degroot_run_rejects_bad_delta_t(delta_t):
    s = parse_events("0 a b\n1 b c\n2 a c")
    with pytest.raises(ValueError, match="delta_t must be positive and finite"):
        degroot_run(np.array([1.0, 0.0, -1.0]), s, 1.0, delta_t, 8)


OPINION_RUNS = {
    "evolve_opinions": lambda x0, s: evolve_opinions(x0, s, 1.0),
    "ode_oracle": lambda x0, s: ode_oracle(x0, s, 1.0, step=1e-2),
    "degroot_run": lambda x0, s: degroot_run(x0, s, 1.0, 0.5, 4),
}


@pytest.mark.parametrize("text", ["0 a b\n0 b c", "0 a b\n1 b c\n2 a c"],
                         ids=["no-interval", "two-intervals"])
@pytest.mark.parametrize("x0", [np.zeros(7), np.zeros(2), np.zeros((2, 3)),
                                np.zeros((3, 1)), np.float64(1.0),
                                np.array([1.0, math.nan, 0.0]),
                                np.array([math.inf, 0.0, -math.inf])],
                         ids=["length-7", "length-2", "2x3", "3x1", "scalar", "nan", "inf"])
@pytest.mark.parametrize("name", OPINION_RUNS)
def test_opinion_vector_must_hold_one_opinion_per_node(name, x0, text):
    # a NaN or infinite opinion gave all-NaN opinions
    s = parse_events(text)
    message = (f"opinion vector has shape {np.shape(x0)}, stream has N=3"
               if np.shape(x0) != (3,) else "opinions must be finite")
    with pytest.raises(ValueError, match=re.escape(message)):
        OPINION_RUNS[name](x0, s)
    # a right vector is copied, not changed in place
    x = np.array([1.0, 0.0, -1.0])
    assert OPINION_RUNS[name](x, s).shape == (3,)
    assert np.array_equal(x, [1.0, 0.0, -1.0])
