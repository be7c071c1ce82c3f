import math

import numpy as np
import pytest

from tiedyn.propagator import interval_factor, propagate
from tiedyn.spectral import (DegenerateFiedlerError, SpectralError,
                             eigendecompose, fiedler_left, shrinkage_ratio,
                             spectral_gap)

from conftest import make_random_stream

L2 = np.array([[1.0, -1.0], [-1.0, 1.0]])


def random_laplacian(rng, n):
    """Symmetric combinatorial Laplacian with random positive weights."""
    w = rng.uniform(0, 2, size=(n, n))
    w = np.triu(w, 1)
    w = w + w.T
    L = -w
    np.fill_diagonal(L, w.sum(axis=1))
    return L


def test_identity_spectrum():
    s = eigendecompose(np.eye(4))
    assert np.allclose(s.eigenvalues, 1.0)
    assert spectral_gap(np.eye(4)) == 0.0


def test_consensus_matrix_spectrum():
    n = 5
    M = np.full((n, n), 1.0 / n)
    s = eigendecompose(M)
    assert s.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(s.eigenvalues[1:])) < 1e-12
    assert spectral_gap(M) == pytest.approx(1.0, abs=1e-12)


def test_two_node_factor_spectrum():
    fac = interval_factor(L2, 1e9, 1.0)  # coefficient c = -1
    s = eigendecompose(fac.matrix)
    assert s.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
    assert s.eigenvalues[1] == pytest.approx(math.exp(-2), abs=1e-12)
    assert spectral_gap(fac.matrix) == pytest.approx(1 - math.exp(-2),
                                                     abs=1e-10)


def test_eigendecompose_rejects_bad_inputs():
    with pytest.raises(SpectralError):
        eigendecompose(np.full((2, 2), np.nan))


def test_spectral_gap_rejects_non_propagator():
    with pytest.raises(SpectralError, match="not a valid propagator"):
        spectral_gap(0.5 * np.eye(3))


@pytest.mark.parametrize("seed", range(10))
def test_biorthogonality(seed):
    stream = make_random_stream(seed)
    M = propagate(stream, 1.0).matrix
    s = eigendecompose(M)
    k = min(2, stream.node_count)
    assert len(s.left_vectors) == len(s.right_vectors) == k
    for i in range(k):
        for j in range(k):
            inner = s.left_vectors[i] @ s.right_vectors[j]
            assert abs(inner - (1.0 if i == j else 0.0)) < 1e-8


@pytest.mark.parametrize("seed", range(10))
def test_unit_eigenvalue_and_ones_left_vector(seed):
    stream = make_random_stream(seed)
    M = propagate(stream, 0.5).matrix
    s = eigendecompose(M)
    assert abs(abs(s.eigenvalues[0]) - 1.0) < 1e-8
    # ones is a left unit eigenvector: ones @ M stays aligned with ones.
    # (With isolated nodes the unit eigenvalue is degenerate, so comparing
    # the solver's returned vector against ones would be ill-posed.)
    ones = np.ones(M.shape[0])
    image = ones @ M
    cos = (image @ ones) / (np.linalg.norm(image) * np.linalg.norm(ones))
    assert cos >= 1 - 1e-8
    assert np.max(np.abs(image - ones)) < 1e-10


def test_fiedler_left_symmetric_matches_right():
    fac = interval_factor(random_laplacian(np.random.default_rng(0), 4),
                          2.0, 1.0)
    v2 = fiedler_left(fac.matrix)
    s = eigendecompose(fac.matrix)
    u2 = s.right_vectors[1]
    cos = abs(v2 @ u2) / (np.linalg.norm(v2) * np.linalg.norm(u2))
    assert cos == pytest.approx(1.0, abs=1e-10)


def test_fiedler_left_two_node():
    fac = interval_factor(L2, 1.0, 1.0)
    v2 = fiedler_left(fac.matrix)
    direction = v2 / v2[0]
    assert np.allclose(direction, [1.0, -1.0], atol=1e-12)


def test_fiedler_degenerate_on_consensus_matrix():
    M = np.full((4, 4), 0.25)
    with pytest.raises(DegenerateFiedlerError):
        fiedler_left(M)


def test_shrinkage_identity_factor():
    fac = interval_factor(random_laplacian(np.random.default_rng(1), 3),
                          1.5, 1.0)
    ratio = shrinkage_ratio(fac.matrix, np.eye(3))
    assert isinstance(ratio, float)
    assert ratio == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_shrinkage_polynomial_same_eigenspace(seed):
    rng = np.random.default_rng(seed)
    M = interval_factor(random_laplacian(rng, 4), 2.0, 1.0).matrix
    # Y = p(M) shares M's eigenspace, so the ratio equals |p(lambda_2)|
    p = np.array([0.3, 0.5, 0.2])  # p(x) = 0.3 + 0.5x + 0.2x^2
    Y = p[0] * np.eye(4) + p[1] * M + p[2] * M @ M
    lam2 = eigendecompose(M).eigenvalues[1]
    expected = abs(p[0] + p[1] * lam2 + p[2] * lam2 ** 2)
    assert shrinkage_ratio(M, Y) == pytest.approx(expected, abs=1e-8)


def test_shrinkage_scale_invariant():
    rng = np.random.default_rng(2)
    M = interval_factor(random_laplacian(rng, 4), 1.0, 1.0).matrix
    Y = interval_factor(random_laplacian(rng, 4), 0.5, 1.0).matrix
    v2 = fiedler_left(M)
    base = shrinkage_ratio(M, Y)
    for scale in (0.1, 7.3):
        w2 = (scale * v2) @ Y
        ratio = np.linalg.norm(w2) / np.linalg.norm(scale * v2)
        assert ratio == pytest.approx(base, abs=1e-12)


def test_eigenvalue_ordering_deterministic():
    M = np.diag([0.5, 1.0, 0.5, 0.2])
    s = eigendecompose(M)
    assert np.allclose(s.eigenvalues.real, [1.0, 0.5, 0.5, 0.2])


def test_phase_fixing_reproducible():
    rng = np.random.default_rng(3)
    M = interval_factor(random_laplacian(rng, 5), 1.0, 1.0).matrix
    a = eigendecompose(M)
    b = eigendecompose(M)
    assert np.array_equal(a.right_vectors[1], b.right_vectors[1])
    u2 = a.right_vectors[1]
    pivot = u2[np.argmax(np.abs(u2))]
    assert pivot.imag == pytest.approx(0.0, abs=1e-14)
    assert pivot.real > 0


@pytest.mark.parametrize("seed", range(20))
def test_single_factor_gap_monotone_in_alpha(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    L = random_laplacian(rng, n)
    dt = float(rng.uniform(0.1, 5.0))
    grid = np.geomspace(1e-3, 1e2, 30)
    gaps = [spectral_gap(interval_factor(L, dt, a).matrix) for a in grid]
    assert all(g2 <= g1 + 1e-9 for g1, g2 in zip(gaps, gaps[1:]))
