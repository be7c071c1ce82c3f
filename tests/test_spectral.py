import math

import numpy as np
import pytest
import scipy.linalg

from tiedyn import spectral
from tiedyn.propagator import interval_factor, iter_factors, propagate
from tiedyn.spectral import (DefectiveEigenpairError, DegenerateFiedlerError,
                             SpectralError, fiedler_left, magnitude_spectrum,
                             shrinkage_ratio, spectral_gap)

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


def scipy_right_vectors(M):
    """Unit right eigenvectors u1, u2 of the two largest-magnitude
    eigenvalues, from scipy directly."""
    w, vr = scipy.linalg.eig(M)
    order = np.argsort(np.abs(w))
    return [vr[:, k] / np.linalg.norm(vr[:, k]) for k in order[[-1, -2]]]


def test_identity_spectrum():
    assert np.allclose(magnitude_spectrum(np.eye(4)).magnitudes, 1.0)
    assert spectral_gap(np.eye(4)) == 0.0


def test_consensus_matrix_spectrum():
    n = 5
    M = np.full((n, n), 1.0 / n)
    mags = magnitude_spectrum(M).magnitudes
    assert mags[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(mags[1:]) < 1e-12
    assert spectral_gap(M) == pytest.approx(1.0, abs=1e-12)


def test_two_node_factor_spectrum():
    fac = interval_factor(L2, 1e9, 1.0)  # coefficient c = -1
    mags = magnitude_spectrum(fac.matrix).magnitudes
    assert mags[0] == pytest.approx(1.0, abs=1e-12)
    assert mags[1] == pytest.approx(math.exp(-2), abs=1e-12)
    assert spectral_gap(fac.matrix) == pytest.approx(1 - math.exp(-2),
                                                     abs=1e-10)


def test_spectral_functions_reject_nonfinite_input():
    for bad in (np.nan, np.inf):
        M = np.eye(2)
        M[0, 1] = bad
        for solve in (spectral_gap, fiedler_left):
            with pytest.raises(SpectralError, match="nonfinite"):
                solve(M)


def test_spectral_gap_rejects_non_propagator():
    with pytest.raises(SpectralError, match="not a valid propagator"):
        spectral_gap(0.5 * np.eye(3))


@pytest.mark.parametrize("seed", range(10))
def test_biorthogonality(seed):
    stream = make_random_stream(seed)
    M = propagate(stream, 1.0).matrix
    try:
        magnitude_spectrum(M).require_fiedler()
    except DegenerateFiedlerError:  # disconnected tie graph
        with pytest.raises(DegenerateFiedlerError):
            fiedler_left(M)
        return
    v2 = fiedler_left(M)
    u1, u2 = scipy_right_vectors(M)
    assert abs(v2 @ u1) < 1e-8
    assert abs(abs(v2 @ u2) - 1.0) < 1e-8
    lam2 = (v2 @ M @ u2) / (v2 @ u2)
    assert np.max(np.abs(v2 @ M - lam2 * v2)) < 1e-8 * np.linalg.norm(v2)


@pytest.mark.parametrize("seed", range(10))
def test_unit_eigenvalue_and_ones_left_vector(seed):
    stream = make_random_stream(seed)
    M = propagate(stream, 0.5).matrix
    assert abs(magnitude_spectrum(M).magnitudes[0] - 1.0) < 1e-8
    # ones is a left unit eigenvector: ones @ M stays aligned with ones.
    # (With isolated nodes the unit eigenvalue is degenerate, so comparing
    # the solver's returned vector against ones would be ill-posed.)
    ones = np.ones(M.shape[0])
    image = ones @ M
    cos = (image @ ones) / (np.linalg.norm(image) * np.linalg.norm(ones))
    assert cos >= 1 - 1e-8
    assert np.max(np.abs(image - ones)) < 1e-10


def test_fiedler_left_symmetric_matches_right():
    # a symmetric factor has v2 = u2, so v2 @ u2 = 1 makes v2 the unit
    # eigh vector of the second-largest eigenvalue (all are positive),
    # with its largest-magnitude component positive
    for seed in range(5):
        rng = np.random.default_rng(seed)
        fac = interval_factor(random_laplacian(rng, int(rng.integers(2, 7))),
                              2.0, 1.0)
        u2 = scipy.linalg.eigh(fac.matrix)[1][:, -2]
        u2 *= np.sign(u2[np.argmax(np.abs(u2))])
        assert np.max(np.abs(fiedler_left(fac.matrix) - u2)) < 1e-10


def fiedler_case(kind, seed):
    """A symmetric interval factor, or a directed propagator whose
    Fiedler pair is separated (seeds 0, 8 and 10 have complex spectra)."""
    if kind == "directed":
        return propagate(make_random_stream(seed, directed=True), 1.0).matrix
    rng = np.random.default_rng(seed)
    return interval_factor(random_laplacian(rng, int(rng.integers(3, 8))),
                           2.0, 1.0).matrix


@pytest.mark.parametrize("kind,seed", [("symmetric", s) for s in range(5)]
                         + [("directed", s) for s in (0, 1, 4, 8, 10)])
def test_fiedler_left_matches_scipy_left_vector(kind, seed):
    M = fiedler_case(kind, seed)
    v2 = fiedler_left(M)
    assert np.isrealobj(v2)
    w, vl, vr = scipy.linalg.eig(M, left=True, right=True)
    k = np.argsort(np.abs(w))[-2]
    u2 = vr[:, k]
    pivot = u2[np.argmax(np.abs(u2))]
    u2 = u2 * (abs(pivot) / pivot) / np.linalg.norm(u2)
    assert abs(v2 @ u2 - 1.0) < 1e-12
    assert np.max(np.abs(v2 @ M - w[k] * v2)) < 1e-12 * np.linalg.norm(v2)
    reference = np.conj(vl[:, k])  # scipy's vl[:, k]^H M = w_k vl[:, k]^H
    assert np.max(np.abs(v2 - reference / (reference @ u2))) < 1e-10


def test_singular_bordered_solve_is_defective(monkeypatch):
    # an exactly singular bordered system needs a multiple lambda_2, which
    # fails the separation test first, so force the solve to fail
    M = fiedler_case("symmetric", 0)
    solve = np.linalg.solve

    def singular(a, b):
        if len(a) == len(M) + 1:  # the bordered system only
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(DefectiveEigenpairError, match="singular"):
        fiedler_left(M)


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
    lam2 = magnitude_spectrum(M).magnitudes[1]  # a symmetric factor's are positive
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
    assert np.array_equal(magnitude_spectrum(M).magnitudes, [1.0, 0.5, 0.5, 0.2])
    with pytest.raises(DegenerateFiedlerError, match="lambda_3"):
        fiedler_left(M)


def test_phase_fixing_reproducible():
    rng = np.random.default_rng(3)
    stream = make_random_stream(7, directed=True)
    for M in (interval_factor(random_laplacian(rng, 5), 1.0, 1.0).matrix,
              propagate(stream, 1.0).matrix):
        v2 = fiedler_left(M)
        assert np.array_equal(v2, fiedler_left(M))
        # v2 is scaled against the unit u2 whose largest-magnitude
        # component is real and positive
        _, u2 = scipy_right_vectors(M)
        pivot = u2[np.argmax(np.abs(u2))]
        u2 = u2 * (abs(pivot) / pivot)
        assert v2 @ u2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_single_factor_gap_monotone_in_alpha(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    L = random_laplacian(rng, n)
    dt = float(rng.uniform(0.1, 5.0))
    grid = np.geomspace(1e-3, 1e2, 30)
    gaps = [spectral_gap(interval_factor(L, dt, a).matrix) for a in grid]
    assert all(g2 <= g1 + 1e-9 for g1, g2 in zip(gaps, gaps[1:]))


# random streams of 6 to 12 nodes whose time series have separated rows
DENSE_SEEDS = (0, 1, 4, 5, 6, 7)


def separated_rows(seed, directed):
    """M(t_k) of every row of a random stream's time series at alpha 1 and
    100 whose Fiedler pair is separated."""
    stream = make_random_stream(seed, n_max=12, max_events=60, directed=directed)
    rows = []
    for alpha in (1.0, 100.0):
        M = np.eye(stream.node_count)
        for Y in iter_factors(stream, alpha):
            Y.apply(M)
            try:
                magnitude_spectrum(M).require_fiedler()
            except DegenerateFiedlerError:
                continue
            rows.append(M.copy())
    return rows


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("seed", DENSE_SEEDS)
def test_fiedler_left_matches_dense_left_eig(seed, directed):
    rows = separated_rows(seed, directed)
    assert len(rows) >= 20
    for M in rows:
        v2 = fiedler_left(M)
        w, vl = scipy.linalg.eig(M, left=True, right=False)
        k = np.argsort(np.abs(w))[-2]
        assert abs(w[k].imag) == 0.0
        assert np.linalg.norm(v2 @ M - w[k].real * v2) <= 1e-12 * np.linalg.norm(v2)
        reference = vl[:, k].real / np.linalg.norm(vl[:, k].real)
        unit = v2 / np.linalg.norm(v2)
        assert min(np.abs(unit - reference).max(), np.abs(unit + reference).max()) < 1e-9


# a path of three nodes, M = I - L/4: eigenvalues 1, 0.75 and 0.25, all exact
PATH3 = np.array([[0.75, 0.25, 0.0], [0.25, 0.5, 0.25], [0.0, 0.25, 0.75]])


def test_exactly_singular_shift():
    # lambda_2 = 0.75 is exact, so M - lambda_2 I is singular in floating
    # point too; the shift is perturbed off it
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(PATH3 - 0.75 * np.eye(3), np.ones(3))
    v2 = fiedler_left(PATH3)
    assert np.max(np.abs(v2 - np.array([1.0, 0.0, -1.0]) / math.sqrt(2))) < 1e-12


def test_singular_shifted_lu_moves_the_shift(monkeypatch):
    # rounding can zero a pivot of the perturbed shift as well (one row of
    # the random_4 time series at alpha 1 does); the next step moves the
    # shift again
    M = fiedler_case("directed", 1)
    expected = fiedler_left(M)
    solve = np.linalg.solve
    failed = []

    def first_shift_singular(a, b):
        if len(a) == len(M) and not failed:
            failed.append(a)
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", first_shift_singular)
    v2 = fiedler_left(M)
    assert len(failed) == 1
    assert np.max(np.abs(v2 - expected)) < 1e-12 * np.max(np.abs(expected))


# doubly stochastic, with dyadic entries: an all-ones start is the right
# eigenvector of lambda_1 and stays so in every inverse iteration step
ONES_TRAP = np.array([[0.5, 0.125, 0.375], [0.125, 0.75, 0.125], [0.375, 0.125, 0.5]])


def test_doubly_stochastic_case_needs_a_generic_start(monkeypatch):
    w, V = scipy.linalg.eigh(ONES_TRAP)
    u2 = V[:, -2] * np.sign(V[np.argmax(np.abs(V[:, -2])), -2])
    assert np.max(np.abs(fiedler_left(ONES_TRAP) - u2)) < 1e-12
    monkeypatch.setattr(spectral, "_start_vector", np.ones)
    with pytest.raises(DefectiveEigenpairError, match="inverse iteration"):
        fiedler_left(ONES_TRAP)


def test_fiedler_left_takes_the_given_spectrum(monkeypatch):
    M = fiedler_case("directed", 4)
    Y = interval_factor(random_laplacian(np.random.default_rng(0), len(M)), 1.0, 1.0)
    spectrum = magnitude_spectrum(M)
    v2, ratio = fiedler_left(M), shrinkage_ratio(M, Y)

    def no_solve(*args):
        raise AssertionError("eigenvalues solved again")

    monkeypatch.setattr(np.linalg, "eigvals", no_solve)
    monkeypatch.setattr(np.linalg, "eig", no_solve)
    assert np.array_equal(fiedler_left(M, spectrum), v2)
    assert shrinkage_ratio(M, Y, spectrum) == ratio
