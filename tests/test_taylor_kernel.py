"""The GEMM-only factor kernel against a 50-digit oracle.

``propagator._expm`` sends every block of up to ``_GEMM_MAX`` nodes, and
every directed block, to ``_taylor``. The oracle is mpmath's ``expm`` at
50 digits of the generator that a block stands for: its off-diagonal
entries as given, and each diagonal entry minus the sum of its column's
off-diagonals, summed at 50 digits. (The double diagonal holds that sum
rounded, so the literal double matrix has column sums of about
eps * ||A||, and its exact exponential is not column-stochastic.) On
small symmetric and directed generators with ||A||_1 from 1e-3 to 1e8,
the heavy-edge family of ``tests/test_blocked_factors.py`` included,
every entry must agree to 1e-13, and acyclic factors must keep their
exact zeros. The symmetric cases also run on the ``syevd`` kernel that
takes the symmetric blocks above the gate, and meet the same bound.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

import tiedyn.propagator as propagator
from tiedyn.propagator import interval_factor
from tiedyn.tie_decay import laplacian

from conftest import heavy_edge_laplacian

mp = mpmath.MPContext()
mp.dps = 50
TOL = 1e-13
NORMS = [10.0 ** e for e in range(-3, 9)]


def oracle_expm(A):
    """exp of the generator with the off-diagonals of ``A``, at 50 digits."""
    n = len(A)
    G = mp.matrix(A.tolist())
    for j in range(n):
        G[j, j] = -mp.fsum(G[i, j] for i in range(n) if i != j)
    return np.array(mp.expm(G).tolist(), dtype=float)


def random_generator(seed, norm, directed):
    """A generator on 2 to 8 nodes with ||A||_1 = ``norm`` (twice the
    largest diagonal magnitude), built as the walk builds its blocks."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    W = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
    W[0, 1] = max(W[0, 1], 0.5)  # at least one tie
    np.fill_diagonal(W, 0.0)
    if not directed:
        W = np.triu(W) + np.triu(W).T
    W *= norm / (2 * W.sum(axis=1).max())
    return -laplacian(W).T


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_the_oracle(seed, norm, directed):
    A = random_generator(seed, norm, directed)
    assert np.abs(A).sum(axis=0).max() == pytest.approx(norm)
    Y = propagator._expm(A)
    assert np.max(np.abs(Y - oracle_expm(A))) <= TOL
    assert np.min(Y) >= 0.0


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("seed", range(4))
def test_syevd_matches_the_oracle(seed, norm):
    A = random_generator(seed, norm, directed=False)
    assert np.max(np.abs(propagator._deflated_eigh(A) - oracle_expm(A))) <= TOL


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("seed", range(40))
def test_heavy_edge_factor_matches_the_oracle(seed, directed):
    # |c| w = 1e8 on one tie; the factor goes through the live block
    L, c = heavy_edge_laplacian(seed, directed=directed)
    Y = interval_factor(L, 1000.0, 0.001).matrix
    assert np.max(np.abs(Y - oracle_expm(c * L.T))) <= TOL


@pytest.mark.parametrize("seed", range(40))
def test_heavy_edge_syevd_factor_matches_the_oracle(seed, syevd):
    L, c = heavy_edge_laplacian(seed)
    Y = interval_factor(L, 1000.0, 0.001).matrix
    assert syevd
    assert np.max(np.abs(Y - oracle_expm(c * L.T))) <= TOL


def test_directed_blocks_take_the_kernel(monkeypatch):
    # a directed block above the gate still goes to _taylor, not to syevd
    calls = []
    monkeypatch.setattr(propagator, "_deflated_eigh", lambda A: calls.append(A))
    L, c = heavy_edge_laplacian(0, scale=10.0, n=propagator._GEMM_MAX + 1,
                                directed=True)
    Y = interval_factor(L, 1000.0, 0.001)
    assert not calls and len(Y.idx) == propagator._GEMM_MAX + 1


@pytest.mark.parametrize("norm", NORMS)
@pytest.mark.parametrize("seed", range(6))
def test_acyclic_factor_keeps_exact_zeros(seed, norm):
    # ties i -> j with i < j only: exp(A)[a, b] is 0 exactly where no path
    # leads from b to a, and the factor is lower triangular
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    W = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.4), 1)
    W[0, 1] = 1.0
    W *= norm / (2 * W.sum(axis=1).max())
    A = -laplacian(W).T
    reach = np.eye(n, dtype=bool) | (A > 0)
    for _ in range(n):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    Y = propagator._expm(A)
    assert np.array_equal(Y, np.tril(Y))
    assert not Y[~reach].any()
    assert np.max(np.abs(Y - oracle_expm(A))) <= TOL
