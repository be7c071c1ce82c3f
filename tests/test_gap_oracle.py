"""The spectral gap of ``propagate`` against a 50-digit oracle.

The oracle shares no code with the package. Each interval's weights come
from the event times, as the sum of exp(-alpha (t - t_e)) over the
pair's events up to the interval's start t; each factor is
expm(c L^T) with c = expm1(-alpha dt) / alpha; the factors multiply in
time order, and |lambda_2| comes from an eigenvalue solve, all in
mpmath at 50 digits.
"""

import pytest

mpmath = pytest.importorskip("mpmath")

from tiedyn.propagator import propagate
from tiedyn.spectral import spectral_gap

from conftest import make_random_stream

mp = mpmath.MPContext()
mp.dps = 50


def oracle_gap(stream, alpha):
    """1 - |lambda_2| of the stream's propagator, at 50 digits."""
    n, a = stream.node_count, mp.mpf(alpha)
    rows = list(zip(stream.times.tolist(), stream.sources.tolist(),
                    stream.targets.tolist()))
    starts = sorted(set(stream.times.tolist()))
    M = mp.eye(n)
    for t, t_next in zip(starts, starts[1:]):
        W = mp.zeros(n, n)
        for t_e, i, j in rows:
            if t_e <= t:
                w = mp.exp(-a * (mp.mpf(t) - mp.mpf(t_e)))
                W[i, j] += w
                if not stream.directed:
                    W[j, i] += w
        L = -W
        for i in range(n):
            L[i, i] = mp.fsum(W[i, j] for j in range(n))
        c = mp.expm1(-a * (mp.mpf(t_next) - mp.mpf(t))) / a
        M = M * mp.expm(c * L.T)
    eigenvalues = mp.eig(M, left=False, right=False)
    return 1 - sorted(map(abs, eigenvalues), reverse=True)[1]


@pytest.mark.parametrize("alpha", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("seed", range(6))
def test_gap_matches_extended_precision(seed, alpha):
    stream = make_random_stream(seed, n_max=6, max_events=20)
    got = spectral_gap(propagate(stream, alpha).matrix)
    assert abs(got - float(oracle_gap(stream, alpha))) <= 1e-13
