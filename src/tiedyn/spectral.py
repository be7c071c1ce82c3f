"""Spectral gaps and Fiedler-vector shrinkage.

Propagators are products of column-stochastic matrices, so the
largest-magnitude eigenvalue is 1 with left eigenvector (1,...,1). The
spectral gap 1 - |lambda_2| measures the speed of convergence to
consensus. The shrinkage ratio ||v2 Y|| / ||v2|| measures how strongly
the next interval factor contracts the slow (Fiedler) mode.

One eigenvalue-only solve per matrix serves both: it gives the gap, the
Fiedler separation test and lambda_2. The Fiedler vectors then come from
linear solves against M - lambda_2 I, never from an eigenvector solve.
"""

from __future__ import annotations

import numpy as np

from .propagator import IntervalFactor

_UNIT_EIG_TOL = 1e-6
_DEGENERACY_TOL = 1e-10
_EPS = np.finfo(float).eps
# Inverse iteration steps before a right Fiedler vector counts as not found.
# A start vector with no u2 component but rounding converges in two.
_INVERSE_STEPS = 3


class SpectralError(RuntimeError):
    """Raised when a spectral computation cannot proceed."""


class DegenerateFiedlerError(SpectralError):
    """|lambda_2| is not separated from |lambda_1| or |lambda_3|; no
    distinguished Fiedler direction exists."""


class DefectiveEigenpairError(SpectralError):
    """The Fiedler left/right eigenvector pair is numerically orthogonal
    (v.u ~ 0), so it cannot be scaled to be biorthogonal."""


def _require_finite(M: np.ndarray) -> np.ndarray:
    """M as a float array; the one finiteness check of both solves."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise SpectralError("nonfinite matrix entries")
    return M


class MagnitudeSpectrum:
    """The eigenvalues, their magnitudes in descending order, and the two
    tests that the gap and the Fiedler direction rest on."""

    def __init__(self, eigenvalues: np.ndarray):
        self.eigenvalues = eigenvalues
        self.magnitudes = np.sort(np.abs(eigenvalues))[::-1]

    def gap(self) -> float:
        """1 - |lambda_2| of a valid propagator (|lambda_1| must be 1)."""
        mags = self.magnitudes
        if abs(mags[0] - 1.0) > _UNIT_EIG_TOL:
            raise SpectralError(
                f"largest eigenvalue magnitude {mags[0]} deviates from 1; "
                "input is not a valid propagator"
            )
        if len(mags) < 2:
            return 0.0
        return float(np.clip(1.0 - mags[1], 0.0, 1.0))

    def require_fiedler(self) -> None:
        """Raise DegenerateFiedlerError unless |lambda_2| is separated from
        |lambda_1| (a disconnected tie graph has gap 0) and from |lambda_3|."""
        mags = self.magnitudes
        if len(mags) < 2:
            raise DegenerateFiedlerError("need at least 2 nodes")
        if mags[0] - mags[1] < _DEGENERACY_TOL:
            raise DegenerateFiedlerError(
                f"|lambda_1|={mags[0]} and |lambda_2|={mags[1]} are degenerate"
            )
        if len(mags) > 2 and mags[1] - mags[2] < _DEGENERACY_TOL:
            raise DegenerateFiedlerError(
                f"|lambda_2|={mags[1]} and |lambda_3|={mags[2]} are degenerate"
            )


def magnitude_spectrum(M: np.ndarray) -> MagnitudeSpectrum:
    """Eigenvalue magnitudes of M from an eigenvalue-only solve."""
    w = np.linalg.eigvals(_require_finite(M))
    return MagnitudeSpectrum(w)


def spectral_gap(M: np.ndarray) -> float:
    """1 - |lambda_2| of a valid propagator (|lambda_1| must be 1)."""
    return magnitude_spectrum(M).gap()


def _start_vector(n: int) -> np.ndarray:
    """The fixed start of inverse iteration. Not the all-ones vector: that
    is the right eigenvector of lambda_1 of every doubly stochastic M (all
    undirected propagators), with no component along u2."""
    return np.sin(np.arange(1.0, n + 1.0))


def _right_vector(M: np.ndarray, lam: float) -> np.ndarray:
    """Unit right eigenvector of M for its simple real eigenvalue ``lam``,
    by inverse iteration (Golub & Van Loan, 4th ed., section 7.6.1).

    The shift is ``lam + eps * ||M||_1``, as LAPACK ``dlaein`` perturbs it:
    an exactly representable ``lam`` would make M - lam I exactly singular.
    If rounding still leaves a pivot exactly zero, the shift moves by
    ``n * eps * ||M||_1`` more. Each step is one LU solve; it stops once
    the residual ||M u - lam u|| is at rounding level,
    ``10 * n * eps * ||M||_1`` (the largest seen on 5353 time-series rows
    of N = 4 to 92 was 2.2 * n * eps * ||M||_1).
    """
    n = len(M)
    scale = np.abs(M).sum(axis=0).max()
    A = M.copy()
    A.flat[::n + 1] -= lam + _EPS * scale
    u = _start_vector(n)
    for _ in range(_INVERSE_STEPS):
        try:
            x = np.linalg.solve(A, u)
        except np.linalg.LinAlgError:
            A.flat[::n + 1] -= n * _EPS * scale
            continue
        u = x / np.linalg.norm(x)
        if np.linalg.norm(M @ u - lam * u) <= 10 * n * _EPS * scale:
            return u
    raise DefectiveEigenpairError(
        "Fiedler pair is defective (inverse iteration did not converge)")


def fiedler_left(M: np.ndarray, spectrum: MagnitudeSpectrum | None = None
                 ) -> np.ndarray:
    """Left eigenvector v2 of the second-largest-magnitude eigenvalue,
    scaled so that v2 @ u2 = 1 for the unit right eigenvector u2 whose
    largest-magnitude component is real and positive.

    lambda_2 comes from the eigenvalues of ``spectrum``, M's
    ``magnitude_spectrum`` (solved here when not given), and u2 from
    inverse iteration on M - lambda_2 I. v2 then solves the bordered system
    [(M - lambda_2 I)^T, u2; u2^T, 0] [v2; mu] = [0; 1]. It is singular
    exactly when lambda_2 is not simple or v2 . u2 = 0, and otherwise as
    well conditioned as the Fiedler pair, however ill conditioned the
    other eigenvectors are.

    Raises DegenerateFiedlerError (see ``MagnitudeSpectrum.require_fiedler``)
    and DefectiveEigenpairError when the unit vectors along v2 and u2 are
    numerically orthogonal (|v.u| < 1e-14), the bordered system is
    singular or inverse iteration finds no u2.
    """
    M = _require_finite(M)
    if spectrum is None:
        spectrum = magnitude_spectrum(M)
    spectrum.require_fiedler()
    # separation makes k unique and lambda_2 real (conjugates tie in |w|),
    # so u2 and v2 are real
    w = spectrum.eigenvalues
    lam = float(w[np.argsort(np.abs(w))[-2]].real)
    u = _right_vector(M, lam)
    u *= np.sign(u[np.argmax(np.abs(u))])
    n = len(u)
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = M.T
    np.fill_diagonal(K[:n, :n], M.diagonal() - lam)
    K[:n, n] = K[n, :n] = u
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    try:
        v = np.linalg.solve(K, rhs)[:n]
    except np.linalg.LinAlgError:
        raise DefectiveEigenpairError(
            "Fiedler pair is defective (singular bordered system)") from None
    inner = v @ u
    if abs(inner) < 1e-14 * np.linalg.norm(v):
        raise DefectiveEigenpairError("Fiedler pair is defective (v.u ~ 0)")
    return v / inner


def shrinkage_ratio(M_before: np.ndarray,
                    Y_next: IntervalFactor | np.ndarray,
                    spectrum: MagnitudeSpectrum | None = None) -> float:
    """||v2 Y|| / ||v2||: how much the next interval factor shrinks the
    Fiedler vector.

    ``spectrum`` is ``magnitude_spectrum(M_before)`` if the caller has it
    (see ``fiedler_left``). An ``IntervalFactor`` is applied on its live
    block, without forming its dense matrix.
    """
    v2 = fiedler_left(M_before, spectrum)
    dense = not isinstance(Y_next, IntervalFactor)
    w2 = v2 @ np.asarray(Y_next) if dense else Y_next.apply(v2.copy())
    return float(np.linalg.norm(w2) / np.linalg.norm(v2))
