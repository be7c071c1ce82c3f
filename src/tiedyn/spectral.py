"""Eigendecomposition, spectral gaps, and Fiedler-vector shrinkage.

Propagators are products of column-stochastic matrices, so the
largest-magnitude eigenvalue is 1 with left eigenvector (1,...,1). The
spectral gap 1 - |lambda_2| measures the speed of convergence to
consensus. The shrinkage ratio ||v2 Y|| / ||v2|| measures how strongly
the next interval factor contracts the slow (Fiedler) mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .propagator import IntervalFactor

_UNIT_EIG_TOL = 1e-6
_DEGENERACY_TOL = 1e-10


class SpectralError(RuntimeError):
    """Raised when a spectral computation cannot proceed."""


class DegenerateFiedlerError(SpectralError):
    """|lambda_2| is not separated from |lambda_1| or |lambda_3|; no
    distinguished Fiedler direction exists."""


class DefectiveEigenpairError(SpectralError):
    """A left/right eigenvector pair is numerically orthogonal (v.u ~ 0),
    so it cannot be scaled to be biorthogonal."""


@dataclass
class SpectralSummary:
    """Magnitude-sorted spectrum with the top two biorthogonal eigenvector
    pairs (one pair when N = 1).

    ``right_vectors[i]`` is a unit column eigenvector u_i (phase fixed so
    its largest-magnitude component is real-positive); ``left_vectors[i]``
    is the row eigenvector v_i scaled so that v_i @ u_i = 1.
    """

    eigenvalues: np.ndarray
    right_vectors: list[np.ndarray]
    left_vectors: list[np.ndarray]


def _sort_order(eigenvalues: np.ndarray) -> np.ndarray:
    """Deterministic order: magnitude desc, then real desc, then imag desc."""
    return np.lexsort((-eigenvalues.imag, -eigenvalues.real,
                       -np.abs(eigenvalues)))


def _fix_phase(u: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude component is real and positive."""
    k = int(np.argmax(np.abs(u)))
    pivot = u[k]
    if pivot == 0:
        return u
    return u * (abs(pivot) / pivot)


def eigendecompose(M: np.ndarray) -> SpectralSummary:
    """Full complex spectrum plus the top min(2, N) biorthogonal
    eigenvector pairs."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise SpectralError("nonfinite matrix entries")
    try:
        w, vl, vr = scipy.linalg.eig(M, left=True, right=True)
    except Exception as exc:  # pragma: no cover - LAPACK failure path
        raise SpectralError(f"eigensolver failed: {exc}") from exc

    order = _sort_order(w)
    w = w[order]
    vl = vl[:, order]
    vr = vr[:, order]

    rights: list[np.ndarray] = []
    lefts: list[np.ndarray] = []
    for i in range(min(2, M.shape[0])):
        u = _fix_phase(vr[:, i])
        u = u / np.linalg.norm(u)
        # scipy returns vl with vl[:,i]^H M = w_i vl[:,i]^H
        v = np.conj(vl[:, i])
        inner = v @ u
        if abs(inner) < 1e-14:
            raise DefectiveEigenpairError(
                f"eigenvector pair {i} is numerically defective (v.u ~ 0)"
            )
        rights.append(u)
        lefts.append(v / inner)
    return SpectralSummary(w, rights, lefts)


class MagnitudeSpectrum:
    """Eigenvalue magnitudes in descending order, and the two tests that
    the gap and the Fiedler direction rest on."""

    def __init__(self, eigenvalues: np.ndarray):
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
    return MagnitudeSpectrum(scipy.linalg.eigvals(np.asarray(M, dtype=float)))


def spectral_gap(M: np.ndarray) -> float:
    """1 - |lambda_2| of a valid propagator (|lambda_1| must be 1)."""
    return magnitude_spectrum(M).gap()


def fiedler_left(M: np.ndarray) -> np.ndarray:
    """Left eigenvector for the second-largest-magnitude eigenvalue.

    Raises DegenerateFiedlerError when no distinguished Fiedler direction
    exists (see ``MagnitudeSpectrum.require_fiedler``), and
    DefectiveEigenpairError when one of the top two eigenvector pairs
    is numerically defective.
    """
    summary = eigendecompose(M)
    MagnitudeSpectrum(summary.eigenvalues).require_fiedler()
    return summary.left_vectors[1]


def shrinkage_ratio(M_before: np.ndarray,
                    Y_next: IntervalFactor | np.ndarray) -> float:
    """||v2 Y|| / ||v2||: how much the next interval factor shrinks the
    Fiedler vector.

    An ``IntervalFactor`` is applied block by block, without forming its
    dense matrix.
    """
    v2 = fiedler_left(M_before)
    if isinstance(Y_next, IntervalFactor):
        w2 = Y_next.apply(v2.copy())
    else:
        w2 = v2 @ np.asarray(Y_next)
    return float(np.linalg.norm(w2) / np.linalg.norm(v2))
