"""Time-averaged aggregate networks and their constant-Laplacian propagator.

The aggregate weight of an edge is the mean over [0, T] of its
tie-decay weight. Each event at time t contributes
(1/T) * integral_t^T e^{-alpha (x - t)} dx = (1 - e^{-alpha (T - t)}) / (alpha T),
which is evaluated in closed form with expm1 for stability.
"""

from __future__ import annotations

import math

import numpy as np

from .events import EventStream
from .propagator import _expm
from .tie_decay import laplacian


def aggregate_weights(stream: EventStream, alpha: float) -> np.ndarray:
    """Closed-form time-averaged tie weight for every node pair."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    T = stream.horizon
    if T <= 0:
        raise ValueError("aggregation needs a positive time horizon")
    n = stream.node_count
    w = np.zeros((n, n))
    for ev in stream.events:
        contrib = -math.expm1(-alpha * (T - ev.time)) / (alpha * T)
        w[ev.source, ev.target] += contrib
        if not stream.directed:
            w[ev.target, ev.source] += contrib
    return w


def aggregate_propagator(weights: np.ndarray, t: float) -> np.ndarray:
    """exp(-t L^T): the opinion map under the constant aggregate Laplacian."""
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    M = _expm(-t * laplacian(weights).T)
    np.clip(M, 0.0, None, out=M)
    return M
