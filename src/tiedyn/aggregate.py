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
from .propagator import _live_factor
from .tie_decay import laplacian


def aggregate_weights(stream: EventStream, alpha: float) -> np.ndarray:
    """Closed-form time-averaged tie weight for every node pair."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    T = stream.horizon
    if T <= 0:
        raise ValueError("aggregation needs a positive time horizon")
    n = stream.node_count
    # math.expm1, not np.expm1: numpy's vectorized expm1 can differ in the
    # last bit, and these weights feed the aggregate gap written to CSV
    decay = (-alpha * (T - stream.times)).tolist()
    contrib = -np.fromiter(map(math.expm1, decay), float, len(decay)) / (alpha * T)
    i, j = stream.sources, stream.targets
    if not stream.directed:
        # both cells of each event, interleaved: every cell sums its terms
        # in event order
        i, j = np.column_stack([i, j]).ravel(), np.column_stack([j, i]).ravel()
        contrib = contrib.repeat(2)
    w = np.zeros((n, n))
    np.add.at(w, (i, j), contrib)
    return w


def aggregate_propagator(weights: np.ndarray, t: float) -> np.ndarray:
    """exp(-t L^T): the opinion map under the constant aggregate Laplacian,
    built and checked as an interval factor is."""
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    return _live_factor(laplacian(weights), -t).matrix
