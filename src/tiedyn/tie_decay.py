"""Continuous-time tie-strength matrix with exponential decay.

Tie strengths decay as db/dt = -alpha*b between events and jump by 1
when an event occurs on the pair. The combinatorial Laplacian is
derived from the weight matrix on demand, and ``intervals`` walks a
stream's event times once, yielding the Laplacian of every
inter-event interval.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from .events import Event, EventStream, group_event_times

# Weights this small are flushed to exact zero to avoid subnormal drag.
_FLUSH_THRESHOLD = 1e-300

# decay_to and apply_events are the walk's two in-place kernels. bench/trace.py
# wraps them by name, and ``intervals`` calls them through the module globals,
# so the wrappers see every call.


def decay_to(w: np.ndarray, alpha: float, dt: float) -> None:
    """Multiply weights in place by e^{-alpha*dt}, flushing tiny ones to 0."""
    if dt < 0:
        raise ValueError(f"cannot decay backwards: dt = {dt} < 0")
    w *= np.exp(-alpha * dt)
    w[w < _FLUSH_THRESHOLD] = 0.0


def apply_events(w: np.ndarray, events: Iterable[Event], directed: bool) -> None:
    """Add 1 in place to the weight of every event's pair."""
    for ev in events:
        w[ev.source, ev.target] += 1.0
        if not directed:
            w[ev.target, ev.source] += 1.0


def laplacian(weights: np.ndarray) -> np.ndarray:
    """Combinatorial Laplacian L = D - W of a weight matrix.

    Row i sums to zero; the diagonal holds node i's weighted out-degree.
    """
    L = -weights
    np.fill_diagonal(L, weights.sum(axis=1))
    return L


def intervals(stream: EventStream, alpha: float, upto: float | None = None
              ) -> Iterator[tuple[float, float, np.ndarray]]:
    """Yield ``(t_start, dt, L)`` for each inter-event interval up to ``upto``.

    ``L`` is the Laplacian just after the events at ``t_start``; over the
    interval it decays as ``L e^{-alpha (t - t_start)}``. ``upto``
    defaults to the horizon. ``upto`` exactly at an event time means the
    events at that time are not applied (the walk stops just before
    them); a final partial interval covers any remaining open time.
    Each ``L`` is a fresh array, never a view of the walk's weights.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    groups = group_event_times(stream)
    if upto is None:
        upto = stream.horizon
    # the one weight matrix of the walk, decayed and bumped in place
    w = np.zeros((stream.node_count, stream.node_count))
    t_prev: float | None = None
    for t_g, evs in groups:
        if t_g > upto or (t_prev is not None and t_g >= upto):
            break
        if t_prev is not None:
            yield t_prev, t_g - t_prev, laplacian(w)
            decay_to(w, alpha, t_g - t_prev)
        apply_events(w, evs, stream.directed)
        t_prev = t_g
    if t_prev is not None and upto > t_prev:
        yield t_prev, upto - t_prev, laplacian(w)
