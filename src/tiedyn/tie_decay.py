"""Continuous-time tie strengths with exponential decay.

Tie strengths decay as db/dt = -alpha*b between events and jump by 1
when an event occurs on the pair. ``timeline`` walks a stream's event
times once and keeps the strengths as one vector over the stream's
distinct edges (``Ties``).
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

import numpy as np

from .events import EventStream, group_event_times

# Weights this small are flushed to exact zero to avoid subnormal drag.
_FLUSH_THRESHOLD = 1e-300

# decay_to and apply_events are the walk's two in-place kernels; ``timeline``
# calls both, and ``propagator.degroot_run`` calls apply_events. bench/trace.py
# wraps them by name, under every name a tiedyn module binds them to, so the
# wrappers see every call.


def decay_to(w: np.ndarray, alpha: float, dt: float) -> None:
    """Multiply weights in place by e^{-alpha*dt}, flushing tiny ones to 0."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not dt >= 0:
        raise ValueError(f"cannot decay backwards: dt must be >= 0, got {dt}")
    w *= np.exp(-alpha * dt)
    w[w < _FLUSH_THRESHOLD] = 0.0


def apply_events(w: np.ndarray, edges: np.ndarray) -> None:
    """Add 1 in place to the weight ``w[e]`` of every edge index ``e`` in
    ``edges`` (``stream_ties``); repeated edges add up, in order."""
    if w.ndim != 1:
        raise ValueError(f"weights must be one vector over the edges, got shape {w.shape}")
    np.add.at(w, edges, 1.0)


class Ties(NamedTuple):
    """A weight matrix in tie form: ``weights[e]`` from ``sources[e]`` to
    ``targets[e]``, and back again unless ``directed``; zero elsewhere."""

    sources: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    node_count: int
    directed: bool


def off_diagonal(W: np.ndarray) -> np.ndarray:
    """A float copy of the N x N weights ``W`` (an array or nested lists)
    with a zero diagonal. ``W`` must be square, its entries finite, and
    those off the diagonal >= 0."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"weights must be a square matrix, got shape {W.shape}")
    if not np.all(np.isfinite(W)):
        raise ValueError("nonfinite weights")
    W = W.copy()
    np.fill_diagonal(W, 0.0)
    if (W < 0).any():
        raise ValueError("negative off-diagonal weights")
    return W


def dense_ties(W: np.ndarray) -> Ties:
    """The nonzero off-diagonal entries of the N x N weights ``W``
    (``off_diagonal``) as directed ties, in row-major order."""
    W = off_diagonal(W)
    sources, targets = W.nonzero()
    return Ties(sources, targets, W[sources, targets], W.shape[0], True)


def stream_ties(stream: EventStream) -> tuple[Ties, np.ndarray]:
    """Zero weights on the stream's distinct edges (``EventStream.edges``,
    in ``edge_key`` order), and the edge index of each event."""
    codes, edge_of_event = stream.edges
    n = stream.node_count
    return Ties(*np.divmod(codes, n), np.zeros(len(codes)), n, stream.directed), edge_of_event


def weight_matrix(ties: Ties) -> np.ndarray:
    """The dense N x N weights of ``ties``."""
    n = ties.node_count
    W = np.zeros((n, n))
    W[ties.sources, ties.targets] = ties.weights
    if not ties.directed:
        W[ties.targets, ties.sources] = ties.weights
    return W


def laplacian(weights: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
    """Combinatorial Laplacian L = D - W of a weight matrix.

    Row i sums to zero; the diagonal holds node i's weighted out-degree.
    With ``idx``, ``weights`` holds only the rows of the nodes ``idx``
    (k x N), and L is the k x k block of D - W on them; each degree is
    still the sum of a whole row of N weights.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or len(weights) != (weights.shape[1] if idx is None else len(idx)):
        raise ValueError(f"weights must be N x N, or len(idx) x N, got shape {weights.shape}")
    degrees = weights.sum(axis=1)
    L = -weights if idx is None else -weights[:, idx]
    np.fill_diagonal(L, degrees)
    return L


def timeline(stream: EventStream, alpha: float, upto: float | None = None
             ) -> Iterator[tuple[float, float, Ties]]:
    """Yield ``(t_start, dt, ties)`` for each inter-event interval up to ``upto``.

    ``ties`` holds the tie strengths just after the events at ``t_start``,
    one weight per distinct edge of the stream (``edge_key`` order); over
    the interval they decay as ``e^{-alpha (t - t_start)}``. Its weight
    vector is the walk's own, decayed and bumped in place at the next
    step, so read it before drawing the next interval. ``upto`` defaults
    to the horizon and must be finite; a negative ``upto`` yields
    nothing. ``upto`` exactly at an event time means the events at that
    time are not applied (the walk stops just before them); a final
    partial interval covers any remaining open time.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    groups = group_event_times(stream)
    if upto is None:
        upto = stream.horizon
    elif not math.isfinite(upto):
        raise ValueError(f"upto must be finite, got {upto}")
    ties, edge_of_event = stream_ties(stream)
    w = ties.weights
    t_prev: float | None = None
    for t_g, start, stop in groups:
        if t_g > upto or (t_prev is not None and t_g >= upto):
            break
        if t_prev is not None:
            yield t_prev, t_g - t_prev, ties
            decay_to(w, alpha, t_g - t_prev)
        apply_events(w, edge_of_event[start:stop])
        t_prev = t_g
    if t_prev is not None and upto > t_prev:
        yield t_prev, upto - t_prev, ties

