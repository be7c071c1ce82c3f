"""Event-stream parsing, validation, and summaries.

An event stream is a time-sorted sequence of pairwise contact events on
N nodes, held as three columns: times, sources and targets. Node labels
from input files are arbitrary strings; they are relabeled to dense
indices 0..N-1 with the original labels retained. Times are shifted so
that the first event occurs at t = 0.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np


class EventStreamError(ValueError):
    """Raised for malformed or invalid event-stream input."""


@dataclass(frozen=True, slots=True)
class Event:
    """One event (t, i, j) of a stream, as ``EventStream.events`` yields it."""

    time: float
    source: int
    target: int


def _column(values, dtype) -> np.ndarray:
    """A read-only copy of ``values`` as ``dtype``; float node indices are
    rejected rather than truncated."""
    col = np.asarray(values)
    if col.size and not np.can_cast(col.dtype, dtype, casting="same_kind"):
        raise EventStreamError(
            f"cannot store {col.dtype} values in a {np.dtype(dtype)} event column")
    col = col.astype(dtype)
    col.flags.writeable = False
    return col


@dataclass(frozen=True, eq=False)
class EventStream:
    """Validated, time-sorted events on a fixed node set, as columns.

    Event k is ``(times[k], sources[k], targets[k])``: read-only float64
    and intp arrays. ``labels[i]`` is the original label of dense node
    index i. ``horizon`` is the time of the last event. In undirected
    mode each contact is stored once and interpreted symmetrically.
    ``events`` is the same stream as a tuple of ``Event``, built when it
    is first read. A stream is built by hand from its columns, and
    ``__post_init__`` is the one validator of a stream.
    """

    times: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    node_count: int
    labels: tuple[str, ...]
    directed: bool = False

    def __post_init__(self):
        times = _column(self.times, np.float64)
        sources = _column(self.sources, np.intp)
        targets = _column(self.targets, np.intp)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "targets", targets)
        if not len(times):
            raise EventStreamError("empty event stream")
        if not len(sources) == len(targets) == len(times):
            raise EventStreamError("event columns differ in length")
        if self.node_count <= 0:
            raise EventStreamError("node_count must be positive")
        if len(self.labels) != self.node_count:
            raise EventStreamError("label count does not match node_count")
        # report the first faulty event, and its fault in the order a walk
        # over the events checks them
        bad_time = ~((times >= 0) & (times < math.inf))
        unsorted = np.zeros_like(bad_time)
        unsorted[1:] = times[1:] < times[:-1]
        n = self.node_count
        out_of_range = (sources < 0) | (sources >= n) | (targets < 0) | (targets >= n)
        self_event = sources == targets
        faulty = bad_time | unsorted | out_of_range | self_event
        if faulty.any():
            k = int(faulty.argmax())
            t, i, j = float(times[k]), int(sources[k]), int(targets[k])
            if bad_time[k]:
                raise EventStreamError(f"event time {t} must be finite and >= 0")
            if unsorted[k]:
                raise EventStreamError("events are not sorted by time")
            if out_of_range[k]:
                raise EventStreamError(f"node index out of range in "
                                       f"Event(time={t!r}, source={i}, target={j})")
            raise EventStreamError(f"self-event on node {i}")

    def __eq__(self, other):
        if not isinstance(other, EventStream):
            return NotImplemented
        return (self.node_count == other.node_count and self.labels == other.labels
                and self.directed == other.directed
                and np.array_equal(self.times, other.times)
                and np.array_equal(self.sources, other.sources)
                and np.array_equal(self.targets, other.targets))

    @cached_property
    def events(self) -> tuple[Event, ...]:
        """The events as ``Event`` objects, built on first read."""
        return tuple(map(Event, self.times.tolist(), self.sources.tolist(),
                         self.targets.tolist()))

    @property
    def horizon(self) -> float:
        """Time of the last event (T)."""
        return float(self.times[-1])

    def edge_key(self, i: int, j: int) -> tuple[int, int]:
        return (i, j) if self.directed else (min(i, j), max(i, j))

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The stream's distinct edges and each event's edge, read-only:
        the codes ``i * N + j`` of the distinct ``edge_key(i, j)``, in
        increasing order, and the position in them of each event's code."""
        i, j = self.sources, self.targets
        if not self.directed:
            i, j = np.minimum(i, j), np.maximum(i, j)
        codes, edge_of_event = np.unique(i * self.node_count + j, return_inverse=True)
        codes.flags.writeable = edge_of_event.flags.writeable = False
        return codes, edge_of_event

    def edge_event_index(self) -> dict[tuple[int, int], list[float]]:
        """Map each node pair, in key order, to its sorted list of event
        times."""
        codes, edge_of_event = self.edges
        times = self.times[np.argsort(edge_of_event, kind="stable")].tolist()
        bounds = [0, *np.cumsum(np.bincount(edge_of_event)).tolist()]
        keys = zip(*np.divmod(codes, self.node_count))
        return {(int(i), int(j)): times[a:b]
                for (i, j), a, b in zip(keys, bounds, bounds[1:])}


def format_float(x: float) -> str:
    """Shortest round-trip decimal of ``float(x)``; integer values below
    1e16, where ``repr`` turns to exponent form, print without a fraction
    (``3``, not ``3.0``)."""
    x = float(x)
    return repr(int(x)) if x.is_integer() and abs(x) < 1e16 else repr(x)


def parse_events(text: str | Iterable[str],
                 directed: bool = False) -> EventStream:
    """Parse ``t i j`` lines into a validated EventStream.

    Blank lines and lines starting with ``#`` are ignored. Node labels
    may be arbitrary strings; they are assigned dense indices in order
    of first appearance in the time-sorted events (``i`` before ``j``).
    Times are shifted so the first event is at 0.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    # one pass fills the columns; labels get provisional codes in file order
    times, sources, targets = array("d"), array("q"), array("q")
    code: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 3:
            raise EventStreamError(
                f"line {lineno}: expected 3 fields, got {len(tokens)}"
            )
        t_str, i, j = tokens
        try:
            t = float(t_str)
        except ValueError:
            raise EventStreamError(f"line {lineno}: bad time {t_str!r}") from None
        if not 0 <= t < math.inf:
            if not math.isfinite(t):
                raise EventStreamError(f"line {lineno}: non-finite time {t_str!r}")
            raise EventStreamError(f"line {lineno}: negative time {t}")
        if i == j:
            raise EventStreamError(f"line {lineno}: self-event on {i!r}")
        times.append(t)
        sources.append(code.setdefault(i, len(code)))
        targets.append(code.setdefault(j, len(code)))
    if not times:
        raise EventStreamError("empty input")

    t = np.frombuffer(times)
    order = np.argsort(t, kind="stable")  # stable: file order at ties
    t = t[order]
    t -= t[0]
    pairs = np.empty((len(order), 2), dtype=np.intp)
    pairs[:, 0] = np.frombuffer(sources, dtype=np.int64)[order]
    pairs[:, 1] = np.frombuffer(targets, dtype=np.int64)[order]
    # recode by first appearance in time order, i before j
    first = np.full(len(code), pairs.size)
    np.minimum.at(first, pairs.ravel(), np.arange(pairs.size))
    by_first = np.argsort(first)
    recode = np.argsort(by_first)
    names = list(code)
    labels = tuple(names[c] for c in by_first.tolist())
    return EventStream(t, recode[pairs[:, 0]], recode[pairs[:, 1]],
                       len(labels), labels, directed)


def serialize_events(stream: EventStream) -> str:
    """Render a stream back to ``t i j`` lines with original labels."""
    labels = stream.labels
    return "".join(f"{format_float(t)} {labels[i]} {labels[j]}\n" for t, i, j in
                   zip(stream.times.tolist(), stream.sources.tolist(),
                       stream.targets.tolist()))


def stream_stats(stream: EventStream) -> dict:
    """Node, edge, and event counts plus mean events per node."""
    events = len(stream.times)
    return {
        "nodes": stream.node_count,
        "edges": len(stream.edges[0]),
        "events": events,
        "mean_events_per_node": events / stream.node_count,
    }


def group_event_times(stream: EventStream) -> list[tuple[float, int, int]]:
    """Each distinct event time with the bounds ``[start, stop)`` of its
    run of events; the times strictly increase."""
    times = stream.times
    starts = np.flatnonzero(np.diff(times)) + 1
    bounds = [0, *starts.tolist(), len(times)]
    return list(zip(times[bounds[:-1]].tolist(), bounds, bounds[1:]))


def exclude_low_degree_nodes(stream: EventStream, min_edges: int) -> EventStream:
    """Drop nodes with fewer than ``min_edges`` distinct neighbours.

    Removal is peeled on the undirected edge set until stable, then the
    columns are masked once. Survivors are reindexed densely and keep
    their labels. When nothing drops, ``stream`` itself is returned.
    """
    if operator.index(min_edges) < 0:
        raise ValueError("min_edges must be >= 0")
    n = stream.node_count
    codes = stream.edges[0]
    a, b = np.divmod(codes, n)
    # each neighbour pair once: a directed edge b -> a whose reverse is an
    # edge adds no neighbour
    keep = (a < b) | ~np.isin(b * n + a, codes)
    a, b = a[keep], b[keep]
    alive = np.ones(n, dtype=bool)
    while True:
        live = alive[a] & alive[b]
        degree = np.bincount(a[live], minlength=n) + np.bincount(b[live], minlength=n)
        drop = alive & (degree < min_edges)
        if not drop.any():
            break
        alive &= ~drop
    if alive.all():
        return stream
    if not alive.any():
        raise EventStreamError("node exclusion removed all events")

    labels = tuple(stream.labels[i] for i in np.flatnonzero(alive).tolist())
    recode = np.cumsum(alive) - 1
    mask = alive[stream.sources] & alive[stream.targets]
    return EventStream(stream.times[mask], recode[stream.sources[mask]],
                       recode[stream.targets[mask]], len(labels), labels,
                       stream.directed)
