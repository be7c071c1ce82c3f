"""Event-stream parsing, validation, and summaries.

An event stream is a time-sorted list of pairwise contact events on N
nodes. Node labels from input files are arbitrary strings; they are
relabeled to dense indices 0..N-1 with the original labels retained.
Times are shifted so that the first event occurs at t = 0.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable


class EventStreamError(ValueError):
    """Raised for malformed or invalid event-stream input."""


@dataclass(frozen=True, slots=True)
class Event:
    """A single contact event (t, i, j) with dense node indices."""

    time: float
    source: int
    target: int

    def __post_init__(self):
        if self.time < 0:
            raise EventStreamError(f"negative event time {self.time}")
        if self.source == self.target:
            raise EventStreamError(f"self-event on node {self.source}")


@dataclass(frozen=True)
class EventStream:
    """Validated, time-sorted sequence of events on a fixed node set.

    ``labels[i]`` is the original label of dense node index i. ``horizon``
    is the time of the last event. In undirected mode each contact is
    stored once and interpreted symmetrically.
    """

    events: tuple[Event, ...]
    node_count: int
    labels: tuple[str, ...]
    directed: bool = False

    def __post_init__(self):
        if not self.events:
            raise EventStreamError("empty event stream")
        if self.node_count <= 0:
            raise EventStreamError("node_count must be positive")
        if len(self.labels) != self.node_count:
            raise EventStreamError("label count does not match node_count")
        prev = -1.0
        for ev in self.events:
            if not 0 <= ev.time < math.inf:
                raise EventStreamError(f"event time {ev.time} must be finite and >= 0")
            if ev.time < prev:
                raise EventStreamError("events are not sorted by time")
            prev = ev.time
            if not (0 <= ev.source < self.node_count) or not (
                0 <= ev.target < self.node_count
            ):
                raise EventStreamError(f"node index out of range in {ev}")

    @property
    def horizon(self) -> float:
        """Time of the last event (T)."""
        return self.events[-1].time

    def edge_key(self, i: int, j: int) -> tuple[int, int]:
        return (i, j) if self.directed else (min(i, j), max(i, j))

    def edge_event_index(self) -> dict[tuple[int, int], list[float]]:
        """Map each node pair to its sorted list of event times."""
        index: dict[tuple[int, int], list[float]] = defaultdict(list)
        for ev in self.events:
            index[self.edge_key(ev.source, ev.target)].append(ev.time)
        return dict(index)


def format_float(x: float) -> str:
    """Shortest round-trip decimal of ``float(x)``; integer values print
    without a fraction (``3``, not ``3.0``)."""
    x = float(x)
    return repr(int(x)) if x.is_integer() else repr(x)


def parse_events(text: str | Iterable[str],
                 directed: bool = False) -> EventStream:
    """Parse ``t i j`` lines into a validated EventStream.

    Blank lines and lines starting with ``#`` are ignored. Node labels
    may be arbitrary strings; they are assigned dense indices in order
    of first appearance. Times are shifted so the first event is at 0.
    """
    lines = text.splitlines() if isinstance(text, str) else text
    raw: list[tuple[float, str, str]] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 3:
            raise EventStreamError(
                f"line {lineno}: expected 3 fields, got {len(tokens)}"
            )
        t_str, i, j = tokens
        try:
            t = float(t_str)
        except ValueError:
            raise EventStreamError(f"line {lineno}: bad time {t_str!r}") from None
        if not math.isfinite(t):
            raise EventStreamError(f"line {lineno}: non-finite time {t_str!r}")
        if t < 0:
            raise EventStreamError(f"line {lineno}: negative time {t}")
        if i == j:
            raise EventStreamError(f"line {lineno}: self-event on {i!r}")
        raw.append((t, i, j))
    if not raw:
        raise EventStreamError("empty input")

    raw.sort(key=lambda r: r[0])  # stable: preserves file order at ties
    t0 = raw[0][0]

    index: dict[str, int] = {}  # label -> dense index, i before j
    events = tuple(
        Event(t - t0, index.setdefault(i, len(index)), index.setdefault(j, len(index)))
        for t, i, j in raw
    )
    labels = tuple(index)
    return EventStream(events, len(labels), labels, directed)


def serialize_events(stream: EventStream) -> str:
    """Render a stream back to ``t i j`` lines with original labels."""
    lines = []
    for ev in stream.events:
        lines.append(f"{format_float(ev.time)} {stream.labels[ev.source]} "
                     f"{stream.labels[ev.target]}")
    return "\n".join(lines) + "\n"


def stream_stats(stream: EventStream) -> dict:
    """Node, edge, and event counts plus mean events per node."""
    edges = len(stream.edge_event_index())
    events = len(stream.events)
    return {
        "nodes": stream.node_count,
        "edges": edges,
        "events": events,
        "mean_events_per_node": events / stream.node_count,
    }


def group_event_times(stream: EventStream) -> list[tuple[float, list[Event]]]:
    """Group simultaneous events; returns strictly increasing times."""
    groups: list[tuple[float, list[Event]]] = []
    for ev in stream.events:
        if groups and groups[-1][0] == ev.time:
            groups[-1][1].append(ev)
        else:
            groups.append((ev.time, [ev]))
    return groups


def exclude_low_degree_nodes(stream: EventStream, min_edges: int) -> EventStream:
    """Drop nodes with fewer than ``min_edges`` distinct neighbours.

    Removal is peeled on the neighbour graph until stable, then the
    events are filtered once. Survivors are reindexed densely and keep
    their labels. When nothing drops, ``stream`` itself is returned.
    """
    if min_edges < 0:
        raise ValueError("min_edges must be >= 0")
    neighbors: list[set[int]] = [set() for _ in range(stream.node_count)]
    for ev in stream.events:
        neighbors[ev.source].add(ev.target)
        neighbors[ev.target].add(ev.source)
    alive = set(range(stream.node_count))
    while drop := {n for n in alive if len(neighbors[n] & alive) < min_edges}:
        alive -= drop
    if len(alive) == stream.node_count:
        return stream
    if not alive:
        raise EventStreamError("node exclusion removed all events")

    keep = sorted(alive)
    remap = {old: new for new, old in enumerate(keep)}
    events = tuple(
        Event(e.time, remap[e.source], remap[e.target])
        for e in stream.events if e.source in remap and e.target in remap
    )
    return EventStream(events, len(keep), tuple(stream.labels[i] for i in keep),
                       stream.directed)
