"""Randomized reference models for event streams.

Four methods, each a stochastic transformation that preserves selected
statistics of the original stream:

- interval_shuffle: per edge, permute inter-event times; first and last
  event times of the edge are fixed.
- shuffle_time_stamps: repeatedly swap the time stamps of two events on
  two distinct edges.
- random_times: per edge, redraw its event times uniformly on [0, T].
- random_edge_shuffle: repeatedly rewire two edges (i,j),(i',j') to
  (i,j'),(i',j), each new edge carrying its source edge's time list.

All methods are driven by numpy's PCG64 generator. The draw protocol
(order and meaning of each draw) is fixed by the implementations below
and pinned by golden tests; the same seed always yields the same stream.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .events import EventStream, group_event_times

METHODS = (
    "interval_shuffling",
    "shuffled_time_stamps",
    "random_times",
    "random_edge_shuffling",
)

METHOD_CODES = {
    "is": "interval_shuffling",
    "sts": "shuffled_time_stamps",
    "rt": "random_times",
    "res": "random_edge_shuffling",
}

_MAX_REWIRE_RETRIES = 100


@dataclass(frozen=True)
class RandomizerSpec:
    """Which method to run, and its seed."""

    method: str
    seed: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown randomization method {self.method!r}")


def member_seed(base_seed: int, index: int) -> int:
    """Derive an independent seed for ensemble member ``index``.

    The split rule is SeedSequence([base_seed, index]) -> first state
    word, so member streams are reproducible from (seed, index) alone.
    """
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def _rebuild(stream: EventStream,
             edge_times: list[tuple[tuple[int, int], list[float]]]) -> EventStream:
    """Events edge by edge in the given order, then stably sorted by time."""
    counts = [len(times) for _, times in edge_times]
    times = np.fromiter(chain.from_iterable(t for _, t in edge_times), float, sum(counts))
    pairs = np.array([key for key, _ in edge_times], dtype=np.intp).repeat(counts, axis=0)
    order = np.argsort(times, kind="stable")
    return EventStream(times[order], pairs[order, 0], pairs[order, 1],
                       stream.node_count, stream.labels, stream.directed)


def default_repetitions(stream: EventStream) -> int:
    """Number of distinct event times, the paper-prescribed swap count."""
    return len(group_event_times(stream))


def interval_shuffle(stream: EventStream, seed: int) -> EventStream:
    """Permute each edge's inter-event times; first/last times fixed."""
    rng = np.random.default_rng(seed)
    shuffled = []
    for key, times in stream.edge_event_index().items():
        if len(times) <= 2:
            shuffled.append((key, times))
            continue
        gaps = np.diff(times)
        perm = rng.permutation(len(gaps))
        new_times = [times[0]]
        for g in gaps[perm]:
            # a rounded partial sum may pass the edge's last time
            new_times.append(min(new_times[-1] + g, times[-1]))
        # last time is times[0] + sum(gaps) regardless of the permutation
        new_times[-1] = times[-1]
        shuffled.append((key, new_times))
    return _rebuild(stream, shuffled)


def shuffle_time_stamps(stream: EventStream, seed: int,
                        repetitions: int | None = None) -> EventStream:
    """Swap time stamps of two random events on two distinct edges."""
    edge_times = list(stream.edge_event_index().items())
    if len(edge_times) < 2:
        raise ValueError("shuffled time stamps needs at least 2 edges")
    if repetitions is None:
        repetitions = default_repetitions(stream)
    rng = np.random.default_rng(seed)
    n_edges = len(edge_times)
    for _ in range(repetitions):
        e1, e2 = rng.choice(n_edges, size=2, replace=False)
        times1 = edge_times[e1][1]
        times2 = edge_times[e2][1]
        k1 = int(rng.integers(len(times1)))
        k2 = int(rng.integers(len(times2)))
        times1[k1], times2[k2] = times2[k2], times1[k1]
    return _rebuild(stream, edge_times)


def random_times(stream: EventStream, seed: int) -> EventStream:
    """Redraw each edge's event times i.i.d. uniformly on [0, T]."""
    T = stream.horizon
    if T <= 0:
        raise ValueError("random times needs a positive time horizon")
    rng = np.random.default_rng(seed)
    redrawn = []
    for key, times in stream.edge_event_index().items():
        new_times = sorted(rng.uniform(0.0, T, size=len(times)))
        redrawn.append((key, new_times))
    return _rebuild(stream, redrawn)


def random_edge_shuffle(stream: EventStream, seed: int,
                        repetitions: int | None = None) -> EventStream:
    """Rewire random edge pairs, carrying each edge's time list along.

    A proposed rewire that would create a self-loop or duplicate an
    existing edge is redrawn (bounded retries, then the swap is skipped).
    """
    edge_map = stream.edge_event_index()
    if len(edge_map) < 2:
        raise ValueError("random edge shuffling needs at least 2 edges")
    if repetitions is None:
        repetitions = default_repetitions(stream)
    rng = np.random.default_rng(seed)

    keys = list(edge_map)  # in key order, kept equal to sorted(edge_map) across swaps
    for _ in range(repetitions):
        for _attempt in range(_MAX_REWIRE_RETRIES):
            a, b = rng.choice(len(keys), size=2, replace=False)
            (i, j), (ip, jp) = keys[a], keys[b]
            new1 = stream.edge_key(i, jp)
            new2 = stream.edge_key(ip, j)
            if i == jp or ip == j:
                continue  # self-loop
            if new1 == new2 or new1 in edge_map or new2 in edge_map:
                continue  # duplicate edge
            times1 = edge_map.pop((i, j))
            times2 = edge_map.pop((ip, jp))
            edge_map[new1] = times1
            edge_map[new2] = times2
            del keys[max(a, b)]
            del keys[min(a, b)]
            insort(keys, new1)
            insort(keys, new2)
            break
    return _rebuild(stream, sorted(edge_map.items()))


# An if-chain over the module-level names, not a dict of functions:
# bench/trace.py times each method by replacing its module attribute, and
# a dict built at import would keep calling the unwrapped functions.
def randomize(stream: EventStream, spec: RandomizerSpec) -> EventStream:
    """Dispatch to the method named in ``spec``."""
    if spec.method == "interval_shuffling":
        return interval_shuffle(stream, spec.seed)
    if spec.method == "shuffled_time_stamps":
        return shuffle_time_stamps(stream, spec.seed)
    if spec.method == "random_times":
        return random_times(stream, spec.seed)
    return random_edge_shuffle(stream, spec.seed)
