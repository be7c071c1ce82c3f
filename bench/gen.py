"""Seeded synthetic contact streams sized like the paper's datasets.

A generated stream has exactly the requested numbers of nodes, distinct
undirected edges, events and distinct event times:

- every node lies on a random spanning tree, so every node appears;
  ``pendant`` extra nodes hang off the tree by a single edge each, so
  ``--min-edges 2`` has nodes to drop;
- the remaining edges are uniform random pairs of tree nodes;
- each edge carries one event plus a heavy-tailed (Pareto, shape 1.5)
  share of the remaining events;
- time stamps sit on a grid of ``resolution`` seconds: ``times``
  distinct grid slots drawn from a horizon of ``HORIZON_FACTOR *
  times`` slots, each slot used by at least one event.

Nothing here imports tiedyn: the program sees only the text file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HORIZON_FACTOR = 1.5


@dataclass(frozen=True)
class StreamSpec:
    """Shape of one synthetic stream."""

    nodes: int
    edges: int
    events: int
    times: int
    resolution: int = 20
    pendant: int = 0


@dataclass(frozen=True)
class Stream:
    """Events as parallel arrays, sorted by time; node ids are 0..N-1."""

    t: np.ndarray
    i: np.ndarray
    j: np.ndarray

    def text(self) -> str:
        return "".join(f"{t} {i} {j}\n" for t, i, j in
                       zip(self.t.tolist(), self.i.tolist(), self.j.tolist()))


def _edges(rng: np.random.Generator, spec: StreamSpec) -> np.ndarray:
    core = spec.nodes - spec.pendant
    pairs = set()
    for k in range(1, core):
        pairs.add((int(rng.integers(k)), k))
    for k in range(core, spec.nodes):
        pairs.add((int(rng.integers(core)), k))
    if not len(pairs) <= spec.edges <= spec.pendant + core * (core - 1) // 2:
        raise ValueError(f"cannot place {spec.edges} edges on {spec.nodes} nodes")
    while len(pairs) < spec.edges:
        a, b = (int(x) for x in rng.integers(core, size=2))
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return np.array(sorted(pairs), dtype=np.int64)


def make_stream(spec: StreamSpec, seed: int) -> Stream:
    """Draw a stream of shape ``spec``; the same seed gives the same stream."""
    if spec.events < max(spec.edges, spec.times):
        raise ValueError("need at least one event per edge and per time")
    rng = np.random.default_rng(seed)
    edges = _edges(rng, spec)

    weights = rng.pareto(1.5, size=spec.edges) + 1.0
    per_edge = 1 + rng.multinomial(spec.events - spec.edges, weights / weights.sum())
    edge_of_event = rng.permutation(np.repeat(np.arange(spec.edges), per_edge))

    horizon = int(HORIZON_FACTOR * spec.times)
    slots = np.sort(rng.choice(horizon, size=spec.times, replace=False))
    slot_of_event = np.concatenate([
        np.arange(spec.times),
        rng.integers(spec.times, size=spec.events - spec.times),
    ])
    t = slots[slot_of_event] * spec.resolution
    order = np.argsort(t, kind="stable")
    ends = edges[edge_of_event[order]]
    flip = rng.random(spec.events) < 0.5
    i = np.where(flip, ends[:, 1], ends[:, 0])
    j = np.where(flip, ends[:, 0], ends[:, 1])
    return Stream(t[order], i, j)
