import functools
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import tiedyn.propagator as propagator
from tiedyn.events import (EventStream, exclude_low_degree_nodes, group_event_times,
                           parse_events)
from tiedyn.tie_decay import laplacian

BENCH = Path(__file__).parents[1] / "bench"


def stream_from_rows(rows, node_count, labels=None, directed=False):
    """A stream from ``(t, i, j)`` rows, built from their columns. Labels
    default to ``"0"``, ``"1"``, ..."""
    rows = list(rows)
    times, sources, targets = zip(*rows) if rows else ((), (), ())
    if labels is None:
        labels = tuple(map(str, range(node_count)))
    return EventStream(times, sources, targets, node_count, labels, directed)


def heavy_edge_laplacian(seed, scale=1e8, n=None, directed=False):
    """A Laplacian L with one heavy tie, and c = expm1(-alpha dt) / alpha
    for alpha 0.001 and dt 1000 (``interval_factor(L, 1000.0, 0.001)``),
    where |c| times the heavy weight is ``scale``. Random ties of the upper
    triangle, on ``n`` nodes (3 to 8 drawn by default), are mirrored, or
    with ``directed`` get random lower-triangular ties in place of their
    transpose."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(3, 9))
    W = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.6), 1)
    i, j = sorted(rng.choice(n, size=2, replace=False))
    c = math.expm1(-0.001 * 1000.0) / 0.001
    W[i, j] = scale / abs(c)
    if directed:
        W += np.tril(rng.random((n, n)) * (rng.random((n, n)) < 0.6), -1)
    else:
        W += W.T
    return laplacian(W), c


def make_random_stream(seed, n_max=6, max_events=30, directed=False):
    """Seeded random stream with occasional simultaneous events."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    n_events = int(rng.integers(2, max_events + 1))
    times = np.round(np.sort(rng.uniform(0, 50, size=n_events)), 1)
    times -= times[0]
    pairs = np.array([rng.choice(n, size=2, replace=False) for _ in times])
    return EventStream(times, pairs[:, 0], pairs[:, 1], n,
                       tuple(map(str, range(n))), directed)


# (seed, n_max, max_events, directed) of make_random_stream: undirected
# streams of 101 and 9 intervals, and a directed one of 88
STREAMS = [(4, 12, 120, False), (0, 5, 14, False), (5, 12, 120, True)]


def load_bench(name):
    """A module of bench/, imported without writing bytecode next to it."""
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = saved


@functools.cache
def stream_of(case):
    """The stream of a ``STREAMS`` entry, or the seed-101 input of a
    bench/run.py workload named ``case``, as the CLI loads it."""
    if isinstance(case, str):
        spec = load_bench("run").WORKLOADS[case]
        stream = parse_events(load_bench("gen").make_stream(spec.spec, 101).text())
        return exclude_low_degree_nodes(stream, spec.min_edges) if spec.min_edges else stream
    seed, n_max, max_events, directed = case
    return make_random_stream(seed, n_max=n_max, max_events=max_events, directed=directed)


def upto_points(stream):
    """No upto, an event time in the middle, and a point inside an interval."""
    times = np.unique(stream.times)
    mid = len(times) // 2
    return [None, float(times[mid]), float((times[mid] + times[mid + 1]) / 2)]


def dense_intervals(stream, alpha, upto=None):
    """The reference walk of ``tie_decay.timeline``: ``(t_start, dt, L)``
    per interval, ``L`` the dense Laplacian of one N x N weight matrix,
    decayed by e^{-alpha dt} with weights below 1e-300 flushed to 0, and
    bumped by 1 at each event's flat cell ``i*N + j`` (and ``j*N + i``
    unless directed). The ``upto`` rule is timeline's."""
    n = stream.node_count
    if upto is None:
        upto = stream.horizon
    w = np.zeros((n, n))
    cells = stream.sources * n + stream.targets
    cells = cells[:, None] if stream.directed else np.stack(
        [cells, stream.targets * n + stream.sources], axis=1)
    t_prev = None
    for t_g, start, stop in group_event_times(stream):
        if t_g > upto or (t_prev is not None and t_g >= upto):
            break
        if t_prev is not None:
            yield t_prev, t_g - t_prev, dense_laplacian(w)
            w *= np.exp(-alpha * (t_g - t_prev))
            w[w < 1e-300] = 0.0
        np.add.at(w.reshape(-1), cells[start:stop], 1.0)
        t_prev = t_g
    if t_prev is not None and upto > t_prev:
        yield t_prev, upto - t_prev, dense_laplacian(w)


def dense_laplacian(w):
    L = -w
    np.fill_diagonal(L, w.sum(axis=1))
    return L


def rk4_lockstep(cases, step, upto=None):
    """x(upto) for each case (x0, stream, alpha) of dx/dt = -x L(t)^T, by
    classical RK4, with every case integrated side by side in one batch.

    Each interval of ``dense_intervals`` of length ``dt`` is walked in
    steps ``h = min(step, dt - s)`` from ``s = 0``, with the Laplacian
    decaying as ``L e^{-alpha s}``; nothing of the matrix-exponential path
    is shared. Cases are padded to one node count and one step count:
    padded nodes have no ties and padded steps have ``h = 0``, so neither
    moves x. Each ``x0`` goes through the checks of ``evolve_opinions``.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    cases = [(propagator._opinions(x0, stream), stream, alpha)
             for x0, stream, alpha in cases]
    n = max(len(x0) for x0, _, _ in cases)
    LT = [np.zeros((n, n))]  # generator 0 has no ties; padded steps use it
    schedules = []  # per case and step: generator index, offset s, length h
    for x0, stream, alpha in cases:
        gen, s, h = [], [], []
        for _, dt, L in dense_intervals(stream, alpha, upto):
            LT.append(np.zeros((n, n)))
            LT[-1][:len(x0), :len(x0)] = L.T
            offsets = np.arange(math.ceil(dt / step)) * step
            gen += [len(LT) - 1] * len(offsets)
            s += list(offsets)
            h += list(np.clip(dt - offsets, 0.0, step))
        schedules.append((gen, s, h))
    width = max(len(gen) for gen, _, _ in schedules)
    gen, s, h = (np.array([sched[i] + [0] * (width - len(sched[i]))
                           for sched in schedules]) for i in range(3))
    alpha = np.array([[a] for _, _, a in cases])
    e0, e1, e2 = (np.exp(-alpha * (s + f * h)) for f in (0.0, 0.5, 1.0))
    LT = np.array(LT)
    x = np.zeros((len(cases), n))
    for b, (x0, _, _) in enumerate(cases):
        x[b, :len(x0)] = x0

    def deriv(e, y, A):
        return -e[:, None] * (y[:, None, :] @ A)[:, 0, :]

    for k in range(width):
        A, hk = LT[gen[:, k]], h[:, k, None]
        k1 = deriv(e0[:, k], x, A)
        k2 = deriv(e1[:, k], x + hk / 2 * k1, A)
        k3 = deriv(e1[:, k], x + hk / 2 * k2, A)
        k4 = deriv(e2[:, k], x + hk * k3, A)
        x = x + hk / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return [x[b, :len(x0)] for b, (x0, _, _) in enumerate(cases)]


def pair_seen_both_ways(stream):
    """Whether some pair has events in both orientations, and some
    orientation more than one event."""
    pairs = list(zip(stream.sources.tolist(), stream.targets.tolist()))
    seen = set(pairs)
    return len(seen) < len(pairs) and any((j, i) in seen for i, j in seen)


# labels that ``str.split`` and ``str.splitlines`` leave whole
labels = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp", "Zs")),
                 min_size=1, max_size=6).filter(
    lambda s: not any(c.isspace() for c in s))


@st.composite
def streams(draw):
    """A valid stream: first event at 0, every node on an event, and
    node indices assigned in order of first appearance."""
    names = draw(st.lists(labels, min_size=2, max_size=6, unique=True))
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(range(len(names))),
                  st.sampled_from(range(len(names)))).filter(lambda p: p[0] != p[1]),
        min_size=1, max_size=20))
    times = sorted(draw(st.lists(
        st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False),
        min_size=len(pairs), max_size=len(pairs))))
    index: dict[int, int] = {}
    for i, j in pairs:
        index.setdefault(i, len(index))
        index.setdefault(j, len(index))
    order = sorted(index, key=index.get)
    return stream_from_rows(((t - times[0], index[i], index[j])
                             for t, (i, j) in zip(times, pairs)),
                            len(index), tuple(names[k] for k in order),
                            draw(st.booleans()))


@pytest.fixture
def syevd(monkeypatch):
    """Lower the GEMM gate to one node, so that every symmetric block of two
    or more nodes goes to the syevd kernel; return the list of the shapes
    of the blocks (or stacks) that reach ``_deflated_eigh``."""
    calls, original = [], propagator._deflated_eigh

    def counted(A):
        calls.append(A.shape)
        return original(A)

    monkeypatch.setattr(propagator, "_GEMM_MAX", 1)
    monkeypatch.setattr(propagator, "_deflated_eigh", counted)
    return calls


@pytest.fixture
def two_node_stream():
    """Single edge, events at t=0 and t=20."""
    return EventStream([0.0, 20.0], [0, 0], [1, 1], 2, ("a", "b"))
