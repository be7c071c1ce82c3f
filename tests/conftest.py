import math

import numpy as np
import pytest
from hypothesis import strategies as st

import tiedyn.propagator as propagator
from tiedyn.events import EventStream
from tiedyn.tie_decay import laplacian


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
