import numpy as np
import pytest
from hypothesis import strategies as st

from tiedyn.events import EventStream


def stream_from_rows(rows, node_count, labels=None, directed=False):
    """A stream from ``(t, i, j)`` rows, built from their columns. Labels
    default to ``"0"``, ``"1"``, ..."""
    rows = list(rows)
    times, sources, targets = zip(*rows) if rows else ((), (), ())
    if labels is None:
        labels = tuple(map(str, range(node_count)))
    return EventStream(times, sources, targets, node_count, labels, directed)


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
def two_node_stream():
    """Single edge, events at t=0 and t=20."""
    return EventStream([0.0, 20.0], [0, 0], [1, 1], 2, ("a", "b"))
