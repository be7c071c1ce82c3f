import numpy as np
import pytest
from hypothesis import strategies as st

from tiedyn.events import Event, EventStream


def make_random_stream(seed, n_max=6, max_events=30, directed=False):
    """Seeded random stream with occasional simultaneous events."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    n_events = int(rng.integers(2, max_events + 1))
    times = np.round(np.sort(rng.uniform(0, 50, size=n_events)), 1)
    times -= times[0]
    events = []
    for t in times:
        i, j = rng.choice(n, size=2, replace=False)
        events.append(Event(float(t), int(i), int(j)))
    return EventStream.from_events(
        events=tuple(events),
        node_count=n,
        labels=tuple(str(k) for k in range(n)),
        directed=directed,
    )


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
    events = tuple(Event(t - times[0], index[i], index[j])
                   for t, (i, j) in zip(times, pairs))
    order = sorted(index, key=index.get)
    return EventStream.from_events(events, len(index), tuple(names[k] for k in order),
                                   directed=draw(st.booleans()))


@pytest.fixture
def two_node_stream():
    """Single edge, events at t=0 and t=20."""
    return EventStream.from_events(
        events=(Event(0.0, 0, 1), Event(20.0, 0, 1)),
        node_count=2,
        labels=("a", "b"),
    )
