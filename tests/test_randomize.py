from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tiedyn.events import parse_events, serialize_events
from tiedyn.randomize import (METHODS, RandomizerSpec, default_repetitions,
                              interval_shuffle, member_seed,
                              random_edge_shuffle, random_times, randomize,
                              shuffle_time_stamps)

from conftest import make_random_stream, stream_from_rows, streams


def edge_times(stream):
    return {k: tuple(v) for k, v in stream.edge_event_index().items()}


def inter_event_multisets(stream):
    return {
        k: Counter(np.diff(sorted(v)).round(12).tolist())
        for k, v in stream.edge_event_index().items()
    }


def node_degrees(stream):
    """Distinct incident edges per node."""
    deg = Counter()
    for i, j in stream.edge_event_index():
        deg[i] += 1
        deg[j] += 1
    return deg


def degree_sequence(stream):
    return sorted(node_degrees(stream).values())


def edge_event_counts(stream):
    """Multiset of per-edge event counts."""
    return Counter(len(v) for v in stream.edge_event_index().values())


# --- interval shuffling -----------------------------------------------------

def test_interval_shuffle_three_event_edge():
    s = parse_events("0 a b\n10 a b\n30 a b")
    seen = set()
    for seed in range(40):
        out = interval_shuffle(s, seed)
        seen.add(tuple(e.time for e in out.events))
    assert seen == {(0.0, 10.0, 30.0), (0.0, 20.0, 30.0)}


def test_interval_shuffle_two_event_edge_unchanged():
    s = parse_events("0 a b\n20 a b")
    assert interval_shuffle(s, 123).events == s.events


@pytest.mark.parametrize("seed", range(10))
def test_interval_shuffle_preserves_gap_multisets_and_endpoints(seed):
    s = make_random_stream(seed)
    out = interval_shuffle(s, seed + 1000)
    assert inter_event_multisets(out) == inter_event_multisets(s)
    for key, times in s.edge_event_index().items():
        new = out.edge_event_index()[key]
        assert new[0] == times[0] and new[-1] == times[-1]


def test_interval_shuffle_preserves_aggregate_structure():
    s = make_random_stream(4)
    out = interval_shuffle(s, 7)
    assert {k: len(v) for k, v in s.edge_event_index().items()} == \
           {k: len(v) for k, v in out.edge_event_index().items()}


# --- shuffled time stamps ---------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_shuffle_time_stamps_preserves_global_times_and_counts(seed):
    s = make_random_stream(seed)
    if len(s.edge_event_index()) < 2:
        with pytest.raises(ValueError, match="2 edges"):
            shuffle_time_stamps(s, seed)
        return
    out = shuffle_time_stamps(s, seed)
    assert Counter(e.time for e in out.events) == Counter(e.time for e in s.events)
    assert {k: len(v) for k, v in out.edge_event_index().items()} == \
           {k: len(v) for k, v in s.edge_event_index().items()}


def test_shuffle_time_stamps_two_edges_single_swap():
    s = parse_events("0 a b\n5 c d")
    out = shuffle_time_stamps(s, 0, repetitions=1)
    assert edge_times(out) == {(0, 1): (5.0,), (2, 3): (0.0,)}


def test_shuffle_time_stamps_needs_two_edges():
    s = parse_events("0 a b\n5 a b")
    with pytest.raises(ValueError, match="2 edges"):
        shuffle_time_stamps(s, 0)


def test_shuffle_time_stamps_destroys_inter_event_distribution():
    # witness for the Table-I 'D' cell: a fixture where the per-edge
    # inter-event-time multiset measurably changes
    s = parse_events("0 a b\n1 a b\n2 a b\n10 c d\n30 c d\n60 c d")
    changed = any(
        inter_event_multisets(shuffle_time_stamps(s, seed))
        != inter_event_multisets(s)
        for seed in range(10)
    )
    assert changed


# --- random times -----------------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_random_times_counts_and_support(seed):
    s = make_random_stream(seed)
    out = random_times(s, seed)
    assert {k: len(v) for k, v in out.edge_event_index().items()} == \
           {k: len(v) for k, v in s.edge_event_index().items()}
    T = s.horizon
    assert all(0 <= e.time <= T for e in out.events)


def test_random_times_uniform_mean():
    s = parse_events("\n".join(f"{t} a b" for t in range(100)) + "\n99 a b")
    T = s.horizon
    draws = []
    for seed in range(1000):
        draws.extend(e.time for e in random_times(s, seed).events)
    draws = np.array(draws)
    sigma = T / np.sqrt(12 * len(draws))
    assert abs(draws.mean() - T / 2) < 3 * sigma


def test_random_times_rejects_single_instant():
    s = parse_events("5 a b\n5 c d")  # shifts to a single time 0
    with pytest.raises(ValueError, match="horizon"):
        random_times(s, 0)


# --- random edge shuffling --------------------------------------------------

def test_random_edge_shuffle_two_edges_hand_trace():
    s = parse_events("0 a b\n5 c d")
    out = random_edge_shuffle(s, 0, repetitions=1)
    assert edge_times(out) in (
        {(0, 3): (0.0,), (1, 2): (5.0,)},  # (a,d),(c,b) carrying times
        {(0, 2): (0.0,), (1, 3): (5.0,)},  # order of the drawn pair flipped
    )


@pytest.mark.parametrize("seed", range(50))
def test_random_edge_shuffle_preserves_times_and_degrees(seed):
    s = make_random_stream(seed, n_max=8, max_events=20)
    if len(s.edge_event_index()) < 2:
        with pytest.raises(ValueError, match="2 edges"):
            random_edge_shuffle(s, seed)
        return
    out = random_edge_shuffle(s, seed)
    assert Counter(e.time for e in out.events) == Counter(e.time for e in s.events)
    assert degree_sequence(out) == degree_sequence(s)


def test_random_edge_shuffle_changes_edge_set():
    s = parse_events("0 a b\n1 c d\n2 e f\n3 a c\n4 b e")
    changed = any(
        set(random_edge_shuffle(s, seed).edge_event_index())
        != set(s.edge_event_index())
        for seed in range(5)
    )
    assert changed


def test_random_edge_shuffle_needs_two_edges():
    s = parse_events("0 a b")
    with pytest.raises(ValueError, match="2 edges"):
        random_edge_shuffle(s, 0)


# --- common properties ------------------------------------------------------

@pytest.mark.parametrize("method", ["interval_shuffling",
                                    "shuffled_time_stamps", "random_times",
                                    "random_edge_shuffling"])
def test_same_seed_same_output(method):
    s = make_random_stream(7, n_max=8)
    spec = RandomizerSpec(method, seed=42)
    a = randomize(s, spec)
    b = randomize(s, spec)
    assert a == b
    assert serialize_events(a) == serialize_events(b)


@pytest.mark.parametrize("method", ["interval_shuffling",
                                    "shuffled_time_stamps", "random_times",
                                    "random_edge_shuffling"])
def test_event_count_invariant(method):
    s = make_random_stream(9, n_max=8)
    out = randomize(s, RandomizerSpec(method, seed=1))
    assert len(out.events) == len(s.events)


def test_default_repetitions_is_distinct_time_count():
    s = parse_events("0 a b\n0 b c\n5 a c\n9 a b")
    assert default_repetitions(s) == 3


def test_spec_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown"):
        RandomizerSpec("bogus", seed=0)


def test_member_seed_split_rule():
    assert member_seed(0, 1) != member_seed(0, 2)
    assert member_seed(0, 1) != member_seed(1, 1)
    assert member_seed(5, 3) == member_seed(5, 3)
    expected = int(np.random.SeedSequence([5, 3]).generate_state(1)[0])
    assert member_seed(5, 3) == expected


# --- random edge shuffling against the re-sort-every-retry loop -------------

def reference_edge_shuffle(stream, seed):
    """Reference rewire loop that re-sorts every edge key on every retry.
    Returns the stream and the (retries, skipped swaps) it took."""
    edge_map = {k: sorted(v) for k, v in sorted(stream.edge_event_index().items())}
    rng = np.random.default_rng(seed)
    retries = skipped = 0

    def canonical(i, j):
        return (i, j) if stream.directed else (min(i, j), max(i, j))

    for _ in range(default_repetitions(stream)):
        for _attempt in range(100):
            keys = sorted(edge_map)
            a, b = rng.choice(len(keys), size=2, replace=False)
            (i, j), (ip, jp) = keys[a], keys[b]
            new1, new2 = canonical(i, jp), canonical(ip, j)
            if (i == jp or ip == j or new1 == new2
                    or new1 in edge_map or new2 in edge_map):
                retries += 1
                continue
            edge_map[new1] = edge_map.pop((i, j))
            edge_map[new2] = edge_map.pop((ip, jp))
            break
        else:
            skipped += 1
    rows = [(t, i, j) for (i, j), times in sorted(edge_map.items()) for t in times]
    out = stream_from_rows(sorted(rows, key=lambda row: row[0]),
                           stream.node_count, stream.labels, stream.directed)
    return out, retries, skipped


def dense_stream(directed):
    """Every pair of 6 nodes but a perfect matching, one event per edge at
    distinct times: most rewire draws hit an existing edge, and some swaps
    find no free pair within the retry bound."""
    pairs = [(i, j) for i in range(6) for j in range(6)
             if i != j and (directed or i < j) and {i, j} not in ({0, 3}, {1, 4}, {2, 5})]
    return stream_from_rows(((float(t), i, j) for t, (i, j) in enumerate(pairs)),
                            6, tuple("abcdef"), directed)


@pytest.mark.parametrize("directed", [False, True])
def test_random_edge_shuffle_matches_reference_loop(directed):
    dense = dense_stream(directed)
    retries = skipped = 0
    for seed in range(10):
        want, r, k = reference_edge_shuffle(dense, seed)
        retries, skipped = retries + r, skipped + k
        assert random_edge_shuffle(dense, seed) == want
        s = make_random_stream(seed, n_max=8, max_events=40, directed=directed)
        if len(s.edge_event_index()) >= 2:
            assert random_edge_shuffle(s, seed) == reference_edge_shuffle(s, seed)[0]
    assert retries > 0
    assert 0 < skipped < 10 * default_repetitions(dense)


# --- invariants on generated streams ----------------------------------------

def can_randomize(stream, method):
    """The preconditions the methods check: two edges to swap between,
    and a positive horizon to redraw times on."""
    if method in ("shuffled_time_stamps", "random_edge_shuffling"):
        return len(stream.edge_event_index()) >= 2
    if method == "random_times":
        return stream.horizon > 0
    return True


seeds = st.integers(0, 2**32 - 1)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=20, deadline=None)
@given(s=streams(), seed=seeds)
def test_generated_member_keeps_nodes_and_events_per_seed(method, s, seed):
    assume(can_randomize(s, method))
    out = randomize(s, RandomizerSpec(method, seed))
    assert (out.node_count, out.labels) == (s.node_count, s.labels)
    assert len(out.events) == len(s.events)
    assert out == randomize(s, RandomizerSpec(method, seed))


@settings(max_examples=30, deadline=None)
@given(s=streams(), seed=seeds)
# seed 0 sums the gaps to 0.9000000000000001, past the edge's last time 0.9
@example(s=parse_events("0 a b\n0.3 a b\n0.4 a b\n0.9 a b\n0.9 a b"), seed=0)
def test_generated_interval_shuffle_keeps_edge_ends_and_gaps(s, seed):
    index = s.edge_event_index()
    out = interval_shuffle(s, seed).edge_event_index()
    assert out.keys() == index.keys()
    for key, times in index.items():
        new = out[key]
        assert (new[0], new[-1]) == (times[0], times[-1])
        # the permuted gaps are summed again, so each may move by a few ulp of T
        assert np.allclose(np.sort(np.diff(new)), np.sort(np.diff(times)),
                           rtol=0, atol=1e-12 * s.horizon)


@settings(max_examples=30, deadline=None)
@given(s=streams(), seed=seeds)
def test_generated_shuffle_time_stamps_keeps_global_times(s, seed):
    assume(can_randomize(s, "shuffled_time_stamps"))
    out = shuffle_time_stamps(s, seed)
    assert Counter(e.time for e in out.events) == Counter(e.time for e in s.events)


@settings(max_examples=30, deadline=None)
@given(s=streams(), seed=seeds)
def test_generated_random_times_stay_in_horizon(s, seed):
    assume(can_randomize(s, "random_times"))
    out = random_times(s, seed)
    assert all(0 <= e.time <= s.horizon for e in out.events)


@settings(max_examples=30, deadline=None)
@given(s=streams(), seed=seeds)
def test_generated_random_edge_shuffle_keeps_degrees_and_edge_counts(s, seed):
    assume(can_randomize(s, "random_edge_shuffling"))
    out = random_edge_shuffle(s, seed)
    assert node_degrees(out) == node_degrees(s)
    assert edge_event_counts(out) == edge_event_counts(s)
