import math

import numpy as np
import pytest
from hypothesis import given, settings

from tiedyn.events import (Event, EventStream, EventStreamError,
                           exclude_low_degree_nodes, format_float,
                           group_event_times, parse_events, serialize_events,
                           stream_stats)
from tiedyn.randomize import interval_shuffle, random_times

from conftest import make_random_stream, stream_from_rows, streams


def test_event_is_slotted_and_frozen():
    ev = Event(1.5, 0, 1)
    assert not hasattr(ev, "__dict__")
    with pytest.raises(AttributeError):
        ev.time = 2.0


def test_parse_minimal():
    s = parse_events("0 a b\n20 a b")
    assert s.node_count == 2
    assert len(s.events) == 2
    assert s.horizon == 20
    assert len(s.edge_event_index()) == 1


def test_parse_empty_input():
    with pytest.raises(EventStreamError, match="empty"):
        parse_events("")
    with pytest.raises(EventStreamError, match="empty"):
        parse_events("# just a comment\n\n")


def test_parse_malformed_line_reports_number():
    with pytest.raises(EventStreamError, match="line 2"):
        parse_events("0 a b\n1 a\n2 b c")
    with pytest.raises(EventStreamError, match="line 3"):
        parse_events("0 a b\n1 a c\nnope a b")


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan", "Infinity"])
def test_parse_rejects_nonfinite_time(bad):
    with pytest.raises(EventStreamError, match="line 2: non-finite time"):
        parse_events(f"0 a b\n{bad} b c")


def test_parse_rejects_self_event():
    with pytest.raises(EventStreamError, match="self-event"):
        parse_events("0 a a")


def test_parse_shifts_times_to_zero():
    s = parse_events("5 a b\n8 b c")
    assert [e.time for e in s.events] == [0.0, 3.0]
    assert s.horizon == 3.0


def test_parse_comments_and_blanks_ignored():
    s = parse_events("# header\n\n0 a b\n  # another\n1 b c\n")
    assert len(s.events) == 2


def test_parse_keeps_duplicate_lines_as_events():
    s = parse_events("0 a b\n0 a b")
    assert len(s.events) == 2
    assert len(s.edge_event_index()) == 1


def test_round_trip():
    text = "0 a b\n0 b c\n2.5 a c\n7 a b\n"
    s = parse_events(text)
    again = parse_events(serialize_events(s))
    assert again == s


@pytest.mark.parametrize("seed", range(10))
def test_round_trip_random(seed):
    # labels are reassigned by first appearance, so compare the text form
    s = make_random_stream(seed)
    text = serialize_events(s)
    reparsed = parse_events(text)
    assert serialize_events(reparsed) == text
    # randomized members carry numpy float times, and random times need
    # not start at 0 (parsing shifts them)
    for member in (s, interval_shuffle(s, 3), random_times(s, 3)):
        reparsed = parse_events(serialize_events(member))
        t0 = member.events[0].time
        assert [e.time for e in reparsed.events] == \
            [e.time - t0 for e in member.events]
        # node counts can differ (the generator may leave a node eventless)
        assert stream_stats(reparsed)["edges"] == stream_stats(member)["edges"]
        assert stream_stats(reparsed)["events"] == stream_stats(member)["events"]
        assert parse_events(serialize_events(reparsed)) == reparsed


@settings(max_examples=200, deadline=None)
@given(s=streams())
def test_round_trip_property(s):
    again = parse_events(serialize_events(s), directed=s.directed)
    assert again.events == s.events
    assert again.labels == s.labels
    assert again.node_count == s.node_count
    assert again.directed == s.directed


@pytest.mark.parametrize("x,text", [
    (3.0, "3"), (0.25, "0.25"), (-0.0, "0"), (1e15, "1000000000000000"),
    (-1e15, "-1000000000000000"), (1e16, "1e+16"), (1e23, "1e+23"),
    (1e300, "1e+300"), (-1e300, "-1e+300"), (math.inf, "inf"),
])
def test_format_float_is_the_shortest_round_trip_decimal(x, text):
    assert format_float(x) == text
    assert float(text) == x


def test_time_shift_preserves_intervals():
    s = parse_events("100 a b\n103 b c\n110 a c")
    gaps = [s.events[k + 1].time - s.events[k].time for k in range(2)]
    assert gaps == [3.0, 7.0]


def test_stream_stats_single_event():
    s = parse_events("0 a b")
    assert stream_stats(s) == {
        "nodes": 2, "edges": 1, "events": 1, "mean_events_per_node": 0.5,
    }


def test_stream_stats_edges_match_index_keys():
    for seed in range(5):
        s = make_random_stream(seed)
        assert stream_stats(s)["edges"] == len(s.edge_event_index())


def test_directed_mode_counts_ordered_pairs():
    s = parse_events("0 a b\n1 b a", directed=True)
    assert stream_stats(s)["edges"] == 2
    s_u = parse_events("0 a b\n1 b a", directed=False)
    assert stream_stats(s_u)["edges"] == 1


def test_group_event_times_basic():
    s = parse_events("0 a b\n0 b c\n20 a b")
    groups = group_event_times(s)
    assert [t for t, _, _ in groups] == [0.0, 20.0]
    assert [stop - start for _, start, stop in groups] == [2, 1]


def test_group_event_times_is_partition():
    for seed in range(10):
        s = make_random_stream(seed)
        groups = group_event_times(s)
        assert sum(stop - start for _, start, stop in groups) == len(s.events)
        times = [t for t, _, _ in groups]
        assert all(a < b for a, b in zip(times, times[1:]))
        flat = [e for _, start, stop in groups for e in s.events[start:stop]]
        assert tuple(flat) == s.events


def test_exclude_min_edges_zero_is_identity():
    s = parse_events("0 a b\n1 b c")
    assert exclude_low_degree_nodes(s, 0) == s


@pytest.mark.parametrize("min_edges", [math.nan, 1.5, 2.0])
def test_exclude_rejects_non_integer_counts(min_edges):
    # nan kept every node and 1.5 acted as 2
    s = parse_events("0 a b\n1 b c")
    with pytest.raises(TypeError, match="integer"):
        exclude_low_degree_nodes(s, min_edges)


def test_exclude_path_collapses_to_empty():
    s = parse_events("0 a b\n1 b c")
    with pytest.raises(EventStreamError, match="all events"):
        exclude_low_degree_nodes(s, 2)


def test_exclude_almost_isolated_node():
    # triangle a,b,c plus pendant d attached only to a (two events)
    text = "0 a b\n0 b c\n1 a c\n2 a d\n3 a d\n4 a b"
    s = parse_events(text)
    filtered = exclude_low_degree_nodes(s, 2)
    assert filtered.node_count == 3
    assert len(filtered.events) == 4
    assert "d" not in filtered.labels


def rounds_exclusion(stream, min_edges):
    """Reference exclusion that rescans and refilters the event list in
    every round until no node drops."""
    if min_edges == 0:
        return stream
    alive = set(range(stream.node_count))
    events = list(stream.events)
    while True:
        neighbors = {n: set() for n in alive}
        for ev in events:
            neighbors[ev.source].add(ev.target)
            neighbors[ev.target].add(ev.source)
        drop = {n for n in alive if len(neighbors[n]) < min_edges}
        if not drop:
            break
        alive -= drop
        events = [e for e in events if e.source in alive and e.target in alive]
        if not events:
            raise EventStreamError("node exclusion removed all events")
    keep = sorted(alive)
    remap = {old: new for new, old in enumerate(keep)}
    return stream_from_rows(((e.time, remap[e.source], remap[e.target]) for e in events),
                            len(keep), tuple(stream.labels[i] for i in keep),
                            stream.directed)


@pytest.mark.parametrize("directed", [False, True])
def test_exclude_matches_rounds_reference(directed):
    outcomes = set()
    for seed in range(300):
        s = make_random_stream(seed, n_max=9, max_events=24, directed=directed)
        for min_edges in range(5):
            try:
                expected = rounds_exclusion(s, min_edges)
            except EventStreamError as err:
                with pytest.raises(EventStreamError, match=str(err)):
                    exclude_low_degree_nodes(s, min_edges)
                outcomes.add("error")
                continue
            got = exclude_low_degree_nodes(s, min_edges)
            assert got == expected
            outcomes.add("same" if got.node_count == s.node_count else "dropped")
    assert outcomes == {"error", "same", "dropped"}


def test_exclude_returns_input_when_nothing_drops():
    s = parse_events("0 a b\n1 b c\n2 c d")
    assert exclude_low_degree_nodes(s, 1) is s
    assert exclude_low_degree_nodes(s, 0) is s


def test_edge_event_index_times_are_sorted():
    for seed in range(20):
        for directed in (False, True):
            s = make_random_stream(seed, directed=directed)
            for times in s.edge_event_index().values():
                assert times == sorted(times)


def test_edge_event_index_keys_are_in_order():
    # the randomizers walk the index in this order, and their draws with it
    for seed in range(20):
        for directed in (False, True):
            index = make_random_stream(seed, directed=directed).edge_event_index()
            assert list(index) == sorted(index)


def test_edge_index_union_is_event_multiset():
    s = make_random_stream(3)
    index = s.edge_event_index()
    all_times = sorted(t for times in index.values() for t in times)
    assert all_times == sorted(e.time for e in s.events)


@pytest.mark.parametrize("directed", [False, True])
def test_edges_index_the_distinct_edge_keys(directed):
    for seed in range(10):
        s = make_random_stream(seed, directed=directed)
        codes, edge_of_event = s.edges
        assert (np.diff(codes) > 0).all()
        keys = [divmod(code, s.node_count) for code in codes.tolist()]
        assert keys == list(s.edge_event_index())
        assert len(codes) == stream_stats(s)["edges"]
        assert [keys[e] for e in edge_of_event.tolist()] == [
            s.edge_key(ev.source, ev.target) for ev in s.events]
        assert not codes.flags.writeable and not edge_of_event.flags.writeable
    # a b and b a are one edge unless directed
    s = parse_events("0 a b\n1 b a\n2 a c", directed=directed)
    assert s.edges[1].tolist() == ([0, 2, 1] if directed else [0, 0, 1])


def test_unsorted_events_rejected():
    with pytest.raises(EventStreamError, match="sorted"):
        EventStream([5.0, 1.0], [0, 0], [1, 1], 2, ("a", "b"))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_stream_rejects_nonfinite_time(bad, position):
    # NaN compares false, so the sortedness check alone would let it through
    times = [0.0, 1.0, 2.0]
    times[position] = bad
    with pytest.raises(EventStreamError, match="must be finite"):
        EventStream(times, [0, 1, 2], [1, 2, 0], 3, ("a", "b", "c"))
