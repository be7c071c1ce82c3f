"""The columnar EventStream against the per-event reference it replaced.

``reference_parse`` and ``reference_checks`` are the earlier per-line
parser and per-event stream checks, kept here as the reference: on
seeded random texts the columns, labels, events and every error message
(with its line number) must be the same.
"""

import math

import numpy as np
import pytest

import tiedyn.events as events_module
from tiedyn.aggregate import aggregate_weights
from tiedyn.cli import main as cli_main
from tiedyn.events import (Event, EventStream, EventStreamError,
                           exclude_low_degree_nodes, parse_events)
from tiedyn.propagator import propagate

from conftest import stream_from_rows


def reference_checks(rows, node_count, labels):
    """The per-event stream checks on ``(t, i, j)`` rows, in their order."""
    if not rows:
        raise EventStreamError("empty event stream")
    if node_count <= 0:
        raise EventStreamError("node_count must be positive")
    if len(labels) != node_count:
        raise EventStreamError("label count does not match node_count")
    prev = -1.0
    for t, i, j in rows:
        if not 0 <= t < math.inf:
            raise EventStreamError(f"event time {t} must be finite and >= 0")
        if t < prev:
            raise EventStreamError("events are not sorted by time")
        prev = t
        if not (0 <= i < node_count) or not (0 <= j < node_count):
            raise EventStreamError(f"node index out of range in {Event(t, i, j)}")


def reference_parse(text):
    """The per-line parser: ``(t, i, j)`` rows and labels."""
    raw = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 3:
            raise EventStreamError(f"line {lineno}: expected 3 fields, got {len(tokens)}")
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
    raw.sort(key=lambda r: r[0])
    t0 = raw[0][0]
    index = {}
    rows = tuple(
        (t - t0, index.setdefault(i, len(index)), index.setdefault(j, len(index)))
        for t, i, j in raw)
    labels = tuple(index)
    reference_checks(rows, len(labels), labels)
    return rows, labels


LABELS = ["a", "b", "node_7", "42", "007", "x#y", "#h", "ü", "名前", "-3", "1e5",
          "inf", "a.b", "☃", "Z"]
TIMES = ["0", "1", "2.5", "1e2", "+3", "003", "7.000", "0.1", "1_0", "4E-1", "-0",
         ".5", "12.25", "1e-300"]


def random_text(rng, lines=40):
    """A valid event list with blank lines, comments, CRLF and tab
    separators, tied times and arbitrary labels."""
    out = []
    for _ in range(lines):
        kind = rng.random()
        if kind < 0.1:
            out.append(rng.choice(["", "   ", "\t"]))
        elif kind < 0.2:
            out.append(rng.choice(["# comment", "  #x y z", "#", "\t# 1 a b"]))
        else:
            i, j = rng.choice(len(LABELS), size=2, replace=False)
            seps = [rng.choice([" ", "\t", "  ", " \t "]) for _ in range(2)]
            t = rng.choice(TIMES)
            out.append(f"{rng.choice(['', ' ', chr(9)])}{t}{seps[0]}{LABELS[i]}"
                       f"{seps[1]}{LABELS[j]}{rng.choice(['', ' ', chr(9)])}")
    newline = rng.choice(["\n", "\r\n"])
    return newline.join(out) + rng.choice(["", newline])


BAD_LINES = ["1 a", "1 a b c", "x a b", "1..2 a b", "inf a b", "nan a b",
             "-Infinity a b", "-1 a b", "-0.5 c d", "3 q q", "2\tz\tz"]


def test_parse_matches_reference():
    parsed = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        text = random_text(rng, lines=int(rng.integers(1, 60)))
        directed = bool(rng.integers(2))
        try:
            rows, labels = reference_parse(text)
        except EventStreamError as err:  # only blank and comment lines drawn
            assert str(err) == "empty input"
            with pytest.raises(EventStreamError, match="^empty input$"):
                parse_events(text, directed)
            continue
        s = parse_events(text, directed)
        assert s.events == tuple(Event(*row) for row in rows)
        assert s.labels == labels
        assert s.node_count == len(labels)
        assert s.directed == directed
        assert s.times.dtype == np.float64 and s.sources.dtype == np.intp
        assert list(zip(s.times.tolist(), s.sources.tolist(),
                        s.targets.tolist())) == list(rows)
        # the same lines, one at a time
        assert parse_events(text.splitlines(), directed) == s
        parsed += 1
    assert parsed > 250


def test_parse_errors_match_reference():
    kinds = set()
    for seed in range(300):
        rng = np.random.default_rng(seed)
        lines = random_text(rng, lines=int(rng.integers(1, 30))).split("\n")
        for _ in range(int(rng.integers(1, 3))):  # one or two faulty lines
            lines.insert(int(rng.integers(len(lines) + 1)), str(rng.choice(BAD_LINES)))
        text = "\n".join(lines)
        with pytest.raises(EventStreamError) as expected:
            reference_parse(text)
        with pytest.raises(EventStreamError) as got:
            parse_events(text)
        assert str(got.value) == str(expected.value)
        kinds.add(str(expected.value).split(": ")[1].split(" ")[0])
    assert kinds == {"expected", "bad", "non-finite", "negative", "self-event"}


@pytest.mark.parametrize("text", ["", "\n\n", "# only\n  # comments\r\n", "\t \n"])
def test_parse_empty_input_matches_reference(text):
    with pytest.raises(EventStreamError) as expected:
        reference_parse(text)
    with pytest.raises(EventStreamError) as got:
        parse_events(text)
    assert str(got.value) == str(expected.value) == "empty input"


# (t, i, j) rows and node count of streams the constructor rejects
FAULTY_EVENTS = {
    "empty": ((), 2),
    "unsorted": (((0.0, 0, 1), (5.0, 1, 2), (1.0, 0, 2)), 3),
    "out_of_range": (((0.0, 0, 1), (1.0, 0, 3)), 3),
    "negative_index": (((0.0, 0, 1), (1.0, -1, 2)), 3),
    "nan": (((0.0, 0, 1), (math.nan, 1, 2)), 3),
    "inf": (((0.0, 0, 1), (math.inf, 1, 2)), 3),
    "nan_first": (((math.nan, 0, 1), (1.0, 1, 2)), 3),
    "range_before_unsorted": (((2.0, 0, 9), (1.0, 0, 1)), 3),
    "unsorted_before_range": (((2.0, 0, 1), (1.0, 0, 9)), 3),
    "nan_after_range": (((0.0, 0, 9), (math.nan, 0, 1)), 3),
    "no_nodes": (((0.0, 0, 1),), 0),
}


@pytest.mark.parametrize("case", FAULTY_EVENTS)
def test_from_events_errors_match_reference(case):
    rows, n = FAULTY_EVENTS[case]
    labels = tuple(str(k) for k in range(n))
    with pytest.raises(EventStreamError) as expected:
        reference_checks(rows, n, labels)
    with pytest.raises(EventStreamError) as got:
        stream_from_rows(rows, n, labels)
    assert str(got.value) == str(expected.value)


def test_from_events_label_count_matches_reference():
    rows = ((0.0, 0, 1),)
    with pytest.raises(EventStreamError) as expected:
        reference_checks(rows, 2, ("a",))
    with pytest.raises(EventStreamError) as got:
        stream_from_rows(rows, 2, ("a",))
    assert str(got.value) == str(expected.value)


def test_columns_reject_what_no_event_can_hold():
    with pytest.raises(EventStreamError, match="^self-event on node 1$"):
        EventStream([0.0, 1.0], [0, 1], [1, 1], 2, ("a", "b"))
    with pytest.raises(EventStreamError, match="differ in length"):
        EventStream([0.0, 1.0], [0], [1], 2, ("a", "b"))
    with pytest.raises(EventStreamError, match="cannot store float64"):
        EventStream([0.0], [0.5], [1], 2, ("a", "b"))
    s = EventStream([0, 2], np.array([0, 1], dtype=np.uint8), [1, 0], 2, ("a", "b"))
    assert s.times.dtype == np.float64 and s.sources.dtype == np.intp


def test_columns_are_read_only_copies():
    times, sources, targets = np.array([0.0, 2.0]), np.array([0, 1]), np.array([1, 2])
    s = EventStream(times, sources, targets, 3, ("a", "b", "c"))
    times[1] = 9.0
    assert s.times.tolist() == [0.0, 2.0]
    for col in (s.times, s.sources, s.targets):
        with pytest.raises(ValueError):
            col[0] = 1
    assert s.events == (Event(0.0, 0, 1), Event(2.0, 1, 2))
    assert s.events is s.events  # built once


def test_hot_paths_build_no_event(monkeypatch, tmp_path):
    built = []

    def counting_event(*fields):
        built.append(Event(*fields))
        return built[-1]

    # ``events`` looks the name up when it runs
    monkeypatch.setattr(events_module, "Event", counting_event)
    rng = np.random.default_rng(5)
    lines = [f"{t} n{i} n{j}" for t, (i, j) in
             enumerate(rng.choice(8, size=2, replace=False) for _ in range(60))]
    lines += ["60 n0 pendant", "61 pendant n0"]  # one neighbour: dropped
    text = "\n".join(lines)
    inp = tmp_path / "events.txt"
    inp.write_text(text)

    stream = parse_events(text)
    kept = exclude_low_degree_nodes(stream, 2)
    assert kept.node_count == stream.node_count - 1
    propagate(kept, 1.0)
    aggregate_weights(kept, 1.0)
    for mode in (["--mode", "alpha-sweep", "--alpha", "0.1,1"],
                 ["--mode", "time-series", "--alpha", "1"],
                 ["--mode", "aggregate-compare", "--alpha", "1"],
                 ["--mode", "ensemble", "--alpha", "1", "--method", "all",
                  "--ensemble", "1"]):
        assert cli_main(["--input", str(inp), "--min-edges", "2", *mode,
                         "--out", str(tmp_path / "o.csv")]) == 0
    assert built == []
    # reading ``events`` is where they are built
    assert len(stream.events) == len(built) == len(stream.times)
