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

from conftest import load_bench, stream_from_rows


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


def parses_as_reference(text, directed=False):
    """Whether ``parse_events`` gives the reference's stream or error for
    ``text``, and for its lines one at a time; asserts on any difference."""
    try:
        rows, labels = reference_parse(text)
    except EventStreamError as expected:
        for given in (text, text.splitlines()):
            with pytest.raises(EventStreamError) as got:
                parse_events(given, directed)
            assert str(got.value) == str(expected)
        return False
    s = parse_events(text, directed)
    assert s.events == tuple(Event(*row) for row in rows)
    assert s.labels == labels
    assert s.node_count == len(labels)
    assert s.directed == directed
    assert s.times.dtype == np.float64 and s.sources.dtype == np.intp
    assert list(zip(s.times.tolist(), s.sources.tolist(),
                    s.targets.tolist())) == list(rows)
    # the same lines, one at a time, which the line loop reads
    assert parse_events(text.splitlines(), directed) == s
    return True


def test_parse_matches_reference():
    parsed = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        text = random_text(rng, lines=int(rng.integers(1, 60)))
        if parses_as_reference(text, bool(rng.integers(2))):
            parsed += 1
        else:  # only blank and comment lines drawn
            with pytest.raises(EventStreamError, match="^empty input$"):
                reference_parse(text)
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


PLAIN_LABELS = ["a", "b", "node_7", "42", "007", "x.y", "-3", "1e5", "inf",
                "12345678", "'q'", '"', "b'a'", "Z", "_"]
PLAIN_TIMES = [t for t in TIMES if t != "1_0"]


def plain_text(rng, lines=40):
    """A valid event list with ``\\n`` line ends only, no comment and ASCII
    labels of at most 8 bytes; blank lines, tab separators and tied times
    stay."""
    out = []
    for _ in range(lines):
        if rng.random() < 0.1:
            out.append(rng.choice(["", "   ", "\t"]))
            continue
        i, j = rng.choice(len(PLAIN_LABELS), size=2, replace=False)
        seps = [rng.choice([" ", "\t", "  ", " \t "]) for _ in range(2)]
        t = rng.choice(PLAIN_TIMES)
        out.append(f"{rng.choice(['', ' ', chr(9)])}{t}{seps[0]}{PLAIN_LABELS[i]}"
                   f"{seps[1]}{PLAIN_LABELS[j]}{rng.choice(['', ' ', chr(9)])}")
    return "\n".join(out) + rng.choice(["", "\n"])


@pytest.fixture
def plain_returns(monkeypatch):
    """What each ``_plain_table`` call returns: a stream, or None where the
    line loop reads the text."""
    returns = []
    real = events_module._plain_table

    def spy(text, directed):
        returns.append(real(text, directed))
        return returns[-1]

    monkeypatch.setattr(events_module, "_plain_table", spy)
    return returns


def test_plain_tables_take_one_loadtxt_pass(plain_returns):
    parsed = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        text = plain_text(rng, lines=int(rng.integers(1, 60)))
        if parses_as_reference(text, bool(rng.integers(2))):
            assert isinstance(plain_returns[0], EventStream)
            parsed += 1
        else:  # only blank lines drawn
            assert not text.strip() and plain_returns[0] is None
        plain_returns.clear()
    assert parsed > 250


# texts the line loop reads, and the reference's stream or error for each
NOT_PLAIN = {
    "9-byte label": "1 abcdefghi b\n2 b c\n",
    "labels alike in 8 bytes": "1 abcdefgh1 x\n2 abcdefgh2 x\n",
    "nul in a label": "1 a\x00 b\n2 b c\n",
    "underscore time": "1_0 a b\n",
    "nan": "0 a b\nnan a b\n",
    "inf": "0 a b\ninf a b\n",
    "overflow": "0 a b\n1e400 a b\n",
    "negative time": "0 a b\n-1 a b\n",
    "bad time": "0 a b\n1..2 a b\n",
    "self-event": "0 a b\n3 q q\n",
    "2 fields": "0 a b\n1 a\n",
    "4 fields": "0 a b\n1 a b c\n",
    "non-ASCII": "0 a b\n1 ü b\n",
    "CRLF": "0 a b\r\n1 b c\r\n",
    "CR": "0 a b\r1 b c\r",
    "comment": "# t i j\n0 a b\n",
    "hash in a label": "0 a#b c\n",
    # line breaks to str.splitlines, field separators to np.loadtxt
    "vertical tab": "0 a\x0bb\n",
    "form feed": "0 a\x0cb\n",
    "file separator": "0 a\x1cb\n",
    "group separator": "0 a\x1db\n",
    "record separator": "0 a\x1eb\n",
    "unit separator": "0 a\x1fb\n1 b c\n",
    "whitespace only": " \n\t\n",
    "empty": "",
}


@pytest.mark.parametrize("case", NOT_PLAIN)
def test_other_texts_take_the_line_loop(plain_returns, case):
    parses_as_reference(NOT_PLAIN[case])
    assert plain_returns[0] is None


@pytest.mark.parametrize("text", ["0 a b\n1 b c", "\n \n0 a b\n\t\n1 b c\n\n",
                                  "5 a b", "2 x y\n1 y z\n2 z x\n0 x z\n"])
def test_plain_edge_texts_take_one_loadtxt_pass(plain_returns, text):
    assert parses_as_reference(text)
    assert isinstance(plain_returns[0], EventStream)


def test_loadtxt_times_are_float_bit_for_bit(plain_returns):
    rng = np.random.default_rng(11)
    strings = [repr(float(x)) for x in rng.random(20000) * 10.0 ** rng.integers(-320, 300, 20000)]
    for _ in range(40000):
        digits = "".join(map(str, rng.integers(10, size=int(rng.integers(1, 26)))))
        point = int(rng.integers(len(digits) + 1))
        s = f"{rng.choice(['', '+'])}{digits[:point]}.{digits[point:]}"
        if rng.random() < 0.5:
            e = int(rng.integers(-330, 280))
            s += f"{rng.choice(['e', 'E'])}{'+' if e >= 0 and rng.random() < 0.5 else ''}{e}"
        strings.append(s.replace(".", "") if rng.random() < 0.2 else s)
    # a first event at 0, so the shift leaves every time's bits
    stream = parse_events("0 a b\n" + "".join(f"{s} a b\n" for s in strings))
    assert isinstance(plain_returns[0], EventStream)
    expected = np.array(sorted([0.0] + [float(s) for s in strings]))
    assert len(strings) == 60000 and np.isfinite(expected).all()
    assert stream.times.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def test_generated_streams_take_one_loadtxt_pass(plain_returns):
    gen = load_bench("gen")
    text = gen.make_stream(gen.StreamSpec(40, 120, 900, 300), 3).text()
    assert parses_as_reference(text)
    assert isinstance(plain_returns[0], EventStream)


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
