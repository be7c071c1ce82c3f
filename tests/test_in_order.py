"""propagator._in_order, the one in-order window of the factor thread and
the task pool, on its own: hand-set futures and jobs, no thread."""

from concurrent.futures import Future

import pytest

from tiedyn.propagator import _in_order, _Job


def done(value):
    future = Future()
    future.set_result(value)
    return future


def failed(error):
    future = Future()
    future.set_exception(error)
    return future


class Drawn:
    """A stream of ``items`` that records how many it has handed out and
    whether it was closed, and raises ``error``, if given, after the last."""

    def __init__(self, items, error=None):
        self.items, self.error, self.count, self.closed = items, error, 0, False

    def __iter__(self):
        try:
            for item in self.items:
                self.count += 1
                yield item
        finally:
            self.closed = True
        if self.error is not None:
            raise self.error


@pytest.mark.parametrize("window", [0, 1, 3, 10])
def test_values_and_futures_come_out_in_order(window):
    items = [0, done(1), 2, 3, done(4), done(5), 6]
    assert list(_in_order(items, window)) == list(range(7))


@pytest.mark.parametrize("window", [0, 2, 10])
def test_failed_future_raises_in_its_place(window):
    items = [0, done(1), failed(KeyError("task 2")), 3, failed(ValueError("task 4"))]
    out = []
    with pytest.raises(KeyError, match="task 2"):
        for value in _in_order(items, window):
            out.append(value)
    assert out == [0, 1]


@pytest.mark.parametrize("window", [0, 2, 10])
def test_stream_error_comes_after_the_items_before_it(window):
    stream = Drawn([0, done(1), 2, done(3)], ArithmeticError("stream failed"))
    out = []
    with pytest.raises(ArithmeticError, match="stream failed"):
        for value in _in_order(stream, window):
            out.append(value)
    assert out == [0, 1, 2, 3]


def test_failed_future_before_a_stream_error_raises_first():
    stream = Drawn([0, failed(KeyError("task 1")), 2], ArithmeticError("stream failed"))
    with pytest.raises(KeyError, match="task 1"):
        list(_in_order(stream, 5))


@pytest.mark.parametrize("window", [0, 1, 4])
def test_window_bounds_the_items_drawn(window):
    stream = Drawn([done(k) if k % 2 else k for k in range(20)])
    for k, value in enumerate(_in_order(stream, window)):
        assert value == k
        assert stream.count <= k + 1 + window
        assert stream.count == min(k + 1 + window, 20)


def test_closing_early_stops_the_drawing():
    stream = Drawn(list(range(20)))
    ordered = _in_order(stream, 3)
    assert [next(ordered) for _ in range(5)] == [0, 1, 2, 3, 4]
    assert stream.count == 8 and not stream.closed
    ordered.close()
    assert stream.closed
    assert list(ordered) == []
    assert stream.count == 8


class Running(Future):
    """A future that a helper has started; waiting for it gives up after
    5 s, so a walk that waits where it should take work back fails."""

    def __init__(self):
        super().__init__()
        assert self.set_running_or_notify_cancel()

    def result(self, timeout=None):
        return super().result(5.0)


def job(calls, k, value=None, error=None, then=None):
    """A queued job that records ``k`` in ``calls`` when it runs here, calls
    ``then`` and returns ``value`` or raises ``error``."""
    def call():
        calls.append(k)
        if then is not None:
            then()
        if error is not None:
            raise error
        return value
    return _Job(Future(), call)


@pytest.mark.parametrize("window", [0, 2, 10])
def test_a_queued_job_is_run_here_in_its_turn(window):
    calls = []
    items = [job(calls, 0, "a"), 1, job(calls, 2, "c")]
    assert list(_in_order(items, window)) == ["a", 1, "c"]
    assert calls == [0, 2]
    assert all(item.future.cancelled() for item in items[::2])


def test_jobs_are_taken_back_in_order_while_the_head_runs():
    # the head runs on a helper and finishes while the second job runs here
    calls, head = [], Running()
    items = [head, job(calls, 1, "b"),
             job(calls, 2, "c", then=lambda: head.set_result("a")),
             job(calls, 3, "d")]
    ordered = _in_order(items, 10)
    assert next(ordered) == "a"
    assert calls == [1, 2]  # the third job stays queued: the head was done
    assert list(ordered) == ["b", "c", "d"]
    assert calls == [1, 2, 3]


def test_a_started_job_is_not_taken_back():
    calls, head = [], Running()
    started = job(calls, 1, "b")
    assert started.future.set_running_or_notify_cancel()
    items = [head, started, job(calls, 2, "c", then=lambda: (head.set_result("a"),
                                                             started.future.set_result("b")))]
    assert list(_in_order(items, 10)) == ["a", "b", "c"]
    assert calls == [2]


def test_a_taken_back_error_waits_for_its_turn():
    # the later job fails first in time, here; the head's error, set
    # after it, still comes first, as in a serial loop
    calls, head = [], Running()
    items = [head, job(calls, 1, error=KeyError("job 1"),
                       then=lambda: head.set_exception(ValueError("head")))]
    with pytest.raises(ValueError, match="head"):
        list(_in_order(items, 10))
    assert calls == [1]
    calls, head = [], Running()
    items = [head, job(calls, 1, error=KeyError("job 1"),
                       then=lambda: head.set_result("a"))]
    out = []
    with pytest.raises(KeyError, match="job 1"):
        for value in _in_order(items, 10):
            out.append(value)
    assert out == ["a"]
