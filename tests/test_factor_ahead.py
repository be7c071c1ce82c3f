"""The factor thread of tiedyn.propagator.propagate: the serial loop's M,
bit for bit, and its errors in interval order, with no thread left behind."""

import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tiedyn
import tiedyn.experiments as experiments
import tiedyn.propagator as propagator
from conftest import make_random_stream
from tiedyn.events import serialize_events
from tiedyn.experiments import ExperimentConfig, run
from tiedyn.propagator import iter_factors, propagate
from tiedyn.tie_decay import intervals

SRC = str(Path(tiedyn.__file__).parents[1])
BENCH = str(Path(__file__).parents[1] / "bench")
ALPHAS = [0.01, 1.0, 100.0]
# (seed, n_max, max_events, directed): undirected streams of 101 and 9
# intervals, and a directed one of 88
STREAMS = [(4, 12, 120, False), (0, 5, 14, False), (5, 12, 120, True)]


def on_thread():
    return threading.current_thread() is not threading.main_thread()


@pytest.fixture
def helper_on(monkeypatch):
    """Send every other block of every propagate in this process to the
    factor thread, whatever its size, and record the walks it served and
    the live-block sizes built on each side, as (on the thread, size)."""
    served, built = [], []
    ahead, build = propagator._factors_ahead, propagator._block_factor

    def recorded(stream, alpha, upto):
        served.append(alpha)
        return ahead(stream, alpha, upto)

    def recorded_build(idx, A, n):
        built.append((on_thread(), len(idx)))
        return build(idx, A, n)

    monkeypatch.setattr(propagator, "_THREAD_MIN_LIVE", 0)
    monkeypatch.setattr(propagator, "_cpus", lambda: 2)
    monkeypatch.setattr(propagator, "_factors_ahead", recorded)
    monkeypatch.setattr(propagator, "_block_factor", recorded_build)
    return SimpleNamespace(served=served, built=built)


@pytest.fixture
def no_thread_left():
    baseline = threading.active_count()
    yield
    assert threading.active_count() == baseline


def serial_product(stream, alpha, upto=None):
    M = np.eye(stream.node_count)
    for fac in iter_factors(stream, alpha, upto):
        fac.apply(M)
    return M


def stream_of(case):
    seed, n_max, max_events, directed = case
    return make_random_stream(seed, n_max=n_max, max_events=max_events, directed=directed)


def upto_points(stream):
    """No upto, an event time in the middle, and a point inside an interval."""
    times = np.unique(stream.times)
    mid = len(times) // 2
    return [None, float(times[mid]), float((times[mid] + times[mid + 1]) / 2)]


def live_blocks(stream, alpha):
    """Every interval's ``(idx, A)`` from ``_live_block``, in interval order."""
    return [propagator._live_block(L, math.expm1(-alpha * dt) / alpha)
            for _, dt, L in intervals(stream, alpha)]


def interval_of(blocks, idx, A):
    return next(k for k, (idx_k, A_k) in enumerate(blocks)
                if np.array_equal(idx, idx_k) and np.array_equal(A, A_k))


@pytest.mark.parametrize("min_live", [0, 3, 6])
@pytest.mark.parametrize("case", STREAMS)
def test_helper_gives_the_serial_product(helper_on, monkeypatch, no_thread_left,
                                         case, min_live):
    monkeypatch.setattr(propagator, "_THREAD_MIN_LIVE", min_live)
    stream = stream_of(case)
    for alpha in ALPHAS:
        for upto in upto_points(stream):
            M = propagate(stream, alpha, upto).matrix
            assert np.array_equal(M, serial_product(stream, alpha, upto))
    assert len(helper_on.served) == len(ALPHAS) * 3
    if not min_live:
        assert any(thread for thread, _ in helper_on.built)


def test_helper_with_a_short_switch_interval(helper_on, no_thread_left):
    # the threads hand the GIL over after every few bytecodes
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for case in (STREAMS[0], STREAMS[2]):
            stream = stream_of(case)
            M = propagate(stream, 0.01).matrix
            assert np.array_equal(M, serial_product(stream, 0.01))
    finally:
        sys.setswitchinterval(interval)
    assert any(thread for thread, _ in helper_on.built)


def test_large_blocks_alternate_and_small_ones_stay(helper_on, monkeypatch,
                                                    no_thread_left):
    monkeypatch.setattr(propagator, "_THREAD_MIN_LIVE", 6)
    stream = stream_of(STREAMS[0])
    blocks, built, build = live_blocks(stream, 1.0), {}, propagator._block_factor

    def recorded(idx, A, n):
        built[interval_of(blocks, idx, A)] = on_thread()
        return build(idx, A, n)

    monkeypatch.setattr(propagator, "_block_factor", recorded)
    propagate(stream, 1.0)
    assert sorted(built) == list(range(len(blocks)))
    large = [built[k] for k, (idx, _) in enumerate(blocks) if len(idx) >= 6]
    assert large == [k % 2 == 1 for k in range(len(large))]
    assert 2 < len(large) < len(blocks)
    assert not any(built[k] for k, (idx, _) in enumerate(blocks) if len(idx) < 6)


def test_helper_with_a_one_factor_window(helper_on, monkeypatch, no_thread_left):
    # the walk waits on the thread's factor at almost every interval
    monkeypatch.setattr(propagator, "_AHEAD", 1)
    stream = stream_of(STREAMS[0])
    assert np.array_equal(propagate(stream, 0.01).matrix, serial_product(stream, 0.01))


def failing_factors(monkeypatch, stream, alpha, failures):
    """Make ``_block_factor`` raise ``ArithmeticError("factor k failed")``
    on interval k of ``failures`` (after ``failures[k]`` seconds), on
    whichever thread builds it."""
    blocks, build = live_blocks(stream, alpha), propagator._block_factor

    def failing(idx, A, n):
        k = interval_of(blocks, idx, A)
        if k in failures:
            time.sleep(failures[k])
            raise ArithmeticError(f"factor {k} failed")
        return build(idx, A, n)

    monkeypatch.setattr(propagator, "_block_factor", failing)


@pytest.mark.parametrize("failures,expected", [
    ({3: 0.0, 6: 0.0}, "factor 3 failed"),    # the thread's error comes first
    ({4: 0.0, 7: 0.0}, "factor 4 failed"),    # this thread's error comes first
    ({4: 0.3, 5: 0.0}, "factor 4 failed"),    # the factor thread fails first in time
    ({2: 0.3, 3: 0.0}, "factor 2 failed"),    # ... on its second block
    ({9: 0.0}, "factor 9 failed"),            # past a full window
])
def test_helper_raises_the_first_error_in_interval_order(monkeypatch, helper_on,
                                                         no_thread_left,
                                                         failures, expected):
    stream = stream_of(STREAMS[0])
    assert len(list(intervals(stream, 1.0))) > 20
    assert 9 > propagator._AHEAD
    failing_factors(monkeypatch, stream, 1.0, failures)
    monkeypatch.setattr(propagator, "_cpus", lambda: 1)
    with pytest.raises(ArithmeticError) as serial:
        propagate(stream, 1.0)
    monkeypatch.setattr(propagator, "_cpus", lambda: 2)
    with pytest.raises(ArithmeticError) as ahead:
        propagate(stream, 1.0)
    assert helper_on.served == [1.0]
    assert str(ahead.value) == str(serial.value) == expected
    assert type(ahead.value) is ArithmeticError


def test_helper_is_stopped_when_the_product_fails(monkeypatch, helper_on, no_thread_left):
    # the thread is still building its first factor when M's product fails
    build, slept = propagator._block_factor, []

    def slow_on_thread(idx, A, n):
        if on_thread():
            slept.append(1)
            time.sleep(0.5)
        return build(idx, A, n)

    def fails(fac, M):
        raise FloatingPointError("product failed")

    monkeypatch.setattr(propagator, "_block_factor", slow_on_thread)
    monkeypatch.setattr(propagator.IntervalFactor, "apply", fails)
    with pytest.raises(FloatingPointError, match="product failed"):
        propagate(stream_of(STREAMS[0]), 0.01)
    assert helper_on.served == [0.01]
    assert slept == [1]  # the queued blocks were cancelled


def test_one_cpu_starts_no_helper(monkeypatch, helper_on):
    monkeypatch.setattr(propagator, "_cpus", lambda: 1)
    stream = stream_of(STREAMS[0])
    assert np.array_equal(propagate(stream, 1.0).matrix, serial_product(stream, 1.0))
    monkeypatch.setattr(propagator, "_cpus", experiments._cpus)  # the unpatched one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    propagate(stream, 1.0)
    assert helper_on.served == []


def test_small_work_starts_no_helper(monkeypatch, helper_on):
    # a walk whose live blocks are all below the threshold starts no thread
    monkeypatch.setattr(propagator, "_THREAD_MIN_LIVE", 13)
    stream = stream_of(STREAMS[0])
    assert stream.node_count < 13
    threads = threading.active_count()
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    assert np.array_equal(propagate(stream, 0.01).matrix, serial_product(stream, 0.01))
    assert helper_on.served == [0.01]
    assert started == [] and threading.active_count() == threads
    assert helper_on.built and not any(thread for thread, _ in helper_on.built)


def test_pool_workers_start_no_helper(monkeypatch, tmp_path, helper_on):
    log = tmp_path / "helpers.txt"
    ahead = propagator._factors_ahead

    def logged(stream, alpha, upto):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return ahead(stream, alpha, upto)

    monkeypatch.setattr(propagator, "_factors_ahead", logged)
    monkeypatch.setattr(experiments, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(experiments, "_cpus", lambda: 2)
    events = tmp_path / "events.txt"
    events.write_text(serialize_events(stream_of(STREAMS[0])))
    for mode in ("alpha_sweep", "ensemble"):
        run(ExperimentConfig(input=str(events), mode=mode, alphas=ALPHAS, ensemble=2,
                             out=str(tmp_path / "o.csv")))
    assert not log.exists()
    assert not propagator._in_pool_worker


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs two CPUs in the affinity mask")
def test_move_off_leaves_the_cpu_and_keeps_the_mask():
    allowed, cpu = os.sched_getaffinity(0), propagator._this_cpu()
    if cpu is None:
        pytest.skip("the platform does not report the CPU")
    assert cpu in allowed
    propagator._move_off(cpu)
    assert propagator._this_cpu() != cpu
    assert os.sched_getaffinity(0) == allowed


def run_script(code, *args, timeout=120):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=timeout)


# The factor thread on every other block; prints the walks it served, the
# factors it built and the threads left after the run.
THREAD_ON = """
import sys, threading
import tiedyn.propagator as propagator

propagator._THREAD_MIN_LIVE = 0
propagator._cpus = lambda: 2
served, on_thread = [], []
ahead, build = propagator._factors_ahead, propagator._block_factor
propagator._factors_ahead = lambda *args: served.append(1) or ahead(*args)

def recorded(*args):
    on_thread.append(threading.current_thread() is not threading.main_thread())
    return build(*args)

propagator._block_factor = recorded

def report():
    print(len(served), sum(on_thread) > 0, threading.active_count())
"""


CLI_WITH_HELPER = THREAD_ON + """
from tiedyn.cli import main

code = main(sys.argv[1:])
report()
sys.exit(code)
"""


SERIAL_CLI = """
import sys
import tiedyn.propagator as propagator
from tiedyn.cli import main

propagator._cpus = lambda: 1
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("mode", ["alpha-sweep", "aggregate-compare"])
def test_cli_with_helper_writes_the_serial_csv(tmp_path, mode):
    events = tmp_path / "events.txt"
    events.write_text(serialize_events(stream_of(STREAMS[0])))
    args = ["--input", events, "--mode", mode, "--alpha", "0.01"]
    result = run_script(CLI_WITH_HELPER, *args, "--out", tmp_path / "ahead.csv")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "1 True 1"
    serial = run_script(SERIAL_CLI, *args, "--out", tmp_path / "serial.csv")
    assert serial.returncode == 0, serial.stderr
    assert (tmp_path / "ahead.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


# bench/trace.py keeps one stack of open spans per process, so a span the
# thread opened would interleave with the main thread's.
TRACED_WITH_HELPER = THREAD_ON + """
import importlib.util, json
sys.path.insert(0, sys.argv[1])

def load(name):
    spec = importlib.util.spec_from_file_location(name, f"{sys.argv[1]}/{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

code = load("trace").main(sys.argv[2:])
report()
with open(sys.argv[2]) as fh:
    print(json.dumps(load("run").layer_metrics(json.load(fh))))
sys.exit(code)
"""


def test_traced_run_with_helper_is_sound(tmp_path):
    events = tmp_path / "events.txt"
    events.write_text(serialize_events(stream_of(STREAMS[0])))
    spans_path = tmp_path / "spans.json"
    result = run_script(TRACED_WITH_HELPER, BENCH, spans_path, "--input", events,
                        "--mode", "aggregate-compare", "--alpha", "0.01",
                        "--out", tmp_path / "o.csv")
    assert result.returncode == 0, result.stderr
    ran, metrics = result.stdout.splitlines()[-2:]
    assert ran == "1 True 1"
    spans = json.loads(spans_path.read_text())
    assert any(name == "propagator.propagate" for name, *_ in spans)
    for name, start, end, parent in spans:
        assert start <= end, name
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, name
    metrics = json.loads(metrics)
    assert metrics["propagator.propagate_s"] > 0
    assert min(metrics.values()) >= 0, metrics
