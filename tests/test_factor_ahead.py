"""The factor thread of tiedyn.propagator.iter_factors: the serial loop's
factors, bit for bit, and its errors in interval order, with no thread left
behind, in propagate, evolve_opinions and the time series."""

import json
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
from conftest import STREAMS, dense_intervals, stream_of, upto_points
from tiedyn.events import serialize_events
from tiedyn.experiments import ExperimentConfig, run
from tiedyn.propagator import evolve_opinions, interval_factor, propagate
from tiedyn.spectral import SpectralError
from tiedyn.tie_decay import timeline

SRC = str(Path(tiedyn.__file__).parents[1])
BENCH = str(Path(__file__).parents[1] / "bench")
ALPHAS = [0.01, 1.0, 100.0]


def on_thread():
    return threading.current_thread() is not threading.main_thread()


@pytest.fixture
def helper_on(monkeypatch):
    """Queue every interval of every walk in this process on the factor
    thread, whatever its size, and record the alphas of the walks
    that ``propagate`` and ``evolve_opinions`` started and the live-block
    sizes built on each side, as (on the thread, size). With the kernel
    gate and the stack bound below 0, every block, the empty one too, is
    above the gate, and the symmetric ones go to ``syevd``."""
    served, built = [], []
    walk, build = propagator.iter_factors, propagator._stacked

    def recorded(stream, alpha, upto=None):
        served.append(alpha)
        return walk(stream, alpha, upto)

    def recorded_build(blocks, n):
        built.extend((on_thread(), len(idx)) for idx, _ in blocks)
        return build(blocks, n)

    monkeypatch.setattr(propagator, "_GEMM_MAX", -1)
    monkeypatch.setattr(propagator, "_STACK_MAX", -1)
    monkeypatch.setattr(propagator, "_cpus", lambda: 2)
    monkeypatch.setattr(propagator, "iter_factors", recorded)
    monkeypatch.setattr(propagator, "_stacked", recorded_build)
    return SimpleNamespace(served=served, built=built,
                           threaded=lambda: any(t for t, _ in built))


@pytest.fixture
def no_thread_left():
    baseline = threading.active_count()
    yield
    assert threading.active_count() == baseline


def serial_factors(stream, alpha, upto=None):
    return [interval_factor(L, dt, alpha)
            for _, dt, L in dense_intervals(stream, alpha, upto)]


def serial_product(stream, alpha, upto=None, M=None):
    """``M`` (the identity by default) times the factors, one at a time."""
    M = np.eye(stream.node_count) if M is None else M.copy()
    for fac in serial_factors(stream, alpha, upto):
        fac.apply(M)
    return M


def interval_of(stream, alpha):
    """A map from an interval's generator block ``(idx, A)``, as the walk
    hands it to ``propagator._stacked``, to its index in interval order."""
    blocks = []
    for _, dt, ties in timeline(stream, alpha):
        blocks.append(propagator._live_block(ties, propagator._decay_c(alpha, dt)))
    return lambda idx, A: next(k for k, (idx_k, A_k) in enumerate(blocks)
                               if np.array_equal(idx, idx_k) and np.array_equal(A, A_k))


@pytest.mark.parametrize("min_live", [0, 3, 6])
@pytest.mark.parametrize("case", STREAMS)
def test_helper_gives_the_serial_product(helper_on, monkeypatch, no_thread_left,
                                         case, min_live):
    # blocks of min_live nodes and more are queued on the thread; at 6,
    # blocks of up to 2 nodes are stacked and those of 3 to 5 built alone
    monkeypatch.setattr(propagator, "_GEMM_MAX", min_live - 1)
    monkeypatch.setattr(propagator, "_STACK_MAX", min(min_live, 3) - 1)
    stream = stream_of(case)
    for alpha in ALPHAS:
        for upto in upto_points(stream):
            M = propagate(stream, alpha, upto).matrix
            assert np.array_equal(M, serial_product(stream, alpha, upto))
    assert len(helper_on.served) == len(ALPHAS) * 3
    if not min_live:
        assert helper_on.threaded()


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
    assert helper_on.threaded()


def wait_until(condition, seconds=10.0):
    """Poll ``condition`` until it holds; False if it did not in time."""
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def made_blocks(monkeypatch):
    """Record every generator block the walk makes, in interval order, and
    the thread it was made on; return the blocks and a function that finds
    a block's interval by identity (some repeat an earlier one entry for
    entry)."""
    made, live_block = [], propagator._live_block

    def recorded(ties, c):
        assert not on_thread()
        made.append(live_block(ties, c))
        return made[-1]

    monkeypatch.setattr(propagator, "_live_block", recorded)
    return made, lambda A: next(k for k, (_, A_k) in enumerate(made) if A_k is A)


def test_small_blocks_stay_and_large_ones_are_built_once(helper_on, monkeypatch,
                                                         no_thread_left):
    # each block goes by its own size: blocks of up to 2 nodes are stacked
    # here, also right after a queued block, blocks of 3 are built alone
    # here, and every block of 4 nodes and more is queued on the thread and
    # built once, alone, there or here (taken back)
    monkeypatch.setattr(propagator, "_STACK_MAX", 2)
    monkeypatch.setattr(propagator, "_GEMM_MAX", 3)
    stream = stream_of(STREAMS[0])
    serial = serial_product(stream, 100.0)
    made, find = made_blocks(monkeypatch)
    stacked, alone = [], []  # (interval, on the thread), per build
    stack, factor = propagator._stacked, propagator._factor

    def recorded_stack(blocks, n):
        stacked.extend((find(A), on_thread()) for _, A in blocks)
        return stack(blocks, n)

    def recorded_factor(idx, A, n):  # builds through _stacked too
        alone.append((find(A), on_thread()))
        return factor(idx, A, n)

    monkeypatch.setattr(propagator, "_stacked", recorded_stack)
    monkeypatch.setattr(propagator, "_factor", recorded_factor)
    assert np.array_equal(propagate(stream, 100.0).matrix, serial)
    sizes = [len(idx) for idx, _ in made]
    assert sorted(k for k, _ in stacked) == list(range(len(sizes)))  # each once
    assert sorted(stacked) == sorted(alone + [(k, False) for k, size in enumerate(sizes)
                                              if size <= 2])
    assert sorted(k for k, _ in alone) == [k for k, size in enumerate(sizes) if size > 2]
    assert all(sizes[k] > 3 for k, side in alone if side)
    routes = ["stack" if size <= 2 else "here" if size == 3 else "queued"
              for size in sizes]
    after = set(zip(routes, routes[1:]))
    assert {("here", "stack"), ("queued", "stack"), ("stack", "queued")} <= after
    assert 10 < routes.count("queued") < routes.count("stack")


@pytest.mark.parametrize("share", ["every", "none", "some"])
def test_helper_takes_every_block_none_or_some(helper_on, monkeypatch, no_thread_left,
                                               share):
    # gates decide which side builds each block: "every" lets the walk go
    # on only once the thread has started each queued block, so nothing is
    # left to take back; "none" queues a blocker ahead of the first block,
    # which holds the thread until this thread has built every block; "some"
    # holds the thread's first block until this thread has taken back two
    stream = stream_of(STREAMS[0])
    n_blocks = len(list(dense_intervals(stream, 0.01)))
    serial = serial_product(stream, 0.01)
    made, find = made_blocks(monkeypatch)
    built = []  # (interval, on the thread), per block
    factor, queue = propagator._factor, propagator._queue

    def here():
        return sum(not side for _, side in built)

    def gated_factor(idx, A, n):
        built.append((find(A), on_thread()))
        if share == "some" and on_thread() and len(built) - here() == 1:  # its first
            assert wait_until(lambda: here() >= 2)
        return factor(idx, A, n)

    def gated_queue(executor, fn, *args):
        job = queue(executor, fn, *args)
        assert wait_until(lambda: job.future.running() or job.future.done())
        return job

    blocker = []

    def blocked_queue(executor, fn, *args):
        if not blocker:  # the thread's first job waits for this thread's blocks
            blocker.append(executor.submit(wait_until, lambda: here() == n_blocks))
        return queue(executor, fn, *args)

    monkeypatch.setattr(propagator, "_factor", gated_factor)
    if share == "every":
        monkeypatch.setattr(propagator, "_queue", gated_queue)
    if share == "none":
        monkeypatch.setattr(propagator, "_queue", blocked_queue)
    assert np.array_equal(propagate(stream, 0.01).matrix, serial)
    assert sorted(k for k, _ in built) == list(range(n_blocks)) and len(made) == n_blocks
    on_the_thread = n_blocks - here()
    if share == "every":
        assert on_the_thread == n_blocks
    elif share == "none":
        assert on_the_thread == 0 and blocker[0].result()  # released, not timed out
    else:
        assert 1 <= on_the_thread <= n_blocks - 2


def test_helper_with_a_one_factor_window(helper_on, monkeypatch, no_thread_left):
    # the walk waits on the thread's factor at almost every interval
    monkeypatch.setattr(propagator, "_AHEAD", 1)
    stream = stream_of(STREAMS[0])
    assert np.array_equal(propagate(stream, 0.01).matrix, serial_product(stream, 0.01))


def test_evolve_opinions_with_the_thread_is_serial(helper_on, no_thread_left):
    stream = stream_of(STREAMS[2])
    x0 = np.linspace(-1.0, 1.0, stream.node_count)
    for alpha in ALPHAS:
        for upto in upto_points(stream):
            assert np.array_equal(evolve_opinions(x0, stream, alpha, upto),
                                  serial_product(stream, alpha, upto, x0))
    assert helper_on.served == [a for a in ALPHAS for _ in range(3)]
    assert helper_on.threaded()


def failing_factors(monkeypatch, stream, alpha, failures):
    """Make ``_stacked`` raise ``ArithmeticError("factor k failed")`` in
    place of interval k of ``failures`` (after ``failures[k]`` seconds), on
    whichever thread builds it, alone or in a stack, and return the
    intervals tried, as (interval, on the thread). A failure of None makes
    the factor thread, where there is one, build interval k and hold it
    until this thread has tried interval k + 1: the walk draws no later
    interval until the thread has started every interval up to k, so this
    thread then takes back interval k + 1."""
    find, build, tried = interval_of(stream, alpha), propagator._stacked, []
    held = [k for k, seconds in failures.items() if seconds is None]

    def failing(blocks, n):
        for (idx, A), fac in zip(blocks, build(blocks, n)):
            k = find(idx, A)
            tried.append((k, on_thread()))
            if k in failures:
                if failures[k] is not None:
                    time.sleep(failures[k])
                elif on_thread():
                    assert wait_until(lambda: (k + 1, False) in tried)
                raise ArithmeticError(f"factor {k} failed")
            yield fac

    monkeypatch.setattr(propagator, "_stacked", failing)
    if held:
        drawn, live_block = [], propagator._live_block

        def gated(ties, c):
            if propagator._cpus() > 1:
                if len(drawn) <= held[0] + 1:
                    assert wait_until(lambda: sum(side for _, side in tried) >= len(drawn))
                drawn.append(1)
            return live_block(ties, c)

        monkeypatch.setattr(propagator, "_live_block", gated)
    return tried


# With every block queued on the factor thread, this thread takes back
# whatever block the thread has not started when it would wait.
@pytest.mark.parametrize("failures,expected", [
    ({3: 0.3, 4: 0.0}, "factor 3 failed"),    # the later error comes first in time
    ({4: 0.0, 7: 0.0}, "factor 4 failed"),
    ({4: 0.3, 5: 0.0}, "factor 4 failed"),    # the walk goes on past interval 5
    ({2: 0.3, 3: 0.0}, "factor 2 failed"),
    ({9: 0.0}, "factor 9 failed"),            # past a full window
    ({3: None, 4: 0.0}, "factor 3 failed"),   # 4, taken back here, fails first
])
def test_helper_raises_the_first_error_in_interval_order(monkeypatch, helper_on,
                                                         no_thread_left,
                                                         failures, expected):
    stream = stream_of(STREAMS[0])
    assert len(list(dense_intervals(stream, 1.0))) > 20
    assert 9 > propagator._AHEAD
    tried = failing_factors(monkeypatch, stream, 1.0, failures)
    monkeypatch.setattr(propagator, "_cpus", lambda: 1)
    with pytest.raises(ArithmeticError) as serial:
        propagate(stream, 1.0)
    assert not helper_on.threaded()
    monkeypatch.setattr(propagator, "_cpus", lambda: 2)
    tried.clear()
    with pytest.raises(ArithmeticError) as ahead:
        propagate(stream, 1.0)
    assert helper_on.served == [1.0, 1.0]
    assert str(ahead.value) == str(serial.value) == expected
    assert type(ahead.value) is ArithmeticError
    if None in failures.values():  # 3 failed on the thread, after 4 here
        assert tried.index((3, True)) < tried.index((4, False))
        assert (4, True) not in tried


def test_helper_is_stopped_when_the_product_fails(monkeypatch, helper_on, no_thread_left):
    # the thread is still building its first factor when M's product fails
    build, slept = propagator._stacked, []

    def slow_on_thread(blocks, n):
        if on_thread():
            slept.append(1)
            time.sleep(0.5)
        return build(blocks, n)

    def fails(fac, M):
        raise FloatingPointError("product failed")

    monkeypatch.setattr(propagator, "_stacked", slow_on_thread)
    monkeypatch.setattr(propagator.IntervalFactor, "apply", fails)
    with pytest.raises(FloatingPointError, match="product failed"):
        propagate(stream_of(STREAMS[0]), 0.01)
    assert helper_on.served == [0.01]
    assert slept == [1]  # the queued intervals were cancelled


def test_one_cpu_starts_no_helper(monkeypatch, helper_on):
    monkeypatch.setattr(propagator, "_cpus", lambda: 1)
    stream = stream_of(STREAMS[0])
    assert np.array_equal(propagate(stream, 1.0).matrix, serial_product(stream, 1.0))
    monkeypatch.setattr(propagator, "_cpus", experiments._cpus)  # the unpatched one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    propagate(stream, 1.0)
    assert helper_on.served == [1.0, 1.0]
    assert helper_on.built and not helper_on.threaded()


def test_small_work_starts_no_helper(monkeypatch, helper_on):
    # a walk whose live blocks are all at or below the gate starts no thread
    monkeypatch.setattr(propagator, "_GEMM_MAX", 12)
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
    assert helper_on.built and not helper_on.threaded()


def test_pool_workers_start_no_helper(monkeypatch, tmp_path, helper_on):
    # neither the workers' walks nor the pooled time series' walk in this
    # process build a factor on a thread
    log = tmp_path / "helpers.txt"
    build = propagator._stacked

    def logged(blocks, n):
        if on_thread():
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n" * len(blocks))
        return build(blocks, n)

    monkeypatch.setattr(propagator, "_stacked", logged)
    monkeypatch.setattr(experiments, "_cpus", lambda: 2)
    events = tmp_path / "events.txt"
    events.write_text(serialize_events(stream_of(STREAMS[0])))
    for mode in ("alpha_sweep", "ensemble", "time_series"):
        run(ExperimentConfig(input=str(events), mode=mode, alphas=ALPHAS, ensemble=2,
                             out=str(tmp_path / "o.csv")))
    assert not log.exists()
    assert not propagator._pool_busy and experiments._task_fn is None
    # without the pool, the time series walks with the thread; the walk
    # goes on only once the thread has started each queued block, so the
    # thread builds every one
    queue = propagator._queue

    def gated_queue(executor, fn, *args):
        job = queue(executor, fn, *args)
        assert wait_until(lambda: job.future.running() or job.future.done())
        return job

    monkeypatch.setattr(propagator, "_queue", gated_queue)
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)
    run(ExperimentConfig(input=str(events), mode="time_series", alphas=[1.0],
                         out=str(tmp_path / "o.csv")))
    n_intervals = len(list(dense_intervals(stream_of(STREAMS[0]), 1.0)))
    assert log.exists(), "the walk built no block on the thread"
    assert log.read_text().split() == [str(os.getpid())] * n_intervals


def series_records(tmp_path, name):
    events = tmp_path / "events.txt"
    events.write_text(serialize_events(stream_of(STREAMS[0])))
    out = tmp_path / name
    records = run(ExperimentConfig(input=str(events), mode="time_series",
                                   alphas=ALPHAS, out=str(out)))
    return records, out.read_bytes()


def test_time_series_without_the_pool_is_serial(tmp_path, monkeypatch, no_thread_left):
    # every block above the gate on both sides, so both run the same kernel
    monkeypatch.setattr(propagator, "_GEMM_MAX", -1)
    monkeypatch.setattr(propagator, "_STACK_MAX", -1)
    monkeypatch.setattr(propagator, "_cpus", lambda: 1)
    serial = series_records(tmp_path, "serial.csv")
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)
    monkeypatch.setattr(propagator, "_cpus", lambda: 2)
    threaded, build = [], propagator._stacked
    monkeypatch.setattr(propagator, "_stacked",
                        lambda blocks, n: threaded.append(on_thread()) or build(blocks, n))
    assert series_records(tmp_path, "threaded.csv") == serial
    assert any(threaded)


def test_failing_row_joins_the_thread(tmp_path, monkeypatch, helper_on):
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)  # rows in this process
    baseline = threading.active_count()
    spectrum, rows = experiments.magnitude_spectrum, []

    def failing(M):
        rows.append(1)
        if len(rows) == 10:
            raise SpectralError("row 9 failed")
        return spectrum(M)

    monkeypatch.setattr(experiments, "magnitude_spectrum", failing)
    with pytest.raises(SpectralError, match="row 9 failed") as held:
        series_records(tmp_path, "o.csv")
    # the traceback still holds the time series' frames, and its walk
    assert held.value.__traceback__ is not None
    assert threading.active_count() == baseline
    assert helper_on.threaded()


def run_script(code, *args, timeout=120):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=timeout)


# Every interval queued on the factor thread; prints the walks propagate
# started, whether the thread built a factor and the threads left after the run.
THREAD_ON = """
import sys, threading
import tiedyn.propagator as propagator

propagator._GEMM_MAX = propagator._STACK_MAX = -1
propagator._cpus = lambda: 2
served, on_thread = [], []
walk, build = propagator.iter_factors, propagator._stacked
propagator.iter_factors = lambda *args: served.append(1) or walk(*args)

def recorded(*args):
    on_thread.append(threading.current_thread() is not threading.main_thread())
    return build(*args)

propagator._stacked = recorded

def report():
    print(len(served), sum(on_thread) > 0, threading.active_count())
"""


CLI_WITH_HELPER = THREAD_ON + """
from tiedyn.cli import main

code = main(sys.argv[1:])
report()
sys.exit(code)
"""


# THREAD_ON's kernels on one CPU
SERIAL_CLI = """
import sys
import tiedyn.propagator as propagator
from tiedyn.cli import main

propagator._GEMM_MAX = propagator._STACK_MAX = -1
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
# thread opened would interleave with the main thread's. The main thread
# builds every interval's generator block, through the traced laplacian; the
# thread runs only the untraced _factor. The script also prints whether a
# traced laplacian ran off the main thread.
TRACED_WITH_HELPER = THREAD_ON + """
import importlib.util, json
sys.path.insert(0, sys.argv[1])

def load(name):
    spec = importlib.util.spec_from_file_location(name, f"{sys.argv[1]}/{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

trace, off_main = load("trace"), []
wrap = trace.Tracer.wrap

def noting_the_thread(self, name, fn):
    traced = wrap(self, name, fn)
    def noted(*args, **kwargs):
        off_main.append(threading.current_thread() is not threading.main_thread())
        return traced(*args, **kwargs)
    return noted if name == "tie_decay.laplacian" else traced

trace.Tracer.wrap = noting_the_thread
code = trace.main(sys.argv[2:])
report()
print(len(off_main), any(off_main))
with open(sys.argv[2]) as fh:
    print(json.dumps(load("run").layer_metrics(json.load(fh))))
sys.exit(code)
"""


def test_traced_run_with_helper_is_sound(tmp_path):
    events = tmp_path / "events.txt"
    stream = stream_of(STREAMS[0])
    events.write_text(serialize_events(stream))
    spans_path = tmp_path / "spans.json"
    result = run_script(TRACED_WITH_HELPER, BENCH, spans_path, "--input", events,
                        "--mode", "aggregate-compare", "--alpha", "0.01",
                        "--out", tmp_path / "o.csv")
    assert result.returncode == 0, result.stderr
    ran, laplacians, metrics = result.stdout.splitlines()[-3:]
    assert ran == "1 True 1"
    spans = json.loads(spans_path.read_text())
    assert any(name == "propagator.propagate" for name, *_ in spans)
    for name, start, end, parent in spans:
        assert start <= end, name
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end, name

    def in_propagate(span):
        parent = span[3]
        while parent >= 0 and spans[parent][0] != "propagator.propagate":
            parent = spans[parent][3]
        return parent >= 0

    # one laplacian per interval inside propagate, every one of them (and
    # the aggregate propagator's) on the main thread
    n_intervals = len(list(dense_intervals(stream, 0.01)))
    walk = [span for span in spans if span[0] == "tie_decay.laplacian" and in_propagate(span)]
    assert len(walk) == n_intervals
    assert laplacians == f"{sum(span[0] == 'tie_decay.laplacian' for span in spans)} False"
    metrics = json.loads(metrics)
    assert metrics["propagator.propagate_s"] > 0
    assert min(metrics.values()) >= 0, metrics
