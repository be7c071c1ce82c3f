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
from conftest import make_random_stream
from tiedyn.events import serialize_events
from tiedyn.experiments import ExperimentConfig, run
from tiedyn.propagator import evolve_opinions, interval_factor, propagate
from tiedyn.spectral import SpectralError
from tiedyn.tie_decay import intervals, timeline

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
    """Send every other interval of every walk in this process to the
    factor thread, whatever its size, and record the alphas of the walks
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
    return [interval_factor(L, dt, alpha) for _, dt, L in intervals(stream, alpha, upto)]


def serial_product(stream, alpha, upto=None, M=None):
    """``M`` (the identity by default) times the factors, one at a time."""
    M = np.eye(stream.node_count) if M is None else M.copy()
    for fac in serial_factors(stream, alpha, upto):
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
    # blocks of min_live nodes and more alternate; at 6, blocks of up to 2
    # nodes are stacked and those of 3 to 5 built alone
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


def test_large_blocks_alternate_and_small_ones_stay(helper_on, monkeypatch,
                                                    no_thread_left):
    # each block goes by its own size: blocks of up to 2 nodes are stacked,
    # also right after a large or a threaded block, blocks of 3 are built
    # alone here, and the blocks of 4 nodes and more alternate between
    # here and the thread, the first here
    monkeypatch.setattr(propagator, "_STACK_MAX", 2)
    monkeypatch.setattr(propagator, "_GEMM_MAX", 3)
    # blocks in interval order, as the walk makes them; some repeat an
    # earlier one entry for entry, so they are found by identity
    made, stacked, alone = [], {}, {}
    live_block, stack, factor = propagator._live_block, propagator._stacked, propagator._factor

    def find(A):
        return next(k for k, (_, A_k) in enumerate(made) if A_k is A)

    def recorded_stack(blocks, n):
        for _, A in blocks:
            stacked[find(A)] = on_thread()
        return stack(blocks, n)

    def recorded_factor(idx, A, n):  # builds through _stacked too
        alone[find(A)] = on_thread()
        return factor(idx, A, n)

    monkeypatch.setattr(propagator, "_live_block",
                        lambda ties, c: made.append(live_block(ties, c)) or made[-1])
    monkeypatch.setattr(propagator, "_stacked", recorded_stack)
    monkeypatch.setattr(propagator, "_factor", recorded_factor)
    propagate(stream_of(STREAMS[0]), 100.0)
    sizes = [len(idx) for idx, _ in made]
    assert sorted(stacked) == list(range(len(sizes)))
    routes = ["stack" if k not in alone else "thread" if alone[k] else "here"
              for k in range(len(sizes))]
    assert not any(stacked[k] for k in range(len(sizes)) if routes[k] == "stack")
    expected, here = [], False
    for size in sizes:
        if size <= 2:
            expected.append("stack")
        elif size == 3:
            expected.append("here")
        else:
            here = not here
            expected.append("here" if here else "thread")
    assert routes == expected
    after = set(zip(routes, routes[1:]))
    assert {("here", "stack"), ("thread", "stack"), ("stack", "thread")} <= after
    assert 10 < routes.count("thread") < routes.count("stack")


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
    whichever thread builds it, alone or in a stack."""
    find, build = interval_of(stream, alpha), propagator._stacked

    def failing(blocks, n):
        for (idx, A), fac in zip(blocks, build(blocks, n)):
            k = find(idx, A)
            if k in failures:
                time.sleep(failures[k])
                raise ArithmeticError(f"factor {k} failed")
            yield fac

    monkeypatch.setattr(propagator, "_stacked", failing)


# With every block above the gate the factor thread builds the odd intervals.
@pytest.mark.parametrize("failures,expected", [
    ({3: 0.3, 4: 0.0}, "factor 3 failed"),    # the thread's error, though last in time
    ({4: 0.0, 7: 0.0}, "factor 4 failed"),    # this thread's error comes first
    ({4: 0.3, 5: 0.0}, "factor 4 failed"),    # it stops the walk before interval 5
    ({2: 0.3, 3: 0.0}, "factor 2 failed"),    # ... before the thread's second one
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
    assert not helper_on.threaded()
    monkeypatch.setattr(propagator, "_cpus", lambda: 2)
    with pytest.raises(ArithmeticError) as ahead:
        propagate(stream, 1.0)
    assert helper_on.served == [1.0, 1.0]
    assert str(ahead.value) == str(serial.value) == expected
    assert type(ahead.value) is ArithmeticError


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
    monkeypatch.setattr(experiments, "_POOL_MIN_WORK", 0)
    monkeypatch.setattr(experiments, "_cpus", lambda: 2)
    events = tmp_path / "events.txt"
    events.write_text(serialize_events(stream_of(STREAMS[0])))
    for mode in ("alpha_sweep", "ensemble", "time_series"):
        run(ExperimentConfig(input=str(events), mode=mode, alphas=ALPHAS, ensemble=2,
                             out=str(tmp_path / "o.csv")))
    assert not log.exists()
    assert not propagator._pool_busy and experiments._task_fn is None
    # without the pool, the time series walks with the thread
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)
    run(ExperimentConfig(input=str(events), mode="time_series", alphas=[1.0],
                         out=str(tmp_path / "o.csv")))
    n_intervals = len(list(intervals(stream_of(STREAMS[0]), 1.0)))
    assert log.read_text().split() == [str(os.getpid())] * (n_intervals // 2)


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
    monkeypatch.setattr(experiments, "_POOL_MIN_WORK", 10**18)
    monkeypatch.setattr(propagator, "_cpus", lambda: 2)
    threaded, build = [], propagator._stacked
    monkeypatch.setattr(propagator, "_stacked",
                        lambda blocks, n: threaded.append(on_thread()) or build(blocks, n))
    assert series_records(tmp_path, "threaded.csv") == serial
    assert any(threaded)


def test_failing_row_joins_the_thread(tmp_path, monkeypatch, helper_on):
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


# The factor thread on every other interval; prints the walks propagate
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
    n_intervals = len(list(intervals(stream, 0.01)))
    walk = [span for span in spans if span[0] == "tie_decay.laplacian" and in_propagate(span)]
    assert len(walk) == n_intervals
    assert laplacians == f"{sum(span[0] == 'tie_decay.laplacian' for span in spans)} False"
    metrics = json.loads(metrics)
    assert metrics["propagator.propagate_s"] > 0
    assert min(metrics.values()) >= 0, metrics
