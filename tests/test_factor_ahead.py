"""The factor helper of tiedyn.propagator.propagate: the serial loop's M,
bit for bit, and its errors in interval order, with no process left behind."""

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

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
HELPER_MIN_WORK = propagator._HELPER_MIN_WORK
ALPHAS = [0.01, 1.0, 100.0]
# (seed, n_max, max_events, directed): undirected streams of 101 and 9
# intervals, and a directed one of 88
STREAMS = [(4, 12, 120, False), (0, 5, 14, False), (5, 12, 120, True)]

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the helper needs the fork start method")


@pytest.fixture
def helper_on(monkeypatch):
    """Start the helper in every propagate of this process, and record the
    walks it served."""
    served = []
    ahead = propagator._factors_ahead

    def recorded(stream, alpha, upto):
        served.append(alpha)
        return ahead(stream, alpha, upto)

    monkeypatch.setattr(propagator, "_HELPER_MIN_WORK", 0)
    monkeypatch.setattr(propagator, "_cpus", lambda: 2)
    monkeypatch.setattr(propagator, "_factors_ahead", recorded)
    return served


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


@pytest.mark.parametrize("batch", [(8, 1 << 13), (1, 1), (3, 20)])
@pytest.mark.parametrize("case", STREAMS)
def test_helper_gives_the_serial_product(helper_on, monkeypatch, case, batch):
    monkeypatch.setattr(propagator, "_BATCH_FACTORS", batch[0])
    monkeypatch.setattr(propagator, "_BATCH_ENTRIES", batch[1])
    stream = stream_of(case)
    for alpha in ALPHAS:
        for upto in upto_points(stream):
            M = propagate(stream, alpha, upto).matrix
            assert np.array_equal(M, serial_product(stream, alpha, upto))
    assert len(helper_on) == len(ALPHAS) * 3
    assert multiprocessing.active_children() == []


def test_helper_with_a_one_block_queue(helper_on, monkeypatch):
    # the reader thread waits on a full queue most of the walk
    monkeypatch.setattr(propagator, "_HELPER_QUEUE", 1)
    monkeypatch.setattr(propagator, "_BATCH_FACTORS", 1)
    stream = stream_of(STREAMS[0])
    assert np.array_equal(propagate(stream, 0.01).matrix, serial_product(stream, 0.01))
    assert multiprocessing.active_children() == []


def failing_factors(monkeypatch, stream, alpha, failures):
    """Make ``interval_factor`` raise ``ArithmeticError("factor k failed")``
    on interval k of ``failures`` (after ``failures[k]`` seconds), in
    whichever process builds it."""
    laplacians = [L for _, _, L in intervals(stream, alpha)]
    build = propagator.interval_factor

    def failing(L, dt, a):
        k = next(k for k, L_k in enumerate(laplacians) if np.array_equal(L, L_k))
        if k in failures:
            time.sleep(failures[k])
            raise ArithmeticError(f"factor {k} failed")
        return build(L, dt, a)

    monkeypatch.setattr(propagator, "interval_factor", failing)


@pytest.mark.parametrize("failures,expected", [
    ({3: 0.0, 6: 0.0}, "factor 3 failed"),    # the helper's error comes first
    ({4: 0.0, 7: 0.0}, "factor 4 failed"),    # this process's error comes first
    ({4: 0.3, 5: 0.0}, "factor 4 failed"),    # the helper fails first in time
    ({2: 0.3, 3: 0.0}, "factor 2 failed"),    # ... in a batch it cut short
    ({9: 0.0}, "factor 9 failed"),            # past a full batch of the helper
])
def test_helper_raises_the_first_error_in_interval_order(monkeypatch, helper_on,
                                                         failures, expected):
    stream = stream_of(STREAMS[0])
    assert len(list(intervals(stream, 1.0))) > 20
    failing_factors(monkeypatch, stream, 1.0, failures)
    monkeypatch.setattr(propagator, "_BATCH_FACTORS", 2)
    monkeypatch.setattr(propagator, "_HELPER_MIN_WORK", 10 ** 30)
    with pytest.raises(ArithmeticError) as serial:
        propagate(stream, 1.0)
    monkeypatch.setattr(propagator, "_HELPER_MIN_WORK", 0)
    with pytest.raises(ArithmeticError) as ahead:
        propagate(stream, 1.0)
    assert helper_on == [1.0]
    assert str(ahead.value) == str(serial.value) == expected
    assert type(ahead.value) is ArithmeticError
    assert multiprocessing.active_children() == []


def test_helper_is_stopped_when_the_product_fails(monkeypatch, helper_on):
    # the helper is still building its first factor when M's product fails
    parent, build = os.getpid(), propagator.interval_factor

    def slow_in_helper(L, dt, alpha):
        if os.getpid() != parent:
            time.sleep(60)
        return build(L, dt, alpha)

    def fails(fac, M):
        raise FloatingPointError("product failed")

    monkeypatch.setattr(propagator, "interval_factor", slow_in_helper)
    monkeypatch.setattr(propagator.IntervalFactor, "apply", fails)
    start = time.perf_counter()
    with pytest.raises(FloatingPointError, match="product failed"):
        propagate(stream_of(STREAMS[0]), 0.01)
    assert time.perf_counter() - start < 30
    assert helper_on == [0.01]
    assert multiprocessing.active_children() == []


def test_one_cpu_starts_no_helper(monkeypatch, helper_on):
    monkeypatch.setattr(propagator, "_cpus", lambda: 1)
    stream = stream_of(STREAMS[0])
    assert np.array_equal(propagate(stream, 1.0).matrix, serial_product(stream, 1.0))
    monkeypatch.setattr(propagator, "_cpus", experiments._cpus)  # the unpatched one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    propagate(stream, 1.0)
    assert helper_on == []


def test_no_fork_start_method_starts_no_helper(monkeypatch, helper_on):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    propagate(stream_of(STREAMS[0]), 1.0)
    assert helper_on == []


def test_small_work_starts_no_helper(monkeypatch, helper_on):
    monkeypatch.setattr(propagator, "_HELPER_MIN_WORK", HELPER_MIN_WORK)
    stream = stream_of(STREAMS[0])
    assert propagator._factor_work(stream) < propagator._HELPER_MIN_WORK
    propagate(stream, 1.0)
    assert helper_on == []


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
    assert multiprocessing.active_children() == []


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
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=timeout)


KILLED_HELPER = """
import multiprocessing, os, signal, sys
import tiedyn.propagator as propagator
from tiedyn.cli import main

propagator._HELPER_MIN_WORK = 0
propagator._cpus = lambda: 2
parent, build = os.getpid(), propagator.interval_factor

def killed(L, dt, alpha):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return build(L, dt, alpha)

propagator.interval_factor = killed
code = main(["--input", sys.argv[1], "--mode", sys.argv[3], "--alpha", "0.1",
             "--out", sys.argv[2]])
print(len(multiprocessing.active_children()))
sys.exit(code)
"""


@pytest.mark.parametrize("mode", ["alpha-sweep", "aggregate-compare"])
def test_killed_helper_is_one_error_line(tmp_path, mode):
    events = tmp_path / "events.txt"
    events.write_text(serialize_events(stream_of(STREAMS[0])))
    result = run_script(KILLED_HELPER, events, tmp_path / "o.csv", mode, timeout=60)
    assert result.returncode == 1
    assert result.stderr == "error: factor helper process died (exit code -9)\n"
    assert result.stdout == "0\n"
    assert not (tmp_path / "o.csv").exists()


CLI_WITH_HELPER = """
import multiprocessing, sys
import tiedyn.propagator as propagator
from tiedyn.cli import main

propagator._HELPER_MIN_WORK = 0
propagator._cpus = lambda: 2
served = []
ahead = propagator._factors_ahead
propagator._factors_ahead = lambda *args: served.append(1) or ahead(*args)
code = main(sys.argv[1:])
print(len(served), len(multiprocessing.active_children()))
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
    assert result.stdout.splitlines()[-1] == "1 0"
    serial = run_script(SERIAL_CLI, *args, "--out", tmp_path / "serial.csv")
    assert serial.returncode == 0, serial.stderr
    assert (tmp_path / "ahead.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
