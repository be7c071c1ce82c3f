"""The fork pool of tiedyn.experiments: same records and CSV bytes as the
serial loop, the serial loop's errors, and no process left behind."""

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
from conftest import make_random_stream
from tiedyn.events import serialize_events
from tiedyn.experiments import ExperimentConfig, run
from tiedyn.spectral import SpectralError

SRC = str(Path(tiedyn.__file__).parents[1])
ALPHAS = [0.1, 1.0, 10.0]
MODES = ["alpha_sweep", "time_series", "aggregate_compare", "ensemble"]

pytestmark = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the pool needs the fork start method")


@pytest.fixture
def events(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text(serialize_events(make_random_stream(5, n_max=8, max_events=60)))
    return path


@pytest.fixture
def pool_on(monkeypatch):
    """Every pipeline runs serially in this process until this is called,
    and then every pipeline of two or more tasks in a two-worker pool,
    whatever the CPUs."""
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)
    return lambda: monkeypatch.setattr(experiments, "_cpus", lambda: 2)


@pytest.fixture
def task_pids(monkeypatch, tmp_path):
    """Call it for the ids of the processes that solved a spectrum so far."""
    log = tmp_path / "pids.txt"

    def logging(fn):
        def logged(*args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return fn(*args)
        return logged

    for name in ("spectral_gap", "magnitude_spectrum"):
        monkeypatch.setattr(experiments, name, logging(getattr(experiments, name)))
    return lambda: set(map(int, log.read_text().split())) if log.exists() else set()


def run_mode(events, out, mode):
    config = ExperimentConfig(input=str(events), mode=mode, alphas=ALPHAS,
                              ensemble=3, seed=4, out=str(out))
    return run(config)


def outputs(out):
    summary = out.with_name(out.stem + "_summary.csv")
    return out.read_bytes(), summary.read_bytes() if summary.exists() else None


@pytest.mark.parametrize("mode", MODES)
def test_pool_equals_serial(events, tmp_path, pool_on, task_pids, mode):
    serial = run_mode(events, tmp_path / "serial.csv", mode)
    assert task_pids() == {os.getpid()}
    pool_on()
    pooled = run_mode(events, tmp_path / "pooled.csv", mode)
    assert len(task_pids() - {os.getpid()}) >= 1  # the pool ran the tasks
    assert pooled == serial
    written = outputs(tmp_path / "pooled.csv")
    assert written == outputs(tmp_path / "serial.csv")
    assert (written[1] is not None) == (mode == "ensemble")  # the summary CSV
    assert multiprocessing.active_children() == []


def failing_propagate(slow_alpha, fast_alpha):
    """propagate, except that two alphas raise; the slow one sleeps first."""
    propagate = experiments.propagate

    def fails(stream, alpha, **kwargs):
        if alpha == slow_alpha:
            time.sleep(0.3)
            raise ArithmeticError(f"task failed at alpha {alpha}")
        if alpha == fast_alpha:
            raise ArithmeticError(f"task failed at alpha {alpha}")
        return propagate(stream, alpha, **kwargs)

    return fails


@pytest.mark.parametrize("mode", ["alpha_sweep", "aggregate_compare", "ensemble"])
def test_pool_raises_the_first_failed_task_in_order(events, tmp_path, monkeypatch,
                                                    pool_on, mode):
    # the later task fails first in time; both paths report the earlier one
    monkeypatch.setattr(experiments, "propagate", failing_propagate(1.0, 10.0))
    with pytest.raises(ArithmeticError) as serial:
        run_mode(events, tmp_path / "serial.csv", mode)
    pool_on()
    with pytest.raises(ArithmeticError) as pooled:
        run_mode(events, tmp_path / "pooled.csv", mode)
    assert str(pooled.value) == str(serial.value) == "task failed at alpha 1.0"
    assert type(pooled.value) is ArithmeticError
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "pooled.csv").exists()


def run_series(events, out):
    """A time series at alpha 1: one alpha, so its only tasks are row batches."""
    return run(ExperimentConfig(input=str(events), mode="time_series", alphas=[1.0],
                                out=str(out)))


def test_one_alpha_time_series_runs_rows_in_workers(events, tmp_path, pool_on, task_pids):
    serial = run_series(events, tmp_path / "serial.csv")
    assert task_pids() == {os.getpid()}
    pool_on()
    pooled = run_series(events, tmp_path / "pooled.csv")
    # the fixture has 48 rows: three batches
    assert len(pooled) > 2 * experiments._ROW_BATCH
    assert len(task_pids() - {os.getpid()}) >= 1
    assert pooled == serial
    assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert multiprocessing.active_children() == []


def series_failures(monkeypatch, events, spectral_row, factor_interval):
    """Make row ``spectral_row`` of the alpha-1 time series raise a
    SpectralError after 0.3 s, in whichever process solves it, and the walk
    raise an ArithmeticError when it builds factor ``factor_interval``."""
    stream = experiments.load_stream(ExperimentConfig(input=str(events)))
    M = np.eye(stream.node_count)
    for _, Y in zip(range(spectral_row), experiments.iter_factors(stream, 1.0)):
        Y.apply(M)
    spectrum, iter_factors = experiments.magnitude_spectrum, experiments.iter_factors

    def failing_spectrum(A):
        if np.array_equal(A, M):
            time.sleep(0.3)
            raise SpectralError(f"row {spectral_row} failed")
        return spectrum(A)

    def failing_factors(stream, alpha, upto=None):
        for k, Y in enumerate(iter_factors(stream, alpha, upto)):
            if k == factor_interval:
                raise ArithmeticError(f"factor {k} failed")
            yield Y

    monkeypatch.setattr(experiments, "magnitude_spectrum", failing_spectrum)
    monkeypatch.setattr(experiments, "iter_factors", failing_factors)


@pytest.mark.parametrize("spectral_row,factor_interval,expected", [
    (6, 20, "row 6 failed"),          # the slow row error comes first in row order
    (17, 20, "row 17 failed"),        # so it does in the batch the walk cut short
    (30, 20, "factor 20 failed"),     # the walk fails before row 30 exists
])
def test_time_series_raises_the_first_error_in_row_order(
        events, tmp_path, monkeypatch, pool_on, spectral_row, factor_interval, expected):
    series_failures(monkeypatch, events, spectral_row, factor_interval)
    with pytest.raises((SpectralError, ArithmeticError)) as serial:
        run_series(events, tmp_path / "serial.csv")
    pool_on()
    with pytest.raises((SpectralError, ArithmeticError)) as pooled:
        run_series(events, tmp_path / "pooled.csv")
    assert str(pooled.value) == str(serial.value) == expected
    assert type(pooled.value) is type(serial.value)
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "pooled.csv").exists()


def test_task_walk_stays_within_the_window(tmp_path, pool_on):
    pool_on()
    done = tmp_path / "done.txt"

    def task(k):
        time.sleep(0.005)
        with open(done, "a") as fh:
            fh.write(f"{k}\n")
        return k

    ahead = []

    def tasks():
        for k in range(40):
            finished = len(done.read_text().split()) if done.exists() else 0
            ahead.append(k - finished)
            yield k

    assert experiments._map_tasks(task, tasks(), 40) == list(range(40))
    # two workers, two tasks each: task k is drawn only after the result
    # of task k - 4 was read, so at most 3 drawn tasks are unfinished
    assert max(ahead) <= 3
    assert multiprocessing.active_children() == []


def test_one_cpu_starts_no_pool(events, tmp_path, monkeypatch, task_pids):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    run_mode(events, tmp_path / "o.csv", "ensemble")
    assert task_pids() == {os.getpid()}


def test_two_tasks_on_two_cpus_pool(events, tmp_path, monkeypatch, task_pids):
    # whatever the work: a two-alpha sweep of the small fixture stream
    monkeypatch.setattr(experiments, "_cpus", lambda: 2)
    run(ExperimentConfig(input=str(events), alphas=[1.0, 10.0]))
    assert len(task_pids() - {os.getpid()}) >= 1
    assert multiprocessing.active_children() == []


def run_script(code, *args, timeout=120):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=timeout)


KILLED_WORKER = """
import multiprocessing, os, signal, sys
import tiedyn.experiments as experiments
from tiedyn.cli import main

experiments._cpus = lambda: 2
parent, propagate = os.getpid(), experiments.propagate

def killed(stream, alpha, **kwargs):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return propagate(stream, alpha, **kwargs)

experiments.propagate = killed
code = main(["--input", sys.argv[1], "--mode", "alpha-sweep", "--alpha", "0.1,1,10",
             "--out", sys.argv[2]])
print(len(multiprocessing.active_children()))
sys.exit(code)
"""


def test_killed_worker_is_one_error_line(events, tmp_path):
    result = run_script(KILLED_WORKER, events, tmp_path / "o.csv", timeout=60)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert result.stdout == "0\n"
    assert not (tmp_path / "o.csv").exists()


KILLED_ROW_WORKER = """
import multiprocessing, os, signal, sys
import tiedyn.experiments as experiments
from tiedyn.experiments import ExperimentConfig, run

experiments._cpus = lambda: 2
parent, series_row = os.getpid(), experiments._series_row

def killed(M, Y):
    if os.getpid() != parent:
        os.kill(os.getpid(), signal.SIGKILL)
    return series_row(M, Y)

experiments._series_row = killed
try:
    run(ExperimentConfig(input=sys.argv[1], mode="time_series", alphas=[1.0],
                         out=sys.argv[2]))
except Exception as error:
    print(type(error).__name__)
print(len(multiprocessing.active_children()))
"""


def test_killed_row_worker_raises_broken_pool(events, tmp_path):
    result = run_script(KILLED_ROW_WORKER, events, tmp_path / "o.csv", timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "BrokenProcessPool\n0\n"
    assert not (tmp_path / "o.csv").exists()


NO_POOL_IMPORTS = """
import os, sys
POOL = ("multiprocessing", "concurrent.futures")

def loaded(after):
    found = [m for m in POOL if m in sys.modules]
    if found:
        sys.exit(f"{', '.join(found)} imported after {after}")

import tiedyn
loaded("import tiedyn")
from tiedyn.cli import main
events, out = sys.argv[1], sys.argv[2]
if main(["--input", events, "--mode", "alpha-sweep", "--alpha", "1", "--out", out]):
    sys.exit("alpha sweep failed")
loaded("a single-alpha sweep with small live blocks")
cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
if cpus:
    os.sched_setaffinity(0, {min(cpus)})
    if main(["--input", events, "--mode", "ensemble", "--alpha", "0.1,1",
             "--ensemble", "2", "--out", out]):
        sys.exit("ensemble failed")
    loaded("an ensemble on one CPU")
    if main(["--input", events, "--mode", "time-series", "--alpha", "1", "--out", out]):
        sys.exit("time series failed")
    loaded("a time series on one CPU")
    os.sched_setaffinity(0, cpus)
# live blocks of 100 nodes, which the factor thread shares with two CPUs
dense = out + ".dense.txt"
with open(dense, "w") as fh:
    fh.writelines(f"{t} n{i} n{i + 1}\\n" for t in range(6) for i in range(99))
if main(["--input", dense, "--mode", "aggregate-compare", "--alpha", "0.01", "--out", out]):
    sys.exit("aggregate comparison failed")
POOL = ("multiprocessing",)
loaded("a dense single-alpha aggregate comparison")
print("concurrent.futures" in sys.modules)
"""


def test_serial_runs_never_import_the_pool(events, tmp_path):
    result = run_script(NO_POOL_IMPORTS, events, tmp_path / "o.csv")
    assert result.returncode == 0, result.stderr
    # the dense comparison ran its factor thread where two CPUs are allowed
    two_cpus = len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) > 1
    assert result.stdout.splitlines()[-1] == str(two_cpus)
