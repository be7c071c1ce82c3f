"""The names and calls the benchmark harness in bench/ relies on.

``bench/trace.py`` wraps every function in its ``LAYERS`` table by name,
and ``bench/run.py`` calls a few public functions to check its outputs.
A rename or deletion in tiedyn would crash those runs, so this pins them.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tiedyn
from tiedyn.randomize import METHODS

BENCH = Path(__file__).parents[1] / "bench"
SRC = Path(tiedyn.__file__).parents[1]

STREAM = "0 a b\n0 b c\n3 a c\n5 c d\n7 a b\n8 b d\n"


def load_trace():
    """bench/trace.py as a module, read from its path; nothing is written
    next to it."""
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH / "trace.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


LAYERS = [(layer, name) for layer, names in load_trace().LAYERS.items()
          for name in names]


@pytest.mark.parametrize("layer,name", LAYERS, ids=[f"{l}.{n}" for l, n in LAYERS])
def test_traced_function_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"tiedyn.{layer}"), name))


def test_run_py_calls():
    # the top-level names bench/run.py reads, and its calls
    stream = tiedyn.parse_events(STREAM)
    stream = tiedyn.exclude_low_degree_nodes(stream, 0)
    M = tiedyn.propagate(stream, 1.0, upto=5.0).matrix
    assert isinstance(M, np.ndarray) and M.shape == (4, 4)
    for method in METHODS:
        seed = tiedyn.member_seed(101, 0)
        member = tiedyn.randomize(stream, tiedyn.RandomizerSpec(method, seed))
        assert len(member.events) == len(stream.events)


def test_checks_py_reads():
    # bench/checks.py reads a member's edge index and its events' times
    stream = tiedyn.parse_events(STREAM)
    for method in METHODS:
        member = tiedyn.randomize(stream, tiedyn.RandomizerSpec(method, 7))
        for key, times in member.edge_event_index().items():
            assert type(key) is tuple and [type(n) for n in key] == [int, int]
            assert type(times) is list and all(type(t) is float for t in times)
        assert all(type(e.time) is float for e in member.events)


def one_cpu():
    """Run this process on one CPU of its mask, where that can be set."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def traced_span_names(tmp_path, *cli_args) -> list[str]:
    """Span names of one bench/trace.py run of the CLI on STREAM, on one
    CPU: trace.py records spans only in its own process, and with two or
    more tasks and CPUs the tasks run in forked workers."""
    inp = tmp_path / "events.txt"
    inp.write_text(STREAM)
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "trace.py"), str(spans), "--input", str(inp),
         *cli_args, "--out", str(tmp_path / "o.csv")],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=one_cpu)
    assert proc.returncode == 0, proc.stderr
    return [span[0] for span in json.loads(spans.read_text())]


def test_traced_run_records_every_timeline_kernel(tmp_path):
    names = traced_span_names(tmp_path, "--mode", "alpha-sweep", "--alpha", "1")
    for fn in ("decay_to", "apply_events", "laplacian"):
        assert f"tie_decay.{fn}" in names


def test_traced_ensemble_records_every_randomizer(tmp_path):
    # randomize() dispatches through module-level names, which trace.py wraps
    names = traced_span_names(tmp_path, "--mode", "ensemble", "--method", "all",
                              "--ensemble", "1", "--alpha", "1")
    for fn in load_trace().LAYERS["randomize"]:
        assert names.count(f"randomize.{fn}") == 1
