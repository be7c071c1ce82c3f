#!/usr/bin/env python3
"""Time walks with and without the factor thread, to set its gate.

Usage:
    python3 scripts/helper_gate.py [--runs R]

For each N in 48, 64, 80, 96, 113 and 160 it builds a ``bench/gen.py``
stream (``StreamSpec(N, 4N, max(1600, 4N), 400)`` at seed 101), read
undirected and directed, and walks it at alpha 0.01 with
``propagator.propagate``. Every interval's generator block is padded to
all N nodes (a node with no live tie gets a zero row and column), so
every block has N nodes. Each walk runs R times (7 by default) serially
(one CPU allowed) and R times with the factor thread, alternating, with
BLAS pinned to one thread. With the thread, every block is queued on it:
below the gate the script lowers ``propagator._GEMM_MAX`` to N - 1 for
the routing and keeps each block on the kernel that the shipped gate
picks, so both sides run the same kernels. It prints per walk the median
seconds of each side, their ratio, how many blocks this thread and the
factor thread built per walk (medians), and exits 1 if any product ``M``
differs by a byte from the first serial one. ``propagator._GEMM_MAX``
is the factor thread's gate as well as the kernel gate: the thread
should pay above it and not below. Linux only: it sets its own CPU
affinity.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from gen import StreamSpec, make_stream  # noqa: E402
from tiedyn import propagator  # noqa: E402
from tiedyn.events import parse_events  # noqa: E402

SIZES = (48, 64, 80, 96, 113, 160)
SEED = 101
ALPHA = 0.01
GATE = propagator._GEMM_MAX
live_block, factor, expm = propagator._live_block, propagator._factor, propagator._expm
built = []  # one entry per block: True if the factor thread built it


def full_block(ties, c):
    """``_live_block`` padded to every node of the stream."""
    idx, A = live_block(ties, c)
    n = ties.node_count
    B = np.zeros((n, n))
    B[np.ix_(idx, idx)] = A
    return np.arange(n), B


def recorded_factor(idx, A, n):
    built.append(threading.current_thread() is not threading.main_thread())
    return factor(idx, A, n)


def shipped_kernel(A):
    """``_expm`` with the shipped gate, whatever ``_GEMM_MAX`` routes."""
    return propagator._taylor(A) if A.shape[-1] <= GATE else expm(A)


def walk(stream, helper: bool) -> tuple[float, np.ndarray, int]:
    """Seconds of one ``propagate``, its M and the blocks the thread built."""
    propagator._cpus = (lambda: 2) if helper else (lambda: 1)
    propagator._GEMM_MAX = min(GATE, stream.node_count - 1) if helper else GATE
    built.clear()
    start = time.perf_counter()
    M = propagator.propagate(stream, ALPHA).matrix
    return time.perf_counter() - start, M, sum(built)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=7)
    runs = parser.parse_args().runs
    if len(os.sched_getaffinity(0)) < 2:
        print("needs two CPUs in the affinity mask", file=sys.stderr)
        return 2
    propagator._live_block = full_block
    propagator._factor = recorded_factor
    propagator._expm = shipped_kernel
    print(f"runs={runs} gate={GATE} alpha={ALPHA}")
    same = True
    for n in SIZES:
        text = make_stream(StreamSpec(n, 4 * n, max(1600, 4 * n), 400), SEED).text()
        for directed in (False, True):
            stream = parse_events(text, directed=directed)
            times = {False: [], True: []}
            threaded = []
            first = None
            for r in range(runs):
                for helper in ((False, True) if r % 2 == 0 else (True, False)):
                    seconds, M, on_thread = walk(stream, helper)
                    times[helper].append(seconds)
                    if helper:
                        threaded.append(on_thread)
                    if first is None:
                        first = M
                    same &= M.tobytes() == first.tobytes()
            serial, helper = np.median(times[False]), np.median(times[True])
            blocks = len(built)
            print(f"N={n} directed={directed} blocks={blocks} serial_s={serial:.3f} "
                  f"helper_s={helper:.3f} ratio={helper / serial:.2f} "
                  f"faster={sum(h < s for s, h in zip(times[False], times[True]))}/{runs} "
                  f"here={blocks - np.median(threaded):.0f} "
                  f"thread={np.median(threaded):.0f} same_M={same}", flush=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
