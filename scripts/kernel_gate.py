#!/usr/bin/env python3
"""Time the two factor kernels on slow-decay blocks, to set the gate.

Usage:
    python3 scripts/kernel_gate.py [--rounds R]

For each N in 16, 32, 48, 64, 80, 96, 113, 128 and 238 it builds a
``bench/gen.py`` stream (``StreamSpec(N, 4N, max(1600, 16N), 400)`` at
seed 101),
walks it at alpha 0.01, and keeps up to 24 of the interval generator
blocks that have every node live, spread over the walk. It then times
``propagator._taylor`` (the GEMM-only kernel) and
``propagator._deflated_eigh`` (the ``syevd`` kernel) on each block,
alternating, for R rounds (5 by default), on one CPU with BLAS pinned to
one thread. It prints per size the median of the per-block medians in
microseconds, their ratio, and the largest entry difference between the
kernels. ``propagator._GEMM_MAX`` should sit where the ratio crosses 1.
Linux only: it sets its own CPU affinity.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from gen import StreamSpec, make_stream  # noqa: E402
from tiedyn import propagator  # noqa: E402
from tiedyn.events import parse_events  # noqa: E402
from tiedyn.tie_decay import timeline  # noqa: E402

SIZES = (16, 32, 48, 64, 80, 96, 113, 128, 238)
SEED = 101
ALPHA = 0.01
BLOCKS = 24


def full_blocks(n: int) -> list[np.ndarray]:
    """Up to BLOCKS generator blocks with all ``n`` nodes live, spread
    evenly over the slow-decay walk of the size-``n`` stream."""
    spec = StreamSpec(n, 4 * n, max(1600, 16 * n), 400)
    stream = parse_events(make_stream(spec, SEED).text())
    blocks = []
    for _, dt, ties in timeline(stream, ALPHA):
        idx, A = propagator._live_block(ties, propagator._decay_c(ALPHA, dt))
        if len(idx) == n:
            blocks.append(A)
    step = max(1, len(blocks) // BLOCKS)
    return blocks[::step][:BLOCKS]


def per_block_us(kernel, A: np.ndarray) -> float:
    start = time.perf_counter()
    kernel(A)
    return 1e6 * (time.perf_counter() - start)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    rounds = parser.parse_args().rounds
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    kernels = (propagator._taylor, propagator._deflated_eigh)
    print(f"rounds={rounds} gate={propagator._GEMM_MAX}")
    for n in SIZES:
        blocks = full_blocks(n)
        times = np.empty((rounds, len(blocks), len(kernels)))
        for r in range(rounds):
            for b, A in enumerate(blocks):
                for k, kernel in enumerate(kernels):
                    times[r, b, k] = per_block_us(kernel, A)
        taylor_us, eigh_us = np.median(np.median(times, axis=0), axis=0)
        diff = max(np.abs(propagator._taylor(A) - propagator._deflated_eigh(A)).max()
                   for A in blocks)
        mu = np.median([propagator._shift(A) for A in blocks])
        print(f"N={n} blocks={len(blocks)} median_mu={mu:.3g} "
              f"taylor_us={taylor_us:.0f} eigh_us={eigh_us:.0f} "
              f"ratio={taylor_us / eigh_us:.2f} max_diff={diff:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
