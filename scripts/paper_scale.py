#!/usr/bin/env python3
"""Time ensemble mode at the paper's scale, with and without the pool.

Usage:
    python3 scripts/paper_scale.py [--members K]

Builds the hypertext-sized stream of ``bench/gen.py``
(``StreamSpec(113, 2196, 20818, 7398)`` at seed 101: 113 nodes, 20818
events at 7398 distinct times) and runs ``run_ensemble`` on it in this
process, with BLAS pinned to one thread, once per alpha (0.01, 1 and
100): the original stream and K members of each of the four
randomizations (``--method all``, seed 101), so 1 + 4K members per
alpha. Each alpha runs twice: with this process's CPU affinity, so the
members go to the fork pool when two or more CPUs are allowed, and with
the affinity cut to one CPU, which runs them one after another. It
prints seconds per member for both, and what the paper's 201 members
(the original and 50 of each method) would take at the one-CPU rate. It
exits 1 unless both runs write the same CSV and summary bytes. Linux
only: it sets its own CPU affinity. K defaults to 1; at K = 1 a run
takes a few minutes, most of it at alpha 0.01.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from gen import StreamSpec, make_stream  # noqa: E402
from tiedyn.events import group_event_times, parse_events  # noqa: E402
from tiedyn.experiments import (ExperimentConfig, records_to_csv,  # noqa: E402
                                run_ensemble, summaries_to_csv)

SPEC = StreamSpec(113, 2196, 20818, 7398)
SEED = 101
ALPHAS = (0.01, 1.0, 100.0)
PAPER_MEMBERS = 201


def timed(stream, alpha: float, members: int) -> tuple[float, str]:
    """Seconds of one ``run_ensemble`` at ``alpha``, and its CSV and
    summary text."""
    config = ExperimentConfig(mode="ensemble", alphas=[alpha], ensemble=members,
                              seed=SEED)
    start = time.perf_counter()
    records, summaries = run_ensemble(stream, config)
    return time.perf_counter() - start, records_to_csv(records) + summaries_to_csv(summaries)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--members", type=int, default=1,
                        help="members per randomization (default 1)")
    args = parser.parse_args(argv)
    if args.members < 1:
        parser.error("--members must be >= 1")
    stream = parse_events(make_stream(SPEC, SEED).text())
    cpus = os.sched_getaffinity(0)
    members = 1 + 4 * args.members
    print(f"N={stream.node_count} events={len(stream.times)} "
          f"times={len(group_event_times(stream))} members={members} cpus={len(cpus)}",
          flush=True)
    identical = True
    for alpha in ALPHAS:
        pooled_s, pooled_csv = timed(stream, alpha, args.members)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            serial_s, serial_csv = timed(stream, alpha, args.members)
        finally:
            os.sched_setaffinity(0, cpus)
        same = pooled_csv == serial_csv
        identical &= same
        print(f"alpha={alpha:g} serial_s_per_member={serial_s / members:.3f} "
              f"pooled_s_per_member={pooled_s / members:.3f} "
              f"serial_min_for_{PAPER_MEMBERS}={serial_s / members * PAPER_MEMBERS / 60:.1f} "
              f"csv_identical={same}", flush=True)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
