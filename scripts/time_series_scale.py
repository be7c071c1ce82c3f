#!/usr/bin/env python3
"""Time the time-series mode at the paper's scale, serial and pooled.

Usage:
    python3 scripts/time_series_scale.py

Builds the first 4000 events of a hypertext-sized stream with
``bench/gen.py`` (``StreamSpec(113, 2196, 4000, 1441)`` at seed 101:
113 nodes, 1441 distinct event times) and times ``run_time_series`` on
it at alphas 1 and 100, in this process with BLAS pinned to one thread.
Each alpha runs twice: with this process's CPU affinity, so the rows'
eigen-analysis goes to the fork pool when two or more CPUs are allowed,
and with the affinity cut to one CPU, which runs it serially. It prints
milliseconds per row for both, and exits 1 unless both runs give
byte-identical CSV. Linux only: it sets its own CPU affinity.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from gen import StreamSpec, make_stream  # noqa: E402
from tiedyn.events import group_event_times, parse_events  # noqa: E402
from tiedyn.experiments import (ExperimentConfig, records_to_csv,  # noqa: E402
                                run_time_series)

SPEC = StreamSpec(113, 2196, 4000, 1441)
SEED = 101
ALPHAS = (1.0, 100.0)


def timed(stream, alpha: float) -> tuple[float, str]:
    """Seconds of one ``run_time_series`` at ``alpha``, and its CSV."""
    start = time.perf_counter()
    records = run_time_series(stream, ExperimentConfig(alphas=[alpha]))
    return time.perf_counter() - start, records_to_csv(records)


def main() -> int:
    stream = parse_events(make_stream(SPEC, SEED).text())
    rows = len(group_event_times(stream))
    cpus = os.sched_getaffinity(0)
    print(f"N={stream.node_count} events={len(stream.times)} rows={rows} "
          f"cpus={len(cpus)}")
    identical = True
    for alpha in ALPHAS:
        pooled_s, pooled_csv = timed(stream, alpha)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            serial_s, serial_csv = timed(stream, alpha)
        finally:
            os.sched_setaffinity(0, cpus)
        same = pooled_csv == serial_csv
        identical &= same
        print(f"alpha={alpha:g} serial_ms_per_row={1e3 * serial_s / rows:.2f} "
              f"pooled_ms_per_row={1e3 * pooled_s / rows:.2f} csv_identical={same}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
