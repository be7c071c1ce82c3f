"""Experiment pipelines: ensembles, alpha sweeps, time series, aggregates.

Every pipeline consumes an EventStream plus an ExperimentConfig and
emits plot-ready rows with the fixed schema

    mode,method,alpha,seed,t_n,event_count,gap,shrinkage_ratio,flags

Ensemble runs additionally produce five-number summaries (one per
method and alpha) written to a companion ``*_summary.csv`` file.
Floats are rendered with shortest round-trip decimals so identical
configurations yield byte-identical CSV.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path
from typing import Iterable

import numpy as np

from .aggregate import aggregate_propagator, aggregate_weights
from .events import (EventStream, exclude_low_degree_nodes, format_float,
                     group_event_times, parse_events)
from . import propagator
from .propagator import IntervalFactor, _cpus, _in_order, iter_factors, propagate
from .randomize import (METHODS, RandomizerSpec, member_seed, randomize)
from .spectral import (DefectiveEigenpairError, DegenerateFiedlerError,
                       magnitude_spectrum, shrinkage_ratio, spectral_gap)

SLOPE_DEAD_BAND = 1e-9

# Time-series rows per pool task. On the timeseries input of bench/gen.py
# (N = 64, 400 rows, alpha 1), in process on 2 vCPUs with one BLAS thread,
# medians of 10 runs in each of 3 rounds: the serial loop took 0.42-0.61 s;
# 1 row per task 0.57-0.60 s, 4 rows 0.46-0.54, 8 rows 0.43-0.46, 16 rows
# 0.41-0.47, 32 and 64 rows 0.36-0.46. Larger tasks gained no more and
# hold more snapshots of M in flight.
_ROW_BATCH = 16

CSV_HEADER = "mode,method,alpha,seed,t_n,event_count,gap,shrinkage_ratio,flags"
SUMMARY_HEADER = "method,alpha,q1,median,q3,lo,hi,n_outliers"


@dataclass
class ExperimentConfig:
    """Everything a pipeline run needs; mirrors the CLI flags."""

    input: str | None = None
    mode: str = "alpha_sweep"
    alphas: list[float] = field(default_factory=lambda: [1.0])
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    ensemble: int = 50
    seed: int = 0
    min_edges: int = 0
    directed: bool = False
    out: str | None = None

    def __post_init__(self):
        for name in ("ensemble", "seed", "min_edges"):  # what operator.index takes
            if not hasattr(type(getattr(self, name)), "__index__"):
                raise TypeError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.ensemble < 1:
            raise ValueError("ensemble size must be >= 1")
        if self.min_edges < 0:
            raise ValueError(f"min-edges must be >= 0, got {self.min_edges}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.alphas:
            raise ValueError("need at least one alpha value")
        if not all(0 < a < math.inf for a in self.alphas):
            raise ValueError("alpha values must be positive and finite")
        if len(set(self.alphas)) < len(self.alphas):
            raise ValueError("alpha values must be distinct")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must be distinct, got {self.methods}")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")


@dataclass
class FiveNumberSummary:
    """Box-plot statistics: quartiles, whiskers, and outliers."""

    q1: float
    median: float
    q3: float
    lo: float
    hi: float
    outliers: list[float]


@dataclass
class ExperimentRecord:
    """One output row; maps 1:1 to a CSV line."""

    mode: str
    method: str
    alpha: float
    seed: int | None
    t_n: float
    event_count: int
    gap: float
    shrinkage_ratio: float | None = None
    flags: str = ""

    def sort_key(self):
        return (self.method, self.alpha, self.seed if self.seed is not None else -1,
                self.t_n)


def _linear_quantile(xs: list[Fraction], p: Fraction) -> Fraction:
    """The linear-interpolation quantile of sorted ``xs``, exactly."""
    h = (len(xs) - 1) * p
    j = math.floor(h)
    return xs[j] if j + 1 == len(xs) else xs[j] + (h - j) * (xs[j + 1] - xs[j])


def summary_stats(values: list[float]) -> FiveNumberSummary:
    """Quartiles via linear interpolation; 1.5*IQR whiskers and outliers.

    The five cells are numpy's rounded quartiles and whiskers. Outliers
    are judged against whiskers computed exactly from the same quartiles:
    samples a few units in the last place apart round to an IQR of 0,
    and the rounded whiskers would then make outliers of them all.
    """
    if not values:
        raise ValueError("empty sample")
    q1, median, q3 = np.percentile(values, [25, 50, 75], method="linear")
    iqr = q3 - q1
    exact = sorted(map(Fraction, values))
    eq1, eq3 = (_linear_quantile(exact, Fraction(k, 4)) for k in (1, 3))
    reach = Fraction(3, 2) * (eq3 - eq1)
    fence_lo, fence_hi = eq1 - reach, eq3 + reach
    outliers = [v for v in values if not fence_lo <= Fraction(v) <= fence_hi]
    return FiveNumberSummary(float(q1), float(median), float(q3),
                             float(q1 - 1.5 * iqr), float(q3 + 1.5 * iqr), outliers)


def positive_slope_flags(alphas: list[float], gaps: list[float]) -> list[bool]:
    """Central-difference slope on log(alpha) with a dead band.

    Endpoint slopes use the one-sided difference. A point is flagged
    when the slope exceeds ``SLOPE_DEAD_BAND``.
    """
    k = len(alphas)
    if k < 2:
        return [False] * k
    logs = [math.log(a) for a in alphas]
    flags = []
    for i in range(k):
        lo, hi = max(i - 1, 0), min(i + 1, k - 1)
        slope = (gaps[hi] - gaps[lo]) / (logs[hi] - logs[lo])
        flags.append(slope > SLOPE_DEAD_BAND)
    return flags


_task_fn = None  # the running pool's fn, set before its workers fork


def _run_task(task):
    return _task_fn(task)


def _map_tasks(fn, tasks: Iterable, count: int | None = None) -> list:
    """``[fn(task) for task in tasks]``, on every CPU.

    ``count`` is the number of tasks, needed when ``tasks`` has no length.
    With two or more tasks and CPUs (``_cpus``), the tasks run in a pool
    of ``min(CPUs, tasks)`` forked workers (every system with an affinity
    mask has ``fork``). ``fn`` and the stream it closes over reach the
    workers through the fork, unpickled, where ``spawn`` would import numpy
    again and pickle the stream into every worker; a task and its result
    are pickled. The pool forks its workers before it starts its own
    thread, and OpenBLAS stops its threads before a fork
    (``pthread_atfork``). While the pool runs, ``propagator._pool_busy`` is
    set here and, through the fork, in the workers, so no walk of either
    starts a factor thread. ``tasks`` is drawn lazily, with at most two
    tasks per worker in flight, and results come back in task order
    (``propagator._in_order``): the first failure in that order raises its
    own exception, as the serial loop would, a failed task or ``tasks``
    itself raising after the tasks before it. A worker that dies raises
    ``BrokenProcessPool``. Every worker is joined before this returns or
    raises.
    """
    workers = min(_cpus(), len(tasks) if count is None else count)
    if workers < 2:
        return [fn(task) for task in tasks]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _task_fn
    _task_fn, propagator._pool_busy = fn, True
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    try:
        return list(_in_order((pool.submit(_run_task, task) for task in tasks),
                              2 * workers - 1))
    finally:
        pool.shutdown(cancel_futures=True)
        _task_fn, propagator._pool_busy = None, False


def run_ensemble(stream: EventStream, config: ExperimentConfig
                 ) -> tuple[list[ExperimentRecord], list[tuple[str, float, FiveNumberSummary]]]:
    """Original vs. randomized spectral gaps of M(T), per method and alpha.

    A task is one member: the original stream, then each method's members
    in seed order, seeded by the documented (seed, member-index) split
    rule. Each member is drawn, propagated at every alpha and dropped
    before its task returns, so each worker holds one member at a time.
    """
    def member_task(draw):
        method, seed = draw
        member = stream if seed is None else randomize(stream, RandomizerSpec(method, seed))
        return (member.horizon, len(member.times),
                [spectral_gap(propagate(member, a).matrix) for a in config.alphas])

    draws = [("original", None)] + [(method, member_seed(config.seed, i))
                                    for method in config.methods
                                    for i in range(config.ensemble)]
    results = _map_tasks(member_task, draws)
    records: list[ExperimentRecord] = []
    gaps: dict[tuple[str, float], list[float]] = {}
    for (method, seed), (horizon, n_events, member_gaps) in zip(draws, results):
        for alpha, gap in zip(config.alphas, member_gaps):
            gaps.setdefault((method, alpha), []).append(gap)
            records.append(ExperimentRecord(
                "ensemble", method, alpha, seed, horizon, n_events, gap))
    summaries = [(method, alpha, summary_stats(g))
                 for (method, alpha), g in gaps.items() if method != "original"]
    return records, summaries


def run_alpha_sweep(stream: EventStream, config: ExperimentConfig
                    ) -> list[ExperimentRecord]:
    """Gap of M(T) per alpha, with positive-slope intervals flagged."""
    T = stream.horizon
    n_events = len(stream.times)
    alphas = sorted(config.alphas)
    gaps = _map_tasks(lambda a: spectral_gap(propagate(stream, a).matrix), alphas)
    flags = positive_slope_flags(alphas, gaps)
    return [
        ExperimentRecord("alpha_sweep", "original", a, None, T, n_events,
                         g, flags="positive_slope" if f else "")
        for a, g, f in zip(alphas, gaps, flags)
    ]


def _series_row(M: np.ndarray, Y: IntervalFactor | None) -> tuple[float, float | None, str]:
    """Gap, shrinkage ratio and flags of the time-series row of M(t_n),
    from one eigenvalue solve; ``Y`` is the factor over the following
    interval, None on the last row."""
    spectrum = magnitude_spectrum(M)
    gap = spectrum.gap()
    if Y is None:
        return gap, None, "last_event_time"
    try:
        return gap, shrinkage_ratio(M, Y, spectrum), ""
    except DegenerateFiedlerError:
        return gap, None, "degenerate_fiedler"
    except DefectiveEigenpairError:
        return gap, None, "defective_eigenpair"


def _batched(items: Iterable, size: int):
    """Lists of ``size`` consecutive items, the last one shorter. If
    ``items`` raises, the items before the error are yielded first."""
    batch = []
    try:
        for item in items:
            batch.append(item)
            if len(batch) == size:
                yield batch
                batch = []
    except Exception:
        if batch:
            yield batch
        raise
    if batch:
        yield batch


def run_time_series(stream: EventStream, config: ExperimentConfig
                    ) -> list[ExperimentRecord]:
    """Gap of M(t_n) and Fiedler shrinkage at every distinct event time.

    M(t_n) is the propagator just before the events at t_n; the
    shrinkage pairs it with the factor Y(t_n+) over the following
    interval. The final event time has no following interval and is
    flagged; steps with a degenerate Fiedler direction or a numerically
    defective eigenvector pair are flagged rather than guessed.

    Each row solves for the eigenvalues of M(t_n) once. They give the
    gap, the Fiedler separation test and lambda_2, so no row runs an
    eigenvector solve: rows whose |lambda_2| is separated from
    |lambda_1| and |lambda_3| get their Fiedler vectors from linear
    solves (``spectral.fiedler_left``).

    This process walks the factors, alpha after alpha, and hands each
    row's (M(t_n), Y) to ``_map_tasks`` in batches of ``_ROW_BATCH``
    rows, so the rows' eigen-analysis runs on every CPU.
    Without the pool, the walk may use a factor thread instead; a row
    that raises closes the walk, which joins that thread, before the
    error leaves.
    """
    groups = group_event_times(stream)

    def rows():
        for alpha in config.alphas:
            M = np.eye(stream.node_count)
            # one factor per group but the last, which has no following interval
            with closing(iter_factors(stream, alpha)) as factors:
                for _, Y in zip_longest(groups, factors):
                    yield M.copy(), Y
                    if Y is not None:
                        Y.apply(M)

    def solve(batch):
        return [_series_row(M, Y) for M, Y in batch]

    n_rows = len(groups) * len(config.alphas)
    with closing(rows()) as walk:
        batches = _map_tasks(solve, _batched(walk, _ROW_BATCH), -(-n_rows // _ROW_BATCH))
    results = (row for batch in batches for row in batch)
    return [ExperimentRecord("time_series", "original", alpha, None, t_k, stop - start,
                             gap, ratio, flags)
            for alpha in config.alphas
            for (t_k, start, stop), (gap, ratio, flags) in zip(groups, results)]


def run_aggregate_compare(stream: EventStream, config: ExperimentConfig
                          ) -> list[ExperimentRecord]:
    """Tie-decay gap of M(T) next to the aggregate-network gap at T."""
    T = stream.horizon
    n_events = len(stream.times)

    def gaps(alpha):
        if T <= 0:
            # all events at t0: no time elapses, so both maps are identity
            return 0.0, 0.0
        tie_gap = spectral_gap(propagate(stream, alpha).matrix)
        agg = aggregate_weights(stream, alpha)
        return tie_gap, spectral_gap(aggregate_propagator(agg, T))

    records: list[ExperimentRecord] = []
    pairs = _map_tasks(gaps, config.alphas)
    for alpha, (tie_gap, agg_gap) in zip(config.alphas, pairs):
        records.append(ExperimentRecord(
            "aggregate_compare", "tie_decay", alpha, None, T, n_events, tie_gap))
        records.append(ExperimentRecord(
            "aggregate_compare", "aggregate", alpha, None, T, n_events, agg_gap))
    return records


# ---------------------------------------------------------------------------
# CSV output


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def records_to_csv(records: list[ExperimentRecord]) -> str:
    """Canonical CSV: rows sorted by (method, alpha, seed, t_n)."""
    lines = [CSV_HEADER]
    for r in sorted(records, key=ExperimentRecord.sort_key):
        lines.append(",".join([
            r.mode, r.method, _fmt(r.alpha), _fmt(r.seed), _fmt(r.t_n),
            _fmt(r.event_count), _fmt(r.gap), _fmt(r.shrinkage_ratio),
            r.flags,
        ]))
    return "\n".join(lines) + "\n"


def summaries_to_csv(summaries: list[tuple[str, float, FiveNumberSummary]]) -> str:
    lines = [SUMMARY_HEADER]
    for method, alpha, s in sorted(summaries, key=lambda x: (x[0], x[1])):
        lines.append(",".join([
            method, _fmt(alpha), _fmt(s.q1), _fmt(s.median), _fmt(s.q3),
            _fmt(s.lo), _fmt(s.hi), str(len(s.outliers)),
        ]))
    return "\n".join(lines) + "\n"


def load_stream(config: ExperimentConfig) -> EventStream:
    if not config.input:
        raise ValueError("no input path configured")
    text = Path(config.input).read_text()
    stream = parse_events(text, directed=config.directed)
    if config.min_edges > 0:
        stream = exclude_low_degree_nodes(stream, config.min_edges)
    return stream


def run(config: ExperimentConfig) -> list[ExperimentRecord]:
    """Load input, dispatch on mode, and write CSV output if configured."""
    stream = load_stream(config)
    summaries: list[tuple[str, float, FiveNumberSummary]] = []
    if config.mode == "ensemble":
        records, summaries = run_ensemble(stream, config)
    elif config.mode == "alpha_sweep":
        records = run_alpha_sweep(stream, config)
    elif config.mode == "time_series":
        records = run_time_series(stream, config)
    elif config.mode == "aggregate_compare":
        records = run_aggregate_compare(stream, config)
    else:
        raise ValueError(f"unknown mode {config.mode!r}")

    if config.out:
        out = Path(config.out)
        out.write_text(records_to_csv(records), encoding="utf-8", newline="\n")
        if summaries:
            summary_path = out.with_name(out.stem + "_summary.csv")
            summary_path.write_text(summaries_to_csv(summaries),
                                    encoding="utf-8", newline="\n")
    return records
