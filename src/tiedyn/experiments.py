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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .aggregate import aggregate_propagator, aggregate_weights
from .events import (EventStream, exclude_low_degree_nodes, format_float,
                     group_event_times, parse_events)
from .propagator import iter_factors, propagate
from .randomize import (METHODS, RandomizerSpec, member_seed, randomize)
from .spectral import (DefectiveEigenpairError, DegenerateFiedlerError,
                       magnitude_spectrum, shrinkage_ratio, spectral_gap)

SLOPE_DEAD_BAND = 1e-9

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


def run_ensemble(stream: EventStream, config: ExperimentConfig
                 ) -> tuple[list[ExperimentRecord], list[tuple[str, float, FiveNumberSummary]]]:
    """Original vs. randomized spectral gaps of M(T), per method and alpha.

    One loop over members: the original stream, then each method's
    members in seed order, seeded by the documented (seed, member-index)
    split rule. Each member is drawn once, propagated at every alpha and
    dropped before the next one is drawn.
    """
    records: list[ExperimentRecord] = []
    gaps: dict[tuple[str, float], list[float]] = {}
    draws = [("original", None)] + [(method, member_seed(config.seed, i))
                                    for method in config.methods
                                    for i in range(config.ensemble)]
    for method, seed in draws:
        member = stream if seed is None else randomize(stream, RandomizerSpec(method, seed))
        for alpha in config.alphas:
            gap = spectral_gap(propagate(member, alpha).matrix)
            gaps.setdefault((method, alpha), []).append(gap)
            records.append(ExperimentRecord(
                "ensemble", method, alpha, seed, member.horizon,
                len(member.events), gap))
        del member
    summaries = [(method, alpha, summary_stats(g))
                 for (method, alpha), g in gaps.items() if method != "original"]
    return records, summaries


def run_alpha_sweep(stream: EventStream, config: ExperimentConfig
                    ) -> list[ExperimentRecord]:
    """Gap of M(T) per alpha, with positive-slope intervals flagged."""
    T = stream.horizon
    n_events = len(stream.events)
    alphas = sorted(config.alphas)
    gaps = [spectral_gap(propagate(stream, a).matrix) for a in alphas]
    flags = positive_slope_flags(alphas, gaps)
    return [
        ExperimentRecord("alpha_sweep", "original", a, None, T, n_events,
                         g, flags="positive_slope" if f else "")
        for a, g, f in zip(alphas, gaps, flags)
    ]


def run_time_series(stream: EventStream, config: ExperimentConfig
                    ) -> list[ExperimentRecord]:
    """Gap of M(t_n) and Fiedler shrinkage at every distinct event time.

    M(t_n) is the propagator just before the events at t_n; the
    shrinkage pairs it with the factor Y(t_n+) over the following
    interval. The final event time has no following interval and is
    flagged; steps with a degenerate Fiedler direction or a numerically
    defective eigenvector pair are flagged rather than guessed.

    Each step solves for the eigenvalues of M(t_n) once. They give the
    gap and the Fiedler separation test, so the eigenvector solve runs
    only on rows whose |lambda_2| is separated from |lambda_1| and
    |lambda_3|.
    """
    records: list[ExperimentRecord] = []
    groups = group_event_times(stream)
    for alpha in config.alphas:
        M = np.eye(stream.node_count)
        # one factor per group but the last, which has no following interval
        for (t_k, evs), Y in zip_longest(groups, iter_factors(stream, alpha)):
            spectrum = magnitude_spectrum(M)
            gap = spectrum.gap()
            flags = []
            ratio = None
            if Y is not None:
                try:
                    spectrum.require_fiedler()
                    ratio = shrinkage_ratio(M, Y)
                except DegenerateFiedlerError:
                    flags.append("degenerate_fiedler")
                except DefectiveEigenpairError:
                    flags.append("defective_eigenpair")
                Y.apply(M)
            else:
                flags.append("last_event_time")
            records.append(ExperimentRecord(
                "time_series", "original", alpha, None, t_k, len(evs),
                gap, ratio, ";".join(flags)))
    return records


def run_aggregate_compare(stream: EventStream, config: ExperimentConfig
                          ) -> list[ExperimentRecord]:
    """Tie-decay gap of M(T) next to the aggregate-network gap at T."""
    records: list[ExperimentRecord] = []
    T = stream.horizon
    n_events = len(stream.events)
    for alpha in config.alphas:
        if T <= 0:
            # all events at t0: no time elapses, so both maps are identity
            tie_gap = agg_gap = 0.0
        else:
            tie_gap = spectral_gap(propagate(stream, alpha).matrix)
            agg = aggregate_weights(stream, alpha)
            agg_gap = spectral_gap(aggregate_propagator(agg, T))
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
