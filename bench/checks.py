"""Output checks for the benchmark, against references computed apart from tiedyn.

Every check returns a list of problems; an empty list means the output
passed. References use numpy and ``scipy.linalg.expm`` on the
generator's own arrays, never a stored CSV. OpenBLAS picks kernels per
CPU, so matrices are compared at a tolerance rather than bit for bit.

The CSV reader tolerates one known output fault: under numpy >= 2,
``experiments._fmt`` writes numpy floats as ``np.float64(x)``. Such a
row still yields its numbers for the checks, but counts as a failed
operation, since a plain CSV consumer cannot parse it.

``python3 bench/checks.py`` runs the self-test: each check is fed a
perturbed input and must report it.
"""

from __future__ import annotations

import math
import re
import statistics
from collections import Counter
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from gen import Stream

CSV_HEADER = "mode,method,alpha,seed,t_n,event_count,gap,shrinkage_ratio,flags"
SUMMARY_HEADER = "method,alpha,q1,median,q3,lo,hi,n_outliers"
SLOPE_DEAD_BAND = 1e-9
MATRIX_TOL = 1e-10
GAP_TOL = 1e-9
SUMMARY_TOL = 1e-12
EPS = float(np.finfo(float).eps)

_NP_FLOAT = re.compile(r"np\.float64\((.*)\)")


# ---------------------------------------------------------------------------
# CSV reading


@dataclass
class Row:
    """One CSV line: raw text fields, parsed numbers, and whether it failed."""

    fields: dict[str, str]
    nums: dict[str, float | None]
    failed: bool


def read_csv(text: str, header: str, numeric: tuple[str, ...]) -> tuple[list[Row], list[str]]:
    """Parse CSV rows; returns (rows, problems)."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [], [f"bad CSV header {lines[:1]!r}"]
    names = header.split(",")
    rows, problems = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        values = line.split(",")
        if len(values) != len(names):
            problems.append(f"line {lineno}: {len(values)} fields")
            continue
        fields = dict(zip(names, values))
        nums: dict[str, float | None] = {}
        failed = False
        for name in numeric:
            text_value = fields[name]
            match = _NP_FLOAT.fullmatch(text_value)
            if match:
                failed = True
                text_value = match.group(1)
            try:
                nums[name] = float(text_value) if text_value else None
            except ValueError:
                problems.append(f"line {lineno}: {name}={fields[name]!r}")
                nums[name] = None
        rows.append(Row(fields, nums, failed))
    return rows, problems


def read_records(text: str) -> tuple[list[Row], list[str]]:
    return read_csv(text, CSV_HEADER, ("alpha", "seed", "t_n", "event_count",
                                       "gap", "shrinkage_ratio"))


def read_summaries(text: str) -> tuple[list[Row], list[str]]:
    return read_csv(text, SUMMARY_HEADER, ("alpha", "q1", "median", "q3", "lo",
                                           "hi", "n_outliers"))


# ---------------------------------------------------------------------------
# Independent references


def timeline(stream: Stream, n: int, alpha: float):
    """Yield (k, dt, W) per interval: W holds the tie weights just after
    the events at the k-th distinct time, dt the gap to the next one."""
    times, starts = np.unique(stream.t, return_index=True)
    ends = list(starts[1:]) + [len(stream.t)]
    W = np.zeros((n, n))
    for k in range(len(times) - 1):
        if k:
            W *= math.exp(-alpha * (times[k] - times[k - 1]))
        s, e = starts[k], ends[k]
        np.add.at(W, (stream.i[s:e], stream.j[s:e]), 1.0)
        np.add.at(W, (stream.j[s:e], stream.i[s:e]), 1.0)
        yield k, float(times[k + 1] - times[k]), W


def laplacian(W: np.ndarray) -> np.ndarray:
    return np.diag(W.sum(axis=1)) - W


def reference_products(stream: Stream, n: int, alpha: float, stops: int
                       ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """M(t_k) for k = 0..stops, the product of the first k interval
    factors expm(c L^T) with c = (e^{-alpha dt} - 1)/alpha, and the
    factors themselves."""
    products, factors = [np.eye(n)], []
    for k, dt, W in timeline(stream, n, alpha):
        if k >= stops:
            break
        c = math.expm1(-alpha * dt) / alpha
        factors.append(scipy.linalg.expm(c * laplacian(W).T))
        products.append(products[-1] @ factors[-1])
    return products, factors


def live_node_share(stream: Stream, alpha: float) -> float:
    """Mean share of nodes with a tie whose |c|*w is resolvable in double
    precision, over all intervals."""
    size = int(max(stream.i.max(), stream.j.max())) + 1
    nodes = len(np.unique(np.concatenate([stream.i, stream.j])))
    shares = []
    for _, dt, W in timeline(stream, size, alpha):
        c = -math.expm1(-alpha * dt) / alpha
        shares.append(np.count_nonzero((c * W >= EPS).any(axis=1)) / nodes)
    return float(np.mean(shares))


def eig_magnitudes(M: np.ndarray) -> np.ndarray:
    return np.sort(np.abs(np.linalg.eigvals(M)))[::-1]


def gap_of(M: np.ndarray) -> float:
    mags = eig_magnitudes(M)
    return float(np.clip(1.0 - mags[1], 0.0, 1.0)) if len(mags) > 1 else 0.0


def fiedler_shrinkage(M: np.ndarray, Y: np.ndarray) -> tuple[float, float]:
    """(||v2 Y|| / ||v2||, separation) for the left eigenvector v2 of M with
    the second-largest eigenvalue magnitude. The separation is the smaller
    of |lambda_1| - |lambda_2| and |lambda_2| - |lambda_3|; v2 is unique
    only when it is positive."""
    vals, vecs = np.linalg.eig(M.T)
    order = np.argsort(-np.abs(vals), kind="stable")
    mags = np.abs(vals[order])
    v2 = vecs[:, order[1]]
    sep = min(mags[0] - mags[1], mags[1] - mags[2] if len(mags) > 2 else 1.0)
    return float(np.linalg.norm(v2 @ Y) / np.linalg.norm(v2)), float(sep)


def slope_flags(alphas: list[float], gaps: list[float]) -> list[bool]:
    """Central difference of gap over log(alpha), one-sided at the ends."""
    logs = [math.log(a) for a in alphas]
    k = len(alphas)
    if k < 2:
        return [False] * k
    return [(gaps[min(x + 1, k - 1)] - gaps[max(x - 1, 0)])
            / (logs[min(x + 1, k - 1)] - logs[max(x - 1, 0)]) > SLOPE_DEAD_BAND
            for x in range(k)]


def exclude_low_degree(stream: Stream, min_edges: int) -> Stream:
    """Drop events on nodes with fewer than ``min_edges`` distinct
    neighbours, repeated until no node is dropped."""
    keep = np.ones(len(stream.t), dtype=bool)
    while True:
        i, j = stream.i[keep], stream.j[keep]
        pairs = np.unique(np.stack([np.minimum(i, j), np.maximum(i, j)]), axis=1)
        degree = np.bincount(pairs.ravel(), minlength=int(max(stream.i.max(), stream.j.max())) + 1)
        low = degree < min_edges
        drop = keep & (low[stream.i] | low[stream.j])
        if not drop.any():
            return Stream(stream.t[keep], stream.i[keep], stream.j[keep])
        keep &= ~drop


def aggregate_weights(stream: Stream, t0: float, alpha: float) -> tuple[np.ndarray, float]:
    """Closed-form time-averaged tie weights and the horizon T."""
    nodes, idx = np.unique(np.concatenate([stream.i, stream.j]), return_inverse=True)
    n, m = len(nodes), len(stream.t)
    t = stream.t - t0
    T = float(t[-1])
    contrib = -np.expm1(-alpha * (T - t)) / (alpha * T)
    W = np.zeros((n, n))
    np.add.at(W, (idx[:m], idx[m:]), contrib)
    np.add.at(W, (idx[m:], idx[:m]), contrib)
    return W, T


# ---------------------------------------------------------------------------
# Checks


def check_propagator(M: np.ndarray, what: str) -> list[str]:
    """Non-negative, column sums 1, |lambda_1| = 1, gap in [0, 1]."""
    problems = []
    if M.min() < -1e-12:
        problems.append(f"{what}: negative entry {M.min():.3g}")
    drift = float(np.max(np.abs(M.sum(axis=0) - 1.0)))
    if drift > 1e-9:
        problems.append(f"{what}: column sums off by {drift:.3g}")
    mags = eig_magnitudes(M)
    if abs(mags[0] - 1.0) > 1e-9:
        problems.append(f"{what}: |lambda_1| = {mags[0]!r}")
    gap = 1.0 - mags[1]
    if not -1e-12 <= gap <= 1.0:
        problems.append(f"{what}: gap {gap!r} outside [0, 1]")
    return problems


def check_count(rows: list, expected: int, what: str) -> list[str]:
    return [] if len(rows) == expected else [f"{what}: {len(rows)} rows, expected {expected}"]


def check_gaps(rows: list[Row]) -> list[str]:
    return [f"gap {r.fields['gap']!r} outside [0, 1]" for r in rows
            if r.nums["gap"] is None or not 0.0 <= r.nums["gap"] <= 1.0]


def check_sweep_rows(rows: list[Row], alphas: list[float], horizon: float,
                     events: int) -> list[str]:
    problems = check_count(rows, len(alphas), "alpha-sweep")
    if problems:
        return problems
    problems += check_gaps(rows)
    got = [r.nums["alpha"] for r in rows]
    if not np.allclose(got, alphas, rtol=1e-15, atol=0):
        problems.append(f"alphas {got} differ from the grid {alphas}")
    for r in rows:
        if (r.nums["t_n"], r.nums["event_count"]) != (horizon, events):
            problems.append(f"alpha {r.fields['alpha']}: t_n/event_count "
                            f"{r.fields['t_n']}/{r.fields['event_count']}")
    want = slope_flags(alphas, [r.nums["gap"] for r in rows])
    for r, flag in zip(rows, want):
        if r.fields["flags"] != ("positive_slope" if flag else ""):
            problems.append(f"alpha {r.fields['alpha']}: flags "
                            f"{r.fields['flags']!r}, expected positive_slope={flag}")
    return problems


def check_prefix(captured: list[np.ndarray], reference: list[np.ndarray],
                 what: str) -> list[str]:
    problems = []
    for k, (M, R) in enumerate(zip(captured, reference)):
        problems += check_propagator(M, f"{what} M#{k}")
        err = float(np.max(np.abs(M - R)))
        if err > MATRIX_TOL:
            problems.append(f"{what} M#{k}: differs from expm reference by {err:.3g}")
    return problems


def check_time_series_rows(rows: list[Row], stream: Stream) -> list[str]:
    times, counts = np.unique(stream.t, return_counts=True)
    problems = check_count(rows, len(times), "time-series")
    if problems:
        return problems
    problems += check_gaps(rows)
    if rows[0].nums["gap"] != 0.0:
        problems.append(f"first gap is {rows[0].fields['gap']}, not 0")
    for k, r in enumerate(rows):
        last = k == len(rows) - 1
        flags = r.fields["flags"].split(";") if r.fields["flags"] else []
        if ("last_event_time" in flags) != last:
            problems.append(f"row {k}: flags {r.fields['flags']!r}")
        if r.nums["t_n"] != times[k] - times[0] or r.nums["event_count"] != counts[k]:
            problems.append(f"row {k}: t_n/event_count "
                            f"{r.fields['t_n']}/{r.fields['event_count']}")
        ratio = r.nums["shrinkage_ratio"]
        if (ratio is None) != bool(flags):
            problems.append(f"row {k}: ratio {r.fields['shrinkage_ratio']!r} "
                            f"with flags {r.fields['flags']!r}")
        elif ratio is not None and not 0.0 < ratio <= 1.0 + 1e-12:
            problems.append(f"row {k}: shrinkage ratio {ratio!r} outside (0, 1]")
    return problems


def check_time_series_prefix(rows: list[Row], reference: list[np.ndarray],
                             factors: list[np.ndarray]) -> list[str]:
    """Gaps of the first rows against reference M(t_k); shrinkage ratios
    where the reference Fiedler direction is clearly separated."""
    problems = []
    for k, M in enumerate(reference):
        r = rows[k]
        if abs(gap_of(M) - r.nums["gap"]) > GAP_TOL:
            problems.append(f"row {k}: gap {r.fields['gap']} vs reference {gap_of(M)!r}")
        if k < len(factors) and r.nums["shrinkage_ratio"] is not None:
            ratio, sep = fiedler_shrinkage(M, factors[k])
            if sep > 1e-6 and abs(ratio - r.nums["shrinkage_ratio"]) > 1e-6:
                problems.append(f"row {k}: shrinkage {r.fields['shrinkage_ratio']} "
                                f"vs reference {ratio!r}")
    return problems


def check_aggregate_rows(rows: list[Row], alphas: list[float], weights_of,
                         horizon: float, events: int) -> list[str]:
    """``weights_of(alpha)`` gives the reference aggregate weights."""
    problems = check_count(rows, 2 * len(alphas), "aggregate-compare")
    if problems:
        return problems
    problems += check_gaps(rows)
    for r in rows:
        if (r.nums["t_n"], r.nums["event_count"]) != (horizon, events):
            problems.append(f"{r.fields['method']}: t_n/event_count "
                            f"{r.fields['t_n']}/{r.fields['event_count']}")
    for alpha in alphas:
        agg = [r for r in rows if r.fields["method"] == "aggregate"
               and r.nums["alpha"] == alpha]
        if len(agg) != 1:
            problems.append(f"alpha {alpha}: {len(agg)} aggregate rows")
            continue
        want = gap_of(scipy.linalg.expm(-horizon * laplacian(weights_of(alpha)).T))
        if abs(want - agg[0].nums["gap"]) > GAP_TOL:
            problems.append(f"alpha {alpha}: aggregate gap {agg[0].fields['gap']} "
                            f"vs reference {want!r}")
    return problems


def _edge_times(stream) -> dict[tuple[int, int], list[float]]:
    return {k: sorted(v) for k, v in stream.edge_event_index().items()}


def member_invariants(method: str, original, member) -> list[str]:
    """The per-method invariants of acceptance criterion 6."""
    before, after = _edge_times(original), _edge_times(member)
    counts = lambda idx: {k: len(v) for k, v in idx.items()}
    stamps = lambda s: Counter(e.time for e in s.events)
    problems = []
    if method == "interval_shuffling":
        gaps = lambda idx: {k: Counter(np.diff(v).round(9).tolist()) for k, v in idx.items()}
        ok = (gaps(after) == gaps(before) and counts(after) == counts(before)
              and all(after[k][0] == v[0] and after[k][-1] == v[-1]
                      for k, v in before.items()))
    elif method == "shuffled_time_stamps":
        ok = stamps(member) == stamps(original) and counts(after) == counts(before)
    elif method == "random_times":
        ok = (counts(after) == counts(before)
              and all(0 <= e.time <= original.horizon for e in member.events))
    else:
        degrees = lambda idx: sorted(Counter(n for k in idx for n in k).values())
        ok = stamps(member) == stamps(original) and degrees(after) == degrees(before)
    if not ok:
        problems.append(f"{method} member breaks the method's invariants")
    return problems


def check_summaries(rows: list[Row], summaries: list[Row]) -> list[str]:
    """Five-number summaries recomputed from the CSV gaps."""
    problems = []
    groups: dict[tuple[str, float], list[float]] = {}
    for r in rows:
        if r.fields["method"] != "original":
            groups.setdefault((r.fields["method"], r.nums["alpha"]), []).append(r.nums["gap"])
    problems += check_count(summaries, len(groups), "ensemble summary")
    for s in summaries:
        gaps = groups.get((s.fields["method"], s.nums["alpha"]))
        if gaps is None:
            problems.append(f"summary for unknown group {s.fields['method']}")
            continue
        q1, med, q3 = (statistics.quantiles(gaps, n=4, method="inclusive")
                       if len(gaps) > 1 else gaps * 3)
        lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
        got = [s.nums[k] for k in ("q1", "median", "q3", "lo", "hi")]
        if not np.allclose(got, [q1, med, q3, lo, hi], rtol=0, atol=SUMMARY_TOL):
            problems.append(f"summary {s.fields['method']}: {got} vs "
                            f"{[q1, med, q3, lo, hi]}")
        # a gap within SUMMARY_TOL of a whisker may fall on either side
        sure = sum(g < lo - SUMMARY_TOL or g > hi + SUMMARY_TOL for g in gaps)
        maybe = sum(g < lo + SUMMARY_TOL or g > hi - SUMMARY_TOL for g in gaps)
        if not sure <= s.nums["n_outliers"] <= maybe:
            problems.append(f"summary {s.fields['method']}: {s.fields['n_outliers']} "
                            f"outliers, expected {sure}..{maybe}")
    return problems


# ---------------------------------------------------------------------------
# Self-test: every check must reject a perturbed input.


def self_test() -> list[str]:
    """Return the checks that accepted a perturbed input (empty on success)."""
    rng = np.random.default_rng(0)
    escaped = []

    W = rng.random((5, 5))
    W = np.triu(W, 1) + np.triu(W, 1).T
    Y = scipy.linalg.expm(-0.3 * laplacian(W).T)
    bad = Y.copy()
    bad[0, 1] -= 0.5
    bad[1, 1] += 0.5
    if check_propagator(Y, "factor") or not check_propagator(bad, "factor"):
        escaped.append("check_propagator: factor with a negative entry")

    alphas = [1.0, 2.0, 4.0, 8.0]
    gaps = [0.2, 0.5, 0.4, 0.4]
    flags = slope_flags(alphas, gaps)
    text = CSV_HEADER + "\n" + "".join(
        f"alpha_sweep,original,{a!r},,10,3,{g!r},,{'positive_slope' if f else ''}\n"
        for a, g, f in zip(alphas, gaps, flags))
    rows, _ = read_records(text)
    flipped, _ = read_records(text.replace("positive_slope", "", 1))
    if (check_sweep_rows(rows, alphas, 10.0, 3)
            or not check_sweep_rows(flipped, alphas, 10.0, 3)):
        escaped.append("check_sweep_rows: flipped slope flag")
    if not check_sweep_rows(rows[:-1], alphas, 10.0, 3):
        escaped.append("check_sweep_rows: changed row count")

    stream = Stream(np.array([0, 10, 20, 30]), np.array([0, 1, 2, 0]),
                    np.array([1, 2, 3, 2]))
    good, T = aggregate_weights(stream, 0.0, 0.1)
    gap = gap_of(scipy.linalg.expm(-T * laplacian(good).T))
    text = CSV_HEADER + "\n" + "".join(
        f"aggregate_compare,{m},0.1,,30,4,{gap!r},,\n" for m in ("aggregate", "tie_decay"))
    rows, _ = read_records(text)
    wrong = good.copy()
    wrong[0, 1] += 0.5
    wrong[1, 0] += 0.5
    if (check_aggregate_rows(rows, [0.1], lambda a: good, T, 4)
            or not check_aggregate_rows(rows, [0.1], lambda a: wrong, T, 4)):
        escaped.append("check_aggregate_rows: wrong aggregate weight")
    return escaped


if __name__ == "__main__":
    import sys

    failures = self_test()
    for f in failures:
        print(f"self-test FAILED: {f}")
    print("self-test passed" if not failures else "self-test failed")
    sys.exit(1 if failures else 0)
