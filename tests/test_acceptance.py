"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see
them). Criteria over the six empirical contact datasets only run when
the files are present (TIEDYN_DATA_DIR or ./data); everything else is
self-contained.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from tiedyn.aggregate import aggregate_propagator, aggregate_weights
from tiedyn.events import (EventStream, exclude_low_degree_nodes, group_event_times,
                           parse_events, stream_stats)
from tiedyn.propagator import (evolve_opinions, interval_factor, iter_factors,
                               propagate)
from tiedyn.randomize import (interval_shuffle, random_edge_shuffle,
                              random_times, shuffle_time_stamps)
from tiedyn.spectral import shrinkage_ratio, spectral_gap
from tiedyn.experiments import ExperimentConfig, positive_slope_flags, run_alpha_sweep

from conftest import dense_intervals, rk4_lockstep
from test_aggregate import time_averaged_weights

FIXTURES = Path(__file__).parent / "fixtures"
DATA_DIR = Path(os.environ.get("TIEDYN_DATA_DIR", "data"))

DATASETS = {
    "hypertext": (113, 2196, 20818),
    "workplace": (92, 755, 9827),
    "hospital": (75, 1139, 32424),
    "primary_school": (242, 8317, 125773),
    "high_school": (126, 1710, 28561),
    "reality_mining": (64, 722, 13131),
}


def report(number, name, ok):
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {number}: {name}")
    assert ok, f"criterion {number} ({name}) failed"


def random_stream(seed, n_max, max_events, horizon=10.0):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    n_events = int(rng.integers(2, max_events + 1))
    times = np.sort(rng.uniform(0, horizon, size=n_events))
    times -= times[0]
    pairs = np.array([rng.choice(n, size=2, replace=False) for _ in times])
    return EventStream(times, pairs[:, 0], pairs[:, 1], n, tuple(map(str, range(n))))


def test_criterion_1_stochasticity():
    start = time.time()
    ok = True
    for seed in range(100):
        stream = random_stream(seed, n_max=10, max_events=50)
        for alpha in (0.01, 1.0, 100.0):
            M = np.eye(stream.node_count)
            for fac in iter_factors(stream, alpha):
                ok &= np.min(fac.matrix) >= -1e-12
                ok &= np.max(np.abs(fac.matrix.sum(axis=0) - 1.0)) <= 1e-10
                M = M @ fac.matrix
            w = np.abs(np.linalg.eigvals(M))
            ok &= abs(w.max() - 1.0) <= 1e-8
            ones = np.ones(stream.node_count)
            image = ones @ M
            cos = (image @ ones) / (np.linalg.norm(image) * math.sqrt(len(ones)))
            ok &= cos >= 1 - 1e-8
    elapsed = time.time() - start
    report(1, f"stochasticity suite ({elapsed:.1f}s)", ok and elapsed < 30)


def test_criterion_2_consensus_and_conservation():
    start = time.time()
    ok = True
    for seed in range(20):
        stream = random_stream(seed, n_max=8, max_events=30)
        n = stream.node_count
        c = 2.5
        x = evolve_opinions(c * np.ones(n), stream, 1.0)
        ok &= np.max(np.abs(x - c)) <= 1e-10
        x0 = np.random.default_rng(seed).normal(size=n)
        x = x0.copy()
        for fac in iter_factors(stream, 0.5):
            x = x @ fac.matrix
            ok &= abs(x.sum() - x0.sum()) <= 1e-8
    elapsed = time.time() - start
    report(2, f"consensus and conservation ({elapsed:.1f}s)",
           ok and elapsed < 10)


def test_criterion_3_ode_oracle():
    start = time.time()
    cases = []
    for seed in range(20):
        stream = random_stream(seed, n_max=6, max_events=30, horizon=4.0)
        rng = np.random.default_rng(1000 + seed)
        alpha = float(rng.choice([0.1, 1.0, 10.0]))
        cases.append((rng.normal(size=stream.node_count), stream, alpha))
    oracle = rk4_lockstep(cases, step=1e-4)
    ok = True
    for (x0, stream, alpha), b in zip(cases, oracle):
        a = evolve_opinions(x0, stream, alpha)
        ok &= np.max(np.abs(a - b)) <= 1e-6
    elapsed = time.time() - start
    report(3, f"ODE oracle equivalence ({elapsed:.1f}s)",
           ok and elapsed < 120)


def test_criterion_4_degroot_correspondence():
    ok = True
    for seed in range(20):
        stream = random_stream(seed, n_max=6, max_events=20)
        alpha = 0.7
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=stream.node_count)
        times = [t for t, _, _ in group_event_times(stream)]
        upto = times[-1]
        via_m = x0 @ propagate(stream, alpha, upto=upto).matrix
        # product of the discrete-time transitions along the event times
        y = x0.copy()
        for (t, _, L), t_next in zip(dense_intervals(stream, alpha, upto), times[1:]):
            y = y @ interval_factor(L, t_next - t, alpha).matrix
        ok &= np.max(np.abs(via_m - y)) <= 1e-8
    report(4, "DeGroot correspondence", ok)


def test_criterion_5_analytic_two_node():
    s = parse_events("0 a b")
    ok = True
    for alpha in (1e-3, 1.0, 1e2):
        for t in (0.1, 1.0, 10.0):
            gap = spectral_gap(propagate(s, alpha, upto=t).matrix)
            expected = 1 - math.exp(2 * math.expm1(-alpha * t) / alpha)
            ok &= abs(gap - expected) <= 1e-10
    report(5, "analytic 2-node oracle", ok)


def test_criterion_6_randomization_preservation():
    start = time.time()
    from collections import Counter

    def gap_multisets(s):
        return {k: Counter(np.diff(sorted(v)).round(9).tolist())
                for k, v in s.edge_event_index().items()}

    def edge_counts(s):
        return {k: len(v) for k, v in s.edge_event_index().items()}

    def time_multiset(s):
        return Counter(round(e.time, 9) for e in s.events)

    def degrees(s):
        d = Counter()
        for i, j in s.edge_event_index():
            d[i] += 1
            d[j] += 1
        return sorted(d.values())

    ok = True
    for seed in range(50):
        s = random_stream(seed, n_max=8, max_events=25)
        if len(s.edge_event_index()) < 2:
            continue
        # P cells
        out = interval_shuffle(s, seed)
        ok &= gap_multisets(out) == gap_multisets(s)
        ok &= edge_counts(out) == edge_counts(s)
        for key, times in s.edge_event_index().items():
            new = out.edge_event_index()[key]
            ok &= new[0] == times[0] and new[-1] == times[-1]
        out = shuffle_time_stamps(s, seed)
        ok &= time_multiset(out) == time_multiset(s)
        ok &= edge_counts(out) == edge_counts(s)
        out = random_times(s, seed)
        ok &= edge_counts(out) == edge_counts(s)
        ok &= all(0 <= e.time <= s.horizon for e in out.events)
        out = random_edge_shuffle(s, seed)
        ok &= time_multiset(out) == time_multiset(s)
        ok &= degrees(out) == degrees(s)

    # D cells, witnessed on fixtures where the property measurably changes
    fix = parse_events(
        "0 a b\n1 a b\n2 a b\n4 a b\n10 c d\n30 c d\n60 c d\n61 c d\n")
    ok &= any(time_multiset(interval_shuffle(fix, k)) != time_multiset(fix)
              for k in range(20))
    ok &= any(gap_multisets(shuffle_time_stamps(fix, k)) != gap_multisets(fix)
              for k in range(20))
    ok &= any(gap_multisets(random_times(fix, k)) != gap_multisets(fix)
              for k in range(20))
    ok &= any(time_multiset(random_times(fix, k)) != time_multiset(fix)
              for k in range(20))
    fix2 = parse_events("0 a b\n1 c d\n2 e f\n3 a c\n4 b e\n")
    ok &= any(set(random_edge_shuffle(fix2, k).edge_event_index())
              != set(fix2.edge_event_index()) for k in range(20))
    elapsed = time.time() - start
    report(6, f"randomization preservation ({elapsed:.1f}s)",
           ok and elapsed < 30)


def test_criterion_7_factor_gap_monotonicity():
    from tiedyn.propagator import interval_factor
    ok = True
    grid = np.geomspace(1e-3, 1e2, 30)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        w = np.triu(rng.uniform(0, 2, size=(n, n)), 1)
        w = w + w.T
        L = -w
        np.fill_diagonal(L, w.sum(axis=1))
        dt = float(rng.uniform(0.1, 5.0))
        gaps = [spectral_gap(interval_factor(L, dt, a).matrix) for a in grid]
        ok &= all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
    report(7, "single-factor gap monotone in decay rate", ok)


def test_criterion_8_nonmonotone_fixture():
    start = time.time()
    assert (Path(__file__).parents[1] / "scripts"
            / "find_nonmonotone_stream.py").exists()
    s = parse_events((FIXTURES / "nonmonotone_stream.txt").read_text())
    records = run_alpha_sweep(
        s, ExperimentConfig(alphas=list(np.geomspace(1e-3, 1e2, 30))))
    flagged = any("positive_slope" in r.flags for r in records)
    elapsed = time.time() - start
    report(8, f"non-monotone gap(alpha) fixture ({elapsed:.1f}s)",
           flagged and elapsed < 10)


def test_criterion_9_shrinkage_consistency():
    results = {}
    for name in ("fig5_case_a", "fig5_case_b"):
        s = parse_events((FIXTURES / f"{name}.txt").read_text())
        M1 = propagate(s, 1.0, upto=1.0).matrix
        Y = list(iter_factors(s, 1.0, upto=2.0))[-1]
        results[name] = (shrinkage_ratio(M1, Y),
                         spectral_gap(propagate(s, 1.0, upto=2.0).matrix))
    (ratio_a, gap_a), (ratio_b, gap_b) = (results["fig5_case_a"],
                                          results["fig5_case_b"])
    ok = ratio_b < ratio_a and gap_b > gap_a

    # same-eigenspace special case: Y = p(M) gives ratio = |p(lambda_2)|
    s = parse_events((FIXTURES / "fig5_case_a.txt").read_text())
    M = propagate(s, 1.0, upto=2.0).matrix
    p = (0.4, 0.4, 0.2)
    Y = p[0] * np.eye(3) + p[1] * M + p[2] * M @ M
    w = scipy.linalg.eigvals(M)
    lam2 = w[np.argsort(np.abs(w))[-2]]
    expected = abs(p[0] + p[1] * lam2 + p[2] * lam2 ** 2)
    ok &= abs(shrinkage_ratio(M, Y) - expected) <= 1e-8
    report(9, "Fiedler shrinkage consistency", ok)


def test_criterion_10_aggregate_oracle():
    ok = True
    for seed in range(10):
        s = random_stream(seed, n_max=5, max_events=12)
        w = aggregate_weights(s, 0.5)
        oracle = time_averaged_weights(s, 0.5)
        mask = w > 0
        ok &= np.max(np.abs(w[mask] - oracle[mask]) / w[mask]) <= 1e-4
    # single event at t=0 with T=1 and alpha=1
    w = aggregate_weights(parse_events("0 a b\n1 c d"), 1.0)
    ok &= abs(w[0, 1] - (1 - math.exp(-1))) <= 1e-12
    report(10, "aggregate closed form vs time average", ok)


# --- dataset-gated checks (criterion 11) ------------------------------------

def dataset_path(name):
    return DATA_DIR / f"{name}.txt"


have_all = all(dataset_path(n).exists() for n in DATASETS)


@pytest.mark.skipif(not have_all, reason="empirical dataset files not present")
def test_criterion_11_table_statistics():
    ok = True
    for name, (nodes, edges, events) in DATASETS.items():
        stats = stream_stats(parse_events(dataset_path(name).read_text()))
        ok &= (stats["nodes"], stats["edges"], stats["events"]) == \
              (nodes, edges, events)
    report("11a", "dataset summary statistics", ok)


@pytest.mark.skipif(not have_all, reason="empirical dataset files not present")
def test_criterion_11_aggregate_exceeds_tie_decay():
    ok = True
    for name in DATASETS:
        s = parse_events(dataset_path(name).read_text())
        T = s.horizon
        for alpha in (0.01, 1.0, 100.0):
            tie = spectral_gap(propagate(s, alpha).matrix)
            agg = spectral_gap(
                aggregate_propagator(aggregate_weights(s, alpha), T))
            ok &= agg > tie
    report("11b", "aggregate gap exceeds tie-decay gap", ok)


@pytest.mark.skipif(not dataset_path("reality_mining").exists(),
                    reason="reality_mining dataset not present")
def test_criterion_11_reality_mining_positive_slope():
    s = parse_events(dataset_path("reality_mining").read_text())
    grid = list(np.geomspace(0.05, 2.0, 20))
    gaps = [spectral_gap(propagate(s, a).matrix) for a in grid]
    flags = positive_slope_flags(grid, gaps)
    ok = any(f and 0.1 <= a <= 1.0 for a, f in zip(grid, flags))
    report("11c", "reality-mining positive-slope interval", ok)


@pytest.mark.skipif(not dataset_path("hypertext").exists(),
                    reason="hypertext dataset not present")
def test_criterion_11_hypertext_node_exclusion():
    s = parse_events(dataset_path("hypertext").read_text())
    filtered = exclude_low_degree_nodes(s, 2)
    ok = filtered.node_count == 112 and len(filtered.events) == 20816
    for alpha in (0.01, 1.0):
        ok &= spectral_gap(propagate(filtered, alpha).matrix) > 0.99
    report("11d", "hypertext node-exclusion gaps", ok)
