"""Time-series rows: one eigenvalue solve per step and no eigenvector solve,
Fiedler vectors only where a ratio is computed, and values equal to the
public spectral functions."""

import re
from itertools import zip_longest

import numpy as np
import pytest
import scipy.linalg

import tiedyn.experiments as experiments
from tiedyn import spectral
from tiedyn.events import group_event_times, parse_events
from tiedyn.experiments import (ExperimentConfig, records_to_csv,
                                run_time_series)
from tiedyn.propagator import iter_factors
from tiedyn.spectral import (DefectiveEigenpairError, DegenerateFiedlerError,
                             shrinkage_ratio, spectral_gap)

from conftest import make_random_stream, stream_from_rows


def ring_stream(n=140, extra=12, seed=0):
    """A ring of n nodes at t=0, then random extra events: connected from
    the first interval on, and large enough that LAPACK's eigenvalue-only
    and eigenvector solves return eigenvalues that differ in the last bits."""
    rng = np.random.default_rng(seed)
    rows = [(0.0, k, (k + 1) % n) for k in range(n)]
    for t in np.round(np.sort(rng.uniform(1, 30, extra)), 1):
        i, j = rng.choice(n, size=2, replace=False)
        rows.append((t, i, j))
    return stream_from_rows(rows, n)


STREAMS = {
    "random_0": lambda: make_random_stream(0),
    "random_4": lambda: make_random_stream(4),
    "ring_140": ring_stream,
}


def steps(stream, alpha):
    """(M(t_k), Y(t_k+)) per row, from the same in-place products as
    run_time_series; Y is None on the last row."""
    M = np.eye(stream.node_count)
    out = []
    for _, Y in zip_longest(group_event_times(stream), iter_factors(stream, alpha)):
        out.append((M.copy(), Y))
        if Y is not None:
            Y.apply(M)
    return out


def row_codes(records):
    """One letter per row: r(atio), d(egenerate), l(ast)."""
    return "".join("r" if r.shrinkage_ratio is not None
                   else "d" if r.flags == "degenerate_fiedler" else "l"
                   for r in records)


def rows_here(monkeypatch):
    """Solve every time-series row in this process, where a counter sees
    it: with one CPU, ``run_time_series`` starts no pool."""
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)


def count_eigenvector_solves(monkeypatch):
    """Record each inverse iteration for u2 (``spectral._right_vector``);
    fiedler_left looks it up through the module global, and reaches it only
    for a separated lambda_2, so each call is one Fiedler-vector solve."""
    rows_here(monkeypatch)
    calls = []
    original = spectral._right_vector

    def counted(M, lam):
        calls.append(M)
        return original(M, lam)

    monkeypatch.setattr(spectral, "_right_vector", counted)
    return calls


@pytest.mark.parametrize("alpha", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("name", list(STREAMS))
def test_time_series_rows_equal_public_functions(name, alpha):
    stream = STREAMS[name]()
    records = run_time_series(stream, ExperimentConfig(alphas=[alpha]))
    expected = steps(stream, alpha)
    assert len(records) == len(expected)
    for r, (M, Y) in zip(records, expected):
        assert r.gap == spectral_gap(M)
        if Y is None:
            assert r.flags == "last_event_time"
        elif r.shrinkage_ratio is not None:
            assert r.flags == ""
            assert r.shrinkage_ratio == shrinkage_ratio(M, Y)
        else:
            assert r.flags == "degenerate_fiedler"
            with pytest.raises(DegenerateFiedlerError):
                shrinkage_ratio(M, Y)


def test_time_series_streams_cover_both_row_kinds():
    # rows go from degenerate (disconnected) to separated and back
    # (|lambda_2| and |lambda_3| both underflow at slow decay)
    slow = run_time_series(make_random_stream(0), ExperimentConfig(alphas=[0.01]))
    assert re.fullmatch(r"d+r+d+l", row_codes(slow))
    big = run_time_series(ring_stream(), ExperimentConfig(alphas=[1.0]))
    assert row_codes(big).count("r") > len(big) // 2
    # a gap taken from the eigenvector solve would differ from spectral_gap
    M, _ = steps(ring_stream(), 1.0)[5]
    with_vectors = scipy.linalg.eig(M, left=True, right=True)[0]
    assert np.sort(np.abs(with_vectors))[-2] != np.sort(np.abs(scipy.linalg.eigvals(M)))[-2]


def test_disconnected_stream_never_solves_for_eigenvectors(monkeypatch):
    calls = count_eigenvector_solves(monkeypatch)
    stream = parse_events("0 a b\n0 c d\n1 a b\n2 c d\n3 a b\n5 c d\n")
    records = run_time_series(stream, ExperimentConfig(alphas=[0.01, 1.0, 100.0]))
    assert set(row_codes(records)) == {"d", "l"}
    assert calls == []


@pytest.mark.parametrize("seed", range(5))
def test_eigenvectors_only_for_separated_rows(monkeypatch, seed):
    calls = count_eigenvector_solves(monkeypatch)
    alphas = [0.01, 1.0, 100.0]
    records = run_time_series(make_random_stream(seed), ExperimentConfig(alphas=alphas))
    codes = row_codes(records)
    assert codes.count("r") <= len(calls) <= len(codes) - codes.count("d") - len(alphas)


def test_defective_rows_are_flagged_and_the_run_goes_on(monkeypatch):
    original = spectral.fiedler_left
    calls = []

    def every_other_defective(M, spectrum=None):
        calls.append(M)
        if len(calls) % 2:
            raise DefectiveEigenpairError("Fiedler pair is defective (v.u ~ 0)")
        return original(M, spectrum)

    monkeypatch.setattr(spectral, "fiedler_left", every_other_defective)
    rows_here(monkeypatch)
    stream = make_random_stream(0)
    records = run_time_series(stream, ExperimentConfig(alphas=[1.0]))
    assert len(records) == len(group_event_times(stream))
    flagged = [r for r in records if r.flags == "defective_eigenpair"]
    assert len(flagged) == (len(calls) + 1) // 2
    for r in flagged:
        assert r.shrinkage_ratio is None
        assert 0.0 <= r.gap <= 1.0
    assert ",,defective_eigenpair\n" in records_to_csv(records)


def test_directed_drained_node_does_not_end_the_run():
    # at alpha 0.01 the row of node 0 in M(42.7) is ~1e-67. There LAPACK's
    # balanced eig returns a left vector orthogonal to the right one
    # (v.u ~ 1e-19), which once ended run_time_series and later flagged the
    # row defective, and from t = 43.8 on left vectors whose residual is up
    # to 5% of lambda_2. The bordered solve finds a true left eigenvector
    # on every separated row (|v.u| is about 0.5 at t = 42.7).
    stream = make_random_stream(154, n_max=8, directed=True)
    records = run_time_series(stream, ExperimentConfig(alphas=[0.01]))
    assert len(records) == len(group_event_times(stream))
    for r in records:
        assert (r.shrinkage_ratio is None) == bool(r.flags)
    assert "defective_eigenpair" not in {r.flags for r in records}
    assert [r.flags for r in records if r.t_n == 42.7] == [""]
    separated = 0
    for M, _ in steps(stream, 0.01):
        try:
            v2 = spectral.fiedler_left(M)
        except DegenerateFiedlerError:
            continue
        w = np.linalg.eigvals(M)
        lam2 = w[np.argsort(np.abs(w))[-2]]
        assert np.max(np.abs(v2 @ M - lam2 * v2)) < 1e-12 * np.linalg.norm(v2)
        separated += 1
    assert separated >= 5


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_one_eigenvalue_solve_per_row_and_no_eig(monkeypatch, directed):
    counts = {"eigvals": 0, "eig": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def solve(M):
            counts[name] += 1
            return original(M)
        return solve

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counted(name))
    rows_here(monkeypatch)
    alphas = [0.01, 1.0, 100.0]
    codes = ""
    for seed in (0, 1, 4, 5):
        stream = make_random_stream(seed, n_max=12, max_events=60, directed=directed)
        codes += row_codes(run_time_series(stream, ExperimentConfig(alphas=alphas)))
    assert codes.count("r") >= 100
    assert counts == {"eigvals": len(codes), "eig": 0}
