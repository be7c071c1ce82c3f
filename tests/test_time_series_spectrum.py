"""Time-series rows: one eigenvalue solve per step, eigenvectors only where
a ratio is computed, and values equal to the public spectral functions."""

import re
from itertools import zip_longest

import numpy as np
import pytest
import scipy.linalg

from tiedyn import spectral
from tiedyn.events import Event, EventStream, group_event_times, parse_events
from tiedyn.experiments import (ExperimentConfig, records_to_csv,
                                run_time_series)
from tiedyn.propagator import iter_factors
from tiedyn.spectral import (DefectiveEigenpairError, DegenerateFiedlerError,
                             shrinkage_ratio, spectral_gap)

from conftest import make_random_stream


def ring_stream(n=140, extra=12, seed=0):
    """A ring of n nodes at t=0, then random extra events: connected from
    the first interval on, and large enough that LAPACK's eigenvalue-only
    and eigenvector solves return eigenvalues that differ in the last bits."""
    rng = np.random.default_rng(seed)
    events = [Event(0.0, k, (k + 1) % n) for k in range(n)]
    for t in np.round(np.sort(rng.uniform(1, 30, extra)), 1):
        i, j = rng.choice(n, size=2, replace=False)
        events.append(Event(float(t), int(i), int(j)))
    return EventStream(tuple(events), n, tuple(str(k) for k in range(n)))


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


def count_eigendecompose(monkeypatch):
    calls = []
    original = spectral.eigendecompose

    def counted(M):
        calls.append(M)
        return original(M)

    monkeypatch.setattr(spectral, "eigendecompose", counted)
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
    calls = count_eigendecompose(monkeypatch)
    stream = parse_events("0 a b\n0 c d\n1 a b\n2 c d\n3 a b\n5 c d\n")
    records = run_time_series(stream, ExperimentConfig(alphas=[0.01, 1.0, 100.0]))
    assert set(row_codes(records)) == {"d", "l"}
    assert calls == []


@pytest.mark.parametrize("seed", range(5))
def test_eigenvectors_only_for_separated_rows(monkeypatch, seed):
    calls = count_eigendecompose(monkeypatch)
    alphas = [0.01, 1.0, 100.0]
    records = run_time_series(make_random_stream(seed), ExperimentConfig(alphas=alphas))
    codes = row_codes(records)
    assert codes.count("r") <= len(calls) <= len(codes) - codes.count("d") - len(alphas)


def test_defective_rows_are_flagged_and_the_run_goes_on(monkeypatch):
    original = spectral.eigendecompose
    calls = []

    def every_other_defective(M):
        calls.append(M)
        if len(calls) % 2:
            raise DefectiveEigenpairError("eigenvector pair 0 is numerically defective")
        return original(M)

    monkeypatch.setattr(spectral, "eigendecompose", every_other_defective)
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
    # at alpha 0.01 the row of node 0 in M(42.7) is ~1e-67, and LAPACK's
    # balanced eig returns a left unit eigenvector orthogonal to the right
    # one (v.u ~ 1e-58); that error used to end run_time_series
    stream = make_random_stream(154, n_max=8, directed=True)
    records = run_time_series(stream, ExperimentConfig(alphas=[0.01]))
    assert len(records) == len(group_event_times(stream))
    assert "defective_eigenpair" in {r.flags for r in records}
    for r in records:
        assert (r.shrinkage_ratio is None) == bool(r.flags)
