import argparse
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import tiedyn
from conftest import make_random_stream
from tiedyn import RandomizerSpec, member_seed, propagate, randomize, spectral_gap
from tiedyn.cli import (_parse_alpha_grid, _parse_alpha_list, config_from_args,
                        main as cli_main)
from tiedyn.events import parse_events
from tiedyn.experiments import (CSV_HEADER, ExperimentConfig, ExperimentRecord,
                                positive_slope_flags, records_to_csv, run,
                                run_aggregate_compare, run_alpha_sweep,
                                run_ensemble, run_time_series, summary_stats)

FIXTURES = Path(__file__).parent / "fixtures"

TRIANGLE = "0 a b\n0 b c\n3 a c\n7 a b\n"


def triangle_stream():
    return parse_events(TRIANGLE)


# --- five-number summaries --------------------------------------------------

def test_summary_constant_sample():
    s = summary_stats([1.0, 1.0, 1.0, 1.0])
    assert s.q1 == s.median == s.q3 == 1.0
    assert s.outliers == []


def test_summary_outlier():
    s = summary_stats([1.0, 2.0, 3.0, 4.0, 100.0])
    assert s.outliers == [100.0]
    assert 100.0 > s.hi


def test_summary_members_ulps_apart_are_not_outliers():
    # the quartiles round to one double, so the rounded IQR is 0; the
    # exact whiskers still lie outside both members
    s = summary_stats([0.9999999999999979, 0.9999999999999981])
    assert s.q1 == s.median == s.q3 == s.lo == s.hi == 0.999999999999998
    assert s.outliers == []


def test_summary_outlier_beside_members_ulps_apart():
    s = summary_stats([0.9999999999999981, 0.99, 0.9999999999999979,
                       0.9999999999999980, 0.9999999999999981])
    assert s.outliers == [0.99]


def test_summary_single_value():
    s = summary_stats([0.25])
    assert s.q1 == s.median == s.q3 == 0.25


def test_summary_empty_rejected():
    with pytest.raises(ValueError):
        summary_stats([])


def test_summary_hand_computed_quartiles():
    # linear-interpolation convention on the sorted sample
    s = summary_stats([1.0, 2.0, 3.0, 4.0])
    assert s.q1 == 1.75 and s.median == 2.5 and s.q3 == 3.25


# --- pipelines --------------------------------------------------------------

def test_ensemble_single_member_deterministic():
    cfg = ExperimentConfig(alphas=[1.0], methods=["random_times"],
                           ensemble=1, seed=7)
    ra, _ = run_ensemble(triangle_stream(), cfg)
    rb, _ = run_ensemble(triangle_stream(), cfg)
    assert [r.__dict__ for r in ra] == [r.__dict__ for r in rb]


def test_ensemble_summaries_ordered():
    cfg = ExperimentConfig(alphas=[0.5], ensemble=100, seed=1)
    records, summaries = run_ensemble(triangle_stream(), cfg)
    assert len(summaries) == 4
    for _, _, s in summaries:
        assert s.q1 <= s.median <= s.q3
    gaps = [r.gap for r in records]
    assert all(0 <= g <= 1 for g in gaps)


def nested_ensemble(stream, cfg):
    """The ensemble drawn method by method, every member before any gap."""
    records = [ExperimentRecord("ensemble", "original", a, None, stream.horizon,
                                len(stream.events),
                                spectral_gap(propagate(stream, a).matrix))
               for a in cfg.alphas]
    summaries = []
    for method in cfg.methods:
        seeds = [member_seed(cfg.seed, i) for i in range(cfg.ensemble)]
        members = [randomize(stream, RandomizerSpec(method, s)) for s in seeds]
        for alpha in cfg.alphas:
            gaps = [spectral_gap(propagate(m, alpha).matrix) for m in members]
            records += [ExperimentRecord("ensemble", method, alpha, s, m.horizon,
                                         len(m.events), g)
                        for s, m, g in zip(seeds, members, gaps)]
            summaries.append((method, alpha, summary_stats(gaps)))
    return records, summaries


def test_ensemble_equals_nested_reference():
    stream = make_random_stream(3, max_events=20)
    assert len(stream.edge_event_index()) >= 2 and stream.horizon > 0
    cfg = ExperimentConfig(alphas=[0.3, 2.0], ensemble=3, seed=11)
    records, summaries = run_ensemble(stream, cfg)
    ref_records, ref_summaries = nested_ensemble(stream, cfg)
    key = ExperimentRecord.sort_key
    assert sorted(records, key=key) == sorted(ref_records, key=key)
    assert len(records) == 2 * (1 + 4 * 3)
    assert summaries == ref_summaries


def test_ensemble_holds_one_member_at_a_time(monkeypatch):
    members = []
    live_at_propagate = []

    def drawing(stream, spec):
        member = randomize(stream, spec)
        members.append(weakref.ref(member))
        return member

    def counting(stream, alpha, **kwargs):
        live_at_propagate.append(sum(ref() is not None for ref in members))
        return propagate(stream, alpha, **kwargs)

    monkeypatch.setattr(tiedyn.experiments, "randomize", drawing)
    monkeypatch.setattr(tiedyn.experiments, "propagate", counting)
    monkeypatch.setattr(tiedyn.experiments, "_cpus", lambda: 1)  # members here
    cfg = ExperimentConfig(alphas=[0.5, 1.0], ensemble=3, seed=2)
    records, _ = run_ensemble(triangle_stream(), cfg)
    assert len(members) == 4 * 3
    assert len(live_at_propagate) == len(records) == 2 * (1 + 4 * 3)
    assert max(live_at_propagate) == 1


def test_alpha_sweep_two_node_symbolic():
    s = parse_events("0 a b\n5 a b")
    alphas = list(np.geomspace(0.01, 10, 12))
    cfg = ExperimentConfig(alphas=alphas)
    records = run_alpha_sweep(s, cfg)
    T = 5.0
    for r in records:
        expected = 1 - math.exp(2 * math.expm1(-r.alpha * T) / r.alpha)
        assert r.gap == pytest.approx(expected, abs=1e-10)
        assert r.flags == ""  # single-edge gap is strictly decreasing
    gaps = [r.gap for r in records]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_alpha_sweep_nonmonotone_fixture_flagged():
    s = parse_events((FIXTURES / "nonmonotone_stream.txt").read_text())
    cfg = ExperimentConfig(alphas=list(np.geomspace(1e-3, 1e2, 30)))
    records = run_alpha_sweep(s, cfg)
    assert any("positive_slope" in r.flags for r in records)


def test_positive_slope_flags_stable_under_refinement():
    s = parse_events((FIXTURES / "nonmonotone_stream.txt").read_text())
    from tiedyn.propagator import propagate
    from tiedyn.spectral import spectral_gap

    def flagged_alphas(points):
        grid = list(np.geomspace(1e-3, 1e2, points))
        gaps = [spectral_gap(propagate(s, a).matrix) for a in grid]
        return [a for a, f in zip(grid, positive_slope_flags(grid, gaps)) if f]

    coarse = flagged_alphas(30)
    fine = flagged_alphas(59)  # halved grid spacing
    assert coarse
    assert fine
    # the flagged region persists: every coarse flag has a fine flag nearby
    for a in coarse:
        assert any(abs(math.log(a) - math.log(b)) < 0.5 for b in fine)


def test_time_series_single_event_time():
    s = parse_events("0 a b\n0 b c")
    records = run_time_series(s, ExperimentConfig(alphas=[1.0]))
    assert len(records) == 1
    assert records[0].gap == 0.0  # M(t0) is the identity
    assert "last_event_time" in records[0].flags


def test_time_series_final_gap_matches_sweep():
    s = triangle_stream()
    alpha = 0.8
    ts = run_time_series(s, ExperimentConfig(alphas=[alpha]))
    sweep = run_alpha_sweep(s, ExperimentConfig(alphas=[alpha]))
    assert ts[-1].t_n == s.horizon
    assert ts[-1].gap == pytest.approx(sweep[0].gap, abs=1e-12)


def test_time_series_event_counts():
    s = triangle_stream()
    records = run_time_series(s, ExperimentConfig(alphas=[1.0]))
    assert [r.t_n for r in records] == [0.0, 3.0, 7.0]
    assert [r.event_count for r in records] == [2, 1, 1]


def test_time_series_disconnected_rows_degenerate():
    # two components until t=3: |lambda_1| = |lambda_2| = 1 at t=1 and t=2,
    # so the Fiedler direction is an arbitrary vector of a 2-d eigenspace
    s = parse_events("0 a b\n0 c d\n1 a b\n2 c d\n3 a c\n")
    records = run_time_series(s, ExperimentConfig(alphas=[1.0]))
    assert [r.t_n for r in records] == [0.0, 1.0, 2.0, 3.0]
    for r in records[1:3]:
        assert r.gap < 1e-10
        assert r.shrinkage_ratio is None
        assert r.flags == "degenerate_fiedler"
    lines = records_to_csv(records).splitlines()
    assert lines[2].endswith(",,degenerate_fiedler")
    assert lines[3].endswith(",,degenerate_fiedler")


def test_time_series_fig5_style_anticorrelation():
    # same events at t0, different single event at t1: the case whose
    # factor shrinks the Fiedler vector more gains the larger gap
    results = {}
    for name in ("fig5_case_a", "fig5_case_b"):
        s = parse_events((FIXTURES / f"{name}.txt").read_text())
        from tiedyn.propagator import propagate, iter_factors
        from tiedyn.spectral import shrinkage_ratio, spectral_gap
        M1 = propagate(s, 1.0, upto=1.0).matrix
        last = list(iter_factors(s, 1.0, upto=2.0))[-1]
        results[name] = (
            shrinkage_ratio(M1, last),
            spectral_gap(propagate(s, 1.0, upto=2.0).matrix),
        )
    ratio_a, gap_a = results["fig5_case_a"]
    ratio_b, gap_b = results["fig5_case_b"]
    assert ratio_b < ratio_a
    assert gap_b > gap_a


def test_aggregate_compare_rows():
    records = run_aggregate_compare(triangle_stream(),
                                    ExperimentConfig(alphas=[0.1, 1.0]))
    methods = {(r.alpha, r.method) for r in records}
    assert methods == {(0.1, "tie_decay"), (0.1, "aggregate"),
                       (1.0, "tie_decay"), (1.0, "aggregate")}
    assert all(0 <= r.gap <= 1 for r in records)


def test_degenerate_stream_both_gaps_zero():
    s = parse_events("0 a b\n0 b c")  # no elapsed time at all
    records = run_aggregate_compare(s, ExperimentConfig(alphas=[1.0]))
    assert [r.gap for r in records] == [0.0, 0.0]


# --- CSV and CLI ------------------------------------------------------------

def test_alpha_sweep_csv_cells_parse_as_numbers():
    # numpy alphas from a log grid must print as plain decimals
    cfg = ExperimentConfig(alphas=list(np.geomspace(1, 100, 5)))
    lines = records_to_csv(run_alpha_sweep(triangle_stream(), cfg)).splitlines()
    header = lines[0].split(",")
    numeric = ["alpha", "seed", "t_n", "event_count", "gap", "shrinkage_ratio"]
    assert len(lines) == 6
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for col in numeric:
            if row[col]:
                float(row[col])
    alphas = [float(line.split(",")[2]) for line in lines[1:]]
    assert alphas == [float(a) for a in cfg.alphas]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_config_rejects_nonfinite_alpha(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        ExperimentConfig(alphas=[1.0, bad])


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_cli_rejects_nonfinite_alpha(tmp_path, capsys, bad):
    inp = tmp_path / "events.txt"
    inp.write_text(TRIANGLE)
    rc = cli_main(["--input", str(inp), "--mode", "alpha-sweep",
                   "--alpha", bad, "--out", str(tmp_path / "o.csv")])
    assert rc != 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "positive and finite" in err
    assert not (tmp_path / "o.csv").exists()


def test_config_rejects_empty_alphas():
    with pytest.raises(ValueError, match="at least one alpha"):
        ExperimentConfig(alphas=[])


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        ExperimentConfig(mode="ensemble", seed=-1, ensemble=1)


@pytest.mark.parametrize("field,value", [
    ("min_edges", 1.5), ("min_edges", math.nan), ("min_edges", 2.0),
    ("ensemble", 2.5), ("seed", 1.0),
])
def test_config_rejects_non_integer_counts(field, value):
    # 1.5 acted as 2 and nan as 0; an ensemble of 2.5 failed only in range()
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        ExperimentConfig(mode="ensemble", **{field: value})


@pytest.mark.parametrize("text,message", [
    ("1,abc", "bad alpha 'abc'"), ("0.1,1e", "bad alpha '1e'"),
    (",,", "no alpha values"), ("", "no alpha values"),
    ("1,0", "bad alpha '0', expected a positive and finite"),
    ("-1", "bad alpha '-1', expected a positive and finite"),
    ("1,inf", "bad alpha 'inf', expected a positive and finite"),
    ("nan", "bad alpha 'nan', expected a positive and finite"),
])
def test_alpha_list_rejects_bad_and_empty(text, message):
    with pytest.raises(argparse.ArgumentTypeError, match=message):
        _parse_alpha_list(text)


@pytest.mark.parametrize("spec", ["1:inf:5", "nan:1:5", "1:nan:5", "inf:inf:3"])
def test_alpha_grid_rejects_nonfinite_bounds(spec):
    with pytest.raises(argparse.ArgumentTypeError, match="finite"):
        _parse_alpha_grid(spec)


def test_config_rejects_repeated_alphas_and_methods():
    with pytest.raises(ValueError, match="alpha values must be distinct"):
        ExperimentConfig(alphas=[1.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="methods must be distinct"):
        ExperimentConfig(methods=["random_times", "random_times"])


@pytest.mark.parametrize("args", [
    ["--mode", "alpha-sweep", "--alpha", "1,2,2"],
    ["--mode", "time-series", "--alpha", "1,1.0"],
    ["--mode", "alpha-sweep", "--alpha-grid", "1:1.0000000000000002:5"],
])
def test_cli_rejects_repeated_alpha(tmp_path, capsys, args):
    inp = tmp_path / "events.txt"
    inp.write_text(TRIANGLE)
    out = tmp_path / "o.csv"
    rc = cli_main(["--input", str(inp), *args, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "repeat" in err
    assert not out.exists()


def test_csv_reproducible(tmp_path):
    inp = tmp_path / "events.txt"
    inp.write_text(TRIANGLE)
    cfg = dict(input=str(inp), mode="ensemble", alphas=[1.0],
               methods=["random_times"], ensemble=3, seed=5)
    out1 = records_to_csv(run(ExperimentConfig(**cfg)))
    out2 = records_to_csv(run(ExperimentConfig(**cfg)))
    assert out1 == out2
    assert out1.startswith(CSV_HEADER + "\n")


def test_cli_alpha_sweep(tmp_path, capsys):
    inp = tmp_path / "events.txt"
    out = tmp_path / "sweep.csv"
    inp.write_text(TRIANGLE)
    rc = cli_main(["--input", str(inp), "--mode", "alpha-sweep",
                   "--alpha", "0.1,1,10", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4


def test_cli_ensemble_writes_summary(tmp_path):
    inp = tmp_path / "events.txt"
    out = tmp_path / "ens.csv"
    inp.write_text(TRIANGLE)
    rc = cli_main(["--input", str(inp), "--mode", "ensemble",
                   "--alpha", "1", "--method", "rt", "--ensemble", "4",
                   "--seed", "3", "--out", str(out)])
    assert rc == 0
    summary = tmp_path / "ens_summary.csv"
    assert summary.exists()
    assert summary.read_text().splitlines()[0] == \
        "method,alpha,q1,median,q3,lo,hi,n_outliers"


def test_cli_config_file_with_flag_override(tmp_path):
    inp = tmp_path / "events.txt"
    inp.write_text(TRIANGLE)
    cfgfile = tmp_path / "run.cfg"
    out = tmp_path / "o.csv"
    cfgfile.write_text(
        f"input={inp}\nmode=alpha-sweep\nalpha=1\nout={out}\nseed=9\n")
    rc = cli_main(["--config", str(cfgfile), "--alpha", "0.5,2"])
    assert rc == 0
    body = out.read_text().splitlines()
    assert len(body) == 3  # header + the two overriding alphas


def test_cli_missing_input_fails(tmp_path, capsys):
    rc = cli_main(["--input", str(tmp_path / "absent.txt"),
                   "--mode", "alpha-sweep", "--alpha", "1"])
    assert rc != 0
    assert "error:" in capsys.readouterr().err


def test_cli_min_edges_filter(tmp_path):
    inp = tmp_path / "events.txt"
    # triangle plus a pendant node
    inp.write_text("0 a b\n0 b c\n1 a c\n2 a d\n3 a b\n")
    out = tmp_path / "o.csv"
    rc = cli_main(["--input", str(inp), "--mode", "time-series",
                   "--alpha", "1", "--min-edges", "2", "--out", str(out)])
    assert rc == 0


def test_cli_negative_min_edges_fails(tmp_path, capsys):
    inp = tmp_path / "events.txt"
    inp.write_text(TRIANGLE)
    out = tmp_path / "o.csv"
    rc = cli_main(["--input", str(inp), "--mode", "alpha-sweep",
                   "--alpha", "1", "--min-edges", "-3", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --min-edges: must be >= 0, got -3")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_default_mode_is_the_sweep_with_its_grid(tmp_path):
    inp = tmp_path / "events.txt"
    inp.write_text(TRIANGLE)
    bare = config_from_args(["--input", str(inp)])
    assert bare == config_from_args(["--input", str(inp), "--mode", "alpha-sweep"])
    assert bare.mode == "alpha_sweep"
    assert bare.alphas == _parse_alpha_grid("1e-3:1e2:30")


# every flag, given once on the command line and once as a config-file line
FLAG_AND_LINE = [
    (["--input", "events.txt"], "input=events.txt"),
    (["--mode", "time-series"], "mode=time-series"),
    (["--alpha", "0.5,2"], "alpha=0.5,2"),
    (["--alpha-grid", "1:100:5"], "alpha-grid=1:100:5"),
    (["--method", "rt"], "method=rt"),
    (["--ensemble", "7"], "ensemble=7"),
    (["--seed", "3"], "seed=3"),
    (["--min-edges", "2"], "min-edges=2"),
    (["--directed"], "directed=true"),
    (["--directed"], "directed = YES"),
    (["--directed"], "directed=1"),
    ([], "directed=false"),
    ([], "directed=No"),
    (["--out", "o.csv"], "out=o.csv"),
]


@pytest.mark.parametrize("flag,line", FLAG_AND_LINE,
                         ids=[line for _, line in FLAG_AND_LINE])
def test_config_file_line_equals_flag(tmp_path, flag, line):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"# a comment\n\n{line}\n")
    from_file = config_from_args(["--config", str(cfgfile)])
    assert from_file == config_from_args(flag)
    assert (from_file == config_from_args([])) == (flag == [])


@pytest.mark.parametrize("line", [
    "alpah=5", "directed=ture", "mode=alpha_sweep", "method=xx", "alpha=abc",
    "alpha=,,", "config=other.cfg", "conf=other.cfg", "alpha 5", "ensemble=abc",
    "ensemble=0", "min-edges=-3", "seed=-1", "alpha=1,0", "alpha=inf",
    "alpha=3,1,3",
])
def test_cli_bad_config_line_is_one_error_with_its_line(tmp_path, capsys, line):
    inp = tmp_path / "events.txt"
    inp.write_text(TRIANGLE)
    out = tmp_path / "o.csv"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"input={inp}\nout={out}\n{line}\nalpha=1\n")
    rc = cli_main(["--config", str(cfgfile)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfgfile}:3: ")
    assert err.count("\n") == 1
    assert not out.exists()


BAD_FLAGS = [["--method", "xx"], ["--alpha", "abc"], ["--alpha", ",,"],
             ["--mode", "alpha_sweep"], ["--alpah", "5"], ["--seed", "-1"],
             ["--ensemble", "0"], ["--alpha", "1,-2"]]


@pytest.mark.parametrize("flag", BAD_FLAGS, ids=[" ".join(f) for f in BAD_FLAGS])
def test_cli_bad_flag_is_one_error(tmp_path, capsys, flag):
    inp = tmp_path / "events.txt"
    inp.write_text(TRIANGLE)
    out = tmp_path / "o.csv"
    rc = cli_main(["--input", str(inp), "--out", str(out), *flag])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[0] in err
    assert err.count("\n") == 1
    assert not out.exists()


SCIPY_FREE_RUNS = """
import sys
import tiedyn
loaded = ["import tiedyn"] if "scipy" in sys.modules else []
from tiedyn.cli import main
events, out = sys.argv[1], sys.argv[2]
modes = {
    "alpha-sweep": [],
    "time-series": ["--alpha", "0.1,1"],
    "aggregate-compare": ["--alpha", "0.1,1"],
    "ensemble": ["--alpha", "1", "--method", "all", "--ensemble", "2"],
}
for directed in ([], ["--directed"]):
    for mode, args in modes.items():
        if main(["--input", events, "--mode", mode, *args, *directed, "--out", out]) != 0:
            sys.exit(f"{mode} {directed} failed")
        if "scipy" in sys.modules:
            loaded.append(f"{mode} {directed}")
if loaded:
    sys.exit("scipy loaded after " + ", ".join(loaded))
"""


def test_cli_runs_never_import_scipy(tmp_path):
    # scipy is only a reference of the tests, so only a fresh process can
    # show that no run loads it, directed or not; the triangle's time
    # series computes a shrinkage ratio
    inp = tmp_path / "events.txt"
    inp.write_text(TRIANGLE)
    env = dict(os.environ, PYTHONPATH=str(Path(tiedyn.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUNS, str(inp), str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


@pytest.mark.parametrize("in_file,flag", [
    ("alpha=1,2", ["--alpha-grid", "1:10:3"]),
    ("alpha-grid=1:10:3", ["--alpha", "0.5,2"]),
    ("alpha-grid=1:10:3", ["--alpha-grid", "2:20:4"]),
])
def test_cli_alpha_flags_override_the_file_as_one_setting(tmp_path, in_file, flag):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"input=events.txt\n{in_file}\n")
    assert (config_from_args(["--config", str(cfgfile), *flag])
            == config_from_args(["--input", "events.txt", *flag]))


def test_cli_both_alpha_flags_are_one_error(tmp_path, capsys):
    inp = tmp_path / "events.txt"
    inp.write_text(TRIANGLE)
    out = tmp_path / "o.csv"
    rc = cli_main(["--input", str(inp), "--out", str(out), "--alpha", "1,2",
                   "--alpha-grid", "1:10:3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: argument --alpha-grid: not allowed with argument --alpha\n"
    assert not out.exists()


@pytest.mark.parametrize("first,second,message", [
    ("alpha=1,2", "alpha-grid=1:10:3", "--alpha-grid: not allowed with argument --alpha"),
    ("alpha-grid=1:10:3", "alpha=1,2", "--alpha: not allowed with argument --alpha-grid"),
    ("alpha=1,2", "alpha-g=1:10:3", "--alpha-grid: not allowed with argument --alpha"),
])
def test_cli_both_alpha_lines_in_a_file_are_one_error(tmp_path, capsys, first, second,
                                                       message):
    inp = tmp_path / "events.txt"
    inp.write_text(TRIANGLE)
    out = tmp_path / "o.csv"
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"input={inp}\n{first}\nout={out}\n{second}\n")
    rc = cli_main(["--config", str(cfgfile), "--alpha", "3"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {cfgfile}:4: argument {message}\n"
    assert not out.exists()
