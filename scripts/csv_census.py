#!/usr/bin/env python3
"""Compare the CSV output of two tiedyn source trees over a fixed matrix.

Usage:
    python3 scripts/csv_census.py SRC_A SRC_B [--out DIR]

SRC_A and SRC_B are the roots of two checkouts (each with ``src/tiedyn``).
Both run ``python3 -m tiedyn.cli`` with BLAS pinned to one thread on the
same inputs. The runs inherit this script's CPU affinity, which decides
whether a tree that runs tasks in a process pool uses it: run the census
as is and under ``taskset -c 0`` to compare both the pooled and the
serial paths. The inputs:

- the four ``bench/gen.py`` streams of the benchmark workloads at seed
  101 (``aggregate-large`` with ``--min-edges 2``) and the three
  ``tests/fixtures/`` streams, each undirected and ``--directed``;
- the modes: the default alpha sweep, time series and aggregate-compare
  at ``--alpha 0.01,1,100``, and ``--method all --ensemble 2 --seed 7``
  ensembles at the same alphas (not on ``aggregate-large``, whose
  ``random_times`` members have about 125k distinct times at N=242).
- default alpha sweeps, undirected and ``--directed``, whose
  ``--min-edges`` drops nodes: ``sweep-fast-decay`` with 10 (92 -> 89
  nodes), ``ensemble-slow-decay`` and ``timeseries`` with 15 (64 -> 63
  nodes), and one ``sweep-fast-decay`` run with 1, where nothing drops.

For each output file (CSVs and ensemble summaries) it prints whether the
bytes are identical, the number of rows that differ, the largest change
of a gap or summary cell, and the largest change of a shrinkage ratio,
over all rows and over rows with 1 - gap >= 1e-5 (below that the ratio
is fixed only to about eps / |lambda_2|). Changed ``n_outliers`` counts
are listed on their own, and for each CSV with a flags column so are
the numbers of rows that carry each flag of FLAGS, on each side. It
exits 1 if a run fails on either side, or if a file's row count, a flag,
an empty cell or a key cell (mode, method, alpha, seed, t_n, event_count)
differs.

The inputs come from this checkout's ``bench/`` and ``tests/fixtures/``.
Outputs stay in DIR (default: a new temporary directory).
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from gen import make_stream  # noqa: E402
from run import WORKLOADS  # noqa: E402

SEED = 101
ALPHAS = "0.01,1,100"
RESOLVED = 1e-5  # ratios are compared separately where 1 - gap >= this
KEY_COLUMNS = ("mode", "method", "alpha", "seed", "t_n", "event_count")
COUNT_COLUMNS = ("n_outliers",)  # listed when they change, not a failure
FLAGS = ("defective_eigenpair", "degenerate_fiedler", "last_event_time",
         "positive_slope")
MODES = {
    "sweep": ["--mode", "alpha-sweep"],
    "timeseries": ["--mode", "time-series", "--alpha", ALPHAS],
    "aggregate": ["--mode", "aggregate-compare", "--alpha", ALPHAS],
    "ensemble": ["--mode", "ensemble", "--alpha", ALPHAS, "--method", "all",
                 "--ensemble", "2", "--seed", "7"],
}
# (input, --min-edges) of the extra default sweeps that exercise node exclusion
MIN_EDGES_RUNS = [("sweep-fast-decay", 10), ("ensemble-slow-decay", 15),
                  ("timeseries", 15), ("sweep-fast-decay", 1)]


def write_inputs(dest: Path) -> dict[str, tuple[Path, list[str]]]:
    """Input name -> (event file, extra CLI flags)."""
    inputs = {}
    for name, w in WORKLOADS.items():
        path = dest / f"{name}.txt"
        path.write_text(make_stream(w.spec, SEED).text())
        flags = ["--min-edges", str(w.min_edges)] if w.min_edges else []
        inputs[name] = (path, flags)
    for path in sorted((ROOT / "tests" / "fixtures").glob("*.txt")):
        inputs[path.stem] = (path, [])
    return inputs


def cases(inputs):
    """(case name, CLI args without --out)."""
    runs = [(name, mode, [*mode_args, *flags])
            for name, (_, flags) in inputs.items()
            for mode, mode_args in MODES.items()
            if not (mode == "ensemble" and name == "aggregate-large")]
    runs += [(name, f"sweep-min-edges-{m}", [*MODES["sweep"], "--min-edges", str(m)])
             for name, m in MIN_EDGES_RUNS]
    for name, mode, run_args in runs:
        for directed in (False, True):
            args = ["--input", str(inputs[name][0]), *run_args]
            if directed:
                args.append("--directed")
            yield f"{name}{'-directed' if directed else ''}-{mode}", args


def start(tree: Path, args: list[str], out: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return subprocess.Popen([sys.executable, "-m", "tiedyn.cli", *args, "--out", str(out)],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)


def read_rows(path: Path) -> tuple[list[dict[str, str]], list[str]]:
    reader = csv.DictReader(io.StringIO(path.read_text()))
    return list(reader), reader.fieldnames or []


def flag_counts(path: Path) -> str | None:
    """How many rows carry each flag of FLAGS, as "flag count ...", or
    None for a CSV without a flags column."""
    rows, header = read_rows(path)
    if "flags" not in header:
        return None
    per_row = [row["flags"].split(";") for row in rows]
    return " ".join(f"{flag} {sum(flag in flags for flags in per_row)}"
                    for flag in FLAGS)


def delta(a: str, b: str) -> float:
    x, y = float(a), float(b)
    return 0.0 if x == y else abs(x - y)


def compare(a: Path, b: Path) -> tuple[str, list[str], list[str]]:
    """One report line for a pair of files, the faults that fail the
    census, and notes."""
    if a.read_bytes() == b.read_bytes():
        return "identical", [], []
    (rows_a, head_a), (rows_b, head_b) = read_rows(a), read_rows(b)
    if head_a != head_b:
        return "differs", [f"header {head_a} -> {head_b}"], []
    if len(rows_a) != len(rows_b):
        return "differs", [f"{len(rows_a)} -> {len(rows_b)} rows"], []
    faults, notes = [], []
    changed = 0
    d_num = d_ratio = d_ratio_resolved = 0.0
    for k, (ra, rb) in enumerate(zip(rows_a, rows_b), start=2):
        if ra == rb:
            continue
        changed += 1
        for col in ra:
            va, vb = ra[col], rb[col]
            if va == vb:
                continue
            if col in KEY_COLUMNS or col == "flags":
                faults.append(f"line {k}: {col} {va!r} -> {vb!r}")
            elif (va == "") != (vb == ""):
                faults.append(f"line {k}: {col} empty on one side ({va!r}, {vb!r})")
            elif col in COUNT_COLUMNS:
                notes.append(f"line {k}: {col} {va} -> {vb}")
            elif col == "shrinkage_ratio":
                d = delta(va, vb)
                d_ratio = max(d_ratio, d)
                if 1.0 - float(ra["gap"] or "nan") >= RESOLVED:
                    d_ratio_resolved = max(d_ratio_resolved, d)
            else:
                d_num = max(d_num, delta(va, vb))
    line = (f"{changed}/{len(rows_a)} rows, max|dgap| {d_num:.2g}, "
            f"max|dratio| {d_ratio:.2g} ({d_ratio_resolved:.2g} where 1-gap >= {RESOLVED:g})")
    return line, faults, notes


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src_a", type=Path)
    p.add_argument("src_b", type=Path)
    p.add_argument("--out", type=Path, help="directory for inputs and outputs")
    args = p.parse_args(argv)
    trees = [args.src_a.resolve(), args.src_b.resolve()]
    for tree in trees:
        if not (tree / "src" / "tiedyn").is_dir():
            p.error(f"{tree} has no src/tiedyn")
    out = args.out or Path(tempfile.mkdtemp(prefix="csv_census_"))
    (out / "inputs").mkdir(parents=True, exist_ok=True)
    for side in "AB":
        (out / side).mkdir(exist_ok=True)
    print(f"A = {trees[0]}\nB = {trees[1]}\noutputs in {out}")

    inputs = write_inputs(out / "inputs")
    failed = files = identical = 0
    for name, cli_args in cases(inputs):
        outs = [out / side / f"{name}.csv" for side in "AB"]
        summaries = [o.with_name(o.stem + "_summary.csv") for o in outs]
        for path in outs + summaries:  # left from an earlier census in DIR
            path.unlink(missing_ok=True)
        procs = [start(tree, cli_args, o) for tree, o in zip(trees, outs)]
        errors = [proc.communicate()[1].strip() for proc in procs]
        if any(proc.returncode for proc in procs):
            print(f"{name}: run failed: A {errors[0]!r}, B {errors[1]!r}")
            failed += 1
            continue
        pairs = [(outs[0], outs[1])]
        if summaries[0].exists() or summaries[1].exists():
            pairs.append((summaries[0], summaries[1]))
        for a, b in pairs:
            files += 1
            if not b.exists() or not a.exists():
                print(f"{a.name}: written on one side only")
                failed += 1
                continue
            line, faults, notes = compare(a, b)
            identical += line == "identical"
            print(f"{a.name}: {line}", flush=True)
            counts = [flag_counts(a), flag_counts(b)]
            if counts[0] is not None:
                print(f"  flags A: {counts[0]}; B: {counts[1]}")
            for note in notes:
                print(f"  NOTE {note}")
            for fault in faults:
                print(f"  FAULT {fault}")
            failed += bool(faults)
    print(f"{files} files, {identical} byte-identical, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
