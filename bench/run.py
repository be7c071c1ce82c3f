"""End-to-end and per-layer benchmark of the four tiedyn CLI modes.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Each workload writes a seeded synthetic event stream sized like one of
the paper's datasets, then runs one CLI mode on it as separate
``python3 -m tiedyn.cli`` processes, one after another (a closed loop
with one client), with BLAS pinned to one thread. The run repeats whole
rounds for S seconds (at least three rounds):

- ``--trace 0``: a round is one set-up probe (a fresh interpreter that
  imports tiedyn and loads the input through the public loaders) and one
  CLI run. Reports the end-to-end metrics, each a median.
- ``--trace 1``: a round is one traced CLI run (``bench/trace.py``) and
  one untraced run. Reports the per-layer metrics as medians over the
  traced runs and prints the tracing overhead.

Every round is bracketed by calibration probes, and every reported time
is in calibrated seconds (see CALIBRATION_CODE). Every run's CSV must be
byte-identical, and the output is checked against independent
references (``bench/checks.py``). The last line of standard output is
one JSON object: correct, attempted, failed, metrics. An operation is
one CSV row; ``failed`` counts rows a CSV reader cannot parse.
``--workload all`` runs every workload untraced and traced.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import importlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import checks
from gen import StreamSpec, make_stream

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_ROUNDS = 3
PREFIX_INTERVALS = 40


@dataclass(frozen=True)
class Workload:
    dataset: str                 # tests/test_acceptance.py::DATASETS entry it is sized from
    spec: StreamSpec
    mode: str
    alphas: tuple[float, ...]
    flags: tuple[str, ...] = ()
    ensemble: int = 0
    min_edges: int = 0
    alpha_grid: tuple[float, float, int] | None = None


# Node and edge counts follow DATASETS; event and distinct-time counts are
# cut so that one CLI run takes about 2 s and a run holds about eight rounds.
# aggregate-large runs at alpha 0.1: at 0.001 its heaviest edges make
# interval_factor fail its column-sum check on some seeds.
WORKLOADS = {
    "sweep-fast-decay": Workload(
        "workplace", StreamSpec(92, 755, 1200, 400), "alpha-sweep",
        tuple(float(a) for a in np.geomspace(1, 100, 5)), alpha_grid=(1, 100, 5)),
    "ensemble-slow-decay": Workload(
        "reality_mining", StreamSpec(64, 722, 760, 160), "ensemble", (0.01,),
        ("--method", "all"), ensemble=2),
    "timeseries": Workload(
        "reality_mining", StreamSpec(64, 722, 13131, 400), "time-series", (1.0,)),
    "aggregate-large": Workload(
        "primary_school", StreamSpec(242, 8317, 125773, 100, resolution=300, pendant=4),
        "aggregate-compare", (0.1,), min_edges=2),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "intervals_per_s": "1/s",
                    "peak_rss_mb": "MB"}

# per-layer metric -> (kind, span names); kinds: incl (inclusive seconds),
# self (seconds outside child spans), calls (span count)
PER_LAYER = {
    "events.parse_s": ("incl", ["events.parse_events"]),
    "events.exclude_s": ("incl", ["events.exclude_low_degree_nodes"]),
    "events.group_s": ("incl", ["events.group_event_times"]),
    "tie_decay.decay_s": ("incl", ["tie_decay.decay_to"]),
    "tie_decay.apply_s": ("incl", ["tie_decay.apply_events"]),
    "tie_decay.laplacian_s": ("incl", ["tie_decay.laplacian"]),
    "tie_decay.calls": ("calls", ["tie_decay.decay_to", "tie_decay.apply_events",
                                  "tie_decay.laplacian"]),
    "propagator.factor_s": ("incl", ["propagator.interval_factor"]),
    "propagator.factor_calls": ("calls", ["propagator.interval_factor"]),
    "propagator.propagate_s": ("incl", ["propagator.propagate"]),
    "propagator.product_s": ("self", ["propagator.propagate"]),
    "spectral.gap_s": ("incl", ["spectral.spectral_gap"]),
    "spectral.gap_calls": ("calls", ["spectral.spectral_gap"]),
    "spectral.shrinkage_s": ("incl", ["spectral.shrinkage_ratio"]),
    "spectral.shrinkage_calls": ("calls", ["spectral.shrinkage_ratio"]),
    "randomize.is_s": ("incl", ["randomize.interval_shuffle"]),
    "randomize.sts_s": ("incl", ["randomize.shuffle_time_stamps"]),
    "randomize.rt_s": ("incl", ["randomize.random_times"]),
    "randomize.res_s": ("incl", ["randomize.random_edge_shuffle"]),
    "randomize.members": ("calls", ["randomize.interval_shuffle",
                                    "randomize.shuffle_time_stamps",
                                    "randomize.random_times",
                                    "randomize.random_edge_shuffle"]),
    "aggregate.weights_s": ("incl", ["aggregate.aggregate_weights"]),
    "aggregate.propagator_s": ("incl", ["aggregate.aggregate_propagator"]),
    "experiments.csv_s": ("incl", ["experiments.records_to_csv",
                                   "experiments.summaries_to_csv"]),
    "experiments.self_s": ("self", ["experiments.run"]),
    "cli.main_s": ("incl", ["cli.main"]),
    "cli.self_s": ("self", ["cli.main"]),
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Sum inclusive time, self time and calls per span name."""
    incl: dict[str, float] = {}
    self_: dict[str, float] = {}
    calls: dict[str, int] = {}
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    for (name, start, end, _), inner in zip(spans, child):
        incl[name] = incl.get(name, 0.0) + end - start
        self_[name] = self_.get(name, 0.0) + end - start - inner
        calls[name] = calls.get(name, 0) + 1
    table = {"incl": incl, "self": self_, "calls": calls}
    return {metric: sum(table[kind].get(n, 0) for n in names)
            for metric, (kind, names) in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# Processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_process(cmd: list[str]) -> tuple[float, float]:
    """Run ``cmd`` to completion; return (wall seconds, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    reaped = False
    try:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        proc.stderr.close()
        if not reaped:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[:4])} ... exited {proc.returncode}: "
                           f"{err.decode(errors='replace').strip()[-500:]}")
    return wall, usage.ru_maxrss / 1024.0


SETUP_CODE = """\
import sys, pathlib, tiedyn
stream = tiedyn.parse_events(pathlib.Path(sys.argv[1]).read_text())
if int(sys.argv[2]):
    stream = tiedyn.exclude_low_degree_nodes(stream, int(sys.argv[2]))
"""


# A fixed load in a fresh interpreter, independent of tiedyn: the CLI's
# imports, then small eigh/matmul calls and Python loops. Every timed round
# is bracketed by two probes, and its times are reported in calibrated
# seconds, scaled by CALIBRATION_S / (mean of the two probe times). The
# host's speed drifts by about 20% over tens of seconds; the scaling cancels
# most of that drift between runs.
CALIBRATION_CODE = """\
import numpy as np, scipy.linalg
a = np.random.default_rng(0).random((64, 64))
a = a + a.T
total = 0
for _ in range(400):
    np.linalg.eigh(a)
    a @ a
    for k in range(300):
        total += k
"""
CALIBRATION_S = 0.5


def blas_threads() -> str:
    """Thread counts reported by every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.split()[-1].lower()})
    except OSError:
        return "unknown"
    found = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                found.append(f"{Path(lib).name}={fn()}")
                break
    return ", ".join(found) or "unknown"


def machine_info() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sp_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"cores={os.cpu_count()} blas_threads=[{blas_threads()}] "
            f"python={sys.version.split()[0]} numpy={np.__version__} "
            f"scipy={scipy.__version__} numpy_openblas={blas.get('version')} "
            f"scipy_openblas={sp_blas.get('version')}")


# ---------------------------------------------------------------------------
# One workload


class Bench:
    """One workload's input, CLI invocations, recorded outputs and checks."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed, self.w = name, seed, WORKLOADS[name]
        self.dir = OUT / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.stream = make_stream(self.w.spec, seed)
        self.input = self.dir / "events.txt"
        self.input.write_text(self.stream.text())
        self.out = self.dir / "out.csv"
        self.summary = self.dir / "out_summary.csv"
        self.hashes: set[str] = set()
        self.cli_runs = 0

    def cli_args(self) -> list[str]:
        w = self.w
        args = ["--input", str(self.input), "--out", str(self.out), "--mode", w.mode]
        if w.alpha_grid:
            args += ["--alpha-grid", ":".join(str(x) for x in w.alpha_grid)]
        else:
            args += ["--alpha", ",".join(repr(a) for a in w.alphas)]
        if w.ensemble:
            args += ["--ensemble", str(w.ensemble), "--seed", str(self.seed)]
        if w.min_edges:
            args += ["--min-edges", str(w.min_edges)]
        return args + list(w.flags)

    def _record_output(self) -> None:
        digest = hashlib.sha256(self.out.read_bytes())
        if self.summary.exists():
            digest.update(self.summary.read_bytes())
        self.hashes.add(digest.hexdigest())
        self.cli_runs += 1

    def cli(self) -> tuple[float, float]:
        result = timed_process([sys.executable, "-m", "tiedyn.cli", *self.cli_args()])
        self._record_output()
        return result

    def traced(self) -> tuple[float, dict[str, float]]:
        spans_path = self.dir / "spans.json"
        wall, _ = timed_process([sys.executable, str(BENCH / "trace.py"),
                                 str(spans_path), *self.cli_args()])
        self._record_output()
        return wall, layer_metrics(json.loads(spans_path.read_text()))

    def calibrate(self) -> float:
        return timed_process([sys.executable, "-c", CALIBRATION_CODE])[0]

    def setup(self) -> float:
        wall, _ = timed_process([sys.executable, "-c", SETUP_CODE, str(self.input),
                                 str(self.w.min_edges)])
        return wall

    # -- output checks and interval counts --------------------------------

    def verify(self) -> tuple[list[str], int, int, int, str]:
        """(problems, rows per run, failed rows per run, intervals per run, info)."""
        import tiedyn

        problems = [] if len(self.hashes) == 1 else [
            f"CSV bytes differ across the {self.cli_runs} runs"]
        rows, p = checks.read_records(self.out.read_text())
        problems += p
        summaries: list[checks.Row] = []
        if self.summary.exists():
            summaries, p = checks.read_summaries(self.summary.read_text())
            problems += p
        w, s = self.w, self.stream
        t0 = int(s.t[0])
        distinct = len(np.unique(s.t))
        live_on = s
        if w.mode == "alpha-sweep":
            problems += checks.check_sweep_rows(rows, list(w.alphas),
                                                float(s.t[-1] - t0), len(s.t))
            problems += self._verify_prefix(tiedyn)
            intervals = (distinct - 1) * len(w.alphas)
        elif w.mode == "ensemble":
            p, intervals = self._verify_ensemble(tiedyn, rows, summaries)
            problems += p
        elif w.mode == "time-series":
            p = checks.check_time_series_rows(rows, s)
            problems += p
            if not p:
                ref, factors = checks.reference_products(
                    s, w.spec.nodes, w.alphas[0], PREFIX_INTERVALS)
                problems += checks.check_time_series_prefix(rows, ref, factors)
            intervals = (distinct - 1) * len(w.alphas)
        else:
            kept = checks.exclude_low_degree(s, w.min_edges)
            live_on = kept
            T = float(kept.t[-1] - t0)
            problems += checks.check_aggregate_rows(
                rows, list(w.alphas), lambda a: checks.aggregate_weights(kept, t0, a)[0],
                T, len(kept.t))
            intervals = (len(np.unique(kept.t)) - 1) * len(w.alphas)
        live = statistics.mean(checks.live_node_share(live_on, a) for a in w.alphas)
        saturated = sum(r.nums["gap"] == 1.0 for r in rows) / max(len(rows), 1)
        info = (f"input: nodes={w.spec.nodes} edges={w.spec.edges} events={len(s.t)} "
                f"distinct_times={distinct} (sized from DATASETS[{w.dataset!r}]) "
                f"live_node_share={live:.4f} saturated_gap_share={saturated:.4f} "
                f"intervals_per_run={intervals}")
        all_rows = rows + summaries
        return (problems, len(all_rows), sum(r.failed for r in all_rows), intervals, info)

    def _verify_prefix(self, tiedyn) -> list[str]:
        """M(t_k) from propagate(upto=t_k) against the expm reference."""
        s = self.stream
        stream = tiedyn.parse_events(self.input.read_text())
        perm = [int(label) for label in stream.labels]
        times = np.unique(s.t) - s.t[0]
        stops = (PREFIX_INTERVALS // 4, PREFIX_INTERVALS // 2, PREFIX_INTERVALS)
        problems = []
        for alpha in self.w.alphas:
            ref, _ = checks.reference_products(s, self.w.spec.nodes, alpha,
                                               PREFIX_INTERVALS)
            captured = [tiedyn.propagate(stream, alpha, upto=float(times[k])).matrix
                        for k in stops]
            problems += checks.check_prefix(
                captured, [ref[k][np.ix_(perm, perm)] for k in stops],
                f"alpha={alpha:g}")
        return problems

    def _verify_ensemble(self, tiedyn, rows, summaries) -> tuple[list[str], int]:
        w = self.w
        stream = tiedyn.parse_events(self.input.read_text())
        methods = importlib.import_module("tiedyn.randomize").METHODS
        problems = checks.check_count(rows, len(w.alphas) * (1 + len(methods) * w.ensemble),
                                      "ensemble")
        problems += checks.check_gaps(rows) + checks.check_summaries(rows, summaries)
        distinct = lambda st: len({e.time for e in st.events})
        per_alpha = distinct(stream) - 1
        expect = {("original", None): (stream.horizon, len(stream.events))}
        for method in methods:
            for i in range(w.ensemble):
                seed = tiedyn.member_seed(self.seed, i)
                member = tiedyn.randomize(stream, tiedyn.RandomizerSpec(method, seed))
                problems += checks.member_invariants(method, stream, member)
                expect[(method, seed)] = (member.horizon, len(member.events))
                per_alpha += distinct(member) - 1
        for r in rows:
            seed = None if r.nums["seed"] is None else int(r.nums["seed"])
            want = expect.get((r.fields["method"], seed))
            if want is None or (r.nums["t_n"], r.nums["event_count"]) != want:
                problems.append(f"{r.fields['method']} seed {r.fields['seed']}: "
                                f"t_n/event_count {r.fields['t_n']}/"
                                f"{r.fields['event_count']}, expected {want}")
        return problems, per_alpha * len(w.alphas)


def repeat_rounds(seconds: float, step) -> None:
    """Call ``step`` in whole rounds, at least MIN_ROUNDS, until one more
    round of the mean length would overrun ``seconds``."""
    start = time.perf_counter()
    done = 0
    while True:
        step()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= MIN_ROUNDS and elapsed * (done + 1) / done > seconds:
            return


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def fmt_samples(values: list[float]) -> str:
    return f"n={len(values)} [" + " ".join(f"{v:.4f}" for v in values) + "]"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(name, seed)
    print(f"[{name}] seed={seed} trace={int(trace)} {machine_info()}")
    problems = [f"self-test: {p}" for p in checks.self_test()]
    probes = [bench.calibrate()]
    raw: dict[str, list[float]] = {"wall": [], "setup": [], "traced": []}
    scaled: dict[str, list[float]] = {"wall": [], "setup": []}
    rss: list[float] = []
    layers: list[dict[str, float]] = []

    def one_round():
        """Runs between two calibration probes, scaled by their mean."""
        times: dict[str, float] = {}
        if trace:
            times["traced"], spans = bench.traced()
        else:
            times["setup"] = bench.setup()
        times["wall"], peak = bench.cli()
        probes.append(bench.calibrate())
        scale = CALIBRATION_S / statistics.mean(probes[-2:])
        for key, value in times.items():
            raw[key].append(value)
            if key in scaled:
                scaled[key].append(value * scale)
        if trace:
            layers.append({m: v * scale if PER_LAYER[m][0] != "calls" else v
                           for m, v in spans.items()})
        rss.append(peak)

    repeat_rounds(seconds, one_round)
    p, rows, failed_rows, intervals, info = bench.verify()
    problems += p
    print(f"[{name}] {info}")
    print(f"[{name}] raw seconds: wall {fmt_samples(raw['wall'])}; "
          f"setup {fmt_samples(raw['setup'])}; calibration probe {fmt_samples(probes)}")
    wall = median(scaled["wall"])
    if trace:
        metrics = {m: {"value": median([l[m] for l in layers]),
                       "unit": "count" if PER_LAYER[m][0] == "calls" else "s"}
                   for m in PER_LAYER}
        print(f"[{name}] tracing overhead: {median(raw['traced']) - median(raw['wall']):+.4f} s "
              f"(traced wall {median(raw['traced']):.4f} s, untraced "
              f"{median(raw['wall']):.4f} s, raw medians over {len(raw['wall'])} rounds)")
    else:
        values = {"wall_s": wall, "setup_s": median(scaled["setup"]),
                  "intervals_per_s": intervals / wall, "peak_rss_mb": median(rss)}
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in values.items()}
    for m, v in metrics.items():
        print(f"[{name}] {m} = {v['value']:.6g} {v['unit']}")
    runs = bench.cli_runs
    print(f"[{name}] operations: attempted={rows * runs} failed={failed_rows * runs} "
          f"({rows} CSV rows per run, {failed_rows} unparsable, {runs} runs)")
    for problem in problems:
        print(f"[{name}] CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": rows * runs,
            "failed": failed_rows * runs, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tiedyn" / "__init__.py").is_file():
        print(f"error: no tiedyn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = {f"{name}/{'traced' if trace else 'untraced'}":
               run_workload(name, args.seed, args.seconds, trace)
               for name in WORKLOADS for trace in (False, True)}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{key}/{m}": v for key, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
