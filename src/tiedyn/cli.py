"""Command-line entry point for the experiment pipelines.

Usage:
    tiedyn --input events.txt --mode alpha-sweep --alpha-grid 1e-3:1e2:50 --out sweep.csv

A flat key=value config file can supply any flag (keys match the flag
names without the leading dashes); flags given on the command line
override the file. Exit code is 0 on success; errors print a single
line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .experiments import ExperimentConfig, run
from .randomize import METHOD_CODES, METHODS

_MODE_NAMES = {
    "ensemble": "ensemble",
    "alpha-sweep": "alpha_sweep",
    "time-series": "time_series",
    "aggregate-compare": "aggregate_compare",
}


def _parse_alpha_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def _parse_alpha_grid(text: str) -> list[float]:
    try:
        lo_s, hi_s, pts_s = text.split(":")
        lo, hi, pts = float(lo_s), float(hi_s), int(pts_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad grid spec {text!r}, expected LO:HI:POINTS") from None
    if not (0 < lo < hi < math.inf) or pts < 2:
        raise argparse.ArgumentTypeError(
            "grid bounds must be positive, finite and ordered")
    return list(np.geomspace(lo, hi, pts))


def _parse_methods(text: str) -> list[str]:
    if text == "all":
        return list(METHODS)
    if text in METHOD_CODES:
        return [METHOD_CODES[text]]
    raise argparse.ArgumentTypeError(
        f"unknown method {text!r}; use is, sts, rt, res, or all")


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = stripped.partition("=")
            values[key.strip()] = value.strip()
    return values


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tiedyn",
        description="Spectral-gap experiments for opinion dynamics on "
                    "tie-decay networks built from event streams.")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--input", help="event-list file (t i j per line)")
    p.add_argument("--mode", choices=sorted(_MODE_NAMES))
    p.add_argument("--alpha", type=_parse_alpha_list, metavar="A[,A...]",
                   help="comma-separated decay rates")
    p.add_argument("--alpha-grid", type=_parse_alpha_grid, metavar="LO:HI:POINTS",
                   help="log-spaced decay-rate grid")
    p.add_argument("--method", type=_parse_methods, metavar="{is,sts,rt,res,all}",
                   help="randomization method(s) for ensemble mode")
    p.add_argument("--ensemble", type=int, help="ensemble size (default 50)")
    p.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    p.add_argument("--min-edges", type=int,
                   help="drop nodes with fewer distinct incident edges")
    p.add_argument("--directed", action="store_true", default=None,
                   help="treat events as directed")
    p.add_argument("--out", help="output CSV path")
    return p


def config_from_args(argv: list[str] | None = None) -> ExperimentConfig:
    args = build_parser().parse_args(argv)
    file_values = _read_config_file(args.config) if args.config else {}

    def pick(flag: str, cli_value, convert=lambda x: x):
        if cli_value is not None:
            return cli_value
        if flag in file_values:
            return convert(file_values[flag])
        return None

    mode = pick("mode", args.mode)
    alphas = pick("alpha", args.alpha, _parse_alpha_list)
    grid = pick("alpha-grid", args.alpha_grid, _parse_alpha_grid)
    if grid is not None and alphas is None:
        alphas = grid
    if mode == "alpha-sweep" and alphas is None:
        alphas = _parse_alpha_grid("1e-3:1e2:30")

    kwargs = {}
    if pick("input", args.input) is not None:
        kwargs["input"] = pick("input", args.input)
    if mode is not None:
        kwargs["mode"] = _MODE_NAMES[mode]
    if alphas is not None:
        kwargs["alphas"] = alphas
    methods = pick("method", args.method, _parse_methods)
    if methods is not None:
        kwargs["methods"] = methods
    for flag, value, convert in [
        ("ensemble", args.ensemble, int),
        ("seed", args.seed, int),
        ("min-edges", args.min_edges, int),
        ("out", args.out, str),
    ]:
        v = pick(flag, value, convert)
        if v is not None:
            kwargs[flag.replace("-", "_")] = v
    directed = pick("directed", args.directed,
                    lambda s: s.lower() in ("1", "true", "yes"))
    if directed is not None:
        kwargs["directed"] = directed
    return ExperimentConfig(**kwargs)


def main(argv: list[str] | None = None) -> int:
    try:
        config = config_from_args(argv)
        records = run(config)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(records)} records"
          + (f" to {config.out}" if config.out else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
