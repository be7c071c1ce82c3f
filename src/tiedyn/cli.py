"""Command-line entry point for the experiment pipelines.

Usage:
    tiedyn --input events.txt --mode alpha-sweep --alpha-grid 1e-3:1e2:50 --out sweep.csv

A flat key=value config file can supply any flag: keys are the flag
names without the leading dashes, and each line goes through the flag
parser as ``--key=value``. ``directed`` takes true/false, 1/0 or yes/no.
Flags given on the command line override the file. ``--alpha`` and
``--alpha-grid`` are one setting: either one on the command line replaces
both in the file, and giving both in one place is an error. Exit code is 0 on
success; every error, from a flag or a file line, prints a single line
to stderr (naming ``file:line`` for a file line) and exits 1.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .experiments import ExperimentConfig, run
from .randomize import METHOD_CODES, METHODS

_MODES = ["aggregate-compare", "alpha-sweep", "ensemble", "time-series"]
_TRUE, _FALSE = ("true", "1", "yes"), ("false", "0", "no")


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a parse error instead of printing usage and exiting."""

    def error(self, message):
        raise ValueError(message)


def _int_at_least(lo: int):
    """An argparse type for integers >= lo."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return integer


def _parse_alpha_list(text: str) -> list[float]:
    alphas = []
    for tok in filter(None, text.split(",")):
        try:
            alpha = float(tok)
        except ValueError:
            alpha = math.nan  # fails the range check below
        if not 0 < alpha < math.inf:
            raise argparse.ArgumentTypeError(
                f"bad alpha {tok!r}, expected a positive and finite number")
        if alpha in alphas:
            raise argparse.ArgumentTypeError(f"repeated alpha {tok!r} in {text!r}")
        alphas.append(alpha)
    if not alphas:
        raise argparse.ArgumentTypeError(f"no alpha values in {text!r}")
    return alphas


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
    alphas = list(np.geomspace(lo, hi, pts))
    if len(set(alphas)) < pts:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} repeats alpha values; widen it or use fewer points")
    return alphas


def _parse_methods(text: str) -> list[str]:
    if text == "all":
        return list(METHODS)
    if text in METHOD_CODES:
        return [METHOD_CODES[text]]
    raise argparse.ArgumentTypeError(
        f"unknown method {text!r}; use is, sts, rt, res, or all")


def _read_config_file(parser: argparse.ArgumentParser,
                      path: str) -> argparse.Namespace:
    """Parse each ``key=value`` line as the flag ``--key=value``."""
    ns = argparse.Namespace(alphas=None, alpha_grid=None)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, eq, value = (s.strip() for s in stripped.partition("="))
            had_alphas = ns.alphas is not None
            try:
                if not eq:
                    raise ValueError("expected key=value")
                tokens = [f"--{key}={value}"]
                if key == "directed" and value.lower() in _TRUE + _FALSE:
                    tokens = ["--directed"] if value.lower() in _TRUE else []
                parser.parse_args(tokens, namespace=ns)
                if ns.config is not None:  # also catches abbreviations
                    raise ValueError("config files do not nest")
                if ns.alphas is not None and ns.alpha_grid is not None:
                    this, other = (("--alpha-grid", "--alpha") if had_alphas
                                   else ("--alpha", "--alpha-grid"))
                    raise ValueError(f"argument {this}: not allowed with argument {other}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return ns


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="tiedyn",
        description="Spectral-gap experiments for opinion dynamics on "
                    "tie-decay networks built from event streams.")
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--input", help="event-list file (t i j per line)")
    p.add_argument("--mode", choices=_MODES, default="alpha-sweep")
    alphas = p.add_mutually_exclusive_group()  # one setting, given either way
    alphas.add_argument("--alpha", dest="alphas", type=_parse_alpha_list,
                        metavar="A[,A...]", help="comma-separated decay rates")
    alphas.add_argument("--alpha-grid", type=_parse_alpha_grid, metavar="LO:HI:POINTS",
                        help="log-spaced decay-rate grid")
    p.add_argument("--method", dest="methods", type=_parse_methods,
                   metavar="{is,sts,rt,res,all}",
                   help="randomization method(s) for ensemble mode")
    p.add_argument("--ensemble", type=_int_at_least(1),
                   help="ensemble size (default 50)")
    p.add_argument("--seed", type=_int_at_least(0), help="base RNG seed (default 0)")
    p.add_argument("--min-edges", type=_int_at_least(0),
                   help="drop nodes with fewer distinct neighbours")
    p.add_argument("--directed", action="store_true",
                   help="treat events as directed")
    p.add_argument("--out", help="output CSV path")
    return p


def config_from_args(argv: list[str] | None = None) -> ExperimentConfig:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:  # the file first, then the command line over it
        from_file = _read_config_file(parser, args.config)
        if args.alphas is not None or args.alpha_grid is not None:
            from_file.alphas = from_file.alpha_grid = None  # replaced as a unit
        args = parser.parse_args(argv, from_file)
    if args.alphas is None:
        args.alphas = args.alpha_grid
    if args.alphas is None and args.mode == "alpha-sweep":
        args.alphas = _parse_alpha_grid("1e-3:1e2:30")
    args.mode = args.mode.replace("-", "_")
    del args.config, args.alpha_grid
    return ExperimentConfig(**{k: v for k, v in vars(args).items() if v is not None})


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
