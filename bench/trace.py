"""Run the tiedyn CLI in this process with every layer's public functions timed.

Usage:
    python3 bench/trace.py SPANS.json CLI-ARGS...

Each public function listed in ``LAYERS`` is replaced by a wrapper that
records a span ``[name, start, end, parent]`` (``parent`` is the index
of the enclosing span, -1 at top level). The wrapper replaces the
function under every name that any ``tiedyn`` module bound to it, since
``experiments`` and ``propagator`` import ``interval_factor``,
``spectral_gap``, ``decay_to`` and the others directly. Spans stay in
memory until ``tiedyn.cli.main`` returns; they are then written to
SPANS.json and the process exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = {
    "events": ("parse_events", "exclude_low_degree_nodes", "group_event_times"),
    "tie_decay": ("decay_to", "apply_events", "laplacian"),
    "propagator": ("interval_factor", "propagate"),
    "spectral": ("spectral_gap", "shrinkage_ratio"),
    "randomize": ("interval_shuffle", "shuffle_time_stamps", "random_times",
                  "random_edge_shuffle"),
    "aggregate": ("aggregate_weights", "aggregate_propagator"),
    "experiments": ("run", "records_to_csv", "summaries_to_csv"),
    "cli": ("main",),
}


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> None:
        """Wrap every listed function under all names tiedyn bound it to."""
        import importlib

        modules = [importlib.import_module(f"tiedyn.{m}") for m in LAYERS]
        modules.append(importlib.import_module("tiedyn"))
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"tiedyn.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import tiedyn.cli

    code = tiedyn.cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
