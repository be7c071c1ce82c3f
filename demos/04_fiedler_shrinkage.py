#!/usr/bin/env python3
"""Why do gap jumps happen? Watch the Fiedler vector shrink.

Two 3-node streams share the events at t=0 (edges 0-1 and 1-2) but
differ in the single event at t=1. Right-multiplying M(1) by the next
interval factor Y(1+) contracts the slow mode v2 by ||v2 Y|| / ||v2||;
the case whose factor shrinks v2 more ends up with the larger spectral
gap of M(2) = M(1) Y(1+).
"""

from pathlib import Path

from tiedyn import (iter_factors, parse_events, propagate, shrinkage_ratio,
                    spectral_gap)

fixtures = Path(__file__).parents[1] / "tests/fixtures"
alpha = 1.0

for label, name in (("A (repeat edge 0-1)", "fig5_case_a"),
                    ("B (close the triangle: 0-2)", "fig5_case_b")):
    stream = parse_events((fixtures / f"{name}.txt").read_text())
    M1 = propagate(stream, alpha, upto=1.0).matrix
    Y = list(iter_factors(stream, alpha, upto=2.0))[-1]
    ratio = shrinkage_ratio(M1, Y)
    gap2 = spectral_gap(propagate(stream, alpha, upto=2.0).matrix)
    print(f"case {label}")
    print(f"  shrinkage ||w2||/||v2|| = {ratio:.3f}")
    print(f"  gap of M(2)             = {gap2:.3f}\n")

print("smaller shrinkage ratio <=> larger gap of M(2)")
