#!/usr/bin/env python3
"""Does temporal structure slow down consensus?

We build a small bursty stream, randomize it with each of the four
reference models, and compare spectral gaps of M(T). On empirical
contact data the randomized gaps tend to be larger: burstiness and
inter-event correlations are bottlenecks for opinion flow.
"""

import numpy as np

from tiedyn import parse_events
from tiedyn.experiments import ExperimentConfig, run_ensemble

# bursty synthetic stream: repeated contacts in tight clumps
rng = np.random.default_rng(0)
lines = []
t = 0.0
for burst in range(12):
    t += float(rng.exponential(20.0))
    i, j = rng.choice(8, size=2, replace=False)
    for _ in range(int(rng.integers(2, 6))):
        t += float(rng.exponential(0.2))
        lines.append(f"{t:.3f} {i} {j}")
stream = parse_events("\n".join(lines))

records, summaries = run_ensemble(
    stream, ExperimentConfig(alphas=[0.1], ensemble=100, seed=42))
original = next(r.gap for r in records if r.method == "original")
print(f"original gap of M(T): {original:.6f}\n")

print(f"{'method':24s} {'q1':>9s} {'median':>9s} {'q3':>9s}")
for method, _, s in summaries:
    print(f"{method:24s} {s.q1:9.6f} {s.median:9.6f} {s.q3:9.6f}")
