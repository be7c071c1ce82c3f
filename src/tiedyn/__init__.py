"""Opinion dynamics and spectral-gap analysis on tie-decay temporal networks."""

from .aggregate import aggregate_propagator, aggregate_weights
from .events import (EventStream, EventStreamError, exclude_low_degree_nodes,
                     group_event_times, parse_events, serialize_events,
                     stream_stats)
from .propagator import (IntervalFactor, Propagator, degroot_run,
                         degroot_transition, evolve_opinions, interval_factor,
                         iter_factors, propagate)
from .randomize import (RandomizerSpec, interval_shuffle, member_seed,
                        random_edge_shuffle, random_times, randomize,
                        shuffle_time_stamps)
from .spectral import (DefectiveEigenpairError, DegenerateFiedlerError,
                       fiedler_left, shrinkage_ratio, spectral_gap)
from .tie_decay import apply_events, decay_to, laplacian

__version__ = "0.1.0"
