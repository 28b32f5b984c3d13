"""Test-side references for ``SubsetSampler``: an engine double and the
per-shot oracle for the stratum planner's exact masses.

The planner (``repro.sim.shard``) enumerates the k = 1 rows and k = 2
pair runs of a location universe as index arrays and sums the probability
of the failing ones. :func:`reference_mass` recomputes the same mass the
slow, independent way: it walks ``SiteUniverse.iter_rows()`` /
``iter_pair_runs()`` as injection dicts and judges each run on its own
with :class:`ReferenceSampler` (the per-shot ``ProtocolRunner``).
"""

from __future__ import annotations

import numpy as np

from repro.sim.frame import protocol_locations
from repro.sim.noise import E1_1, materialize_stratum
from repro.sim.noisemodels import site_universe
from repro.sim.sampler import ReferenceSampler


class FakeEngine:
    """Engine double: a shot fails iff ``predicate(injection_dict)``."""

    def __init__(self, predicate, locations):
        self.predicate = predicate
        self.locations = list(locations)

    def failures(self, injections_per_shot):
        return np.array(
            [bool(self.predicate(inj)) for inj in injections_per_shot],
            dtype=bool,
        )

    def failures_indexed(self, loc_idx, draw_idx):
        return self.failures(
            materialize_stratum(self.locations, loc_idx, draw_idx)
        )


def reference_mass(protocol, k: int, *, model=None) -> float:
    """Exact ``f_k`` (k = 1 or 2) by a per-shot sum over every run.

    ``model=None`` is E1_1, whose conditional strata do not depend on
    ``p``.
    """
    universe = site_universe(
        protocol_locations(protocol), model if model is not None else E1_1(p=0.1)
    )
    runs = universe.iter_rows() if k == 1 else universe.iter_pair_runs()
    engine = ReferenceSampler(protocol)
    total = 0.0
    for injections, weight, *_ in runs:
        if engine.failures([injections])[0]:
            total += weight
    return total
