"""Exhaustive fault-tolerance verification of assembled protocols.

The certificate behind the paper's claims: for *every* single fault at
*every* always-executed location (prep, verification layers — branch
segments only run after a trigger, so a lone branch fault cannot occur),
the executed protocol must leave residual X and Z errors of reduced weight
at most 1 each (Definition 1 at t = 1, with X/Z counted separately as CSS
decoding does). The zero-fault run must be silent: no syndrome, no flags,
no residual.

This is a *proof by enumeration*, not a statistical test — it complements
the Fig. 4 noise simulations and is run over every catalog code in the test
suite. The enumeration is evaluated through the batched bit-packed engine
(``repro.sim.sampler``): the fault set becomes one k = 1 index stratum,
executed in a handful of packed calls with a vectorized residual-weight
reduction, instead of one per-shot ``ProtocolRunner`` walk per fault.
``engine="reference"`` keeps the per-shot oracle path (identical verdicts,
cross-validated in ``tests/integration/test_certificates.py``).

Both certificate entry points accept ``workers`` / ``max_slab``: the
enumeration is planned into bounded row chunks by
:class:`repro.sim.shard.StratumPlanner` and fanned across loopback
cluster workers (each compiles the protocol once from its JSON payload),
with violations reported in enumeration order regardless of the worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim import sampler as sim_sampler
from ..sim.frame import (
    Injection,
    ProtocolRunner,
    always_executed,
    protocol_locations,
)
from ..sim.noise import draw_tables
from ..sim.shard import resolve_evaluator
from .protocol import DeterministicProtocol

__all__ = [
    "FTViolation",
    "check_fault_tolerance",
    "enumerate_checkable_injections",
    "second_order_survey",
]


@dataclass
class FTViolation:
    """A single fault that breaks the FT guarantee, with its evidence."""

    location: tuple
    injection: Injection
    x_weight: int
    z_weight: int
    flips: dict[str, int]

    def __str__(self) -> str:
        return (
            f"fault {self.injection} at {self.location}: residual "
            f"wt_S(x)={self.x_weight}, wt_S(z)={self.z_weight}, "
            f"flips={sorted(b for b, v in self.flips.items() if v)}"
        )


def _checkable_strata(locations):
    """Always-executed fault set as one k = 1 index stratum.

    Every always-executed location (:func:`repro.sim.frame.always_executed`
    — the same predicate behind the sharding planner's
    ``checkable_only`` row universe, so the survey pool and the sharded
    certificate enumerate in the same order by construction), every
    equally-likely conditional draw, in the shared ``fault_draws`` table
    order. Returns ``(pool, loc_idx, draw_idx)`` where ``pool[r]`` is
    the (location key, Injection) pair evaluated by row ``r`` of the
    ``(rows, 1)`` index arrays.
    """
    tables = draw_tables(locations)
    pool: list[tuple[tuple, Injection]] = []
    loc_rows: list[int] = []
    draw_rows: list[int] = []
    for index, (key, _, _) in enumerate(locations):
        if not always_executed(key):
            continue
        for draw_index, injection in enumerate(tables[index]):
            pool.append((key, injection))
            loc_rows.append(index)
            draw_rows.append(draw_index)
    loc_idx = np.asarray(loc_rows, dtype=np.intp)[:, None]
    draw_idx = np.asarray(draw_rows, dtype=np.intp)[:, None]
    return pool, loc_idx, draw_idx


def enumerate_checkable_injections(protocol: DeterministicProtocol):
    """(location, Injection) pairs for every always-executed fault.

    Mirrors ``core.faults.enumerate_faults`` (the E1_1 location model) over
    the prep segment and each verification segment. Delegates to
    :func:`_checkable_strata`, so the survey pool and the certificate
    stratum are one enumeration by construction.
    """
    pool, _, _ = _checkable_strata(protocol_locations(protocol))
    yield from pool


def second_order_survey(
    protocol: DeterministicProtocol,
    *,
    samples: int = 2000,
    rng=None,
    engine: str = "batched",
    workers: int = 1,
    max_slab: int | None = None,
    executor=None,
) -> dict:
    """Survey Definition 1 at t = 2: fraction of fault *pairs* leaving
    ``wt_S > 2`` residuals.

    The paper's synthesis targets single faults (t = 1); handling two
    independent errors is its stated future work ("codes beyond distance
    four"). This diagnostic quantifies how far a synthesized protocol
    already is from the t = 2 requirement: it samples random pairs of
    always-executed faults and reports the violation fraction. A d = 3
    protocol is *allowed* to violate t = 2 (⌊d/2⌋ = 1); the number is a
    design-space observable, not a pass/fail certificate.

    The pair draw stream is engine- and worker-count-independent
    (identical to the historical per-shot loop for a given ``rng``); only
    the evaluation is batched — the sampled pairs travel as pairs of
    checkable row ids and run as ``(pairs, 2)`` index arrays, sharded with
    ``workers > 1`` into ``max_slab`` chunks across loopback workers.
    ``executor`` selects the execution backend (e.g. cluster workers)
    through the :func:`repro.sim.shard.resolve_evaluator` seam; the
    survey numbers are identical for every backend.
    """
    rng = rng if rng is not None else np.random.default_rng()
    sampler = sim_sampler.make_sampler(protocol, engine=engine)
    # Row r of the checkable stratum is row r of the planner's
    # ``checkable_only`` universe, so a sampled pair travels as two row ids.
    _, loc_idx, _ = _checkable_strata(sampler.locations)
    row_locations = loc_idx[:, 0].tolist()
    pairs: list[tuple[int, int]] = []
    for _ in range(samples):
        i, j = rng.choice(len(row_locations), size=2, replace=False)
        i, j = int(i), int(j)
        if row_locations[i] == row_locations[j]:
            continue
        pairs.append((i, j))
    with resolve_evaluator(
        sampler,
        workers=workers,
        max_slab=max_slab,
        executor=executor,
    ) as evaluator:
        merged = evaluator.reduce(
            evaluator.planner.plan_row_pairs(pairs, threshold=2)
        )
    violations = merged.heavy
    checked = len(pairs)
    return {
        "pairs_checked": checked,
        "violations": violations,
        "violation_fraction": violations / checked if checked else 0.0,
    }


def check_fault_tolerance(
    protocol: DeterministicProtocol,
    *,
    max_violations: int = 10,
    engine: str = "batched",
    workers: int = 1,
    max_slab: int | None = None,
    executor=None,
    model=None,
) -> list[FTViolation]:
    """Run every single-fault scenario; return violations (empty = FT).

    Also asserts the fault-free run is completely silent. The enumeration
    is planned into bounded row chunks (``repro.sim.shard``) and evaluated
    on the selected engine — inline by default, across ``workers``
    processes (or the ``executor`` backend, e.g. ``repro.sim.cluster``
    TCP workers) when asked; violations come back in enumeration order,
    capped at ``max_violations``, exactly as the per-shot walk reported
    them, for every engine, worker count, and backend.

    ``model`` generalizes the certificate's fault set to a noise model's
    single *events* (``repro.sim.noisemodels``): sites with zero rate are
    excluded, and a correlated crosstalk pair is one event injecting at
    both member locations — so the certificate answers "does any single
    fault *mechanism the model can produce* break the protocol?". A
    violation at a pair site reports the key/injection *tuples* of both
    members. E1_1 (or ``None``) is the uniform universe: every location,
    each draw once. Note that a weight-2 crosstalk event can legally
    defeat a distance-3 protocol — the certificate then reports it
    rather than hiding it.

    Every call builds its engine and enumerates; the daemon caches
    certificates in its results ledger (``repro.serve``).
    """
    sampler = sim_sampler.make_sampler(protocol, engine=engine)

    no_fault = np.zeros((1, 0), dtype=np.intp)
    clean = sampler.run_indexed(no_fault, no_fault)
    if (
        clean.data_x.any()
        or clean.data_z.any()
        or any(values.any() for values in clean.flips.values())
    ):
        raise AssertionError(
            f"{protocol.code.name}: fault-free run is not silent"
        )

    violations: list[FTViolation] = []
    evidence_runner: ProtocolRunner | None = None
    truncated = False
    with resolve_evaluator(
        sampler,
        workers=workers,
        max_slab=max_slab,
        executor=executor,
        model=model,
    ) as evaluator:
        planner = evaluator.planner
        for partial in evaluator.map(
            planner.plan_rows(checkable_only=True, threshold=1)
        ):
            if partial.rows is None:
                continue
            for row, x_weight, z_weight in zip(
                partial.rows.tolist(),
                partial.row_x.tolist(),
                partial.row_z.tolist(),
            ):
                location, injection, injections = planner.row_case(
                    int(row), checkable_only=True
                )
                # Violations are rare (zero for a correct protocol), so
                # the flip evidence is gathered with one per-shot replay.
                if evidence_runner is None:
                    evidence_runner = ProtocolRunner(protocol)
                flips = evidence_runner.run(injections).flips
                violations.append(
                    FTViolation(
                        location,
                        injection,
                        int(x_weight),
                        int(z_weight),
                        flips,
                    )
                )
                if len(violations) >= max_violations:
                    truncated = True
                    break
            if truncated:
                break
    return violations
