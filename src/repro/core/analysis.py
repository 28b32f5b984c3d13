"""Error-budget attribution for synthesized protocols (beyond the paper).

The exact two-fault enumeration of ``sim.subset`` tells us *that*
``p_L ~ c2 p^2``; this module tells us *where* ``c2`` comes from: which
pairs of circuit locations actually defeat the protocol, aggregated by
segment (prep / verification / branch) and by location kind (1q, 2q,
reset, measurement). Device designers read this as an error budget: if
80% of failing pairs involve a prep CNOT, improving the two-qubit gate
fidelity in the prep stage pays off most.

The enumeration is evaluated through the batch engine
(``repro.sim.sampler``): all (pair, draw x draw) combinations become k = 2
index strata executed in packed slabs, and the per-pair failing counts are
aggregated with one scatter-add — identical verdicts and bit-identical
masses to the per-shot walk (``engine="reference"``), minus the
O(locations^2 * draws^2) Python loop. The pair enumeration is planned by
:class:`repro.sim.shard.StratumPlanner` into bounded ``max_slab`` chunks,
so ``workers > 1`` fans the slabs across loopback cluster workers (one
compiled protocol per worker) with bit-identical budgets for any worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim import sampler as sim_sampler
from ..sim.shard import resolve_evaluator
from .protocol import DeterministicProtocol

__all__ = ["ErrorBudget", "two_fault_error_budget"]


@dataclass
class ErrorBudget:
    """Attribution of the exact quadratic failure coefficient."""

    code_name: str
    num_locations: int
    f2_exact: float
    c2_exact: float
    by_segment_pair: dict[tuple[str, str], float] = field(default_factory=dict)
    by_kind_pair: dict[tuple[str, str], float] = field(default_factory=dict)

    def top_segment_pairs(self, count: int = 5):
        return sorted(
            self.by_segment_pair.items(), key=lambda kv: -kv[1]
        )[:count]

    def top_kind_pairs(self, count: int = 5):
        return sorted(self.by_kind_pair.items(), key=lambda kv: -kv[1])[:count]

    def render(self) -> str:
        lines = [
            f"error budget for {self.code_name}: "
            f"f2 = {self.f2_exact:.5f}, c2 = {self.c2_exact:.2f} "
            f"({self.num_locations} locations)"
        ]
        lines.append("  failing-pair mass by segment pair:")
        for (a, b), mass in self.top_segment_pairs():
            lines.append(f"    {a:>6} x {b:<6} {mass / self.f2_exact:6.1%}")
        lines.append("  failing-pair mass by location-kind pair:")
        for (a, b), mass in self.top_kind_pairs():
            lines.append(f"    {a:>7} x {b:<7} {mass / self.f2_exact:6.1%}")
        return "\n".join(lines)


def two_fault_error_budget(
    protocol: DeterministicProtocol,
    *,
    max_runs: int | None = 2_000_000,
    engine: str = "batched",
    workers: int = 1,
    max_slab: int | None = None,
    executor=None,
    model=None,
) -> ErrorBudget:
    """Exact two-fault enumeration with per-pair attribution.

    Runs the same enumeration as
    :meth:`repro.sim.subset.SubsetSampler.enumerate_k2_exact` but keeps
    the failing mass split by (segment, segment) and (kind, kind) pairs.
    The draw x draw cross products are planned into bounded pair chunks
    (at most ``max_slab`` runs each, ``None`` = 8192) and evaluated as
    k = 2 index strata on the selected engine — across ``workers``
    loopback worker processes, or on the ``executor`` backend (e.g.
    ``repro.sim.cluster`` TCP workers), when asked. Per-pair failing
    counts are exact integers
    and the mass aggregation order matches the per-shot loop, so the
    result is bit-identical across engines, worker counts, backends,
    and slab sizes.

    ``model`` switches the enumeration to a noise model's site pairs
    (``repro.sim.noisemodels``): every (site pair, draw, draw) run is
    weighted by its own conditional probability given exactly two
    events, so ``f2_exact`` is the model's true conditional failure
    probability (crosstalk pair sites appear with kind/segment label
    ``"xtalk"``). ``c2_exact`` then reports the nominal quadratic
    coefficient ``e_2(rates / p) * f2`` — exactly ``C(N, 2) * f2`` for
    E1_1 (or ``None``), whose runs all weigh ``1 / (C(N, 2) d_i d_j)``.

    Every call builds its engine and enumerates; the daemon caches
    budgets in its results ledger (``repro.serve``).
    """
    sampler = sim_sampler.make_sampler(protocol, engine=engine)
    with resolve_evaluator(
        sampler,
        workers=workers,
        max_slab=max_slab,
        executor=executor,
        model=model,
    ) as evaluator:
        planner = evaluator.planner
        total_runs = planner.total_pair_runs()
        if max_runs is not None and total_runs > max_runs:
            raise ValueError(
                f"two-fault budget needs {total_runs} runs (> {max_runs})"
            )
        merged = evaluator.reduce(planner.plan_pairs())
    f2 = 0.0
    by_segment: dict[tuple[str, str], float] = {}
    by_kind: dict[tuple[str, str], float] = {}
    if merged.pair_ids is not None and merged.pair_ids.size:
        # merge_partials returns ascending pair ids, so the masses add up
        # in one fixed order for a given enumeration.
        for pair_id, mass in zip(
            merged.pair_ids.tolist(), merged.pair_mass.tolist()
        ):
            _, kinds, segments = planner.pair_case(pair_id)
            f2 += mass
            seg_key = tuple(sorted(segments))
            kind_key = tuple(sorted(kinds))
            by_segment[seg_key] = by_segment.get(seg_key, 0.0) + mass
            by_kind[kind_key] = by_kind.get(kind_key, 0.0) + mass
    return ErrorBudget(
        code_name=protocol.code.name,
        num_locations=len(sampler.locations),
        f2_exact=f2,
        c2_exact=planner.universe.e2_relative() * f2,
        by_segment_pair=by_segment,
        by_kind_pair=by_kind,
    )
