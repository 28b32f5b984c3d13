"""The non-deterministic (repeat-until-success) baseline (paper Sec. III.A).

The state of the art the paper improves on: run the non-FT prep circuit
plus verification; if any verification (or flag) measurement triggers,
*discard the state and start over*. Acceptance is heralded, so the
accepted states carry an O(p^2) logical error rate — but the number of
attempts is stochastic, which is the synchronization problem motivating
the deterministic scheme (Ref. [17]).

This module derives the baseline directly from a synthesized
:class:`~repro.core.protocol.DeterministicProtocol` by discarding its
correction branches, so deterministic-vs-non-deterministic comparisons
(``benchmarks/bench_ablation_determinism.py``) use *identical* prep and
verification circuits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sim.frame import (
    Injection,
    LocationKey,
    ProtocolRunner,
    RunResult,
    _segment_locations,
)
from ..sim.logical import LogicalJudge
from ..sim.noise import sample_injections
from .protocol import DeterministicProtocol, VerificationLayer

__all__ = [
    "AttemptResult",
    "RepeatUntilSuccessStats",
    "NonDeterministicRunner",
]


@dataclass
class AttemptResult:
    """One attempt of the repeat-until-success loop."""

    accepted: bool
    run: RunResult


@dataclass
class RepeatUntilSuccessStats:
    """Monte-Carlo statistics of the baseline at one physical error rate."""

    p: float
    attempts_total: int
    accepted: int
    logical_failures: int

    @property
    def acceptance_rate(self) -> float:
        if self.attempts_total == 0:
            return 1.0
        return self.accepted / self.attempts_total

    @property
    def expected_attempts(self) -> float:
        """Mean attempts until success (geometric: 1 / acceptance rate)."""
        if self.acceptance_rate == 0:
            return float("inf")
        return 1.0 / self.acceptance_rate

    @property
    def logical_error_rate(self) -> float:
        """Failure probability of *accepted* states."""
        if self.accepted == 0:
            return 0.0
        return self.logical_failures / self.accepted

    def __str__(self) -> str:
        return (
            f"p={self.p:.3g}: accept={self.acceptance_rate:.4f} "
            f"(E[attempts]={self.expected_attempts:.2f}), "
            f"p_L|accept={self.logical_error_rate:.3g}"
        )


class NonDeterministicRunner:
    """Repeat-until-success executor sharing circuits with ``protocol``.

    An attempt runs prep plus every verification layer; it is *accepted*
    iff no verification or flag bit triggered. Correction branches never
    execute (their locations exist but stay inert).
    """

    def __init__(self, protocol: DeterministicProtocol):
        self.protocol = protocol
        self._runner = ProtocolRunner(_strip_branches(protocol))
        self._judge = LogicalJudge(protocol.code)
        self._trigger_bits = [
            bit
            for layer in protocol.layers
            for bit in layer.bits + layer.flag_bits
        ]
        # Only prep + verification locations can fault in the baseline.
        self.locations = _segment_locations(
            ("prep",), protocol.prep_segment
        )
        for li, layer in enumerate(protocol.layers):
            self.locations += _segment_locations(("verif", li), layer.circuit)

    def attempt(
        self, injections: dict[LocationKey, Injection] | None = None
    ) -> AttemptResult:
        """Run one attempt under a fixed injection map."""
        run = self._runner.run(injections)
        accepted = not any(
            run.flips.get(bit, 0) for bit in self._trigger_bits
        )
        return AttemptResult(accepted=accepted, run=run)

    def prepare(
        self,
        p: float,
        rng: np.random.Generator,
        *,
        max_attempts: int = 10_000,
    ) -> tuple[AttemptResult, int]:
        """Repeat attempts with fresh E1_1 noise until one is accepted."""
        for attempt_index in range(1, max_attempts + 1):
            injections = sample_injections(self.locations, p, rng)
            result = self.attempt(injections)
            if result.accepted:
                return result, attempt_index
        raise RuntimeError(f"no acceptance in {max_attempts} attempts")

    def simulate(
        self,
        p: float,
        shots: int,
        rng: np.random.Generator | None = None,
    ) -> RepeatUntilSuccessStats:
        """Monte-Carlo the full repeat-until-success pipeline.

        ``shots`` counts *accepted* preparations (each preceded by a
        stochastic number of rejected attempts, all tallied).
        """
        rng = rng if rng is not None else np.random.default_rng()
        stats = RepeatUntilSuccessStats(p, 0, 0, 0)
        for _ in range(shots):
            result, attempts = self.prepare(p, rng)
            stats.attempts_total += attempts
            stats.accepted += 1
            if self._judge.is_logical_failure(result.run):
                stats.logical_failures += 1
        return stats


def _strip_branches(protocol: DeterministicProtocol) -> DeterministicProtocol:
    """A shallow protocol copy whose layers have no correction branches."""
    layers = [
        VerificationLayer(
            kind=layer.kind,
            measurements=layer.measurements,
            circuit=layer.circuit,
            branches={},
        )
        for layer in protocol.layers
    ]
    return DeterministicProtocol(
        code=protocol.code,
        prep=protocol.prep,
        layers=layers,
        num_wires=protocol.num_wires,
        prep_segment=protocol.prep_segment,
    )
