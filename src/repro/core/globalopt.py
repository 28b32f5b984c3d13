"""Global optimization over equivalent verification circuits (paper Sec. IV).

The correction circuits depend on the preceding verification circuit, and
several *different* verification circuits share the optimal cost point
``(u, v)``. The global procedure enumerates every minimal verification
circuit (via the all-solutions SAT loop in ``synth.verification``),
synthesizes the full protocol — including all SAT-optimal corrections —
for each, and keeps the best protocol under a lexicographic score:

    (verification ancillas, verification CNOTs,
     average correction ancillas, average correction CNOTs)

Verification cost is compared first because verification executes on every
run, while corrections are conditional (their average approximates the
expected conditional cost — the paper's ∅ columns).

The Z layer's verification depends on the X layer choice (unflagged X-layer
hook residuals fold into the Z error set), so enumeration is nested: for
every optimal X verification, every optimal Z verification given it. A
wall-clock budget mirrors the paper's two-hour cancellation policy for the
larger codes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..codes.css import CSSCode
from ..synth.prep import PrepCircuit, prepare_zero
from ..synth.verification import enumerate_optimal_verifications
from .errors import dangerous_errors, detection_basis, error_reducer
from .metrics import ProtocolMetrics, protocol_metrics
from .protocol import DeterministicProtocol, _ProtocolBuilder, synthesize_protocol_from_parts

__all__ = ["GlobalOptResult", "globally_optimize_protocol", "protocol_score"]


def protocol_score(metrics: ProtocolMetrics) -> tuple:
    """Lexicographic comparison key (lower is better)."""
    return (
        metrics.total_verification_ancillas,
        metrics.total_verification_cnots,
        metrics.average_correction_ancillas,
        metrics.average_correction_cnots,
    )


@dataclass
class GlobalOptResult:
    """Outcome of the global optimization run."""

    protocol: DeterministicProtocol
    metrics: ProtocolMetrics
    candidates_explored: int
    timed_out: bool
    elapsed_seconds: float

    def __repr__(self) -> str:
        return (
            f"GlobalOptResult(best={protocol_score(self.metrics)}, "
            f"explored={self.candidates_explored}, "
            f"timed_out={self.timed_out})"
        )


def globally_optimize_protocol(
    code: CSSCode,
    *,
    prep_method: str = "heuristic",
    prep: PrepCircuit | None = None,
    verification_limit: int = 64,
    max_correction_measurements: int = 4,
    time_budget: float | None = None,
) -> GlobalOptResult:
    """Best deterministic protocol over all minimal verification circuits.

    Parameters
    ----------
    verification_limit:
        Cap on enumerated verification circuits *per layer* (the inner SAT
        all-solutions loop stops there).
    time_budget:
        Optional wall-clock cap in seconds; on expiry the best protocol so
        far is returned with ``timed_out=True`` (the paper cancels the
        global run after two hours for the Carbon and [[16,2,4]] codes).
    """
    start = time.monotonic()
    if prep is None:
        prep = prepare_zero(code, prep_method)

    dangerous_x = dangerous_errors(prep, "X")
    if dangerous_x:
        x_choices: list[list[np.ndarray] | None] = [
            r.measurements
            for r in enumerate_optimal_verifications(
                detection_basis(code, "X"), dangerous_x, limit=verification_limit
            )
        ]
    else:
        x_choices = [None]

    best: DeterministicProtocol | None = None
    best_metrics: ProtocolMetrics | None = None
    best_score: tuple | None = None
    explored = 0
    timed_out = False

    def out_of_time() -> bool:
        return (
            time_budget is not None
            and time.monotonic() - start > time_budget
        )

    for x_choice in x_choices:
        if out_of_time():
            timed_out = True
            break
        for z_choice in _z_choices_for(
            prep, x_choice, verification_limit
        ):
            if out_of_time():
                timed_out = True
                break
            protocol = synthesize_protocol_from_parts(
                prep,
                verification_x=x_choice,
                verification_z=z_choice,
                max_correction_measurements=max_correction_measurements,
            )
            explored += 1
            metrics = protocol_metrics(protocol)
            score = protocol_score(metrics)
            if best_score is None or score < best_score:
                best, best_metrics, best_score = protocol, metrics, score
        if timed_out:
            break

    if best is None or best_metrics is None:
        raise RuntimeError(
            f"{code.name}: global optimization explored no candidate "
            "(time budget too small?)"
        )
    return GlobalOptResult(
        protocol=best,
        metrics=best_metrics,
        candidates_explored=explored,
        timed_out=timed_out,
        elapsed_seconds=time.monotonic() - start,
    )


def _z_choices_for(
    prep: PrepCircuit,
    x_choice: list[np.ndarray] | None,
    limit: int,
) -> list[list[np.ndarray] | None]:
    """Optimal Z verification sets given one X layer choice.

    Mirrors the layer-planning logic of ``synthesize_protocol_from_parts``:
    the Z error set is the dangerous prep Z errors plus the dangerous hook
    residuals of the (unflagged) X layer. When no Z layer is needed the
    only choice is ``None``.
    """
    code = prep.code
    dangerous_z_prep = dangerous_errors(prep, "Z")
    hook_residuals: list[np.ndarray] = []
    if x_choice is not None:
        builder = _ProtocolBuilder(prep, max_correction_measurements=4)
        builder.plan_layer("X", x_choice, flag_by_default=False)
        hook_residuals = builder.dangerous_layer_residuals("Z")
    if not dangerous_z_prep and not hook_residuals:
        return [None]
    merged = error_reducer(code, "Z").dedupe(dangerous_z_prep + hook_residuals)
    results = enumerate_optimal_verifications(
        detection_basis(code, "Z"), merged, limit=limit
    )
    return [r.measurements for r in results]
