"""Regeneration of the paper's Table I (circuit metrics).

One row per (code, prep method, verification method) combination the paper
reports. The paper's rows (DATE 2025, Table I):

=============  ============  ==========  ==================
Code           [[n, k, d]]   State prep  Verification
=============  ============  ==========  ==================
Steane         [[7,1,3]]     Opt/Heu     Opt/Global
Shor           [[9,1,3]]     Heu         Opt; Global
Shor           [[9,1,3]]     Opt         Opt/Global
Surface        [[9,1,3]]     Opt/Heu     Opt/Global
[[11,1,3]]     [[11,1,3]]    Heu         Opt; Global
Tetrahedral    [[15,1,3]]    Opt/Heu     Opt/Global
Hamming        [[15,7,3]]    Heu / Opt   Opt/Global
Carbon         [[12,2,4]]    Opt; Heu    Opt/Global; Opt
[[16,2,4]]     [[16,2,4]]    Heu         Opt
Tesseract      [[16,6,4]]    Heu         Opt/Global
=============  ============  ==========  ==================

Absolute numbers need not be bit-identical to the paper (our prep circuits
and the search-found [[11,1,3]]/[[12,2,4]]/[[16,2,4]] instances differ from
Ref. [22]'s artifacts; see docs/architecture.md, "Substitutions and
modelling choices"), but the structural claims are
asserted in the test suite: which codes need one layer, where flags are
free, and that global never scores worse than sequential-optimal.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

from ..codes.catalog import get_code
from ..core.globalopt import globally_optimize_protocol, protocol_score
from ..core.metrics import ProtocolMetrics, protocol_metrics
from ..core.protocol import synthesize_protocol

__all__ = ["TABLE1_ROWS", "Table1Row", "run_table1", "render_table1"]


#: (code key, prep method, verification method) for every paper row.
#: Verification "global" triggers the global optimization procedure.
TABLE1_ROWS: list[tuple[str, str, str]] = [
    ("steane", "heuristic", "optimal"),
    ("steane", "heuristic", "global"),
    ("shor", "heuristic", "optimal"),
    ("shor", "heuristic", "global"),
    ("shor", "optimal", "optimal"),
    ("surface_3", "heuristic", "optimal"),
    ("11_1_3", "heuristic", "optimal"),
    ("11_1_3", "heuristic", "global"),
    ("tetrahedral", "heuristic", "optimal"),
    ("hamming", "heuristic", "optimal"),
    ("hamming", "optimal", "optimal"),
    ("carbon", "optimal", "optimal"),
    ("carbon", "heuristic", "optimal"),
    ("16_2_4", "heuristic", "optimal"),
    ("tesseract", "heuristic", "optimal"),
]

#: Subset of rows that run quickly (used by the default bench profile).
TABLE1_FAST_ROWS: list[tuple[str, str, str]] = [
    row
    for row in TABLE1_ROWS
    if row[0] not in ("tesseract",) and row[1] != "optimal"
]


@dataclass
class Table1Row:
    """One regenerated Table-I row."""

    code: str
    prep_method: str
    verification_method: str
    metrics: ProtocolMetrics
    seconds: float
    global_candidates: int | None = None
    #: Batched FT certificate verdict (None when not requested).
    ft_certified: bool | None = None

    def cells(self) -> dict:
        row = dict(self.metrics.as_row())
        row["code"] = self.code  # catalog key, not the display name
        row["prep"] = self.prep_method[:3]
        row["verif"] = self.verification_method[:6]
        row["sec"] = round(self.seconds, 1)
        if self.global_candidates is not None:
            row["explored"] = self.global_candidates
        if self.ft_certified is not None:
            row["ft"] = self.ft_certified
        return row


def run_row(
    code_key: str,
    prep_method: str,
    verification_method: str,
    *,
    global_time_budget: float | None = 600.0,
    verify_ft: bool = False,
    workers: int = 1,
    max_slab: int | None = None,
    executor=None,
    model=None,
) -> Table1Row:
    """Synthesize one Table-I row and extract its metrics.

    ``verify_ft`` additionally runs the exhaustive single-fault
    certificate on the synthesized protocol — cheap now that it executes
    on the batched engine, so the regenerated table can carry a proof
    column next to the metrics. ``workers`` / ``max_slab`` shard that
    certificate's enumeration (``repro.sim.shard``) for the big codes;
    ``executor`` selects the execution backend (e.g.
    ``repro.sim.cluster`` TCP workers); ``model`` certifies against a noise model's fault set
    (``repro.sim.noisemodels`` — ``None`` keeps the E1_1 enumeration).
    """
    code = get_code(code_key)
    start = time.monotonic()
    candidates = None
    if verification_method == "global":
        result = globally_optimize_protocol(
            code, prep_method=prep_method, time_budget=global_time_budget
        )
        protocol = result.protocol
        metrics = result.metrics
        candidates = result.candidates_explored
    else:
        protocol = synthesize_protocol(
            code,
            prep_method=prep_method,
            verification_method=verification_method,
        )
        metrics = protocol_metrics(protocol)
    ft_certified = None
    if verify_ft:
        from ..core.ftcheck import check_fault_tolerance

        ft_certified = not check_fault_tolerance(
            protocol,
            max_violations=1,
            workers=workers,
            max_slab=max_slab,
            executor=executor,
            model=model,
        )
    return Table1Row(
        code=code_key,
        prep_method=prep_method,
        verification_method=verification_method,
        metrics=metrics,
        seconds=time.monotonic() - start,
        global_candidates=candidates,
        ft_certified=ft_certified,
    )


def run_table1(
    rows: list[tuple[str, str, str]] | None = None,
    *,
    global_time_budget: float | None = 600.0,
    verify_ft: bool = False,
    workers: int = 1,
    max_slab: int | None = None,
    executor=None,
    model=None,
) -> list[Table1Row]:
    """Regenerate Table I (all rows by default)."""
    rows = TABLE1_ROWS if rows is None else rows
    with contextlib.ExitStack() as stack:
        if verify_ft:
            from ..sim.shard import shared_executor

            # One worker set certifies every row, not one launch per row.
            executor = stack.enter_context(shared_executor(workers, executor))
        return [
            run_row(
                code,
                prep,
                verif,
                global_time_budget=global_time_budget,
                verify_ft=verify_ft,
                workers=workers,
                max_slab=max_slab,
                executor=executor,
                model=model,
            )
            for code, prep, verif in rows
        ]


def render_table1(rows: list[Table1Row]) -> str:
    """Fixed-width text rendering of regenerated Table-I rows."""
    lines = [
        f"{'code':<12} {'prep':<4} {'verif':<6} {'n':>3} {'k':>2} "
        f"{'ΣANC':>4} {'ΣCNOT':>5} {'∅ANC':>5} {'∅CNOT':>6}  layers"
    ]
    lines.append("-" * 100)
    for row in rows:
        m = row.metrics
        fragments = " || ".join(
            f"{layer.kind}: {layer.format_fragment()}" for layer in m.layers
        )
        certified = (
            ""
            if row.ft_certified is None
            else (" FT " if row.ft_certified else " !! ")
        )
        lines.append(
            f"{row.code:<12} {row.prep_method[:4]:<4} "
            f"{row.verification_method[:6]:<6} {m.n:>3} {m.k:>2} "
            f"{m.total_verification_ancillas:>4} "
            f"{m.total_verification_cnots:>5} "
            f"{m.average_correction_ancillas:>5.2f} "
            f"{m.average_correction_cnots:>6.2f} {certified} {fragments}"
        )
    return "\n".join(lines)
