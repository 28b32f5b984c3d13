"""Tests for the Table-I regeneration harness."""

import json
from pathlib import Path

import pytest

from repro.experiments.table1 import (
    TABLE1_FAST_ROWS,
    TABLE1_ROWS,
    render_table1,
    run_row,
    run_table1,
)


class TestRowConfiguration:
    def test_all_paper_codes_covered(self):
        codes = {code for code, _, _ in TABLE1_ROWS}
        assert codes == {
            "steane", "shor", "surface_3", "11_1_3", "tetrahedral",
            "hamming", "carbon", "16_2_4", "tesseract",
        }

    def test_shor_has_heu_and_opt_rows(self):
        shor_preps = {prep for code, prep, _ in TABLE1_ROWS if code == "shor"}
        assert shor_preps == {"heuristic", "optimal"}

    def test_global_rows_present(self):
        assert any(v == "global" for _, _, v in TABLE1_ROWS)

    def test_fast_rows_subset(self):
        assert set(TABLE1_FAST_ROWS) <= set(TABLE1_ROWS)
        assert all(code != "tesseract" for code, _, _ in TABLE1_FAST_ROWS)


GOLDEN = json.loads((Path(__file__).parent / "table1_cells.json").read_text())
FAST_GOLDEN = json.loads(
    (Path(__file__).parents[2] / "perfbench" / "fixtures" / "table1_expected.json").read_text()
)


class TestGoldenCells:
    """Every row's cells have exactly one golden: the fast rows in the
    benchmark's fixture, the rest in ``table1_cells.json``. CI regenerates
    all 15 rows against them (``scripts/table1_cells.py``)."""

    def test_goldens_split_the_rows(self):
        fast = {"/".join(row) for row in TABLE1_FAST_ROWS}
        assert set(FAST_GOLDEN) == fast
        assert set(GOLDEN) == {"/".join(row) for row in TABLE1_ROWS} - fast


class TestRunRow:
    def test_steane_optimal(self):
        row = run_row("steane", "heuristic", "optimal")
        assert row.metrics.total_verification_ancillas == 1
        assert row.metrics.total_verification_cnots == 3
        assert row.metrics.average_correction_ancillas == 1.0
        assert row.metrics.average_correction_cnots == 3.0
        assert row.global_candidates is None

    def test_steane_global(self):
        row = run_row("steane", "heuristic", "global")
        assert row.global_candidates >= 1
        # Global never worse than sequential-optimal.
        sequential = run_row("steane", "heuristic", "optimal")
        assert (
            row.metrics.total_verification_ancillas
            <= sequential.metrics.total_verification_ancillas
        )

    def test_cells_flat_dict(self):
        cells = run_row("steane", "heuristic", "optimal").cells()
        assert cells["code"] == "steane"
        assert cells["prep"] == "heu"
        assert "sec" in cells


class TestRunAndRender:
    def test_small_batch(self):
        rows = run_table1(
            [("steane", "heuristic", "optimal"),
             ("surface_3", "heuristic", "optimal")]
        )
        assert len(rows) == 2
        text = render_table1(rows)
        assert "steane" in text
        assert "surface_3" in text
        assert "ΣANC" in text

    def test_render_contains_layer_fragments(self):
        rows = run_table1([("steane", "heuristic", "optimal")])
        text = render_table1(rows)
        assert "X:" in text
        assert "corr" in text
