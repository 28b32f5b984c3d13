"""Regenerate the benchmark's fixtures from the current synthesis code.

    PYTHONPATH=src python3 perfbench/fixtures/make_fixtures.py

Writes ``protocols/<code>.json`` (canonical ``protocol_to_json`` of each
code's heuristic-prep / optimal-verification protocol, the Fig. 4
configuration), ``table1_expected.json`` (the Table I cells of
``TABLE1_FAST_ROWS``) and ``figure4_expected.json`` (the exact k = 1
failure rates). The expected files are the benchmark's oracle: review
any diff this script makes to them like a change to a golden value.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from passes import CODES  # noqa: E402


def main() -> int:
    os.environ["REPRO_STORE"] = "off"
    os.environ["REPRO_LEDGER"] = "off"
    from repro.codes.catalog import get_code
    from repro.core.protocol import synthesize_protocol
    from repro.core.serialize import protocol_from_json, protocol_to_json
    from repro.experiments.figure4 import run_series
    from repro.experiments.table1 import TABLE1_FAST_ROWS, run_table1

    (HERE / "protocols").mkdir(exist_ok=True)
    f1 = {}
    for code in CODES:
        protocol = synthesize_protocol(
            get_code(code), prep_method="heuristic", verification_method="optimal"
        )
        text = protocol_to_json(protocol)
        (HERE / "protocols" / f"{code}.json").write_text(text)
        series = run_series(
            code, protocol=protocol_from_json(text), shots=0, workers=1, ledger=False
        )
        f1[code] = series.f1_exact
    expected = {}
    for row in run_table1(TABLE1_FAST_ROWS):
        cells = row.cells()
        cells.pop("sec")
        expected[f"{row.code}/{row.prep_method}/{row.verification_method}"] = cells
    (HERE / "table1_expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    (HERE / "figure4_expected.json").write_text(
        json.dumps({"f1_exact": f1}, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
