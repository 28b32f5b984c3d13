"""Regenerate every Table I row and compare its cells with the goldens.

Synthesizes all 15 rows of ``TABLE1_ROWS`` cold (artifact store off) and
compares each row's cells — every metric, without the wall-clock ``sec`` —
with its one golden: the 11 ``TABLE1_FAST_ROWS`` with the benchmark's
``perfbench/fixtures/table1_expected.json`` (read only; regenerated by
``perfbench/fixtures/make_fixtures.py``), the other 4 with
``tests/experiments/table1_cells.json``. Exits nonzero on any difference,
so a change to synthesis that moves a Table I number fails loudly;
``--record`` rewrites ``table1_cells.json`` first.

Usage::

    PYTHONPATH=src python scripts/table1_cells.py [--record]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "experiments" / "table1_cells.json"
FAST_GOLDEN = ROOT / "perfbench" / "fixtures" / "table1_expected.json"


def regenerate() -> dict[str, dict]:
    from repro.experiments.table1 import TABLE1_ROWS, run_row

    cells = {}
    for code, prep, verif in TABLE1_ROWS:
        row = run_row(code, prep, verif)
        row_cells = row.cells()
        print(f"{code}/{prep}/{verif}: {row_cells.pop('sec')} s", file=sys.stderr)
        cells[f"{code}/{prep}/{verif}"] = row_cells
    return cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", action="store_true", help="rewrite table1_cells.json, then compare"
    )
    args = parser.parse_args(argv)

    os.environ["REPRO_STORE"] = "off"
    from repro.experiments.table1 import TABLE1_FAST_ROWS

    start = time.perf_counter()
    cells = regenerate()
    print(f"{len(cells)} rows in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    if args.record:
        fast = {"/".join(row) for row in TABLE1_FAST_ROWS}
        slow = {key: row for key, row in cells.items() if key not in fast}
        GOLDEN.write_text(json.dumps(slow, indent=1, sort_keys=True) + "\n")
    golden = {**json.loads(FAST_GOLDEN.read_text()), **json.loads(GOLDEN.read_text())}
    diffs = [key for key in golden.keys() | cells.keys() if golden.get(key) != cells.get(key)]
    for key in sorted(diffs):
        print(f"{key}:\n  golden {golden.get(key)}\n  got    {cells.get(key)}")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
