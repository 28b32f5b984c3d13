"""Regenerate every Table I row and compare its cells with the goldens.

Synthesizes all 15 rows of ``TABLE1_ROWS`` cold (artifact store off),
certifies each protocol against Definition 1 (the exhaustive single-fault
check), and compares each row's cells — every metric, without the
wall-clock ``sec`` and the ``ft`` verdict — with its one golden: the 11 ``TABLE1_FAST_ROWS`` with the benchmark's
``perfbench/fixtures/table1_expected.json`` (read only; regenerated by
``perfbench/fixtures/make_fixtures.py``), the other 4 with
``tests/experiments/table1_cells.json``. Exits nonzero on any difference
or on any protocol that is not fault-tolerant, so a change to synthesis
that moves a Table I number or breaks a certificate fails loudly;
``--record`` rewrites ``table1_cells.json`` first. Each row's cold
synthesis time is printed to the millisecond (the ``sec`` cell itself is
rounded to 0.1 s).

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


def regenerate() -> tuple[dict[str, dict], list[str]]:
    """Cells of every row (without ``sec`` and ``ft``), and the rows whose
    protocol fails its fault-tolerance certificate."""
    from repro.experiments.table1 import TABLE1_ROWS, run_row

    cells, not_ft = {}, []
    for code, prep, verif in TABLE1_ROWS:
        key = f"{code}/{prep}/{verif}"
        row = run_row(code, prep, verif, verify_ft=True)
        row_cells = row.cells()
        ft = row_cells.pop("ft")
        del row_cells["sec"]
        print(f"{key}: {row.seconds:.3f} s, ft={ft}", file=sys.stderr)
        cells[key] = row_cells
        if not ft:
            not_ft.append(key)
    return cells, not_ft


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--record", action="store_true", help="rewrite table1_cells.json, then compare"
    )
    args = parser.parse_args(argv)

    os.environ["REPRO_STORE"] = "off"
    from repro.experiments.table1 import TABLE1_FAST_ROWS

    start = time.perf_counter()
    cells, not_ft = regenerate()
    print(f"{len(cells)} rows in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    if args.record:
        fast = {"/".join(row) for row in TABLE1_FAST_ROWS}
        slow = {key: row for key, row in cells.items() if key not in fast}
        GOLDEN.write_text(json.dumps(slow, indent=1, sort_keys=True) + "\n")
    golden = {**json.loads(FAST_GOLDEN.read_text()), **json.loads(GOLDEN.read_text())}
    diffs = [key for key in golden.keys() | cells.keys() if golden.get(key) != cells.get(key)]
    for key in sorted(diffs):
        print(f"{key}:\n  golden {golden.get(key)}\n  got    {cells.get(key)}")
    for key in not_ft:
        print(f"{key}: not fault-tolerant")
    return 1 if diffs or not_ft else 0


if __name__ == "__main__":
    raise SystemExit(main())
