"""Run a ``repro`` daemon command, optionally recording layer spans.

Usage::

    python3 perfbench/host.py [--spans FILE] <repro CLI arguments>

e.g. ``host.py serve --listen 127.0.0.1:0``. With ``--spans`` the layer
wrappers of ``layers.py`` are installed first and every recorded span is
written to FILE as JSON when the command returns (the daemons return on
SIGINT).
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    # A launcher that started us in the background may have left SIGINT
    # ignored; the daemons only shut down cleanly on KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = Path(argv[1]), argv[2:]
    recorder = None
    if spans_path is not None:
        from layers import Recorder, install

        recorder = Recorder()
        install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        if recorder is not None:
            spans_path.write_text(json.dumps(recorder.spans))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
