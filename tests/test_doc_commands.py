"""Every documented ``repro`` command line parses.

Pulls each ``python -m repro …`` / ``repro …`` line out of the fenced
blocks of ``README.md`` and ``docs/*.md`` and parses it with
``build_parser()``, so a dropped or renamed flag fails here instead of
in a reader's shell. ``#`` comments, a trailing ``&`` and ``\\``
continuations are handled; a line with a ``$`` expansion is skipped
(its value is only known in the reader's shell).
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
#: A command: optional ``VAR=value`` prefixes, then the entry point.
_COMMAND = re.compile(r"^(?:\w+=\S*\s+)*(?:python3? -m repro|repro)\s+(.*)$")


def documented_commands() -> list[tuple[str, str]]:
    """``(file, argument string)`` for every documented command line."""
    found = []
    for path in DOCS:
        for block in _FENCE.findall(path.read_text()):
            for line in re.sub(r"\\\n\s*", " ", block).splitlines():
                match = _COMMAND.match(line.strip())
                if match and "$" not in line:
                    found.append((path.relative_to(ROOT).as_posix(), match.group(1)))
    return found


COMMANDS = documented_commands()


def test_the_docs_document_commands():
    assert len(COMMANDS) > 50


@pytest.mark.parametrize(
    "where, command", COMMANDS, ids=[f"{w}:{c}" for w, c in COMMANDS]
)
def test_documented_command_parses(where, command):
    argv = shlex.split(command, comments=True)
    if argv[-1:] == ["&"]:
        argv.pop()
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"{where}: 'repro {command}' does not parse (exit {exc.code})")
