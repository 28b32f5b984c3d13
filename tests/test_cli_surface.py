"""The CLI's parser surface, pinned against a JSON golden.

For every (sub)command, ``cli_surface.json`` records each argparse
action's option strings, dest, default, choices, nargs, type name and
``required``, plus the mutually exclusive groups and the subcommand
names (aliases included). How the parser is declared may change freely;
what a command line accepts may not, unless the golden changes with it.

The golden was recorded before the flag groups became shared argparse
parents. ``SURFACE_CHANGES`` lists the two deliberate differences since:
``check`` became an alias of ``ftcheck`` (so it takes ftcheck's flags)
and ``serve`` stopped declaring ``--noise`` (noise is per query).

Print the current surface with ``PYTHONPATH=src python
tests/test_cli_surface.py``.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

from repro.cli import build_parser

GOLDEN = Path(__file__).with_name("cli_surface.json")

#: Differences from the golden, per command: options gained, options lost.
SURFACE_CHANGES = {
    "repro check": {
        "gained": ["--engine", "--max-violations", "--survey", "--seed"],
        "lost": [],
    },
    "repro serve": {"gained": [], "lost": ["--noise"]},
}


def _action(action: argparse.Action) -> dict:
    return {
        "action": type(action).__name__,
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "choices": None if action.choices is None else list(action.choices),
        "nargs": action.nargs,
        "type": None if action.type is None else action.type.__name__,
        "required": action.required,
    }


def parser_surface(parser: argparse.ArgumentParser, path: str = "repro") -> dict:
    """``{command path: surface}`` for ``parser`` and every subparser."""
    options, positionals, surfaces = {}, [], {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            positionals.append(
                {"dest": action.dest, "required": action.required,
                 "subcommands": sorted(action.choices)}
            )
            for name, subparser in action.choices.items():
                surfaces.update(parser_surface(subparser, f"{path} {name}"))
        elif action.option_strings:
            options[" ".join(action.option_strings)] = _action(action)
        else:
            positionals.append(_action(action))
    mutex = sorted(
        sorted(" ".join(a.option_strings) for a in group._group_actions)
        for group in parser._mutually_exclusive_groups
    )
    surfaces[path] = {"options": options, "positionals": positionals, "mutex": mutex}
    # JSON round trip: tuples become lists, as in the golden.
    return json.loads(json.dumps(surfaces))


def _expected() -> dict:
    expected = json.loads(GOLDEN.read_text())
    ftcheck = expected["repro ftcheck"]["options"]
    for path, change in SURFACE_CHANGES.items():
        options = expected[path]["options"]
        for flag in change["gained"]:
            options[flag] = copy.deepcopy(ftcheck[flag])
        for flag in change["lost"]:
            del options[flag]
    return expected


def test_surface_matches_the_golden():
    surface = parser_surface(build_parser())
    expected = _expected()
    assert sorted(surface) == sorted(expected)
    for path in expected:
        assert surface[path] == expected[path], path


def render(surfaces: dict) -> str:
    """The golden's layout: one line per action, commands sorted."""
    line = lambda value: json.dumps(value, sort_keys=True)  # noqa: E731
    blocks = []
    for path, surface in sorted(surfaces.items()):
        options = ",\n".join(
            f"   {line(flag)}: {line(action)}"
            for flag, action in sorted(surface["options"].items())
        )
        positionals = ",\n".join(f"   {line(p)}" for p in surface["positionals"])
        blocks.append(
            f" {line(path)}: {{\n  \"mutex\": {line(surface['mutex'])},\n"
            f"  \"options\": {{\n{options}\n  }},\n"
            f"  \"positionals\": [\n{positionals}\n  ]\n }}"
        )
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.stdout.write(render(parser_surface(build_parser())))
