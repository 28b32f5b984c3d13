"""Nothing in ``src/repro`` unpickles, and the wire modules do not even
import ``pickle``.

Frames, engine payloads, store entries and ledger records all cross a
process, machine or disk boundary as JSON; a pickle read back from any
of them would run whatever code its author chose. This walks the AST of
every source module, so an aliased import or a ``from pickle import``
is caught too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
PICKLE_MODULES = {"pickle", "_pickle", "cPickle"}
UNPICKLING_NAMES = {"load", "loads", "Unpickler"}


def _no_pickle_import(relative: str) -> bool:
    """Modules that must not import pickle at all: the wire layers."""
    return relative.startswith("net/") or relative == "sim/cluster.py"


def _violations(path: Path, root: Path = SRC) -> list[str]:
    relative = path.relative_to(root).as_posix()
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = set(PICKLE_MODULES)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in PICKLE_MODULES:
                    aliases.add(alias.asname or alias.name)
                    if _no_pickle_import(relative):
                        found.append(f"{relative}:{node.lineno} imports {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.module in PICKLE_MODULES:
            if _no_pickle_import(relative):
                found.append(f"{relative}:{node.lineno} imports from {node.module}")
            for alias in node.names:
                if alias.name in UNPICKLING_NAMES:
                    found.append(f"{relative}:{node.lineno} imports {alias.name}")
        elif isinstance(node, ast.Attribute) and node.attr == "Unpickler":
            found.append(f"{relative}:{node.lineno} uses Unpickler")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in UNPICKLING_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append(f"{relative}:{node.lineno} calls {node.value.id}.{node.attr}")
    return found


def test_source_tree_is_where_expected():
    assert (SRC / "sim" / "cluster.py").is_file()
    assert (SRC / "net" / "framing.py").is_file()


def test_nothing_in_src_unpickles():
    violations = [
        violation
        for path in sorted(SRC.rglob("*.py"))
        for violation in _violations(path)
    ]
    assert not violations, "\n".join(violations)


@pytest.mark.parametrize(
    "relative, source, expected",
    [
        ("store/x.py", "import pickle\npickle.loads(b'')\n", "calls pickle.loads"),
        ("store/x.py", "import pickle as p\np.load(f)\n", "calls p.load"),
        ("store/x.py", "from pickle import loads\n", "imports loads"),
        ("store/x.py", "import pickle\npickle.Unpickler(f)\n", "uses Unpickler"),
        ("net/x.py", "import pickle\n", "imports pickle"),
        ("sim/cluster.py", "from pickle import dumps\n", "imports from pickle"),
    ],
)
def test_guard_catches_each_form(tmp_path, relative, source, expected):
    """The guard itself: every forbidden form is reported."""
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    assert any(expected in violation for violation in _violations(path, tmp_path))


def test_guard_allows_hashing_a_pickle_outside_the_wire():
    """``store.keys.model_token`` hashes ``pickle.dumps`` output and never
    reads a pickle back; that stays allowed outside net/ and cluster."""
    path = SRC / "store" / "keys.py"
    assert "pickle.dumps" in path.read_text()
    assert _violations(path) == []
