"""Only ``experiments/figure4.py`` in ``src/repro`` imports ``multiprocessing``.

Intra-code parallelism has one bootstrap: ``workers=N`` starts N
loopback cluster workers (``repro.sim.cluster.LocalWorkers``), which
rebuild the engine from its JSON payload. A fork or spawn pool beside it
would be a second bootstrap, and a fork from the multi-threaded serve
daemon a hazard. ``run_figure4``'s per-code spawn pool is the one
exception: it runs each code's series inline. This walks the AST of
every source module, so an aliased or ``from`` import is caught too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
ALLOWED = {"experiments/figure4.py"}


def _violations(path: Path, root: Path = SRC) -> list[str]:
    relative = path.relative_to(root).as_posix()
    if relative in ALLOWED:
        return []
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "multiprocessing":
                found.append(f"{relative}:{node.lineno} imports {name}")
    return found


def test_allowed_module_exists():
    for relative in ALLOWED:
        assert "multiprocessing" in (SRC / relative).read_text()


def test_no_multiprocessing_outside_figure4():
    violations = [
        violation
        for path in sorted(SRC.rglob("*.py"))
        for violation in _violations(path)
    ]
    assert not violations, "\n".join(violations)


@pytest.mark.parametrize(
    "source",
    [
        "import multiprocessing\n",
        "import multiprocessing as mp\n",
        "import multiprocessing.pool\n",
        "from multiprocessing import Pool\n",
        "from multiprocessing.pool import ThreadPool\n",
        "def f():\n    import multiprocessing\n",
    ],
)
def test_guard_catches_each_form(tmp_path, source):
    path = tmp_path / "sim" / "x.py"
    path.parent.mkdir()
    path.write_text(source)
    assert _violations(path, tmp_path)


def test_guard_spares_the_allowed_module_only(tmp_path):
    for relative in (*ALLOWED, "experiments/table1.py"):
        path = tmp_path / relative
        path.parent.mkdir(exist_ok=True)
        path.write_text("import multiprocessing\n")
    assert _violations(tmp_path / "experiments" / "figure4.py", tmp_path) == []
    assert _violations(tmp_path / "experiments" / "table1.py", tmp_path)
