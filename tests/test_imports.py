"""Import budget and API parity of the lazily exporting package ``__init__``s.

Importing a module loads only what that module uses: synthesis and the
CLI never pay for networkx (``sim.matching``), the socket/TLS stacks
(``repro.net``, ``sim.cluster``, ``serve``) or asyncio
(``serve.server``). The packages still offer their whole public API.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

ENTRY_POINTS = (
    "import repro.cli",
    "import repro.experiments.table1",
    "from repro import get_code, synthesize_protocol",
)
#: Modules none of the entry points may load.
HEAVY = (
    "networkx",
    "ssl",
    "socket",
    "asyncio",
    "multiprocessing",
    "repro.sim.cluster",
    "repro.net",
    "repro.serve.server",
)
LAZY_PACKAGES = ("repro", "repro.core", "repro.sim", "repro.codes", "repro.experiments")


def _run_probe(probe: str) -> list[str]:
    """Run ``probe`` in a fresh interpreter; return its printed words."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


@pytest.mark.parametrize("statement", ENTRY_POINTS)
def test_entry_point_stays_within_import_budget(statement):
    probe = f"{statement}\nimport sys\nprint(*[m for m in {HEAVY!r} if m in sys.modules])"
    loaded = _run_probe(probe)
    assert loaded == [], f"{statement!r} loaded {loaded}"


def test_series_without_ledger_never_imports_serve():
    """``run_series(..., ledger=False)`` decides before importing the ledger."""
    fixture = SRC.parent / "perfbench" / "fixtures" / "protocols" / "steane.json"
    probe = "\n".join(
        (
            "import sys",
            "from pathlib import Path",
            "from repro.core.serialize import protocol_from_json",
            "from repro.experiments.figure4 import run_series",
            f"protocol = protocol_from_json(Path({str(fixture)!r}).read_text())",
            "run_series('steane', shots=200, protocol=protocol, ledger=False)",
            "print(*sorted(m for m in sys.modules if m.startswith('repro.serve')))",
        )
    )
    assert _run_probe(probe) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_match_their_submodules(package):
    pkg = importlib.import_module(package)
    assert pkg.__all__ == sorted(set(pkg.__all__))
    for name in pkg.__all__:
        value = getattr(pkg, name)
        home = getattr(value, "__module__", None)
        if isinstance(home, str) and home.startswith(f"{package}."):
            assert getattr(sys.modules[home], name) is value, name
        else:
            # Constants carry no __module__: some loaded submodule binds it.
            homes = [
                mod
                for mod_name, mod in list(sys.modules.items())
                if mod_name.startswith(f"{package}.") and vars(mod).get(name) is value
            ]
            assert homes, name
    assert set(pkg.__all__) <= set(dir(pkg))


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_every_name(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    pkg = importlib.import_module(package)
    assert set(pkg.__all__) <= namespace.keys()


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        pkg.no_such_export
