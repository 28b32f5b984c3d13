"""repro — deterministic fault-tolerant state preparation via SAT.

Reproduction of "Deterministic Fault-Tolerant State Preparation for
Near-Term Quantum Error Correction: Automatic Synthesis Using Boolean
Satisfiability" (Schmid, Peham, Berent, Müller, Wille — DATE 2025,
arXiv:2501.05527), built entirely from first principles: its own CDCL SAT
solver, stabilizer simulators, CSS code library, and subset-sampling noise
analysis.

Quick tour::

    from repro import get_code, synthesize_protocol, check_fault_tolerance

    protocol = synthesize_protocol(get_code("steane"))
    assert check_fault_tolerance(protocol) == []

See README.md for the full API and docs/architecture.md for the architecture.
"""

from .codes.catalog import CATALOG, get_code
from .codes.css import CSSCode
from .codes.search import find_css_code
from .core.analysis import two_fault_error_budget
from .core.ftcheck import check_fault_tolerance
from .core.globalopt import globally_optimize_protocol
from .core.metrics import protocol_metrics
from .core.nondeterministic import NonDeterministicRunner
from .core.protocol import DeterministicProtocol, synthesize_protocol
from .core.serialize import dump_protocol, load_protocol
from .sim.frame import ProtocolRunner, protocol_locations
from .sim.logical import LogicalJudge
from .sim.matching import MatchingDecoder
from .sim.subset import SubsetSampler
from .synth.plus import synthesize_plus_protocol
from .synth.prep import prepare_zero

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "CSSCode",
    "DeterministicProtocol",
    "LogicalJudge",
    "MatchingDecoder",
    "NonDeterministicRunner",
    "ProtocolRunner",
    "SubsetSampler",
    "check_fault_tolerance",
    "dump_protocol",
    "find_css_code",
    "get_code",
    "globally_optimize_protocol",
    "load_protocol",
    "prepare_zero",
    "protocol_locations",
    "protocol_metrics",
    "synthesize_plus_protocol",
    "synthesize_protocol",
    "two_fault_error_budget",
]
