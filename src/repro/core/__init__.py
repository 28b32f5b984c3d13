"""Protocol synthesis core: faults, corrections, assembly, certification.

An explicit ``__init__`` (rather than an implicit namespace package) keeps
``find_packages(where="src")`` in ``setup.py`` from silently dropping
``repro.core`` out of installs and wheels.
"""

from .analysis import ErrorBudget, two_fault_error_budget
from .correction import CorrectionCircuit, CorrectionInfeasible, synthesize_correction
from .errors import dangerous_errors, detection_basis, error_reducer, is_dangerous
from .faults import (
    Fault,
    PauliFrame,
    SignatureTable,
    apply_instruction,
    enumerate_faults,
    propagate_all_faults,
)
from .ftcheck import (
    FTViolation,
    check_fault_tolerance,
    enumerate_checkable_injections,
    second_order_survey,
)
from .globalopt import GlobalOptResult, globally_optimize_protocol, protocol_score
from .hooks import dangerous_suffixes, optimize_order, order_is_safe, suffix_errors
from .metrics import LayerMetrics, ProtocolMetrics, protocol_metrics
from .nondeterministic import (
    AttemptResult,
    NonDeterministicRunner,
    RepeatUntilSuccessStats,
)
from .protocol import (
    CorrectionBranch,
    DeterministicProtocol,
    MeasurementSpec,
    VerificationLayer,
    synthesize_protocol,
    synthesize_protocol_from_parts,
)
from .serialize import dump_protocol, load_protocol, protocol_from_json, protocol_to_json

__all__ = [
    "AttemptResult",
    "CorrectionBranch",
    "CorrectionCircuit",
    "CorrectionInfeasible",
    "DeterministicProtocol",
    "ErrorBudget",
    "FTViolation",
    "Fault",
    "GlobalOptResult",
    "LayerMetrics",
    "MeasurementSpec",
    "NonDeterministicRunner",
    "PauliFrame",
    "ProtocolMetrics",
    "RepeatUntilSuccessStats",
    "SignatureTable",
    "VerificationLayer",
    "apply_instruction",
    "check_fault_tolerance",
    "dangerous_errors",
    "dangerous_suffixes",
    "detection_basis",
    "dump_protocol",
    "enumerate_checkable_injections",
    "enumerate_faults",
    "error_reducer",
    "globally_optimize_protocol",
    "is_dangerous",
    "load_protocol",
    "optimize_order",
    "order_is_safe",
    "propagate_all_faults",
    "protocol_from_json",
    "protocol_metrics",
    "protocol_score",
    "protocol_to_json",
    "second_order_survey",
    "suffix_errors",
    "synthesize_correction",
    "synthesize_protocol",
    "synthesize_protocol_from_parts",
    "two_fault_error_budget",
]
