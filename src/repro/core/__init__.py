"""Protocol synthesis core: faults, corrections, assembly, certification.

An explicit ``__init__`` (rather than an implicit namespace package) keeps
``find_packages(where="src")`` in ``setup.py`` from silently dropping
``repro.core`` out of installs and wheels.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "analysis": ("ErrorBudget", "two_fault_error_budget"),
        "correction": ("CorrectionCircuit", "CorrectionInfeasible", "synthesize_correction"),
        "errors": ("dangerous_errors", "detection_basis", "error_reducer", "is_dangerous"),
        "faults": (
            "Fault",
            "PauliFrame",
            "SignatureTable",
            "apply_instruction",
            "enumerate_faults",
            "propagate_all_faults",
        ),
        "ftcheck": (
            "FTViolation",
            "check_fault_tolerance",
            "enumerate_checkable_injections",
            "second_order_survey",
        ),
        "globalopt": ("GlobalOptResult", "globally_optimize_protocol", "protocol_score"),
        "hooks": ("dangerous_suffixes", "optimize_order", "order_is_safe", "suffix_errors"),
        "metrics": ("LayerMetrics", "ProtocolMetrics", "protocol_metrics"),
        "nondeterministic": ("AttemptResult", "NonDeterministicRunner", "RepeatUntilSuccessStats"),
        "protocol": (
            "CorrectionBranch",
            "DeterministicProtocol",
            "MeasurementSpec",
            "VerificationLayer",
            "synthesize_protocol",
            "synthesize_protocol_from_parts",
        ),
        "serialize": ("dump_protocol", "load_protocol", "protocol_from_json", "protocol_to_json"),
    },
)
