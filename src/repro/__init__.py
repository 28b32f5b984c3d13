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

from ._lazy import lazy_exports

__version__ = "0.1.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "codes.catalog": ("CATALOG", "get_code"),
        "codes.css": ("CSSCode",),
        "codes.search": ("find_css_code",),
        "core.analysis": ("two_fault_error_budget",),
        "core.ftcheck": ("check_fault_tolerance",),
        "core.globalopt": ("globally_optimize_protocol",),
        "core.metrics": ("protocol_metrics",),
        "core.nondeterministic": ("NonDeterministicRunner",),
        "core.protocol": ("DeterministicProtocol", "synthesize_protocol"),
        "core.serialize": ("dump_protocol", "load_protocol"),
        "sim.frame": ("ProtocolRunner", "protocol_locations"),
        "sim.logical": ("LogicalJudge",),
        "sim.matching": ("MatchingDecoder",),
        "sim.subset": ("SubsetSampler",),
        "synth.plus": ("synthesize_plus_protocol",),
        "synth.prep": ("prepare_zero",),
    },
)
