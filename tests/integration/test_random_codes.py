"""Generalization: the pipeline is automatic for arbitrary CSS codes.

The paper's closing claim is that the method applies to "upcoming codes
and codes not considered in this work" without manual analysis. These
tests synthesize and exhaustively certify protocols for codes that are
*not* in the catalog: randomly discovered instances with various
parameters. Any failure here would mean the pipeline silently depends on
structure peculiar to the nine benchmark codes.
"""

import pytest

from repro.codes.search import find_css_code
from repro.core.ftcheck import check_fault_tolerance
from repro.core.metrics import protocol_metrics
from repro.core.protocol import synthesize_protocol

# (n, k, d, search seed) — each resolves deterministically to one code.
RANDOM_CODE_SPECS = [
    (8, 1, 3, 2),
    (9, 1, 3, 7),
    (10, 1, 3, 11),
    (10, 2, 3, 5),
]


@pytest.fixture(scope="module", params=RANDOM_CODE_SPECS, ids=str)
def random_code(request):
    n, k, d, seed = request.param
    try:
        return find_css_code(
            n, k, d, seed=seed, max_tries=300_000, max_row_weight=6
        )
    except Exception:
        pytest.skip(f"no [[{n},{k},{d}]] found for seed {seed}")


class TestRandomCodeSynthesis:
    def test_protocol_synthesizes(self, random_code):
        protocol = synthesize_protocol(random_code)
        assert protocol.layers

    def test_protocol_fault_tolerant(self, random_code):
        protocol = synthesize_protocol(random_code)
        assert check_fault_tolerance(protocol) == []

    def test_signature_sweep_matches_the_oracle(self, random_code, monkeypatch):
        """Every circuit synthesis propagates, sweep against forward oracle."""
        from ..reference import sweep_mismatches, synthesis_circuits

        circuits = synthesis_circuits(
            monkeypatch, lambda: synthesize_protocol(random_code)
        )
        for circuit in circuits:
            assert sweep_mismatches(circuit) == []

    def test_metrics_extractable(self, random_code):
        metrics = protocol_metrics(synthesize_protocol(random_code))
        assert metrics.total_verification_cnots >= 0

    def test_single_faults_never_logical(self, random_code):
        from repro.core.ftcheck import enumerate_checkable_injections
        from repro.sim.frame import ProtocolRunner
        from repro.sim.logical import LogicalJudge

        protocol = synthesize_protocol(random_code)
        runner = ProtocolRunner(protocol)
        judge = LogicalJudge(random_code)
        for location, injection in enumerate_checkable_injections(protocol):
            assert not judge.is_logical_failure(
                runner.run({location: injection})
            )
