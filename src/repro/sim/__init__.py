"""Noise simulation: Pauli-frame execution, sampling engines, decoding.

Two execution engines share one contract (see ``sim.sampler``):

* :class:`ReferenceSampler` — the per-shot :class:`ProtocolRunner` oracle;
* :class:`BatchedSampler` — the bit-packed F2-linear batch engine, which
  matches the reference bit-for-bit under a fixed seed and is the default
  everywhere hot (subset sampling, Fig. 4, the CLI).

An explicit ``__init__`` (rather than an implicit namespace package) keeps
``find_packages(where="src")`` in ``setup.py`` from silently dropping
``repro.sim`` out of installs and wheels.
"""

from .cluster import (
    ClusterEvaluator,
    ClusterExecutorFactory,
    ClusterWorker,
)
from .decoder import LookupDecoder
from .frame import Injection, ProtocolRunner, RunResult, protocol_locations
from .logical import LogicalJudge
from .matching import MatchingDecoder, is_matchable
from .noise import (
    E1_1,
    ScaledNoiseModel,
    compose_injections,
    draw_counts,
    draw_tables,
    fault_draws,
    materialize_stratum,
    merge_injection_dicts,
    sample_injections,
    sample_injections_model_batch,
    sample_injections_stratum,
)
from .noisemodels import (
    BiasedPauliModel,
    CorrelatedPairModel,
    InhomogeneousModel,
    SiteUniverse,
    adjacent_2q_pairs,
    parse_noise_spec,
    site_universe,
)
from .reference import TableauProtocolRunner, TableauRunResult
from .sampler import (
    BatchedSampler,
    BatchResult,
    CompiledProtocol,
    ReferenceSampler,
    make_sampler,
)
from .shard import (
    AdaptiveSlabPolicy,
    ShardedEvaluator,
    ShardPartial,
    StratumPlanner,
    merge_partials,
    parse_mem_budget,
    resolve_evaluator,
)
from .subset import (
    DirectEstimate,
    StratumStats,
    SubsetEstimate,
    SubsetSampler,
    binomial_weight,
    direct_mc,
    poisson_binomial_tail,
    poisson_binomial_weight,
    poisson_binomial_weights,
    tail_weight,
    wilson_interval,
)
from .tableau import Tableau, run_circuit

__all__ = [
    "AdaptiveSlabPolicy",
    "BatchResult",
    "BatchedSampler",
    "BiasedPauliModel",
    "ClusterEvaluator",
    "ClusterExecutorFactory",
    "ClusterWorker",
    "CompiledProtocol",
    "CorrelatedPairModel",
    "DirectEstimate",
    "E1_1",
    "InhomogeneousModel",
    "Injection",
    "LogicalJudge",
    "LookupDecoder",
    "MatchingDecoder",
    "ProtocolRunner",
    "ReferenceSampler",
    "RunResult",
    "ScaledNoiseModel",
    "ShardPartial",
    "ShardedEvaluator",
    "SiteUniverse",
    "StratumPlanner",
    "StratumStats",
    "SubsetEstimate",
    "SubsetSampler",
    "Tableau",
    "TableauProtocolRunner",
    "TableauRunResult",
    "adjacent_2q_pairs",
    "binomial_weight",
    "compose_injections",
    "direct_mc",
    "draw_counts",
    "draw_tables",
    "fault_draws",
    "is_matchable",
    "make_sampler",
    "materialize_stratum",
    "merge_injection_dicts",
    "merge_partials",
    "parse_mem_budget",
    "parse_noise_spec",
    "poisson_binomial_tail",
    "poisson_binomial_weight",
    "poisson_binomial_weights",
    "protocol_locations",
    "resolve_evaluator",
    "run_circuit",
    "sample_injections",
    "sample_injections_model_batch",
    "sample_injections_stratum",
    "site_universe",
    "tail_weight",
    "wilson_interval",
]
