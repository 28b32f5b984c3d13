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

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cluster": (
            "ClusterEvaluator",
            "ClusterExecutorFactory",
            "ClusterWorker",
            "LocalWorkers",
        ),
        "decoder": ("LookupDecoder",),
        "frame": ("Injection", "ProtocolRunner", "RunResult", "protocol_locations"),
        "logical": ("LogicalJudge",),
        "matching": ("MatchingDecoder", "is_matchable"),
        "noise": (
            "E1_1",
            "ScaledNoiseModel",
            "compose_injections",
            "draw_counts",
            "draw_tables",
            "fault_draws",
            "materialize_stratum",
            "merge_injection_dicts",
            "sample_injections",
            "sample_injections_model_batch",
            "sample_injections_stratum",
        ),
        "noisemodels": (
            "BiasedPauliModel",
            "CorrelatedPairModel",
            "InhomogeneousModel",
            "SiteUniverse",
            "adjacent_2q_pairs",
            "binomial_weight",
            "parse_noise_spec",
            "poisson_binomial_tail",
            "poisson_binomial_weight",
            "poisson_binomial_weights",
            "site_universe",
            "tail_weight",
        ),
        "reference": ("TableauProtocolRunner", "TableauRunResult"),
        "sampler": (
            "BatchedSampler",
            "BatchResult",
            "CompiledProtocol",
            "ReferenceSampler",
            "make_sampler",
        ),
        "shard": (
            "ShardedEvaluator",
            "ShardPartial",
            "StratumPlanner",
            "merge_partials",
            "resolve_evaluator",
        ),
        "subset": (
            "DirectEstimate",
            "StratumStats",
            "SubsetEstimate",
            "SubsetSampler",
            "direct_mc",
            "wilson_interval",
        ),
        "tableau": ("Tableau", "run_circuit"),
    },
)
