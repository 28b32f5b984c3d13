"""Command-line interface for the synthesis and simulation pipeline.

Usage (after ``pip install -e .``)::

    python -m repro codes                      # list the catalog
    python -m repro synthesize steane          # synthesize + metrics
    python -m repro synthesize steane -o p.json --qasm out_dir
    python -m repro check steane               # exhaustive FT certificate
    python -m repro check --load p.json
    python -m repro ftcheck steane --survey 2000   # certificate + t=2 survey
    python -m repro budget steane              # exact two-fault error budget
    python -m repro simulate steane --shots 4000 --p 1e-3 1e-2
    python -m repro simulate steane --direct   # Bernoulli direct MC per p
    python -m repro table1 --fast              # regenerate Table I
    python -m repro figure4 --codes steane shor --shots 2000

The certificate (``check`` / ``ftcheck``), budget, and simulation commands
all evaluate on the batched bit-packed engine by default; ``--engine
reference`` swaps in the per-shot oracle (identical output, slower).
Every engine-backed subcommand takes ``--workers N`` (shard the workload
within the code across N loopback cluster workers — results identical
for any worker count) and ``--max-slab M`` (bound the configurations
materialized per chunk, i.e. peak slab memory); see ``docs/cli.md``.
Every command prints human-readable output; machine-readable artifacts go
through ``--output`` (protocol JSON) and ``--qasm`` (OpenQASM export).

Synthesized protocols, the expensive artifact, are cached persistently
in the content-addressed artifact store (``repro.store``, default
``~/.cache/repro-store``). Every pipeline
subcommand takes ``--store PATH`` to point at a different root and
``--no-store`` to bypass caching entirely — results are bit-identical
either way. ``python -m repro store ls|verify|gc`` inspects and
maintains the store itself.

Computed *results* (sweep tallies, FT certificates, error budgets,
direct-MC estimates) are deduplicated through a second cache, the
append-only results ledger (``repro.serve.ledger``, default
``~/.cache/repro-ledger``): ``simulate``/``figure4`` consult it before
dispatching engine work, ``--ledger PATH`` / ``--no-ledger`` mirror the
store flags, and ``python -m repro ledger ls|show|verify|gc`` maintains
it. ``python -m repro serve --listen HOST:PORT`` runs the resident
simulation daemon on top of both caches; ``python -m repro query
--connect HOST:PORT sweep|ftcheck|budget|direct|stats|ping|shutdown``
talks to it (see ``docs/serve.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser"]


def _add_engine_flag(parser: argparse.ArgumentParser, help: str) -> None:
    """``--engine``, with one choice per entry of the engine registry."""
    from .sim.sampler import _ENGINES

    parser.add_argument(
        "--engine", choices=list(_ENGINES), default="batched", help=help
    )


def _add_shard_flags(parser: argparse.ArgumentParser) -> None:
    """The intra-code sharding knobs shared by engine-backed subcommands."""
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "loopback cluster worker processes for the engine workload "
            "(1 = inline; results are identical for any worker count)"
        ),
    )
    parser.add_argument(
        "--max-slab",
        type=int,
        default=None,
        metavar="SHOTS",
        help=(
            "largest number of configurations materialized per chunk "
            "(bounds peak slab memory; default 8192; pair enumerations "
            "never split one location pair, so their bound is "
            "max(M, draws_i * draws_j))"
        ),
    )
    parser.add_argument(
        "--cluster",
        type=str,
        default=None,
        metavar="ENDPOINT[,ENDPOINT...]",
        help=(
            "execute chunks on remote cluster workers (start them with "
            "'repro cluster worker --listen HOST:PORT') instead of "
            "--workers loopback ones; each endpoint is "
            "HOST:PORT[?tls=1&cafile=...&token=...] (see docs/net.md; "
            "REPRO_NET_TOKEN/REPRO_NET_TLS supply ambient defaults); "
            "results are bit-identical to the same command "
            "with --workers 1 for any worker set, including under "
            "worker disconnects"
        ),
    )
    parser.add_argument(
        "--pipeline-depth",
        type=int,
        default=None,
        metavar="N",
        help=(
            "outstanding chunks per cluster worker (credit window; only "
            "meaningful with --cluster). Default 4; 1 degenerates to "
            "strict ack-per-chunk lockstep"
        ),
    )
    parser.add_argument(
        "--noise",
        type=str,
        default=None,
        metavar="SPEC",
        help=(
            "noise model spec (repro.sim.noisemodels), e.g. "
            "'biased:eta=100,p=1e-3', 'scaled:p=1e-3,two_qubit=5', "
            "'inhom:p=1e-3,meas=1e-2,loc12=5e-3', "
            "'correlated:p=1e-3,pair_rate=1e-4,pairs=adjacent'; "
            "omitted = the paper's uniform E1_1 model (see docs/noise.md)"
        ),
    )


def _add_trace_flags(parser: argparse.ArgumentParser) -> None:
    """The observability knob shared by every traced subcommand."""
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "append a span-based JSONL trace of this invocation to PATH "
            "(default: the REPRO_TRACE environment variable; one stitched "
            "trace spans the CLI, its child processes, and cluster workers; "
            "traced runs are bit-identical to untraced ones — inspect "
            "with 'repro trace summarize PATH')"
        ),
    )


def _add_store_flags(parser: argparse.ArgumentParser) -> None:
    """The artifact-store knobs shared by every pipeline subcommand."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "artifact-store root for this invocation (default: the "
            "REPRO_STORE environment variable, else ~/.cache/repro-store)"
        ),
    )
    group.add_argument(
        "--no-store",
        action="store_true",
        help=(
            "bypass the artifact store: recompute everything, write "
            "nothing (results are bit-identical with or without it)"
        ),
    )


def _apply_store_flags(args) -> None:
    """Fold ``--store`` / ``--no-store`` into the ambient resolution.

    The store is resolved per call from ``REPRO_STORE`` (``repro.store``),
    so setting the environment variable here threads the choice through
    every layer — experiments, pools (children inherit the environment),
    and cluster coordinators — without a parameter relay.
    """
    if getattr(args, "no_store", False):
        os.environ["REPRO_STORE"] = "off"
    elif getattr(args, "store", None):
        os.environ["REPRO_STORE"] = str(args.store)


def _add_ledger_flags(parser: argparse.ArgumentParser) -> None:
    """The results-ledger knobs (``repro.serve.ledger``)."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--ledger",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "results-ledger root for this invocation (default: the "
            "REPRO_LEDGER environment variable, else ~/.cache/repro-ledger)"
        ),
    )
    group.add_argument(
        "--no-ledger",
        action="store_true",
        help=(
            "bypass the results ledger: recompute every tally, record "
            "nothing (results are bit-identical with or without it)"
        ),
    )


def _apply_ledger_flags(args) -> None:
    """Fold ``--ledger`` / ``--no-ledger`` into ``REPRO_LEDGER``
    (mirrors :func:`_apply_store_flags` — children inherit it too)."""
    if getattr(args, "no_ledger", False):
        os.environ["REPRO_LEDGER"] = "off"
    elif getattr(args, "ledger", None):
        os.environ["REPRO_LEDGER"] = str(args.ledger)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Deterministic fault-tolerant state preparation via SAT "
            "(DATE 2025 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    codes = sub.add_parser("codes", help="list catalog codes")

    synthesize = sub.add_parser(
        "synthesize", help="synthesize a deterministic FT protocol"
    )
    synthesize.add_argument("code", help="catalog code key (see 'codes')")
    synthesize.add_argument(
        "--prep", choices=["heuristic", "optimal"], default="heuristic"
    )
    synthesize.add_argument(
        "--verification",
        choices=["optimal", "greedy", "global"],
        default="optimal",
    )
    synthesize.add_argument(
        "-o", "--output", type=Path, help="write protocol JSON here"
    )
    synthesize.add_argument(
        "--qasm", type=Path, help="write OpenQASM segments into this directory"
    )
    _add_store_flags(synthesize)

    check = sub.add_parser(
        "check", help="exhaustive single-fault FT certificate"
    )
    check.add_argument("code", nargs="?", help="catalog code key")
    check.add_argument(
        "--load", type=Path, help="check a protocol JSON instead"
    )
    _add_shard_flags(check)
    _add_trace_flags(check)
    _add_store_flags(check)

    ftcheck = sub.add_parser(
        "ftcheck",
        help=(
            "batched FT certificate: exhaustive single-fault check plus an "
            "optional t=2 fault-pair survey"
        ),
    )
    ftcheck.add_argument("code", nargs="?", help="catalog code key")
    ftcheck.add_argument(
        "--load", type=Path, help="check a protocol JSON instead"
    )
    _add_engine_flag(
        ftcheck, "evaluation engine (identical verdicts; batched is ~10x+ faster)"
    )
    ftcheck.add_argument(
        "--max-violations",
        type=int,
        default=10,
        help="stop after this many violations",
    )
    ftcheck.add_argument(
        "--survey",
        type=int,
        default=0,
        metavar="PAIRS",
        help="also sample PAIRS random fault pairs against the t=2 bound",
    )
    ftcheck.add_argument(
        "--seed", type=int, default=2025, help="survey sampling seed"
    )
    _add_shard_flags(ftcheck)
    _add_trace_flags(ftcheck)
    _add_store_flags(ftcheck)

    simulate = sub.add_parser(
        "simulate", help="circuit-level noise simulation (Fig. 4 pipeline)"
    )
    simulate.add_argument("code", help="catalog code key")
    simulate.add_argument("--shots", type=int, default=4000)
    simulate.add_argument("--k-max", type=int, default=3)
    simulate.add_argument("--seed", type=int, default=2025)
    simulate.add_argument(
        "--p",
        type=float,
        nargs="+",
        default=[1e-4, 1e-3, 1e-2, 1e-1],
        help="physical error rates to report",
    )
    _add_engine_flag(
        simulate,
        "execution engine: bit-packed batched sampler (default) or the "
        "per-shot reference runner (identical results, slower)",
    )
    simulate.add_argument(
        "--direct",
        action="store_true",
        help=(
            "also run plain Bernoulli Monte-Carlo at each --p on the "
            "batched engine (consistency check of the subset estimator)"
        ),
    )
    _add_shard_flags(simulate)
    _add_trace_flags(simulate)
    _add_store_flags(simulate)
    _add_ledger_flags(simulate)

    table1 = sub.add_parser("table1", help="regenerate the paper's Table I")
    table1.add_argument(
        "--fast",
        action="store_true",
        help="skip the slowest rows (tesseract, optimal-prep)",
    )
    table1.add_argument(
        "--global-budget",
        type=float,
        default=300.0,
        help="wall-clock budget per global-optimization row (seconds)",
    )
    table1.add_argument(
        "--verify-ft",
        action="store_true",
        help="run the batched FT certificate per row (adds an FT column)",
    )
    _add_shard_flags(table1)
    _add_trace_flags(table1)
    _add_store_flags(table1)

    figure4 = sub.add_parser("figure4", help="regenerate the paper's Fig. 4")
    figure4.add_argument("--codes", nargs="+", default=None)
    figure4.add_argument("--shots", type=int, default=8000)
    figure4.add_argument("--seed", type=int, default=2025)
    _add_engine_flag(figure4, "execution engine for the subset sampling")
    _add_shard_flags(figure4)
    _add_trace_flags(figure4)
    _add_store_flags(figure4)
    _add_ledger_flags(figure4)

    budget = sub.add_parser(
        "budget",
        help="exact two-fault error budget (quadratic coefficient of Fig. 4)",
    )
    budget.add_argument("code", help="catalog code key")
    budget.add_argument(
        "--max-runs",
        type=int,
        default=2_000_000,
        help="guard on the enumeration size (runs grow ~N^2 in locations)",
    )
    _add_engine_flag(
        budget, "evaluation engine (bit-identical budgets; batched is faster)"
    )
    _add_shard_flags(budget)
    _add_trace_flags(budget)
    _add_store_flags(budget)

    cluster = sub.add_parser(
        "cluster",
        help="multi-node chunk execution utilities (repro.sim.cluster)",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    worker = cluster_sub.add_parser(
        "worker",
        help=(
            "serve chunk execution over TCP; point any engine-backed "
            "subcommand at it with --cluster HOST:PORT[,...]"
        ),
    )
    worker.add_argument(
        "--listen",
        required=True,
        metavar="ENDPOINT",
        help=(
            "listen endpoint: HOST:PORT[?tls=1&certfile=...&keyfile=..."
            "&token=...] (PORT 0 binds an ephemeral port and prints it; "
            "':PORT' binds all interfaces; REPRO_NET_TOKEN supplies an "
            "ambient token — see docs/net.md)"
        ),
    )
    worker.add_argument(
        "--allow",
        action="append",
        default=None,
        metavar="CIDR|HOST",
        help=(
            "allowlist of peer addresses (repeatable; CIDR blocks, IPs, "
            "or hostnames); connections from anywhere else are dropped "
            "before any handshake byte"
        ),
    )
    worker.add_argument(
        "--max-chunks",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fault-injection drill: crash (drop the connection with the "
            "in-flight chunk unacknowledged) after executing N chunks"
        ),
    )

    store_cmd = sub.add_parser(
        "store",
        help="inspect and maintain the artifact store (repro.store)",
    )
    store_cmd.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "store root to operate on (default: REPRO_STORE, else "
            "~/.cache/repro-store)"
        ),
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_ls = store_sub.add_parser(
        "ls", help="list every entry: kind, key, size, age"
    )
    store_ls.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit one JSON object of entries instead of the table",
    )
    store_sub.add_parser(
        "verify",
        help=(
            "re-hash every entry against its recorded digest; corrupt "
            "entries are quarantined (never deleted, never served)"
        ),
    )
    gc = store_sub.add_parser(
        "gc", help="evict least-recently-used entries down to a size budget"
    )
    gc.add_argument(
        "--max-bytes",
        type=parse_bytes,
        required=True,
        metavar="BYTES",
        help=(
            "target total payload size (accepts K/M/G suffixes, e.g. "
            "512M); least-recently-read entries are removed first"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "resident simulation daemon: keeps compiled engines warm and "
            "dedups repeated queries through the results ledger "
            "(repro.serve; query it with 'repro query')"
        ),
    )
    serve.add_argument(
        "--listen",
        required=True,
        metavar="ENDPOINT",
        help=(
            "listen endpoint: HOST:PORT[?tls=1&certfile=...&keyfile=..."
            "&token=...] (PORT 0 binds an ephemeral port and prints it; "
            "':PORT' binds all interfaces; REPRO_NET_TOKEN supplies an "
            "ambient token — see docs/net.md)"
        ),
    )
    serve.add_argument(
        "--allow",
        action="append",
        default=None,
        metavar="CIDR|HOST",
        help=(
            "allowlist of client addresses (repeatable; CIDR blocks, "
            "IPs, or hostnames); connections from anywhere else are "
            "dropped before the greeting"
        ),
    )
    serve.add_argument(
        "--engine-slots",
        type=int,
        default=8,
        metavar="N",
        help="resident compiled-engine LRU capacity (per engine name)",
    )
    serve.add_argument(
        "--compute-threads",
        type=int,
        default=4,
        metavar="N",
        help=(
            "concurrent computations (>= 2 so a long compute never "
            "blocks protocol resolution for other clients)"
        ),
    )
    _add_shard_flags(serve)
    _add_trace_flags(serve)
    _add_store_flags(serve)
    _add_ledger_flags(serve)

    query = sub.add_parser(
        "query",
        help="send one request to a running 'repro serve' daemon",
    )
    query.add_argument(
        "--connect",
        required=True,
        metavar="ENDPOINT",
        help=(
            "daemon endpoint (as printed by 'repro serve'): "
            "HOST:PORT[?tls=1&cafile=...&token=...] — see docs/net.md"
        ),
    )
    query.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="socket timeout waiting for the result",
    )
    query.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help=(
            "timeout for establishing the connection (TCP connect, TLS "
            "handshake, greeting, and token handshake); --timeout only "
            "governs waiting on results"
        ),
    )
    query.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the raw result line as JSON instead of rendering it",
    )
    query_sub = query.add_subparsers(dest="query_command", required=True)

    def _add_query_protocol_flags(p: argparse.ArgumentParser) -> None:
        _add_trace_flags(p)
        p.add_argument("code", help="catalog code key")
        p.add_argument(
            "--prep", choices=["heuristic", "optimal"], default="heuristic"
        )
        p.add_argument(
            "--verification",
            choices=["optimal", "greedy", "global"],
            default="optimal",
        )
        _add_engine_flag(p, "server-side execution engine (identical results)")
        p.add_argument(
            "--noise",
            type=str,
            default=None,
            metavar="SPEC",
            help="noise model spec (see 'repro simulate --help')",
        )

    q_sweep = query_sub.add_parser(
        "sweep", help="subset-sampled logical error curve (simulate/figure4)"
    )
    _add_query_protocol_flags(q_sweep)
    q_sweep.add_argument("--shots", type=int, default=4000)
    q_sweep.add_argument("--k-max", type=int, default=3)
    q_sweep.add_argument("--seed", type=int, default=2025)
    q_sweep.add_argument(
        "--p",
        type=float,
        nargs="+",
        default=None,
        help="physical error rates to report (default: the Fig. 4 grid)",
    )
    q_sweep.add_argument(
        "--direct-at",
        type=float,
        default=None,
        metavar="P",
        help="also run a direct-MC consistency check at this rate",
    )
    q_sweep.add_argument("--direct-shots", type=int, default=4000)
    q_ftcheck = query_sub.add_parser(
        "ftcheck", help="exhaustive single-fault FT certificate"
    )
    _add_query_protocol_flags(q_ftcheck)
    q_ftcheck.add_argument("--max-violations", type=int, default=10)
    q_budget = query_sub.add_parser(
        "budget", help="exact two-fault error budget"
    )
    _add_query_protocol_flags(q_budget)
    q_budget.add_argument("--max-runs", type=int, default=2_000_000)
    q_direct = query_sub.add_parser(
        "direct", help="plain Bernoulli Monte-Carlo at one rate"
    )
    _add_query_protocol_flags(q_direct)
    q_direct.add_argument("p", type=float, help="physical error rate")
    q_direct.add_argument("--shots", type=int, default=4000)
    q_direct.add_argument("--seed", type=int, default=2025)
    for control_op, control_help in (
        ("ping", "liveness + protocol version check"),
        ("stats", "daemon counters, resident state, and metrics registry"),
        (
            "metrics",
            "daemon metrics registry as Prometheus text exposition",
        ),
        ("shutdown", "ask the daemon to exit"),
    ):
        _add_trace_flags(query_sub.add_parser(control_op, help=control_help))

    ledger_cmd = sub.add_parser(
        "ledger",
        help="inspect and maintain the results ledger (repro.serve.ledger)",
    )
    ledger_cmd.add_argument(
        "--ledger",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "ledger root to operate on (default: REPRO_LEDGER, else "
            "~/.cache/repro-ledger)"
        ),
    )
    ledger_sub = ledger_cmd.add_subparsers(dest="ledger_command", required=True)
    ledger_ls = ledger_sub.add_parser(
        "ls", help="list every record: kind, key, size, age"
    )
    ledger_ls.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit one JSON object of records instead of the table",
    )
    show = ledger_sub.add_parser(
        "show", help="print one record's JSON payload"
    )
    show.add_argument("kind", help="record kind (see 'ls')")
    show.add_argument("key", help="record key (see 'ls')")
    ledger_sub.add_parser(
        "verify",
        help=(
            "re-hash every line against its recorded digest; corrupt "
            "lines are quarantined (never deleted, never served)"
        ),
    )
    ledger_gc = ledger_sub.add_parser(
        "gc", help="compact segments and evict oldest records to a budget"
    )
    ledger_gc.add_argument(
        "--max-bytes",
        type=parse_bytes,
        required=True,
        metavar="BYTES",
        help=(
            "target total segment size (accepts K/M/G suffixes, e.g. "
            "64M); oldest records are evicted first after compaction"
        ),
    )

    trace_cmd = sub.add_parser(
        "trace",
        help=(
            "inspect a --trace JSONL file (repro.obs.trace): span tree, "
            "critical path, structural verification"
        ),
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize",
        help=(
            "render the span tree with per-phase totals and the "
            "critical path"
        ),
    )
    summarize.add_argument("path", type=Path, help="trace JSONL file")
    summarize.add_argument(
        "--max-depth",
        type=int,
        default=6,
        help="deepest tree level rendered (deeper spans are elided)",
    )
    verify = trace_sub.add_parser(
        "verify",
        help=(
            "structural check: every span well-formed, one trace id, one "
            "root, no orphans (a crashed process leaves orphans)"
        ),
    )
    verify.add_argument("path", type=Path, help="trace JSONL file")

    return parser


def _shard_kwargs(args) -> dict:
    """Resolve the sharding flags into consumer kwargs.

    ``--cluster`` becomes an executor factory on the
    ``repro.sim.shard.resolve_evaluator`` seam.
    """
    executor = None
    if getattr(args, "cluster", None):
        from .sim.cluster import ClusterExecutorFactory

        # The factory parses the endpoint grammar itself, so TLS/token
        # fields on each --cluster endpoint survive into worker links.
        executor = ClusterExecutorFactory(
            args.cluster,
            pipeline_depth=getattr(args, "pipeline_depth", None),
        )
    return {
        "workers": args.workers,
        "max_slab": args.max_slab,
        "executor": executor,
    }


def _noise_model(args):
    """``--noise SPEC`` into a model instance (None = historical E1_1)."""
    spec = getattr(args, "noise", None)
    if not spec:
        return None
    from .sim.noisemodels import parse_noise_spec

    return parse_noise_spec(spec)


def _cmd_codes(_args) -> int:
    from .codes.catalog import CATALOG

    print(f"{'key':<12} {'name':<14} {'[[n,k,d]]':<10}")
    for key, factory in CATALOG.items():
        code = factory()
        print(f"{key:<12} {code.name:<14} {code.parameters()}")
    return 0


def _synthesize(args):
    from .codes.catalog import get_code
    from .core.globalopt import globally_optimize_protocol
    from .core.protocol import synthesize_protocol

    if args.verification == "global":
        result = globally_optimize_protocol(
            get_code(args.code), prep_method=args.prep
        )
        return result.protocol
    return synthesize_protocol(
        get_code(args.code),
        prep_method=args.prep,
        verification_method=args.verification,
    )


def _cmd_synthesize(args) -> int:
    from .core.metrics import protocol_metrics

    protocol = _synthesize(args)
    metrics = protocol_metrics(protocol)
    print(f"synthesized {protocol}")
    for index, layer in enumerate(metrics.layers, start=1):
        print(f"  layer {index} ({layer.kind}): {layer.format_fragment()}")
    print(
        f"  totals: {metrics.total_verification_ancillas} verification "
        f"ancillas, {metrics.total_verification_cnots} CNOTs; correction "
        f"avg {metrics.average_correction_ancillas:.2f} anc / "
        f"{metrics.average_correction_cnots:.2f} CX"
    )
    if args.output:
        from .core.serialize import dump_protocol

        dump_protocol(protocol, args.output)
        print(f"  wrote {args.output}")
    if args.qasm:
        from .circuits.qasm import protocol_to_qasm

        args.qasm.mkdir(parents=True, exist_ok=True)
        for name, program in protocol_to_qasm(protocol).items():
            path = args.qasm / f"{name}.qasm"
            path.write_text(program)
        print(f"  wrote QASM segments to {args.qasm}/")
    return 0


def _load_or_synthesize(args):
    """Shared protocol resolution for the certificate commands."""
    if args.load:
        from .core.serialize import load_protocol

        return load_protocol(args.load)
    if args.code:
        from .codes.catalog import get_code
        from .core.protocol import synthesize_protocol

        return synthesize_protocol(get_code(args.code))
    return None


def _cmd_check(args) -> int:
    from .core.ftcheck import check_fault_tolerance

    protocol = _load_or_synthesize(args)
    if protocol is None:
        print("error: give a code key or --load", file=sys.stderr)
        return 2
    violations = check_fault_tolerance(
        protocol, model=_noise_model(args), **_shard_kwargs(args)
    )
    if violations:
        print(f"NOT fault tolerant — {len(violations)} violations:")
        for violation in violations:
            print(f"  {violation}")
        return 1
    print(
        f"{protocol.code.name}: fault tolerant (every single fault leaves "
        "wt_S <= 1)"
    )
    return 0


def _cmd_ftcheck(args) -> int:
    import time

    from .core.ftcheck import check_fault_tolerance, second_order_survey

    protocol = _load_or_synthesize(args)
    if protocol is None:
        print("error: give a code key or --load", file=sys.stderr)
        return 2
    start = time.perf_counter()
    violations = check_fault_tolerance(
        protocol,
        engine=args.engine,
        max_violations=args.max_violations,
        model=_noise_model(args),
        **_shard_kwargs(args),
    )
    seconds = time.perf_counter() - start
    if violations:
        print(
            f"{protocol.code.name}: NOT fault tolerant — "
            f"{len(violations)} violations ({args.engine} engine, "
            f"{seconds:.3f}s):"
        )
        for violation in violations:
            print(f"  {violation}")
    else:
        print(
            f"{protocol.code.name}: fault tolerant — every single fault "
            f"leaves wt_S <= 1 ({args.engine} engine, {seconds:.3f}s)"
        )
    if args.survey:
        survey = second_order_survey(
            protocol,
            samples=args.survey,
            rng=np.random.default_rng(args.seed),
            engine=args.engine,
            **_shard_kwargs(args),
        )
        print(
            f"  t=2 survey: {survey['violations']}/"
            f"{survey['pairs_checked']} sampled fault pairs exceed wt_S = 2 "
            f"({survey['violation_fraction']:.2%})"
        )
    return 1 if violations else 0


def _cmd_simulate(args) -> int:
    from .codes.catalog import get_code
    from .core.protocol import synthesize_protocol
    from .sim.subset import SubsetSampler

    protocol = synthesize_protocol(get_code(args.code))
    model = _noise_model(args)
    with SubsetSampler.for_protocol(
        protocol,
        engine=args.engine,
        k_max=args.k_max,
        rng=np.random.default_rng(args.seed),
        model=model,
        **_shard_kwargs(args),
    ) as sampler:
        sampler.enumerate_k1_exact()
        sampler.sample(args.shots)
        model_label = "" if model is None else f", {args.noise}"
        print(
            f"{protocol.code.name}: f_1 = {sampler.strata[1].rate} (exact, "
            f"{args.engine} engine{model_label})"
        )
        sweep = sorted(args.p)
        ceiling = sampler.p_ceiling
        if any(p >= ceiling for p in sweep):
            sweep = [p for p in sweep if p < ceiling]
            print(
                f"  (skipping p >= {ceiling:.3g}: a site rate of the "
                "model would reach 1 there)"
            )
        for estimate in sampler.curve(sweep):
            print(f"  {estimate}")
        if args.direct:
            from .sim.noise import E1_1
            from .sim.subset import direct_mc

            rng = np.random.default_rng(args.seed + 1)
            for p in sweep:
                # One open executor session for the whole sweep: the
                # sampler's, so a cluster run pays one handshake/compile
                # per worker, not one per sweep point.
                estimate = direct_mc(
                    sampler.engine,
                    model.with_p(p) if model is not None else E1_1(p=p),
                    args.shots,
                    rng=rng,
                    evaluator=sampler.evaluator,
                )
                print(f"  {estimate}")
    return 0


def _cmd_table1(args) -> int:
    from .experiments.table1 import (
        TABLE1_FAST_ROWS,
        TABLE1_ROWS,
        render_table1,
        run_table1,
    )

    rows = TABLE1_FAST_ROWS if args.fast else TABLE1_ROWS
    results = run_table1(
        rows,
        global_time_budget=args.global_budget,
        verify_ft=args.verify_ft,
        model=_noise_model(args),
        **_shard_kwargs(args),
    )
    print(render_table1(results))
    return 0


def _cmd_figure4(args) -> int:
    from .experiments.figure4 import render_figure4, run_figure4

    series = run_figure4(
        args.codes,
        shots=args.shots,
        seed=args.seed,
        engine=args.engine,
        model=_noise_model(args),
        **_shard_kwargs(args),
    )
    print(render_figure4(series))
    return 0


def _cmd_budget(args) -> int:
    from .codes.catalog import get_code
    from .core.analysis import two_fault_error_budget
    from .core.protocol import synthesize_protocol

    protocol = synthesize_protocol(get_code(args.code))
    budget = two_fault_error_budget(
        protocol,
        max_runs=args.max_runs,
        engine=args.engine,
        model=_noise_model(args),
        **_shard_kwargs(args),
    )
    print(budget.render())
    return 0


def _cmd_cluster(args) -> int:
    from .net.tls import NetTLSError
    from .sim.cluster import ClusterWorker

    # ":0" / ":7781" bind all interfaces, the conventional listen form
    # (parse_endpoint alone would read a bare ":PORT" as loopback).
    spec = args.listen
    if isinstance(spec, str) and spec.startswith(":"):
        spec = "0.0.0.0" + spec
    try:
        worker = ClusterWorker.from_endpoint(
            spec, max_chunks=args.max_chunks, allow=args.allow
        )
    except (ValueError, NetTLSError, OSError) as exc:
        print(f"error: --listen {args.listen!r}: {exc}", file=sys.stderr)
        return 2
    # The bound address is printed (and flushed) before serving so a
    # launcher script can wait for readiness; PORT 0 reports the
    # ephemeral port the OS picked.
    print(f"cluster worker listening on {worker.host}:{worker.port}", flush=True)
    try:
        worker.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        worker.stop()
    return 0


def _format_age(seconds: float) -> str:
    seconds = max(0.0, seconds)
    for unit, span in (("d", 86400.0), ("h", 3600.0), ("m", 60.0)):
        if seconds >= span:
            return f"{seconds / span:.0f}{unit}"
    return f"{seconds:.0f}s"


_BYTE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


class _ByteCountError(argparse.ArgumentTypeError, ValueError):
    """A bad byte count; as a ``type=`` error argparse prints its message."""


def parse_bytes(text: str | int) -> int:
    """Parse ``--max-bytes``: a byte count with optional binary
    ``K``/``M``/``G`` suffix.

    ``"64M"`` -> 67108864; a bare integer (or int) passes through.
    ``repro store gc`` and ``repro ledger gc`` use this.
    """
    if isinstance(text, int):
        count = text
    else:
        cleaned = text.strip().lower().removesuffix("ib").removesuffix("b")
        factor = 1
        if cleaned and cleaned[-1] in _BYTE_SUFFIXES:
            factor = _BYTE_SUFFIXES[cleaned[-1]]
            cleaned = cleaned[:-1]
        try:
            count = int(cleaned) * factor
        except ValueError:
            raise _ByteCountError(f"unparseable byte count {text!r}") from None
    if count < 1:
        raise _ByteCountError(f"byte count must be positive, got {text!r}")
    return count


def _cmd_store(args) -> int:
    import time

    from .store import resolve_store

    store = resolve_store(None)
    if store is None:
        print(
            "error: the artifact store is disabled (REPRO_STORE is set to "
            "'off'); pass --store PATH or unset REPRO_STORE",
            file=sys.stderr,
        )
        return 2
    if args.store_command == "ls":
        now = time.time()
        entries = list(store.entries())
        total = sum(entry.size for entry in entries)
        if getattr(args, "as_json", False):
            import json

            print(
                json.dumps(
                    {
                        "root": str(store.root),
                        "entries": [
                            {
                                "kind": entry.kind,
                                "key": entry.key,
                                "bytes": entry.size,
                                "atime": entry.atime,
                            }
                            for entry in entries
                        ],
                        "total_bytes": total,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        if entries:
            print(f"{'kind':<9} {'key':<64} {'bytes':>12} {'age':>6}")
            for entry in entries:
                print(
                    f"{entry.kind:<9} {entry.key:<64} {entry.size:>12} "
                    f"{_format_age(now - entry.atime):>6}"
                )
        print(f"{len(entries)} entries, {total} bytes in {store.root}")
        return 0
    if args.store_command == "verify":
        report = store.verify()
        for kind, key, reason in report["quarantined"]:
            print(f"quarantined {kind}/{key}: {reason}")
        print(
            f"{report['ok']} ok, {report['unreadable_codec']} unreadable "
            f"(missing codec), {len(report['quarantined'])} quarantined"
        )
        return 1 if report["quarantined"] else 0
    # gc
    result = store.gc(args.max_bytes)
    print(
        f"evicted {result['evicted']} entries "
        f"({result['evicted_bytes']} bytes); "
        f"{result['remaining_bytes']} bytes remain"
    )
    return 0


def _cmd_serve(args) -> int:
    from .net.endpoint import parse_endpoint
    from .net.tls import NetTLSError
    from .serve.server import ReproServer

    if getattr(args, "noise", None):
        # Noise is a per-request parameter on the wire; a daemon-wide
        # default would silently change what clients asked for.
        print(
            "error: 'repro serve' takes no --noise; pass it per query "
            "('repro query sweep CODE --noise SPEC')",
            file=sys.stderr,
        )
        return 2
    kwargs = _shard_kwargs(args)
    # ":0" / ":7790" bind all interfaces, the conventional listen form
    # (parse_endpoint alone would read a bare ":PORT" as loopback).
    spec = args.listen
    if isinstance(spec, str) and spec.startswith(":"):
        spec = "0.0.0.0" + spec
    try:
        # A listen flag must name its port explicitly — from_endpoint's
        # client-side default (7790) would let 'nonsense' bind later
        # instead of failing loudly here.
        server = ReproServer.from_endpoint(
            parse_endpoint(spec),
            engine_slots=args.engine_slots,
            compute_threads=args.compute_threads,
            workers=kwargs["workers"],
            max_slab=kwargs["max_slab"],
            executor=kwargs["executor"],
            allow=args.allow,
        )
    except (ValueError, NetTLSError, OSError) as exc:
        print(f"error: --listen {args.listen!r}: {exc}", file=sys.stderr)
        return 2
    # Background start so the bound address is printed (and flushed)
    # before any request is served; PORT 0 reports the ephemeral port.
    try:
        bound_host, bound_port = server.start_background()
    except OSError as exc:
        print(f"error: repro serve failed to start: {exc}", file=sys.stderr)
        return 1
    ledger_label = "off" if server.ledger is None else str(server.ledger.root)
    print(
        f"repro serve listening on {bound_host}:{bound_port} "
        f"(ledger: {ledger_label})",
        flush=True,
    )
    thread = server._thread
    try:
        while thread is not None and thread.is_alive():
            thread.join(timeout=1.0)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _render_query_result(op: str, line: dict) -> None:
    """Human rendering of one daemon result line (CLI-shaped output)."""
    result = line["result"]
    source = line.get("source")
    if op == "sweep":
        print(
            f"{result['code']}: f_1 = {result['f1_exact']} (exact, "
            f"{result['shots']} shots, source={source})"
        )
        if result["skipped"]:
            low = min(result["skipped"])
            print(
                f"  (skipping p >= {low:.3g}: a site rate of the model "
                "would reach 1 there)"
            )
        for e in result["estimates"]:
            print(
                f"  p={e['p']:.6g}: p_L = {e['mean']:.6g} "
                f"[{e['lower']:.6g}, {e['upper']:.6g}] "
                f"(tail <= {e['tail']:.3g})"
            )
        if result.get("direct"):
            d = result["direct"]
            print(
                f"  direct p={d['p']:.6g}: {d['failures']}/{d['trials']} "
                "failures"
            )
    elif op == "ftcheck":
        if result["fault_tolerant"]:
            print(
                f"{result['code']}: fault tolerant — every single fault "
                f"leaves wt_S <= 1 (source={source})"
            )
        else:
            print(
                f"{result['code']}: NOT fault tolerant — "
                f"{len(result['violations'])} violations (source={source}):"
            )
            for violation in result["violations"]:
                print(f"  {violation['rendered']}")
    elif op == "budget":
        print(
            f"{result['code']}: f_2 = {result['f2_exact']:.6g}, "
            f"c_2 = {result['c2_exact']:.6g} "
            f"({result['num_locations']} locations, source={source})"
        )
        for a, b, mass in result["segment_pairs"]:
            print(f"  {a} x {b}: {mass:.6g}")
    elif op == "direct":
        print(
            f"{result['code']}: direct p={result['p']:.6g}: "
            f"{result['failures']}/{result['trials']} failures "
            f"(source={source})"
        )
    elif op == "metrics":
        # The Prometheus exposition is the payload; print it verbatim
        # so the output pipes straight into a scraper or textfile dir.
        print(result.get("exposition", "").rstrip("\n"))
    else:  # ping / stats / shutdown
        import json

        print(json.dumps(result, indent=2, sort_keys=True))


def _cmd_query(args) -> int:
    import json

    from .net.tls import NetTLSError
    from .serve.client import ServeClient, ServeError

    op = args.query_command
    params: dict = {}
    if op in ("sweep", "ftcheck", "budget", "direct"):
        params.update(
            code=args.code,
            prep=args.prep,
            verification=args.verification,
            engine=args.engine,
            noise=args.noise,
        )
    if op == "sweep":
        params.update(shots=args.shots, k_max=args.k_max, seed=args.seed)
        if args.p is not None:
            params["sweep"] = args.p
        if args.direct_at is not None:
            params.update(
                direct_check_at=args.direct_at, direct_shots=args.direct_shots
            )
    elif op == "ftcheck":
        params["max_violations"] = args.max_violations
    elif op == "budget":
        params["max_runs"] = args.max_runs
    elif op == "direct":
        params.update(p=args.p, shots=args.shots, seed=args.seed)

    def on_progress(event: dict) -> None:
        detail = {k: v for k, v in event.items() if k not in ("id", "event")}
        print(f"  .. {detail}", file=sys.stderr, flush=True)

    try:
        with ServeClient(
            args.connect,
            timeout=args.timeout,
            connect_timeout=args.connect_timeout,
        ) as client:
            if op == "ping":
                client.ping()  # raises on a protocol-version mismatch
            line = client.request(op, on_progress=on_progress, **params)
    except (ServeError, NetTLSError, ConnectionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.as_json:
        print(json.dumps(line, indent=2, sort_keys=True))
    else:
        _render_query_result(op, line)
    if op == "ftcheck" and not line["result"]["fault_tolerant"]:
        return 1
    return 0


def _cmd_ledger(args) -> int:
    import json
    import time

    from .serve.ledger import resolve_ledger

    ledger = resolve_ledger(args.ledger if args.ledger else None)
    if ledger is None:
        print(
            "error: the results ledger is disabled (REPRO_LEDGER is set to "
            "'off'); pass --ledger PATH or unset REPRO_LEDGER",
            file=sys.stderr,
        )
        return 2
    if args.ledger_command == "ls":
        now = time.time()
        entries = list(ledger.entries())
        total = sum(entry.size for entry in entries)
        if getattr(args, "as_json", False):
            print(
                json.dumps(
                    {
                        "root": str(ledger.root),
                        "records": [
                            {
                                "kind": entry.kind,
                                "key": entry.key,
                                "bytes": entry.size,
                                "ts": entry.ts,
                            }
                            for entry in entries
                        ],
                        "total_bytes": total,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        if entries:
            print(f"{'kind':<9} {'key':<64} {'bytes':>12} {'age':>6}")
            for entry in entries:
                print(
                    f"{entry.kind:<9} {entry.key:<64} {entry.size:>12} "
                    f"{_format_age(now - entry.ts):>6}"
                )
        print(f"{len(entries)} records, {total} bytes in {ledger.root}")
        return 0
    if args.ledger_command == "show":
        record = ledger.get(args.kind, args.key)
        if record is None:
            print(
                f"error: no {args.kind!r} record under that key",
                file=sys.stderr,
            )
            return 1
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    if args.ledger_command == "verify":
        report = ledger.verify()
        print(
            f"{report['records']} records ok across {report['kinds']} kinds "
            f"({report['bytes']} bytes), {report['quarantined']} bad lines "
            f"quarantined under {ledger.root / 'quarantine'}"
        )
        return 1 if report["quarantined"] else 0
    # gc
    result = ledger.gc(args.max_bytes)
    print(
        f"evicted {result['evicted']} records; {result['records']} records "
        f"({result['bytes']} bytes) remain"
    )
    return 0


def _cmd_trace(args) -> int:
    from .obs.summary import load_trace, render_summary, verify_trace

    try:
        spans = load_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: {args.path}: {exc}", file=sys.stderr)
        return 2
    report = verify_trace(spans)
    if args.trace_command == "verify":
        for error in report["errors"]:
            print(f"  {error}")
        verdict = "ok" if report["ok"] else "NOT ok"
        roots = report["roots"]
        roots_label = ", ".join(roots) if roots else "no roots"
        print(
            f"{args.path}: {verdict} — {report['spans']} spans, "
            f"root: {roots_label}, {report['processes']} process(es)"
        )
        return 0 if report["ok"] else 1
    # summarize renders whatever structure is there, but a broken trace
    # is flagged first so a truncated file never reads as a clean run.
    if not report["ok"]:
        for error in report["errors"]:
            print(f"warning: {error}", file=sys.stderr)
    print(render_summary(spans, max_depth=args.max_depth))
    return 0


_COMMANDS = {
    "codes": _cmd_codes,
    "synthesize": _cmd_synthesize,
    "check": _cmd_check,
    "ftcheck": _cmd_ftcheck,
    "simulate": _cmd_simulate,
    "table1": _cmd_table1,
    "figure4": _cmd_figure4,
    "budget": _cmd_budget,
    "cluster": _cmd_cluster,
    "store": _cmd_store,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "ledger": _cmd_ledger,
    "trace": _cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _apply_store_flags(args)
    _apply_ledger_flags(args)
    # --trace (or ambient REPRO_TRACE) wraps the whole invocation in the
    # trace's root span; every descendant — figure4's code pool via the
    # environment, cluster workers and the serve daemon via their wires
    # — stitches into the same JSONL file under this root. Observation
    # only: a traced run is bit-identical to the same run untraced.
    trace_path = getattr(args, "trace", None) or os.environ.get("REPRO_TRACE")
    if trace_path:
        from .obs.trace import trace_command

        with trace_command(trace_path, f"repro.{args.command}"):
            return _COMMANDS[args.command](args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
