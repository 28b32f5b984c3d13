"""Per-layer spans recorded from the benchmark's own wrappers.

``install()`` replaces each layer's public function (or method) with a
wrapper that records one span per call: ``(id, parent, name, start,
end, attrs)``, parents tracked per thread. Nothing under ``src/`` is
edited; the wrappers are installed only in traced passes, so timed
passes run the program untouched. ``layer_metrics`` folds a span list
into the per-layer figures ``run.py`` reports.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

from stats import covered, self_times

#: (span name, module, attribute). A dotted attribute is a method and is
#: patched on its class; a plain one is a function and is rebound in
#: every ``repro`` module that imported it by name.
WRAPS = (
    ("synth.prep", "repro.synth.prep", "prepare_zero"),
    ("synth.verification", "repro.synth.verification", "synthesize_verification_optimal"),
    ("synth.verification", "repro.synth.verification", "synthesize_verification_greedy"),
    ("synth.verification", "repro.synth.verification", "enumerate_optimal_verifications"),
    ("core.faults", "repro.core.faults", "propagate_all_faults"),
    ("core.correction", "repro.core.correction", "synthesize_correction"),
    ("core.globalopt", "repro.core.globalopt", "globally_optimize_protocol"),
    ("sat.solve", "repro.sat.solver", "Solver.solve"),
    ("sim.compile", "repro.sim.sampler", "make_sampler"),
    ("sim.draw", "repro.sim.noise", "sample_injections_stratum"),
    ("sim.draw", "repro.sim.noise", "sample_injections_model_batch"),
    ("sim.draw", "repro.sim.shard", "StratumPlanner.materialize_rows"),
    ("sim.draw", "repro.sim.shard", "StratumPlanner.materialize_rows_with_weights"),
    ("sim.draw", "repro.sim.shard", "StratumPlanner.materialize_pairs"),
    ("sim.execute", "repro.sim.sampler", "BatchedSampler.failures_indexed"),
    ("sim.execute", "repro.sim.sampler", "BatchedSampler.residual_weights_indexed"),
    ("sim.judge", "repro.sim.logical", "LogicalJudge.failure_mask"),
    ("shard.merge", "repro.sim.shard", "merge_partials"),
    ("subset.estimate", "repro.sim.subset", "SubsetSampler.curve"),
)

#: Modules that bind wrapped functions by name at import time.
CONSUMERS = (
    "repro.core.protocol",
    "repro.core.errors",
    "repro.core.globalopt",
    "repro.core.ftcheck",
    "repro.core.analysis",
    "repro.experiments.table1",
    "repro.experiments.figure4",
    "repro.sim",
    "repro.sim.shard",
    "repro.sim.subset",
    "repro.sim.cluster",
    "repro.serve.ledger",
    "repro.serve.server",
)


class Recorder:
    """In-memory span store; one parent stack per thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple:
        """Start a span by hand; returns the token ``close`` takes."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        return sid, parent, time.monotonic()

    def close(self, token: tuple, name: str, attrs=None) -> None:
        end = time.monotonic()
        sid, parent, start = token
        self._stack().pop()
        self.spans.append((sid, parent, name, start, end, attrs))

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording a ``name`` span per call; ``attrs(args,
        result)`` adds attributes to the span of a call that returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = self.open()
            result = extra = None
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    extra = attrs(args, result)
                return result
            finally:
                self.close(token, name, extra)

        return wrapper


def _wrap_solve(recorder: Recorder, fn):
    """``Solver.solve`` with the call's own effort as attributes. The
    solver is incremental and its counters cumulative, so a call's effort
    is their difference across it."""

    @functools.wraps(fn)
    def wrapper(solver, *args, **kwargs):
        before = (solver.conflicts, solver.decisions, solver.propagations)
        token = recorder.open()
        extra = None
        try:
            result = fn(solver, *args, **kwargs)
            extra = {
                "sat": bool(result.sat),
                "conflicts": result.conflicts - before[0],
                "decisions": result.decisions - before[1],
                "propagations": result.propagations - before[2],
            }
            return result
        finally:
            recorder.close(token, "sat.solve", extra)

    return wrapper


def _wrap_merge(recorder: Recorder, fn):
    """``merge_partials`` takes a lazy iterable whose chunks execute as
    it is consumed; drain it first so the merge span covers merging only
    and the chunk work lands under the caller."""

    @functools.wraps(fn)
    def wrapper(partials):
        items = list(partials)
        token = recorder.open()
        try:
            return fn(items)
        finally:
            recorder.close(token, "shard.merge", {"chunks": len(items)})

    return wrapper


def _shots(args, result):
    return {"shots": int(args[1].shape[0])}


def _wrapper(recorder: Recorder, name: str, fn):
    if name == "sat.solve":
        return _wrap_solve(recorder, fn)
    if name == "shard.merge":
        return _wrap_merge(recorder, fn)
    return recorder.wrap(name, fn, _shots if name == "sim.execute" else None)


def install(recorder: Recorder) -> None:
    """Wrap every layer in ``WRAPS`` for the rest of this process."""
    for module in CONSUMERS:
        importlib.import_module(module)
    for name, module_name, attr in WRAPS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, _wrapper(recorder, name, getattr(cls, method)))
            continue
        original = getattr(module, attr)
        wrapped = _wrapper(recorder, name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


#: Every per-layer time the spans give, by span name.
TIMED_LAYERS = (
    "synth.prep",
    "synth.verification",
    "core.faults",
    "core.globalopt",
    "core.correction",
    "sat.solve",
    "sim.compile",
    "sim.draw",
    "sim.execute",
    "sim.judge",
    "shard.merge",
    "subset.estimate",
)


def layer_metrics(spans, window: tuple[float, float] | None = None) -> dict:
    """Per-layer self seconds, SAT effort, shot and chunk counts.

    ``window`` keeps only spans that start inside ``(start, end)`` — a
    daemon's spans from the timed region, not from its warm-up. The
    ``covered_s`` figure is the union of top-level span intervals: the
    wall time some layer accounts for.
    """
    if window is not None:
        lo, hi = window
        spans = [s for s in spans if lo <= s[3] <= hi]
    ids = {s[0] for s in spans}
    own = self_times(spans)
    out = {f"{name}_s": own.get(name, 0.0) for name in TIMED_LAYERS}
    solves = [s for s in spans if s[2] == "sat.solve" and s[5]]
    unsat = [s for s in solves if not s[5]["sat"]]
    out["sat.calls"] = len(solves)
    out["sat.unsat_calls"] = len(unsat)
    out["sat.unsat_s"] = sum(s[4] - s[3] for s in unsat)
    for field in ("conflicts", "decisions", "propagations"):
        out[f"sat.{field}"] = sum(s[5][field] for s in solves)
    out["sim.shots"] = sum(
        s[5]["shots"] for s in spans if s[2] == "sim.execute" and s[5]
    )
    out["shard.chunks"] = sum(
        s[5]["chunks"] for s in spans if s[2] == "shard.merge" and s[5]
    )
    out["covered_s"] = covered(
        (s[3], s[4]) for s in spans if s[1] not in ids
    )
    return out
