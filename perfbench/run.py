"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every pass runs in a fresh process
(``passes.py``) pinned, with everything it spawns, to one CPU. With
``--trace 0`` the run makes ``round(S / PASS_SECONDS[W])`` timed passes
(at least one), tops the set-up measurements up to ``MIN_SETUPS`` with
set-up-only passes, and reports the end-to-end metrics of
``BENCHMARK.json`` as medians. With ``--trace 1`` it makes one untraced
and one traced pass and reports the per-layer metrics. The last line of
standard output is the JSON result; everything above it is for people.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import summarize

HERE = Path(__file__).resolve().parent
WORKLOADS = ("table1", "figure4", "serve", "cluster")
#: Nominal seconds of timed work in one pass, on a 2-vCPU x86 VM.
PASS_SECONDS = {"table1": 12.0, "figure4": 5.5, "serve": 7.5, "cluster": 3.7}
MIN_SETUPS = 3
#: Every run ends within this, well inside three minutes.
DEADLINE_S = 170.0


def base_env() -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_")
        and k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    }
    env.update(
        PYTHONPATH=f"{Path.cwd() / 'src'}{os.pathsep}{HERE}",
        # Bytecode lives in one ignored tree of the checkout, so warming
        # it never rewrites a .pyc that is under version control.
        PYTHONPYCACHEPREFIX=str(Path.cwd() / ".perfbench_pycache"),
        # Stable set/dict order keeps the SAT encodings, and so the
        # solver's effort counts, identical from run to run.
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def child_env(workload: str, tmp: Path) -> dict:
    env = base_env()
    if workload == "serve":
        env.update(REPRO_STORE=str(tmp / "store"), REPRO_LEDGER=str(tmp / "ledger"))
    else:
        env.update(REPRO_STORE="off", REPRO_LEDGER="off")
    return env


class Runner:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.count = 0
        self.cpus = sorted(os.sched_getaffinity(0))

    def run_pass(self, mode: str, trace: bool = False) -> dict:
        """One pass in its own process group, so a stuck pass and any
        daemon it started are killed together.

        The pass, and everything it spawns, is pinned to one CPU. Passes
        take the CPUs in turn: on a shared host each vCPU drifts between
        fast and slow phases lasting a minute or more, largely
        independently, so the median over passes spans more than one."""
        self.count += 1
        # Both passes of a traced run share one CPU: their ratio is the
        # tracing overhead, not the difference between two CPUs.
        turn = 1 if self.args.trace else self.count
        os.sched_setaffinity(0, {self.cpus[-turn % len(self.cpus)]})
        tmp = self.workdir / f"pass{self.count}"
        tmp.mkdir()
        out = tmp / "result.json"
        cmd = [
            sys.executable,
            str(HERE / "passes.py"),
            "--workload",
            self.args.workload,
            "--seed",
            str(self.args.seed),
            "--mode",
            mode,
            "--tmp",
            str(tmp),
            "--out",
            str(out),
        ] + (["--trace"] if trace else [])
        env = child_env(self.args.workload, tmp)
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--spawned-at", repr(spawned_at)],
            env=env,
            stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0:
            raise RuntimeError(f"{mode} pass of {self.args.workload} failed (exit {code})")
        return json.loads(out.read_text())


def mismatches(reference: list, other: list) -> int:
    """Operations whose output digest differs from the reference pass."""
    if len(reference) != len(other):
        return max(len(reference), len(other))
    return sum(a != b for a, b in zip(reference, other))


def end_to_end(runner: Runner) -> tuple[dict, int, int, list]:
    passes = max(1, round(runner.args.seconds / PASS_SECONDS[runner.args.workload]))
    timed = [runner.run_pass("checked")]
    timed += [runner.run_pass("timed") for _ in range(passes - 1)]
    setups = [p["setup_s"] for p in timed]
    setups += [runner.run_pass("setup")["setup_s"] for _ in range(MIN_SETUPS - len(setups))]
    failed = timed[0]["failed"] + sum(
        mismatches(timed[0]["outputs"], p["outputs"]) for p in timed[1:]
    )
    attempted = sum(len(p["outputs"]) for p in timed)
    # Every pass asks the same questions in the same order, so each
    # operation's latency is its median over the passes.
    latency = summarize(statistics.median(ms) for ms in zip(*(p["latencies_ms"] for p in timed)))
    tail = f"p{latency['tail_q']:g}" if latency["tail_q"] else "max"
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in timed),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
        "p50_ms": latency["median"],
        "p99_ms": latency["tail"],
    }
    notes = [
        f"passes: {len(timed)} timed, {len(setups)} set-ups",
        "wall_s per pass: " + " ".join(f"{p['wall_s']:.3f}" for p in timed),
        f"latency: n={latency['n']} operations; p99_ms reports {tail}",
    ]
    return values, attempted, failed, notes


def per_layer(runner: Runner) -> tuple[dict, int, int, list]:
    untraced = runner.run_pass("checked")
    traced = runner.run_pass("timed", trace=True)
    # Observers stay pure: a traced pass must produce the same outputs.
    failed = untraced["failed"] + mismatches(untraced["outputs"], traced["outputs"])
    attempted = len(untraced["outputs"]) + len(traced["outputs"])
    values = dict(traced["layers"])
    sim_busy = values["sim.draw_s"] + values["sim.execute_s"] + values["sim.judge_s"]
    values.update(
        {
            "sat.propagations_per_s": values["sat.propagations"] / values["sat.solve_s"]
            if values["sat.solve_s"]
            else 0.0,
            "sim.shots_per_s": values["sim.shots"] / sim_busy if sim_busy else 0.0,
            "obs.untraced_wall_s": untraced["wall_s"],
            "obs.traced_wall_s": traced["wall_s"],
            "obs.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
            "obs.covered_s": values["covered_s"],
            "obs.coverage": values["covered_s"] / traced["wall_s"],
        }
    )
    notes = [
        "bases: sat.propagations_per_s = sat.propagations / sat.solve_s; "
        "sim.shots_per_s = sim.shots / (sim.draw_s + sim.execute_s + sim.judge_s); "
        "obs.overhead_ratio = obs.traced_wall_s / obs.untraced_wall_s; "
        "obs.coverage = obs.covered_s / obs.traced_wall_s"
    ]
    return values, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench runner")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a repro checkout (no src/repro here)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    # Warm the bytecode cache so no pass pays for compiling the sources.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src"), str(HERE)],
        check=True,
        stdout=subprocess.DEVNULL,
        env=base_env(),
    )
    workdir = root / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        runner = Runner(args, workdir)
        if args.trace:
            values, attempted, failed, notes = per_layer(runner)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed, notes = end_to_end(runner)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        # A layer this workload never enters did no work on it.
        values = {m["name"]: values.get(m["name"], 0) for m in wanted}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations, {failed} failed")
    for note in notes:
        print(f"  {note}")
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
