"""Tests of the benchmark's measurement helpers (no workload is run)."""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import Recorder, layer_metrics  # noqa: E402
from stats import (  # noqa: E402
    _status_field,
    covered,
    cpu_seconds,
    peak_rss_mb,
    percentile,
    self_times,
    summarize,
    tail_percentile,
)

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


class TestPercentileRule:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (10_000, 99.9),
            (9_999, 99.0),
            (1_000, 99.0),
            (999, 95.0),
            (200, 95.0),
            (100, 90.0),
            (40, 75.0),
            (39, None),
            (11, None),
            (1, None),
        ],
    )
    def test_tail_needs_ten_samples_beyond(self, n, expected):
        assert tail_percentile(n) == expected

    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == 50
        assert percentile(samples, 99) == 99
        assert percentile(samples, 100) == 100
        assert percentile([7.0], 99) == 7.0

    def test_summarize_reports_count_median_and_tail(self):
        samples = [float(i) for i in range(1, 1001)]
        s = summarize(reversed(samples))
        assert s == {"n": 1000, "median": 500.5, "tail_q": 99.0, "tail": 990.0}

    def test_too_few_samples_fall_back_to_the_maximum(self):
        s = summarize([3.0, 1.0, 2.0])
        assert s["tail_q"] is None and s["tail"] == 3.0 and s["median"] == 2.0

    def test_no_samples(self):
        assert summarize([])["n"] == 0


class TestSelfTime:
    def test_union_of_intervals(self):
        assert covered([(0, 2), (1, 3), (5, 6)]) == 4
        assert covered([]) == 0
        assert covered([(0, 10), (2, 3)]) == 10

    def test_duration_minus_child_coverage(self):
        spans = [
            (1, 0, "root", 0.0, 10.0),
            (2, 1, "a", 1.0, 3.0),
            (3, 1, "a", 2.0, 4.0),  # overlaps its sibling: counted once
            (4, 1, "b", 5.0, 6.0),
            (5, 4, "c", 5.5, 6.0),
        ]
        own = self_times(spans)
        assert own["root"] == pytest.approx(10 - 3 - 1)
        assert own["a"] == pytest.approx(4.0)
        assert own["b"] == pytest.approx(0.5)
        assert own["c"] == pytest.approx(0.5)

    def test_children_are_clipped_to_their_parent(self):
        spans = [(1, 0, "root", 0.0, 1.0), (2, 1, "late", 0.5, 2.0)]
        assert self_times(spans)["root"] == pytest.approx(0.5)


class TestRecorder:
    def test_nesting_and_attributes(self):
        rec = Recorder()

        def attrs(args, result):
            return {"arg": args[0], "result": result}

        inner = rec.wrap("inner", lambda x: x + 1, attrs)
        outer = rec.wrap("outer", lambda x: inner(x) * 2)
        assert outer(1) == 4
        (i_id, i_parent, i_name, *_, i_attrs), (o_id, o_parent, o_name, *_) = rec.spans
        assert (i_name, o_name) == ("inner", "outer")
        assert i_parent == o_id and o_parent == 0
        assert i_attrs == {"arg": 1, "result": 2}

    def test_failing_call_still_closes_its_span(self):
        rec = Recorder()

        def boom():
            raise ValueError

        with pytest.raises(ValueError):
            rec.wrap("boom", boom)()
        assert rec.spans[0][2] == "boom" and rec._stack() == []

    def test_layer_metrics_counts_solver_effort(self):
        sat = {"sat": True, "conflicts": 3, "decisions": 5, "propagations": 7}
        unsat = {"sat": False, "conflicts": 1, "decisions": 1, "propagations": 2}
        spans = [
            (1, 0, "core.correction", 0.0, 4.0, None),
            (2, 1, "sat.solve", 0.5, 1.5, sat),
            (3, 1, "sat.solve", 2.0, 3.0, unsat),
            (4, 0, "sim.execute", 5.0, 6.0, {"shots": 10}),
            (5, 0, "shard.merge", 6.0, 6.5, {"chunks": 4}),
            (6, 0, "sat.solve", 99.0, 100.0, sat),  # outside the window
        ]
        m = layer_metrics(spans, (0.0, 10.0))
        assert m["core.correction_s"] == pytest.approx(2.0)
        assert m["sat.solve_s"] == pytest.approx(2.0)
        assert (m["sat.calls"], m["sat.unsat_calls"]) == (2, 1)
        assert m["sat.unsat_s"] == pytest.approx(1.0)
        assert (m["sat.conflicts"], m["sat.decisions"], m["sat.propagations"]) == (4, 6, 9)
        assert (m["sim.shots"], m["shard.chunks"]) == (10, 4)
        assert m["covered_s"] == pytest.approx(5.5)


class TestProc:
    def test_peak_rss_covers_a_large_resident_allocation(self):
        block = bytearray(64 * 1024 * 1024)
        block[::4096] = b"x" * len(block[::4096])  # make every page resident
        resident_mb = _status_field("self", "VmRSS") / 1024
        assert peak_rss_mb() >= resident_mb >= 64
        del block

    def test_cpu_time_of_self_and_of_another_process(self):
        start = cpu_seconds()
        deadline = time.process_time() + 0.2
        while time.process_time() < deadline:
            pass
        assert cpu_seconds() - start >= 0.1
        child = subprocess.Popen([sys.executable, "-c", "input()"], stdin=subprocess.PIPE)
        try:
            assert cpu_seconds(child.pid) >= 0.0
            assert peak_rss_mb(child.pid) > 0
        finally:
            child.communicate(b"\n", timeout=30)
        assert child.returncode == 0


def test_benchmark_spec_is_well_formed():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == ["table1", "figure4", "serve", "cluster"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
