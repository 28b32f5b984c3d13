"""Unit tests for the benchmark trend ledger (``scripts/bench_trend.py``).

The renderer satellites: metric collection must pick up the shard/
cluster datapoints (ratios, lockstep comparisons, bytes on wire), and
the static HTML page must be self-contained — inline SVG sparklines,
escaped names, no scripts — so the CI artifact opens anywhere.
"""

import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "bench_trend", REPO_ROOT / "scripts" / "bench_trend.py"
)
bench_trend = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("bench_trend", bench_trend)
_SPEC.loader.exec_module(bench_trend)


def _history(metric_runs):
    return [
        {"run": {"sha": f"sha{i}", "timestamp": i}, "metrics": metrics}
        for i, metrics in enumerate(metric_runs)
    ]


class TestMetricCollection:
    def test_shard_and_cluster_keys_collected(self, tmp_path):
        (tmp_path / "BENCH_shard.json").write_text(
            json.dumps(
                {
                    "benchmark": "shard_smoke",
                    "shard_speedup": 2.5,
                    "tallies_identical": True,
                    "code": "tesseract",
                }
            )
        )
        (tmp_path / "BENCH_cluster.json").write_text(
            json.dumps(
                {
                    "cluster_speedup": 1.03,
                    "pipeline_vs_lockstep": 0.92,
                    "compression_ratio": 1.1,
                    "bytes_on_wire": 12345,
                    "frame_codec": "zlib",
                }
            )
        )
        metrics = bench_trend.collect_metrics(tmp_path)
        assert metrics["BENCH_shard.json:shard_speedup"] == 2.5
        assert metrics["BENCH_cluster.json:pipeline_vs_lockstep"] == 0.92
        assert metrics["BENCH_cluster.json:compression_ratio"] == 1.1
        assert metrics["BENCH_cluster.json:bytes_on_wire"] == 12345
        # Booleans and strings are not metrics.
        assert not any("identical" in key for key in metrics)
        assert not any("codec" in key for key in metrics)

    def test_history_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        history = _history([{"a:b_seconds": 1.0}, {"a:b_seconds": 2.0}])
        bench_trend.save_history(path, history, keep=50)
        assert bench_trend.load_history(path) == history

    def test_history_keep_truncates(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        history = _history([{"a:m_seconds": float(i)} for i in range(10)])
        bench_trend.save_history(path, history, keep=3)
        kept = bench_trend.load_history(path)
        assert len(kept) == 3
        assert kept[-1]["metrics"]["a:m_seconds"] == 9.0


class TestSvgSparkline:
    def test_polyline_spans_the_series(self):
        svg = bench_trend._svg_sparkline([1.0, 3.0, 2.0, 4.0])
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "polyline" in svg and "circle" in svg
        assert "<script" not in svg

    def test_single_datapoint_placeholder(self):
        assert "single datapoint" in bench_trend._svg_sparkline([1.0])

    def test_flat_series_does_not_divide_by_zero(self):
        svg = bench_trend._svg_sparkline([2.0, 2.0, 2.0])
        assert "polyline" in svg


class TestRenderHtml:
    def test_page_is_self_contained(self):
        history = _history(
            [
                {"BENCH_shard.json:shard_speedup": 2.0},
                {"BENCH_shard.json:shard_speedup": 2.5},
            ]
        )
        page = bench_trend.render_html(history, max_points=50)
        assert page.startswith("<!doctype html>")
        assert page.endswith("</body></html>")
        assert "shard_speedup" in page
        assert "+25.0%" in page
        assert "<polyline" in page
        # Self-contained: no scripts, no external fetches.
        assert "<script" not in page
        assert "http" not in page.split("</style>")[-1]

    def test_empty_history_renders_placeholder(self):
        page = bench_trend.render_html([], max_points=50)
        assert "no benchmark history" in page

    def test_metric_names_escaped(self):
        history = _history([{"BENCH_x.json:<evil>_seconds": 1.0}])
        page = bench_trend.render_html(history, max_points=50)
        assert "<evil>" not in page
        assert "&lt;evil&gt;" in page

    def test_new_metric_marked_new(self):
        history = _history(
            [
                {"BENCH_x.json:a_seconds": 1.0},
                {"BENCH_x.json:a_seconds": 1.0, "BENCH_x.json:b_ratio": 2.0},
            ]
        )
        page = bench_trend.render_html(history, max_points=50)
        assert ">new</span>" in page
