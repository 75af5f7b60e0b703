"""Unit tests for the repro.obs metrics registry, tracing and summary."""

import json

import pytest

from repro import obs
from repro.obs import tracing
from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.summary import METRICS_SCHEMA, format_summary, write_metrics


class TestHistogram:
    def test_observe_accumulates_summary(self):
        histogram = Histogram()
        for value in (3.0, 1.0, 2.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.total == 6.0
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.mean == 2.0

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram().mean == 0.0

    def test_merge_dict_combines(self):
        left = Histogram()
        left.observe(5.0)
        right = Histogram()
        right.observe(1.0)
        right.observe(3.0)
        left.merge_dict(right.to_dict())
        assert left.count == 3
        assert left.total == 9.0
        assert left.min == 1.0
        assert left.max == 5.0

    def test_merge_empty_dict_is_noop(self):
        histogram = Histogram()
        histogram.observe(2.0)
        histogram.merge_dict(Histogram().to_dict())
        assert histogram.count == 1


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("a.count")
        registry.inc("a.count", 4)
        registry.set_gauge("a.gauge", 2.5)
        registry.observe("a.hist", 10.0)
        assert registry.counter("a.count") == 5
        assert registry.gauge("a.gauge") == 2.5
        assert registry.histogram("a.hist").count == 1
        assert registry.counter("never.touched") == 0
        assert registry.gauge("never.touched") is None
        assert registry.histogram("never.touched") is None

    def test_wall_timer_observes_elapsed(self):
        registry = MetricsRegistry()
        with registry.time("t.wall"):
            pass
        histogram = registry.histogram("t.wall")
        assert histogram.count == 1
        assert histogram.total >= 0.0

    def test_virtual_timer_observes_clock_delta(self):
        registry = MetricsRegistry()
        ticks = iter([10.0, 14.0])
        with registry.time_virtual("t.virtual", lambda: next(ticks)):
            pass
        histogram = registry.histogram("t.virtual")
        assert histogram.count == 1
        assert histogram.total == 4.0

    def test_snapshot_is_plain_json(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.set_gauge("g", 1.5)
        registry.observe("h", 3.0)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must serialise without custom encoders
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"] == {"g": 1.5}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_merge_adds_counters_and_combines_histograms(self):
        target = MetricsRegistry()
        target.inc("c", 1)
        target.observe("h", 1.0)
        source = MetricsRegistry()
        source.inc("c", 2)
        source.observe("h", 3.0)
        target.merge(source.snapshot())
        assert target.counter("c") == 3
        assert target.histogram("h").count == 2
        assert target.histogram("h").total == 4.0

    def test_merge_folds_gauges_into_histograms(self):
        # A worker's gauge (one task's events/sec) becomes an observation
        # of the campaign-level distribution, not a last-write-wins gauge.
        target = MetricsRegistry()
        for rate in (100.0, 300.0):
            source = MetricsRegistry()
            source.set_gauge("sim.events_per_sec", rate)
            target.merge(source.snapshot())
        histogram = target.histogram("sim.events_per_sec")
        assert histogram.count == 2
        assert histogram.mean == 200.0
        assert target.gauge("sim.events_per_sec") is None

    def test_clear_drops_everything(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.set_gauge("g", 1.0)
        registry.observe("h", 1.0)
        registry.clear()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }


class TestEnablement:
    @pytest.fixture(autouse=True)
    def _clean_state(self):
        obs.disable()
        yield
        obs.disable()

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(obs.ENV_VAR, raising=False)
        assert not obs.enabled()
        assert obs.active() is None
        with obs.run_scope() as registry:
            assert registry is None

    def test_enable_exports_env_and_disable_removes_it(self, monkeypatch):
        monkeypatch.delenv(obs.ENV_VAR, raising=False)
        registry = obs.enable()
        assert obs.enabled()
        assert obs.active() is registry
        import os
        assert os.environ.get(obs.ENV_VAR) == "1"
        obs.disable()
        assert os.environ.get(obs.ENV_VAR) is None
        assert obs.active() is None

    def test_run_scope_isolates_runs(self):
        root = obs.enable()
        root.inc("outer")
        with obs.run_scope() as registry:
            assert registry is not None
            assert registry is not root
            assert obs.active() is registry
            registry.inc("inner")
        assert obs.active() is root
        assert root.counter("inner") == 0
        assert registry.counter("inner") == 1
        assert registry.counter("outer") == 0


class TestTracing:
    @pytest.fixture(autouse=True)
    def _clean_tracer(self):
        tracing.reset_tracer()
        yield
        tracing.reset_tracer()

    def test_null_span_when_disabled(self):
        assert tracing.active_tracer() is None
        with tracing.span("anything", detail=1):
            tracing.point("still.nothing")
        # Nothing raised, nothing written — that is the contract.

    def test_spans_and_points_write_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracing.configure_tracer(str(path))
        with tracing.span("outer", kind="test"):
            tracing.point("inner.point", value=7)
        tracing.reset_tracer()
        records = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        by_name = {record["name"]: record for record in records}
        assert set(by_name) == {"outer", "inner.point"}
        outer = by_name["outer"]
        point = by_name["inner.point"]
        assert outer["attrs"] == {"kind": "test"}
        assert outer["dur"] >= 0.0
        assert point["attrs"] == {"value": 7}
        # The point is parented to the enclosing span.
        assert point["parent"] == outer["id"]
        assert outer.get("parent") is None

    def test_env_variable_configures_tracer(self, tmp_path, monkeypatch):
        path = tmp_path / "trace.jsonl"
        monkeypatch.setenv(tracing.ENV_VAR, str(path))
        tracing.reset_tracer()
        tracer = tracing.active_tracer()
        assert tracer is not None
        tracing.point("hello")
        tracing.reset_tracer()
        monkeypatch.delenv(tracing.ENV_VAR)
        assert "hello" in path.read_text(encoding="utf-8")


class TestSummary:
    def _populated_snapshot(self):
        registry = MetricsRegistry()
        registry.inc("campaign.tasks_submitted", 4)
        registry.inc("campaign.tasks_completed", 4)
        registry.inc("campaign.cache_hits", 1)
        registry.set_gauge("campaign.workers", 2)
        registry.set_gauge("campaign.worker_utilisation", 0.75)
        registry.set_gauge("cache.hits", 1)
        registry.set_gauge("cache.misses", 3)
        registry.set_gauge("cache.bytes_served", 2048)
        registry.inc("sim.events", 1000)
        registry.set_gauge("sim.events_per_sec", 5000.0)
        registry.inc("transport.round_trips_ok", 90)
        registry.inc("transport.round_trips_failed", 10)
        registry.inc("transport.messages.FindNodeRequest", 100)
        registry.inc("kademlia.lookups", 12)
        registry.observe("kademlia.lookup.virtual_latency", 3.0)
        registry.observe("kademlia.lookup.rounds", 3.0)
        registry.inc("pairflow.pairs_submitted", 50)
        registry.inc("pairflow.pairs_evaluated", 40)
        registry.inc("pairflow.pairs_pruned", 10)
        return registry.snapshot()

    def test_format_summary_renders_key_lines(self):
        text = format_summary(self._populated_snapshot())
        assert "worker utilisation: 75%" in text
        assert "hit rate: 25%" in text
        assert "events/sec: 5000" in text
        assert "FindNodeRequest=100" in text
        assert "mean lookup virtual-time latency: 3.00 RTT" in text
        assert "prune rate: 20%" in text
        # Only what a local run records: no TCP-fleet line, no shared tier.
        lines = text.splitlines()
        assert not [line for line in lines if line.startswith("distrib")]
        cache_line = next(line for line in lines if line.startswith("cache "))
        assert "bytes served: 2048" in cache_line
        assert "remote:" not in cache_line

    def test_format_summary_handles_empty_snapshot(self):
        text = format_summary({})
        assert "campaign" in text
        assert "kademlia" in text

    def test_format_summary_has_one_line_per_overlay(self):
        registry = MetricsRegistry()
        registry.inc("chord.lookups", 5)
        registry.observe("chord.lookup.virtual_latency", 4.0)
        registry.observe("chord.lookup.rounds", 4.0)
        registry.inc("chord.lookup.failed_rpcs", 2)
        registry.inc("pastry.lookups", 7)
        registry.inc("pastry.refreshes", 3)
        text = format_summary(registry.snapshot())
        lines = {
            line.split()[0]: line
            for line in text.splitlines()
            if line.split() and line.split()[0] in ("kademlia", "chord", "pastry")
        }
        assert set(lines) == {"kademlia", "chord", "pastry"}
        assert "lookups: 5" in lines["chord"]
        assert "mean lookup virtual-time latency: 4.00 RTT" in lines["chord"]
        assert "failed RPCs: 2" in lines["chord"]
        assert "lookups: 7" in lines["pastry"]
        assert "refreshes: 3" in lines["pastry"]
        # Kademlia keeps its historical refresh wording.
        assert "bucket refreshes:" in lines["kademlia"]

    def test_write_metrics_wraps_schema(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics(str(path), self._populated_snapshot())
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["schema"] == METRICS_SCHEMA
        assert document["metrics"]["counters"]["sim.events"] == 1000
