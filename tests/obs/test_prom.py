"""Prometheus text exposition: naming, escaping, round trip."""

import pytest

from repro.llm.resilient import FakeClock
from repro.obs import LiveTelemetry, MetricsRegistry
from repro.obs.prom import (
    escape_label_value,
    parse_prometheus_text,
    prometheus_text,
    sanitize_metric_name,
    unescape_label_value,
)


class TestNamesAndEscaping:
    def test_dots_become_underscores(self):
        assert sanitize_metric_name("serve.latency_ms") == "serve_latency_ms"

    def test_illegal_chars_replaced(self):
        assert sanitize_metric_name("a-b/c d") == "a_b_c_d"

    def test_leading_digit_prefixed(self):
        assert sanitize_metric_name("9lives").startswith("_")

    @pytest.mark.parametrize("raw", [
        'plain',
        'has"quote',
        'back\\slash',
        'new\nline',
        'all\\of"them\ntogether',
        '\\"',
        '',
    ])
    def test_label_escape_round_trip(self, raw):
        assert unescape_label_value(escape_label_value(raw)) == raw

    def test_escaped_forms(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"


class TestExposition:
    def registry(self):
        reg = MetricsRegistry()
        reg.count("serve.requests", 3, endpoint="translate", tenant="acme")
        reg.gauge("breaker.state", 1.0)
        reg.observe("llm.wait_s", 0.5)
        return reg

    def test_counter_rendering(self):
        text = prometheus_text(self.registry().snapshot())
        assert "# TYPE serve_requests_total counter" in text
        assert ('serve_requests_total{endpoint="translate",tenant="acme"} 3'
                in text)

    def test_histogram_sum_and_count(self):
        text = prometheus_text(self.registry().snapshot())
        assert "llm_wait_s_sum 0.5" in text
        assert "llm_wait_s_count 1" in text

    def test_type_header_emitted_once_per_family(self):
        reg = MetricsRegistry()
        reg.count("serve.requests", endpoint="a")
        reg.count("serve.requests", endpoint="b")
        text = prometheus_text(reg.snapshot())
        assert text.count("# TYPE serve_requests_total counter") == 1

    def test_round_trip_values_and_labels(self):
        weird = 'ten"ant\\with\nnewline'
        reg = MetricsRegistry()
        reg.count("serve.requests", 7, tenant=weird)
        reg.gauge("pool.size", 4.5, shard="s-1")
        parsed = parse_prometheus_text(prometheus_text(reg.snapshot()))
        assert parsed["types"]["serve_requests_total"] == "counter"
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in parsed["samples"]
        }
        assert samples[
            ("serve_requests_total", (("tenant", weird),))
        ] == 7.0
        assert samples[("pool_size", (("shard", "s-1"),))] == 4.5

    def test_windowed_histogram_buckets_round_trip(self):
        clock = FakeClock()
        live = LiveTelemetry(window_s=10.0, clock=clock)
        for _ in range(20):
            live.record_request("translate", "acme", 0.040, 200)
        reg = MetricsRegistry()
        text = prometheus_text(reg.snapshot(), live.payload())
        parsed = parse_prometheus_text(text)
        buckets = [
            (labels["le"], value)
            for name, labels, value in parsed["samples"]
            if name == "serve_latency_ms_window_bucket"
            and labels.get("endpoint") == "translate"
        ]
        assert buckets, "windowed histogram must render buckets"
        # Cumulative and capped by the +Inf bucket == count.
        values = [v for _, v in buckets]
        assert values == sorted(values)
        assert buckets[-1][0] == "+Inf"
        assert buckets[-1][1] == 20.0

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("!! not exposition !!")