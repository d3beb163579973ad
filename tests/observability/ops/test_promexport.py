"""Tests for the Prometheus exporter and its strict parser."""

import pytest

from repro.observability.metrics import MetricsRegistry
from repro.observability.ops.promexport import (
    PromParseError,
    parse_prometheus,
    render_prometheus,
)
from repro.observability.ops.rollup import TenantRollup
from repro.observability.ops.slo import SLOStatus


def make_rollup(tenant="alice", **overrides):
    rollup = TenantRollup(tenant=tenant, weight=2.0)
    rollup.submitted = 3
    rollup.done = 2
    rollup.failed = 1
    rollup.jobs_completed = 12
    rollup.jobs_failed = 1
    rollup.invocations = 18
    rollup.cpu_seconds = 1234.5
    rollup.admission_waits.extend([1.0, 2.0, 3.0])
    rollup.usage = 42.0
    for key, value in overrides.items():
        setattr(rollup, key, value)
    return rollup


def sample(parsed, metric, **labels):
    for sample_name, sample_labels, value in parsed["samples"]:
        if sample_name == metric and all(
            sample_labels.get(k) == v for k, v in labels.items()
        ):
            return value
    raise AssertionError(f"no sample {metric} with {labels}")


class TestRender:
    def test_output_parses_cleanly_and_round_trips_values(self):
        totals = make_rollup(tenant="*")
        status = SLOStatus(
            slo="qw", kind="queue-wait", tenant="alice", value=3.0,
            objective=2.0, burn_rate=1.5, samples=3, breached=False,
        )
        registry = MetricsRegistry()
        registry.counter("grid.jobs.submitted").inc(13)
        registry.gauge("grid.slots.busy").set(4)
        text = render_prometheus(
            [make_rollup()],
            totals=totals,
            slo_statuses=[status],
            snapshot=registry.snapshot(),
            perf={"perf.events_per_sec": 9000.5},
        )
        parsed = parse_prometheus(text)
        assert parsed["families"]["repro_tenant_runs_submitted_total"] == "counter"
        assert parsed["families"]["repro_tenant_queue_wait_seconds"] == "summary"
        assert sample(parsed, "repro_tenant_runs_submitted_total", tenant="alice") == 3
        assert sample(parsed, "repro_tenant_runs_total", tenant="alice",
                      state="done") == 2
        assert sample(parsed, "repro_tenant_grid_jobs_total", tenant="*",
                      outcome="completed") == 12
        assert sample(parsed, "repro_tenant_queue_wait_seconds_count",
                      tenant="alice") == 3
        assert sample(parsed, "repro_tenant_queue_wait_seconds_sum",
                      tenant="alice") == 6.0
        assert sample(parsed, "repro_slo_burn_rate", slo="qw",
                      tenant="alice") == 1.5
        assert sample(parsed, "repro_bus_counter",
                      name="grid.jobs.submitted") == 13
        assert sample(parsed, "repro_bus_gauge", name="grid.slots.busy") == 4
        assert sample(parsed, "repro_service_perf",
                      name="perf.events_per_sec") == 9000.5

    def test_label_values_are_escaped(self):
        rollup = make_rollup(tenant='we"ird\\te\nnant')
        text = render_prometheus([rollup])
        parsed = parse_prometheus(text)
        assert sample(
            parsed, "repro_tenant_runs_submitted_total",
            tenant='we"ird\\te\nnant',
        ) == 3

    def test_empty_rollups_still_render_valid_text(self):
        parsed = parse_prometheus(render_prometheus([]))
        assert parsed["samples"] == []

    def test_ends_with_newline(self):
        assert render_prometheus([make_rollup()]).endswith("\n")


class TestStrictParser:
    def test_rejects_sample_without_type(self):
        with pytest.raises(PromParseError, match="no preceding TYPE"):
            parse_prometheus("orphan_metric 1\n")

    def test_rejects_missing_trailing_newline(self):
        with pytest.raises(PromParseError, match="newline"):
            parse_prometheus("# TYPE a counter\na 1")

    def test_rejects_duplicate_series(self):
        text = (
            "# TYPE a counter\n"
            'a{t="x"} 1\n'
            'a{t="x"} 2\n'
        )
        with pytest.raises(PromParseError, match="duplicate series"):
            parse_prometheus(text)

    def test_rejects_bad_metric_type(self):
        with pytest.raises(PromParseError, match="bad metric type"):
            parse_prometheus("# TYPE a thermometer\na 1\n")

    def test_rejects_bad_escape_and_unterminated_label(self):
        with pytest.raises(PromParseError, match="bad escape"):
            parse_prometheus('# TYPE a counter\na{t="\\x"} 1\n')
        with pytest.raises(PromParseError, match="unterminated"):
            parse_prometheus('# TYPE a counter\na{t="x} 1\n')

    def test_rejects_bad_value(self):
        with pytest.raises(PromParseError, match="bad sample value"):
            parse_prometheus("# TYPE a counter\na one\n")

    def test_sum_count_resolve_to_summary_family(self):
        text = (
            "# TYPE lat summary\n"
            'lat{quantile="0.5"} 1\n'
            "lat_sum 10\n"
            "lat_count 4\n"
        )
        parsed = parse_prometheus(text)
        assert len(parsed["samples"]) == 3

    def test_sum_suffix_on_counter_family_is_rejected(self):
        text = "# TYPE lat counter\nlat_sum 10\n"
        with pytest.raises(PromParseError, match="no preceding TYPE"):
            parse_prometheus(text)

    def test_empty_text_rejected(self):
        with pytest.raises(PromParseError):
            parse_prometheus("")


class TestTenantBytesFamily:
    def test_bytes_exported_per_direction(self):
        rollup = TenantRollup(tenant="alice", bytes_in=2048, bytes_out=1024)
        text = render_prometheus([rollup])
        parsed = parse_prometheus(text)
        assert parsed["families"]["repro_tenant_bytes_total"] == "counter"
        samples = {
            (labels["tenant"], labels["direction"]): value
            for name, labels, value in parsed["samples"]
            if name == "repro_tenant_bytes_total"
        }
        assert samples[("alice", "in")] == 2048
        assert samples[("alice", "out")] == 1024
