"""Prometheus text-exposition exporter for the control-plane rollups.

:func:`render_prometheus` turns per-tenant rollups, SLO statuses and
the bus metrics snapshot into the Prometheus text format (version
0.0.4): ``# HELP`` / ``# TYPE`` headers, label-escaped samples, and
summary quantiles with ``_sum`` / ``_count``.  The companion
:func:`parse_prometheus` is a deliberately *strict* parser — TYPE
before samples, valid metric/label grammar, no duplicate series, final
newline required — used by the tests and the CI smoke job to prove the
exporter emits clean scrape output rather than trusting it by
inspection.  ``service metrics`` prints the text or writes it to a file
(``--out metrics.prom``) for a scraper's textfile collector.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.observability.metrics import MetricsSnapshot
from repro.observability.ops.rollup import TenantRollup
from repro.observability.ops.slo import SLOStatus

__all__ = ["render_prometheus", "parse_prometheus", "PromParseError"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")

#: quantiles exported for every summary family
_QUANTILES = (0.5, 0.9, 0.95, 0.99)


def _escape(value: str) -> str:
    """Escape a label value per the exposition format."""
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _fmt(value: float) -> str:
    """Render a sample value (integers without trailing .0)."""
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


class _Family:
    """One metric family being rendered: header plus ordered samples."""

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.samples: List[Tuple[str, Dict[str, str], float]] = []

    def add(self, labels: Mapping[str, str], value: float, suffix: str = "") -> None:
        self.samples.append((self.name + suffix, dict(labels), value))

    def lines(self) -> List[str]:
        out = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for sample_name, labels, value in self.samples:
            if labels:
                rendered = ",".join(
                    f'{key}="{_escape(str(labels[key]))}"' for key in labels
                )
                out.append(f"{sample_name}{{{rendered}}} {_fmt(value)}")
            else:
                out.append(f"{sample_name} {_fmt(value)}")
        return out


def render_prometheus(
    rollups: Iterable[TenantRollup],
    totals: Optional[TenantRollup] = None,
    slo_statuses: Optional[Iterable[SLOStatus]] = None,
    snapshot: Optional[MetricsSnapshot] = None,
    perf: Optional[Mapping[str, float]] = None,
) -> str:
    """Render everything the service knows as Prometheus text.

    *rollups* are the per-tenant rows; *totals* (when given) is emitted
    with ``tenant="*"``; *snapshot* exposes the raw bus metrics as
    ``repro_bus_counter`` / ``repro_bus_gauge`` families keyed by a
    ``name`` label (dotted names stay readable instead of being mangled
    into metric names); *perf* adds the throughput counters the
    scheduler samples (events/sec, µs per invocation, tick latency).
    """
    families: List[_Family] = []

    def family(name: str, kind: str, help_text: str) -> _Family:
        fam = _Family(name, kind, help_text)
        families.append(fam)
        return fam

    submitted = family(
        "repro_tenant_runs_submitted_total", "counter",
        "Runs submitted per tenant.",
    )
    terminal = family(
        "repro_tenant_runs_total", "counter",
        "Terminal runs per tenant by final state.",
    )
    level = family(
        "repro_tenant_runs", "gauge",
        "Runs currently queued or running per tenant.",
    )
    jobs = family(
        "repro_tenant_grid_jobs_total", "counter",
        "Grid jobs per tenant by outcome.",
    )
    invocations = family(
        "repro_tenant_invocations_total", "counter",
        "Service invocations processed per tenant.",
    )
    cpu = family(
        "repro_tenant_cpu_seconds_total", "counter",
        "Simulated CPU-seconds consumed per tenant (job run phases).",
    )
    moved = family(
        "repro_tenant_bytes_total", "counter",
        "Data-plane bytes staged per tenant by direction.",
    )
    usage = family(
        "repro_tenant_fair_share_usage", "gauge",
        "Decayed fair-share usage per tenant at the last decision.",
    )
    weight = family(
        "repro_tenant_weight", "gauge",
        "Configured fair-share weight per tenant.",
    )
    blocks = family(
        "repro_tenant_quota_blocks_total", "counter",
        "Quota-blocked admission attempts per tenant.",
    )
    waits = family(
        "repro_tenant_queue_wait_seconds", "summary",
        "Control-plane admission wait (submit to admit), simulated seconds.",
    )

    rows = list(rollups)
    if totals is not None:
        rows = rows + [totals]
    for rollup in rows:
        labels = {"tenant": rollup.tenant}
        submitted.add(labels, rollup.submitted)
        terminal.add({**labels, "state": "done"}, rollup.done)
        terminal.add({**labels, "state": "failed"}, rollup.failed)
        terminal.add({**labels, "state": "cancelled"}, rollup.cancelled)
        level.add({**labels, "state": "queued"}, rollup.queued)
        level.add({**labels, "state": "running"}, rollup.running)
        jobs.add({**labels, "outcome": "completed"}, rollup.jobs_completed)
        jobs.add({**labels, "outcome": "failed"}, rollup.jobs_failed)
        invocations.add(labels, rollup.invocations)
        cpu.add(labels, rollup.cpu_seconds)
        moved.add({**labels, "direction": "in"}, rollup.bytes_in)
        moved.add({**labels, "direction": "out"}, rollup.bytes_out)
        usage.add(labels, rollup.usage)
        weight.add(labels, rollup.weight)
        blocks.add(labels, rollup.quota_blocks)
        stats = rollup.wait_stats()
        for q in _QUANTILES:
            waits.add(
                {**labels, "quantile": f"{q:g}"},
                stats.percentile(q * 100.0),
            )
        waits.add(labels, stats.total, suffix="_sum")
        waits.add(labels, stats.count, suffix="_count")

    statuses = list(slo_statuses or ())
    if statuses:
        burn = family(
            "repro_slo_burn_rate", "gauge",
            "Error-budget burn rate per SLO and tenant.",
        )
        breached = family(
            "repro_slo_breached", "gauge",
            "1 when the SLO is currently breached for the tenant.",
        )
        for status in statuses:
            labels = {"slo": status.slo, "tenant": status.tenant}
            burn.add(labels, status.burn_rate)
            breached.add(labels, 1.0 if status.breached else 0.0)

    if snapshot is not None and (snapshot.counters or snapshot.gauges):
        if snapshot.counters:
            bus_counters = family(
                "repro_bus_counter", "gauge",
                "Raw instrumentation-bus counters, keyed by dotted name.",
            )
            for name in sorted(snapshot.counters):
                bus_counters.add({"name": name}, snapshot.counters[name])
        if snapshot.gauges:
            bus_gauges = family(
                "repro_bus_gauge", "gauge",
                "Raw instrumentation-bus gauges, keyed by dotted name.",
            )
            for name in sorted(snapshot.gauges):
                bus_gauges.add({"name": name}, snapshot.gauges[name])

    if perf:
        perf_family = family(
            "repro_service_perf", "gauge",
            "Service throughput counters (wall-clock profiling).",
        )
        for name in sorted(perf):
            perf_family.add({"name": name}, float(perf[name]))

    lines: List[str] = []
    for fam in families:
        lines.extend(fam.lines())
    return "\n".join(lines) + "\n"


class PromParseError(ValueError):
    """The text is not valid (strict) Prometheus exposition format."""


def _parse_labels(raw: str, lineno: int) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(raw):
        match = re.match(r"([a-zA-Z_][a-zA-Z0-9_]*)=\"", raw[pos:])
        if not match:
            raise PromParseError(f"line {lineno}: bad label syntax at {raw[pos:]!r}")
        name = match.group(1)
        pos += match.end()
        value_chars: List[str] = []
        while True:
            if pos >= len(raw):
                raise PromParseError(f"line {lineno}: unterminated label value")
            ch = raw[pos]
            if ch == "\\":
                if pos + 1 >= len(raw):
                    raise PromParseError(f"line {lineno}: dangling escape")
                nxt = raw[pos + 1]
                if nxt == "n":
                    value_chars.append("\n")
                elif nxt in ("\\", '"'):
                    value_chars.append(nxt)
                else:
                    raise PromParseError(f"line {lineno}: bad escape \\{nxt}")
                pos += 2
            elif ch == '"':
                pos += 1
                break
            else:
                value_chars.append(ch)
                pos += 1
        if name in labels:
            raise PromParseError(f"line {lineno}: duplicate label {name!r}")
        labels[name] = "".join(value_chars)
        if pos < len(raw):
            if raw[pos] != ",":
                raise PromParseError(
                    f"line {lineno}: expected ',' between labels, got {raw[pos]!r}"
                )
            pos += 1
    return labels


def _family_of(sample_name: str, families: Dict[str, str]) -> Optional[str]:
    """Resolve a sample name to its declared family (suffix-aware)."""
    if sample_name in families:
        return sample_name
    for suffix in ("_sum", "_count", "_bucket"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in families and families[base] in ("summary", "histogram"):
                return base
    return None


def parse_prometheus(text: str) -> Dict[str, Any]:
    """Strictly parse exposition text; raise :class:`PromParseError`.

    Returns ``{"families": {name: type}, "samples": [(name, labels,
    value), ...]}``.  Strictness (beyond what real scrapers require):
    every sample's family must have a prior ``# TYPE``; names and
    labels must match the grammar; a series (name + label set) may
    appear only once; the text must end with a newline.
    """
    if not text:
        raise PromParseError("empty exposition text")
    if not text.endswith("\n"):
        raise PromParseError("exposition text must end with a newline")
    families: Dict[str, str] = {}
    helped: Dict[str, bool] = {}
    samples: List[Tuple[str, Dict[str, str], float]] = []
    seen_series: set = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                # arbitrary comments are legal; HELP/TYPE must be well-formed
                if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                    raise PromParseError(f"line {lineno}: malformed {parts[1]} line")
                continue
            keyword, name = parts[1], parts[2]
            if not _NAME_RE.match(name):
                raise PromParseError(f"line {lineno}: bad metric name {name!r}")
            if keyword == "TYPE":
                kind = parts[3].strip() if len(parts) > 3 else ""
                if kind not in _TYPES:
                    raise PromParseError(f"line {lineno}: bad metric type {kind!r}")
                if name in families:
                    raise PromParseError(f"line {lineno}: duplicate TYPE for {name}")
                families[name] = kind
            else:
                if helped.get(name):
                    raise PromParseError(f"line {lineno}: duplicate HELP for {name}")
                helped[name] = True
            continue
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)$", line)
        if not match:
            raise PromParseError(f"line {lineno}: unparseable sample: {line!r}")
        sample_name, _, raw_labels, raw_value = match.groups()
        family = _family_of(sample_name, families)
        if family is None:
            raise PromParseError(
                f"line {lineno}: sample {sample_name!r} has no preceding TYPE"
            )
        labels = _parse_labels(raw_labels, lineno) if raw_labels else {}
        for label_name in labels:
            if not _LABEL_RE.match(label_name):
                raise PromParseError(
                    f"line {lineno}: bad label name {label_name!r}"
                )
        try:
            value = float(raw_value)
        except ValueError:
            raise PromParseError(
                f"line {lineno}: bad sample value {raw_value!r}"
            ) from None
        series = (sample_name, tuple(sorted(labels.items())))
        if series in seen_series:
            raise PromParseError(f"line {lineno}: duplicate series {series!r}")
        seen_series.add(series)
        samples.append((sample_name, labels, value))
    return {"families": families, "samples": samples}

