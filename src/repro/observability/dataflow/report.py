"""Human-readable data-flow reporting: tables and ASCII sparklines.

Builds on the :mod:`~repro.observability.timeline` step-function idea:
:func:`bandwidth_profile` is the byte-weighted ``step_function`` over a
link's transfer intervals — the aggregate bytes/second a link carries
over simulated time.  The
``report-dataflow`` CLI renders the profiles as per-link sparklines
next to the top-talker tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.observability.dataflow.collector import DataFlowCollector, TransferRecord
from repro.observability.timeline import step_function
from repro.util.units import format_size

__all__ = [
    "bandwidth_profile",
    "sample_profile",
    "sparkline",
    "format_dataflow_report",
]

#: ASCII intensity ramp for sparklines (index 0 = idle)
_RAMP = " .:-=+*#%@"


def bandwidth_profile(records: Sequence[TransferRecord]) -> List[Tuple[float, float]]:
    """Aggregate bytes/second carried, as a ``(time, rate)`` step list.

    Each transfer contributes ``bytes / seconds`` over its interval.
    Zero-duration transfers (an instantaneous network) carry no
    sustained rate and are skipped.
    """
    deltas: Dict[float, float] = {}
    for record in records:
        if record.seconds <= 0 or record.bytes <= 0:
            continue
        rate = record.bytes / record.seconds
        deltas[record.time] = deltas.get(record.time, 0.0) + rate
        end = record.time + record.seconds
        deltas[end] = deltas.get(end, 0.0) - rate
    profile: List[Tuple[float, float]] = []
    level = 0.0
    for time in sorted(deltas):
        level += deltas[time]
        profile.append((time, max(0.0, level)))
    return profile


def sample_profile(
    profile: Sequence[Tuple[float, float]],
    start: float,
    end: float,
    buckets: int,
) -> List[float]:
    """Time-averaged value of a step *profile* over *buckets* bins."""
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    if end <= start or not profile:
        return [0.0] * buckets
    width = (end - start) / buckets
    samples = []
    for index in range(buckets):
        lo = start + index * width
        hi = lo + width
        area = 0.0
        level = 0.0
        previous = lo
        for time, value in profile:
            if time >= hi:
                break
            if time > previous:
                area += level * (min(time, hi) - max(previous, lo))
                previous = time
            level = value
        area += level * (hi - max(previous, lo))
        samples.append(area / width)
    return samples


def sparkline(values: Sequence[float], peak: Optional[float] = None) -> str:
    """Render *values* as an ASCII intensity strip (``' .:-=+*#%@'``)."""
    top = peak if peak is not None else max(values, default=0.0)
    if top <= 0:
        return " " * len(values)
    chars = []
    for value in values:
        level = min(1.0, max(0.0, value / top))
        chars.append(_RAMP[round(level * (len(_RAMP) - 1))])
    return "".join(chars)


def _share(part: float, whole: float) -> str:
    return f"{part / whole:6.1%}" if whole else "     -"


def format_dataflow_report(
    collector: DataFlowCollector,
    counters: Optional[Dict[str, float]] = None,
    top: int = 10,
    width: int = 24,
) -> str:
    """The ``report-dataflow`` text: headline bytes, tables, sparklines.

    ``counters`` takes the run's counter mapping or a ``MetricsSnapshot``
    (``result.metrics`` works directly).
    """
    if counters is not None and not hasattr(counters, "get"):
        counters = counters.counters
    lines: List[str] = []
    total = collector.total_bytes
    lines.append(
        f"data plane: {len(collector.records)} transfers, "
        f"{format_size(total)} moved"
    )
    if counters:
        enactor = counters.get("bytes.enactor_moved", 0.0)
        peer = counters.get("bytes.peer_moved", 0.0)
        saved = counters.get("bytes.intermediate_saved_by_grouping", 0.0)
        lines.append(
            f"enactor-moved {format_size(enactor)} vs "
            f"peer-moved {format_size(peer)}; grouping saved "
            f"{format_size(saved)} of intermediate transfers"
        )
    lines.append("")

    link_bytes = collector.link_bytes()
    if link_bytes:
        counts = collector.link_transfer_counts()
        start = min(r.time for r in collector.records)
        end = max(r.time + r.seconds for r in collector.records)
        ranked = sorted(link_bytes.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
        src_w = max(len("SRC"), max(len(src) for (src, _), _ in ranked))
        dst_w = max(len("DST"), max(len(dst) for (_, dst), _ in ranked))
        lines.append(f"top links by bytes (of {len(link_bytes)}):")
        lines.append(
            f"  {'SRC':<{src_w}}  {'DST':<{dst_w}}  {'XFERS':>6}  "
            f"{'BYTES':>10}  {'SHARE':>6}  BANDWIDTH"
        )
        for (src, dst), amount in ranked:
            profile = bandwidth_profile(collector.link_records(src, dst))
            strip = sparkline(sample_profile(profile, start, end, width))
            lines.append(
                f"  {src:<{src_w}}  {dst:<{dst_w}}  "
                f"{counts[(src, dst)]:>6}  {format_size(amount):>10}  "
                f"{_share(amount, total)}  |{strip}|"
            )
        lines.append("")

    service_bytes = collector.service_bytes()
    if service_bytes:
        ranked_services = sorted(
            service_bytes.items(), key=lambda kv: (-kv[1], kv[0])
        )[:top]
        name_w = max(len("SERVICE"), max(len(n) for n, _ in ranked_services))
        lines.append(f"top services by bytes (of {len(service_bytes)}):")
        lines.append(f"  {'SERVICE':<{name_w}}  {'BYTES':>10}  {'SHARE':>6}")
        for name, amount in ranked_services:
            lines.append(
                f"  {name:<{name_w}}  {format_size(amount):>10}  "
                f"{_share(amount, total)}"
            )
        lines.append("")

    purposes = collector.purpose_bytes()
    if purposes:
        lines.append("bytes by purpose:")
        for purpose, amount in purposes.items():
            lines.append(
                f"  {purpose:<13} {format_size(amount):>10}  {_share(amount, total)}"
            )
        lines.append("")

    if collector.site_occupancy:
        site_w = max(len("SITE"), max(len(s) for s in collector.site_occupancy))
        lines.append("storage by site:")
        lines.append(f"  {'SITE':<{site_w}}  {'REPLICAS':>8}  {'BYTES':>10}")
        for site in sorted(collector.site_occupancy):
            lines.append(
                f"  {site:<{site_w}}  {collector.site_replicas.get(site, 0):>8}  "
                f"{format_size(collector.site_occupancy[site]):>10}"
            )
    return "\n".join(lines).rstrip("\n") + "\n"
