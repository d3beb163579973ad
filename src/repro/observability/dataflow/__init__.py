"""Data-plane observability: byte-accounted transfers and timelines.

* :mod:`~repro.observability.dataflow.collector` — the
  :class:`DataFlowCollector` bus/seam subscriber turning every network
  transfer into a fully attributed :class:`TransferRecord` plus
  per-site storage gauges;
* :mod:`~repro.observability.dataflow.dot` — the deterministic DOT
  export of the site-to-site data-flow graph and its strict parser;
* :mod:`~repro.observability.dataflow.report` — per-link bandwidth /
  activity step profiles, ASCII sparklines and the ``report-dataflow``
  tables.
"""

from __future__ import annotations

from repro.observability.dataflow.collector import (
    TRANSFER_PURPOSES,
    DataFlowCollector,
    TransferRecord,
)
from repro.observability.dataflow.dot import DotParseError, dataflow_dot, parse_dot
from repro.observability.dataflow.report import (
    bandwidth_profile,
    format_dataflow_report,
    sample_profile,
    sparkline,
)

__all__ = [
    "TRANSFER_PURPOSES",
    "TransferRecord",
    "DataFlowCollector",
    "dataflow_dot",
    "parse_dot",
    "DotParseError",
    "bandwidth_profile",
    "sample_profile",
    "sparkline",
    "format_dataflow_report",
]
