"""The ungated CE health check: the reference side of the health-gate oracle.

:func:`check_ce` is ``RunMonitor._check_ce`` as it was before the gate:
on every phase and fault close it rebuilds the CE's full
:class:`~repro.observability.health.CEHealth` and only then asks whether
a flag is up.  The body is kept verbatim (``self`` is the monitor) so
the differential test in ``tests/properties/test_health_gate_oracle.py``
compares the gated check against the exact behaviour it replaced.
Install it on one monitor with :func:`use_reference_check`.
"""

import types


def check_ce(self, ce: str, now: float) -> None:
    """Raise CE-scope alerts on a health-flag transition (once each)."""
    health = self.fleet.health_of(ce)
    if health.is_blackhole and ce not in self._alerted["blackhole"]:
        self._alerted["blackhole"].add(ce)
        self._emit(
            "blackhole",
            now,
            subject=ce,
            scope="ce",
            severity="critical",
            message=(
                f"{ce} looks like a blackhole: fault rate "
                f"{health.fault_rate:.0%} over {health.attempts} attempts, "
                f"median time-to-failure {health.median_ttf:.1f}s"
            ),
            fault_rate=health.fault_rate,
            median_ttf=health.median_ttf,
            attempts=health.attempts,
        )
    if health.is_straggler and ce not in self._alerted["straggler"]:
        self._alerted["straggler"].add(ce)
        self._emit(
            "straggler",
            now,
            subject=ce,
            scope="ce",
            message=(
                f"{ce} keeps producing stragglers: "
                f"{health.straggler_jobs}/{health.completed} completed "
                f"jobs flagged"
            ),
            straggler_jobs=health.straggler_jobs,
            completed=health.completed,
        )


def use_reference_check(monitor):
    """Make *monitor* run the ungated :func:`check_ce`; returns it."""
    monitor._check_ce = types.MethodType(check_ce, monitor)
    return monitor
