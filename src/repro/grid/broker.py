"""The Resource Broker: matchmaking jobs to computing elements.

"Jobs are submitted from a user interface to a central Resource Broker
which distributes them to the available resources" (Section 4.3).  The
broker is a shared, central service: under heavy submission rates it is
itself a bottleneck ("middleware services such as the user interface or
the resource broker may be critical bottlenecks", Section 5.4), which
we model with an optional concurrency cap on matchmaking.

Ranking: the broker chooses the CE with the lowest queue-pressure
estimate, with a deterministic name tie-break.  This mirrors the EGEE
rank expression based on estimated response time.

The broker optionally consults a **health provider** (see
:class:`repro.observability.monitor.HealthProvider`): computing elements
the live monitor flagged as stragglers or blackholes are avoided while
any healthy alternative exists, and the ranking adds the provider's
penalty to the load estimate so a degraded-but-not-flagged CE is
demoted smoothly.  This is the feedback loop that turns online
monitoring into shorter makespans on faulty testbeds — the simulated
counterpart of an operator blacklisting a misbehaving EGEE site.
"""

from __future__ import annotations

from typing import List, Optional

from repro.grid.job import JobRecord
from repro.grid.resources import ComputingElement
from repro.sim.engine import Engine
from repro.sim.resources import Resource

__all__ = ["ResourceBroker"]


class ResourceBroker:
    """Central matchmaker between submitted jobs and computing elements."""

    def __init__(
        self,
        engine: Engine,
        computing_elements: List[ComputingElement],
        concurrency: "int | float" = float("inf"),
        health: Optional[object] = None,
    ) -> None:
        if not computing_elements:
            raise ValueError("broker needs at least one computing element")
        self.engine = engine
        self.computing_elements = list(computing_elements)
        self._capacity = Resource(engine, concurrency, name="broker")
        self.matchmaking_count = 0
        #: optional HealthProvider (penalty/blacklisted by CE name)
        self.health = health
        #: matches that avoided at least one blacklisted CE
        self.demotions = 0

    def match(self, record: JobRecord, brokering_delay: float):
        """Process generator: matchmake *record*, yielding the chosen CE.

        Acquires a broker slot for the duration of the matchmaking
        delay, so a finite-concurrency broker saturates under load.
        """
        request = self._capacity.request()
        yield request
        try:
            if brokering_delay > 0:
                yield self.engine.timeout(brokering_delay)
            chosen = self._choose()
            self.matchmaking_count += 1
            return chosen
        finally:
            self._capacity.release(request)

    def _choose(self) -> ComputingElement:
        """Apply the health feedback, then rank by load.

        Blacklisted CEs are excluded while at least one candidate
        survives (an all-blacklisted fleet still places the job — a slow
        grid beats a stuck one); the provider's penalty is added to each
        surviving CE's load estimate.
        """
        candidates = self.computing_elements
        health = self.health
        if health is None:
            return min(candidates, key=lambda ce: (ce.load_estimate(), ce.name))
        allowed = [ce for ce in candidates if not health.blacklisted(ce.name)]
        if allowed and len(allowed) < len(candidates):
            self.demotions += 1
        if allowed:
            candidates = allowed
        return min(
            candidates,
            key=lambda ce: (ce.load_estimate() + health.penalty(ce.name), ce.name),
        )
