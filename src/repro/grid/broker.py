"""The Resource Broker: matchmaking jobs to computing elements.

"Jobs are submitted from a user interface to a central Resource Broker
which distributes them to the available resources" (Section 4.3).  The
broker is a shared, central service: under heavy submission rates it is
itself a bottleneck ("middleware services such as the user interface or
the resource broker may be critical bottlenecks", Section 5.4), which
we model with an optional concurrency cap on matchmaking.

Ranking strategies:

``least-loaded``
    Choose the CE with the lowest queue-pressure estimate, with a
    deterministic name tie-break.  Mirrors the EGEE rank expression
    based on estimated response time.
``round-robin``
    Cycle over CEs regardless of load.
``random``
    Uniform choice from a named random stream (reproducible).

The broker optionally consults a **health provider** (see
:class:`repro.observability.monitor.HealthProvider`): computing elements
the live monitor flagged as stragglers or blackholes are avoided while
any healthy alternative exists, and ``least-loaded`` ranking adds the
provider's penalty to the load estimate so a degraded-but-not-flagged
CE is demoted smoothly.  This is the feedback loop that turns online
monitoring into shorter makespans on faulty testbeds — the simulated
counterpart of an operator blacklisting a misbehaving EGEE site.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.grid.job import JobRecord
from repro.grid.resources import ComputingElement
from repro.sim.engine import Engine
from repro.sim.resources import Resource

__all__ = ["ResourceBroker", "RANKING_STRATEGIES"]


def _rank_least_loaded(
    ces: List[ComputingElement], record: JobRecord, rng: np.random.Generator
) -> ComputingElement:
    return min(ces, key=lambda ce: (ce.load_estimate(), ce.name))


class _RoundRobin:
    """Per-broker rotation state, keyed by the CE names being cycled.

    Keying by the *names* (not ``id(ces[0])``, which leaks state across
    brokers sharing a CE and can alias unrelated lists after GC reuses
    an address) means two brokers built over identical testbeds start
    identical cycles — run-to-run reproducibility — while a health
    provider shrinking the candidate list simply starts a fresh cycle
    over the surviving CEs.
    """

    def __init__(self) -> None:
        self._cycles: Dict[Tuple[str, ...], "itertools.cycle"] = {}

    def __call__(
        self, ces: List[ComputingElement], record: JobRecord, rng: np.random.Generator
    ) -> ComputingElement:
        key = tuple(ce.name for ce in ces)
        if key not in self._cycles:
            self._cycles[key] = itertools.cycle(ces)
        return next(self._cycles[key])


def _rank_random(
    ces: List[ComputingElement], record: JobRecord, rng: np.random.Generator
) -> ComputingElement:
    return ces[int(rng.integers(len(ces)))]


#: strategy name -> ranking callable, or a class to instantiate once per
#: broker when the strategy needs its own state (round-robin's cycle)
RANKING_STRATEGIES: Dict[str, Callable] = {
    "least-loaded": _rank_least_loaded,
    "round-robin": _RoundRobin,
    "random": _rank_random,
}


class ResourceBroker:
    """Central matchmaker between submitted jobs and computing elements."""

    def __init__(
        self,
        engine: Engine,
        computing_elements: List[ComputingElement],
        rng: np.random.Generator,
        strategy: str = "least-loaded",
        concurrency: "int | float" = float("inf"),
        health: Optional[object] = None,
    ) -> None:
        if not computing_elements:
            raise ValueError("broker needs at least one computing element")
        if strategy not in RANKING_STRATEGIES:
            raise ValueError(
                f"unknown ranking strategy {strategy!r}; "
                f"options: {sorted(RANKING_STRATEGIES)}"
            )
        self.engine = engine
        self.computing_elements = list(computing_elements)
        self.strategy_name = strategy
        rank = RANKING_STRATEGIES[strategy]
        # Stateful strategies are classes: each broker gets its own
        # instance, so rotations never leak across brokers or runs.
        self._rank = rank() if isinstance(rank, type) else rank
        self._rng = rng
        self._capacity = Resource(engine, concurrency, name="broker")
        self.matchmaking_count = 0
        #: optional HealthProvider (penalty/blacklisted by CE name)
        self.health = health
        #: matches that avoided at least one blacklisted CE
        self.demotions = 0
        #: hot-path profiler (repro.observability.profiling); None = off
        self.profiler = None

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
            chosen = self._choose(record)
            self.matchmaking_count += 1
            return chosen
        finally:
            self._capacity.release(request)

    def _choose(self, record: JobRecord) -> ComputingElement:
        """Apply the health feedback, then the configured ranking.

        Blacklisted CEs are excluded while at least one candidate
        survives (an all-blacklisted fleet still places the job — a slow
        grid beats a stuck one); under ``least-loaded`` the provider's
        penalty is added to each surviving CE's load estimate.
        """
        profiler = self.profiler
        if profiler is not None:
            profiler.enter("broker.rank")
        try:
            candidates = self.computing_elements
            health = self.health
            if health is not None:
                allowed = [ce for ce in candidates if not health.blacklisted(ce.name)]
                if allowed and len(allowed) < len(candidates):
                    self.demotions += 1
                if allowed:
                    candidates = allowed
                if self.strategy_name == "least-loaded":
                    return min(
                        candidates,
                        key=lambda ce: (ce.load_estimate() + health.penalty(ce.name), ce.name),
                    )
            return self._rank(candidates, record, self._rng)
        finally:
            if profiler is not None:
                profiler.exit()

    @property
    def queue_length(self) -> int:
        """Jobs waiting for a matchmaking slot."""
        return self._capacity.queue_length
