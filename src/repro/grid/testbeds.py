"""Canned grid configurations.

Three regimes matter to the reproduction:

``ideal_testbed``
    The analytical model's world (Section 3.5.2 hypotheses): unlimited
    data parallelism, zero middleware overhead, free transfers, no
    failures.  On this grid the simulator must match equations (1)–(4)
    *exactly*, which is what `benchmarks/bench_model_validation.py` and
    the property tests check.

``cluster_testbed``
    A low-latency local cluster: small constant overheads, finite
    workers, LAN-only.  The paper's foil ("on a traditional cluster
    infrastructure, service parallelism would be of minor importance").

``egee_like_testbed``
    The production-grid regime: many sites, finite workers per CE,
    large and highly variable per-job overhead (calibrated to the
    paper's "around 10 minutes ± 5 minutes"), optional failures and
    background load.  This is the testbed behind the Table 1 / Table 2 /
    Figure 10 reproductions.

``faulty_testbed``
    A small grid with *known-bad* sites injected: one blackhole CE
    (fails almost every attempt, fast) and one straggler CE (workers an
    order of magnitude slower than the fleet).  Ground truth for the
    live monitor's detection tests and for the broker-feedback ablation
    benchmark — the monitor must flag exactly the injected sites.
"""

from __future__ import annotations

from typing import Optional

from repro.grid.batch import FairSharePolicy, FifoPolicy
from repro.grid.faults import DurabilityFaultModel, FaultModel, OutageSchedule
from repro.grid.load import BackgroundLoad
from repro.grid.middleware import Grid
from repro.grid.overhead import OverheadModel
from repro.grid.resources import ComputingElement, Site, WorkerNode
from repro.grid.retry import RetryBudget, RetryPolicy
from repro.grid.storage import StorageElement
from repro.grid.transfer import DegradedWindow, LinkParameters, NetworkModel
from repro.sim.engine import Engine
from repro.util.distributions import LogNormal, TruncatedNormal, Uniform
from repro.util.rng import RandomStreams
from repro.util.units import MEBIBYTE, MINUTE

__all__ = [
    "ideal_testbed",
    "cluster_testbed",
    "egee_like_testbed",
    "faulty_testbed",
    "chaotic_testbed",
]


def ideal_testbed(engine: Engine, streams: Optional[RandomStreams] = None) -> Grid:
    """A zero-overhead, infinite-capacity grid (the model's hypotheses)."""
    streams = streams or RandomStreams(seed=0)
    site_name = "ideal-site"
    ce = ComputingElement(engine, name="ideal-ce", site=site_name, infinite=True)
    se = StorageElement("ideal-se", site=site_name)
    site = Site(name=site_name, computing_elements=[ce], storage_element=se)
    return Grid(
        engine,
        streams,
        sites=[site],
        overhead=OverheadModel.zero(),
        network=NetworkModel.instantaneous(),
        faults=FaultModel.none(),
        name="ideal",
    )


def cluster_testbed(
    engine: Engine,
    streams: Optional[RandomStreams] = None,
    workers: int = 64,
    slots_per_worker: int = 2,
    submission_latency: float = 1.0,
    brokering_latency: float = 0.5,
) -> Grid:
    """A single-site commodity cluster with a local batch scheduler."""
    streams = streams or RandomStreams(seed=0)
    site_name = "cluster"
    nodes = [
        WorkerNode(name=f"node{idx:03d}", slots=slots_per_worker, speed=1.0)
        for idx in range(workers)
    ]
    ce = ComputingElement(
        engine,
        name="cluster-ce",
        site=site_name,
        workers=nodes,
        policy=FifoPolicy(engine),
    )
    se = StorageElement("cluster-se", site=site_name)
    site = Site(name=site_name, computing_elements=[ce], storage_element=se)
    network = NetworkModel(
        lan=LinkParameters(latency=0.05, bandwidth=1000 * MEBIBYTE),
        wan=LinkParameters(latency=0.05, bandwidth=1000 * MEBIBYTE),
    )
    return Grid(
        engine,
        streams,
        sites=[site],
        overhead=OverheadModel.from_values(
            submission=submission_latency, brokering=brokering_latency
        ),
        network=network,
        faults=FaultModel.none(),
        name="cluster",
    )


def egee_like_testbed(
    engine: Engine,
    streams: Optional[RandomStreams] = None,
    n_sites: int = 10,
    workers_per_ce: int = 40,
    slots_per_worker: int = 2,
    overhead_mean: float = 10 * MINUTE,
    overhead_sigma: float = 5 * MINUTE,
    failure_probability: float = 0.04,
    with_background_load: bool = True,
    background_interarrival: float = 20.0,
    background_duration_mean: float = 15 * MINUTE,
    heterogeneous_workers: bool = True,
    broker_concurrency: "int | float" = 32,
    overhead_load_coupling: float = 0.8,
) -> Grid:
    """An EGEE/LCG2-like production grid, calibrated to the paper.

    The total per-job overhead is decomposed as roughly 10% submission,
    25% brokering, 60% heavy-tailed queue residency and 5% completion
    notification; the lognormal queue term carries most of the paper's
    "± 5 minutes" variability.  Worker speeds are mildly heterogeneous
    (standard PCs of different generations).
    """
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    streams = streams or RandomStreams(seed=0)
    speed_rng = streams.get("worker-speeds")

    sites = []
    for s in range(n_sites):
        site_name = f"site{s:02d}"
        nodes = []
        for w in range(workers_per_ce):
            speed = (
                float(Uniform(0.7, 1.3).sample(speed_rng))
                if heterogeneous_workers
                else 1.0
            )
            nodes.append(
                WorkerNode(name=f"{site_name}-wn{w:03d}", slots=slots_per_worker, speed=speed)
            )
        ce = ComputingElement(
            engine,
            name=f"{site_name}-ce",
            site=site_name,
            workers=nodes,
            policy=FairSharePolicy(engine),
        )
        se = StorageElement(f"{site_name}-se", site=site_name)
        sites.append(Site(name=site_name, computing_elements=[ce], storage_element=se))

    overhead = OverheadModel(
        submission=TruncatedNormal(mu=0.10 * overhead_mean, sigma=0.05 * overhead_mean, floor=2.0),
        brokering=TruncatedNormal(mu=0.25 * overhead_mean, sigma=0.10 * overhead_mean, floor=5.0),
        queue_extra=LogNormal(
            mean_value=0.60 * overhead_mean,
            sigma_log=_sigma_log_for(overhead_sigma, 0.60 * overhead_mean),
        ),
        completion_notification=TruncatedNormal(
            mu=0.05 * overhead_mean, sigma=0.02 * overhead_mean, floor=1.0
        ),
    )
    faults = FaultModel.from_values(
        probability=failure_probability,
        detection_delay=TruncatedNormal(mu=15 * MINUTE, sigma=5 * MINUTE, floor=60.0),
        max_attempts=3,
    )
    grid = Grid(
        engine,
        streams,
        sites=sites,
        overhead=overhead,
        network=NetworkModel(),  # LAN/WAN defaults
        faults=faults,
        broker_concurrency=broker_concurrency,
        overhead_load_coupling=overhead_load_coupling,
        name="egee-like",
    )
    if with_background_load:
        BackgroundLoad(
            engine,
            grid.computing_elements,
            rng=streams.get("background-load"),
            interarrival=background_interarrival,
            duration=LogNormal(mean_value=background_duration_mean, sigma_log=0.9),
        )
    return grid


def faulty_testbed(
    engine: Engine,
    streams: Optional[RandomStreams] = None,
    n_sites: int = 6,
    workers_per_ce: int = 8,
    slots_per_worker: int = 2,
    blackhole_site: int = 1,
    straggler_site: int = 2,
    blackhole_probability: float = 0.9,
    blackhole_detection_delay: float = 30.0,
    straggler_speed: float = 0.3,
    base_failure_probability: float = 0.02,
    max_attempts: int = 25,
    retry_policy: Optional[RetryPolicy] = None,
    retry_budget: Optional[RetryBudget] = None,
) -> Grid:
    """A grid with one injected blackhole CE and one straggler CE.

    The blackhole site (index *blackhole_site*) fails
    ``blackhole_probability`` of its attempts and fails them *fast*
    (``blackhole_detection_delay`` seconds) — so its queue stays empty
    and least-loaded ranking keeps feeding it, the self-reinforcing
    EGEE pathology.  The straggler site's workers run at
    ``straggler_speed`` of fleet speed.  Healthy sites have mild speed
    spread (±5%) and a small background failure probability.
    ``max_attempts`` is generous so the *no-feedback* baseline still
    completes: without monitoring, jobs bounce off the blackhole many
    times before landing somewhere healthy.

    Overheads are small constants — the variability under study is the
    injected pathology, not the middleware.
    """
    if n_sites < 3:
        raise ValueError(f"faulty_testbed needs >= 3 sites, got {n_sites}")
    if blackhole_site == straggler_site:
        raise ValueError("blackhole and straggler must be different sites")
    for index, label in ((blackhole_site, "blackhole_site"), (straggler_site, "straggler_site")):
        if not 0 <= index < n_sites:
            raise ValueError(f"{label} must be in [0, {n_sites}), got {index}")
    streams = streams or RandomStreams(seed=0)
    speed_rng = streams.get("worker-speeds")

    sites = []
    for s in range(n_sites):
        site_name = f"site{s:02d}"
        nodes = []
        for w in range(workers_per_ce):
            if s == straggler_site:
                speed = straggler_speed
            else:
                speed = float(Uniform(0.95, 1.05).sample(speed_rng))
            nodes.append(
                WorkerNode(name=f"{site_name}-wn{w:03d}", slots=slots_per_worker, speed=speed)
            )
        ce = ComputingElement(
            engine,
            name=f"{site_name}-ce",
            site=site_name,
            workers=nodes,
            policy=FifoPolicy(engine),
        )
        se = StorageElement(f"{site_name}-se", site=site_name)
        sites.append(Site(name=site_name, computing_elements=[ce], storage_element=se))

    blackhole_ce = f"site{blackhole_site:02d}-ce"
    faults = FaultModel.from_values(
        probability=base_failure_probability,
        detection_delay=TruncatedNormal(mu=120.0, sigma=30.0, floor=30.0),
        max_attempts=max_attempts,
        ce_probability={blackhole_ce: blackhole_probability},
        ce_detection_delay={blackhole_ce: blackhole_detection_delay},
    )
    return Grid(
        engine,
        streams,
        sites=sites,
        overhead=OverheadModel.from_values(
            submission=2.0,
            brokering=3.0,
            queue_extra=5.0,
            completion_notification=1.0,
        ),
        network=NetworkModel(),
        faults=faults,
        name="faulty",
        retry_policy=retry_policy,
        retry_budget=retry_budget,
    )


def chaotic_testbed(
    engine: Engine,
    streams: Optional[RandomStreams] = None,
    n_sites: int = 4,
    workers_per_ce: int = 8,
    slots_per_worker: int = 2,
    repair: bool = True,
    repair_target: int = 2,
    repair_interval: float = 60.0,
    transfer_failure_probability: float = 0.05,
    replica_loss_probability: float = 0.02,
    corruption_probability: float = 0.015,
    outages: Optional[OutageSchedule] = None,
    max_attempts: int = 6,
) -> Grid:
    """A small grid where the *data plane* misbehaves on schedule.

    Everything the fault-injection subsystem can do, in one testbed:

    * a long outage of ``site00-se`` — the SE every input file is
      registered on — plus a *flapping* ``site02-se`` and one whole-site
      blackout (``site03``: CE and SE down together),
    * WAN transfers that fail ``transfer_failure_probability`` of the
      time and a degraded-bandwidth brown-out window,
    * replica loss and corruption injected on stage-in accesses, and
    * (with ``repair=True``) the background re-replication daemon that
      keeps ``repair_target`` healthy copies of every GFN — the thing
      that lets Bronze complete where the ``repair=False`` ablation
      loses the lineages whose only replica dies.

    Overheads are the small constants of :func:`faulty_testbed`; all
    chaos is a pure function of the schedule and the seeded streams, so
    two runs with the same seed are byte-identical.
    """
    if n_sites < 3:
        raise ValueError(f"chaotic_testbed needs >= 3 sites, got {n_sites}")
    streams = streams or RandomStreams(seed=0)
    speed_rng = streams.get("worker-speeds")

    sites = []
    for s in range(n_sites):
        site_name = f"site{s:02d}"
        nodes = [
            WorkerNode(
                name=f"{site_name}-wn{w:03d}",
                slots=slots_per_worker,
                speed=float(Uniform(0.95, 1.05).sample(speed_rng)),
            )
            for w in range(workers_per_ce)
        ]
        ce = ComputingElement(
            engine,
            name=f"{site_name}-ce",
            site=site_name,
            workers=nodes,
            policy=FifoPolicy(engine),
        )
        se = StorageElement(f"{site_name}-se", site=site_name)
        sites.append(Site(name=site_name, computing_elements=[ce], storage_element=se))

    if outages is None:
        outages = OutageSchedule.from_windows(
            {
                # the default SE (all inputs start here) dies for a while
                "site00-se": [(900.0, 2600.0)],
                # one CE browns out mid-run; its queue backs up
                "site01-ce": [(400.0, 800.0)],
                # a whole site goes dark: CE and SE down together
                "site03": [(600.0, 1000.0)],
            }
        ).with_flapping("site02-se", start=300.0, down=120.0, up=180.0, cycles=4)

    network = NetworkModel(
        failure_probability=transfer_failure_probability,
        degraded_windows=(
            # backbone congestion: every transfer 2x slower in the window
            DegradedWindow(start=200.0, end=800.0, factor=2.0),
        ),
    )
    faults = FaultModel.from_values(
        probability=0.02,
        detection_delay=TruncatedNormal(mu=60.0, sigma=15.0, floor=15.0),
        max_attempts=max_attempts,
    )
    return Grid(
        engine,
        streams,
        sites=sites,
        overhead=OverheadModel.from_values(
            submission=2.0,
            brokering=3.0,
            queue_extra=5.0,
            completion_notification=1.0,
        ),
        network=network,
        faults=faults,
        name="chaotic",
        outages=outages,
        durability=DurabilityFaultModel(
            loss_probability=replica_loss_probability,
            corruption_probability=corruption_probability,
        ),
        transfer_retry=RetryPolicy.exponential(
            base_delay=5.0, max_delay=60.0, jitter=0.1, max_attempts=5
        ),
        repair_target=repair_target if repair else 1,
        repair_interval=repair_interval,
    )


def _sigma_log_for(target_std: float, mean_value: float) -> float:
    """Sigma of the log such that LogNormal(mean, s) has ~*target_std*.

    For a lognormal with arithmetic mean m and log-sigma s the variance
    is m^2 (e^{s^2} - 1); solving for s given a target standard
    deviation.
    """
    import math

    if mean_value <= 0:
        raise ValueError("mean_value must be > 0")
    if target_std <= 0:
        return 0.0
    ratio = (target_std / mean_value) ** 2
    return math.sqrt(math.log(1.0 + ratio))
