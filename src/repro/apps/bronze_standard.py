"""The Figure 9 workflow, assembled and ready to enact.

Structure (data links; ``MultiTransfoTest`` is the double-squared
synchronization processor of the figure)::

    referenceImage --+--> crestLines ---> crestMatch --+--------------+
    floatingImage  --+        ^  (grouped when JG on)  |              |
    scale ------------________|                        v              v
                                              Baladin/Yasmina   PFMatchICP
                                                   |                  |
                                                   |             PFRegister
                                                   v                  |
    methodToTest ----------------------> MultiTransfoTest <-----------+
                                               |        |
                                     accuracy_rotation  accuracy_translation

Reproduction notes:

* the figure's ``getFromEGEE`` processors are the image-download steps;
  they are not compute jobs (the paper counts **6 job submissions per
  image pair**: crestLines, crestMatch, Baladin, Yasmina, PFMatchICP,
  PFRegister) and are absorbed here into the data sources + the
  middleware's stage-in transfers, which is what they physically were;
* ``crestLines`` needs the constant ``scale`` parameter (the ``-s``
  option of Figure 8); dataset builders replicate it to the stream
  length so the dot product pairs it with every image pair;
* the two groupable chains the paper names come out of the grouping
  pass automatically: ``crestLines+crestMatch`` and
  ``PFMatchICP+PFRegister``;
* the critical path carries n_W = 5 services (crestLines, crestMatch,
  PFMatchICP, PFRegister, MultiTransfoTest), matching Section 5.1.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.apps.accuracy import multi_transfo_test
from repro.apps.imaging import ImageDatabase, ImagePair
from repro.apps.registration import build_registration_services
from repro.cache import ResultCache
from repro.core.config import OptimizationConfig
from repro.core.enactor import EnactmentResult, MoteurEnactor
from repro.grid.middleware import Grid
from repro.services.base import LocalService, Service
from repro.sim.engine import Engine
from repro.util.distributions import Distribution, TruncatedNormal
from repro.util.rng import RandomStreams
from repro.workflow.builder import WorkflowBuilder
from repro.workflow.datasets import DataItem, InputDataSet
from repro.workflow.graph import Workflow

__all__ = ["BronzeStandardApplication", "BRONZE_CRITICAL_PATH", "DEFAULT_SCALE"]

#: the crest-line extraction scale used on the command line (-s option)
DEFAULT_SCALE = 8

#: the critical path's compute services (Baladin/Yasmina run on parallel
#: branches; MultiTransfoTest is a synchronization barrier) — the rows
#: of the Section 3.5 T matrix for drift reporting.
BRONZE_CRITICAL_PATH = ("crestLines", "crestMatch", "PFMatchICP", "PFRegister")


class BronzeStandardApplication:
    """Builds and enacts the Bronze Standard workflow on a grid.

    Parameters
    ----------
    engine, grid, streams:
        The simulation substrate the services run on.
    timings:
        Optional per-service compute-time overrides (service name ->
        seconds or Distribution); constant values make the workload
        suitable for model-validation runs.
    mtt_time:
        Compute-time model of the MultiTransfoTest statistics job.
    owner, tags:
        Accounting identity stamped on every submitted job description
        (fair-share batch scheduling keys on ``owner``; a multi-tenant
        scheduler passes ``tags={"tenant": ..., "run": ...}`` so jobs
        stay attributable on a shared testbed).
    """

    def __init__(
        self,
        engine: Engine,
        grid: Grid,
        streams: Optional[RandomStreams] = None,
        timings: Optional[Mapping[str, "float | Distribution"]] = None,
        mtt_time: "float | Distribution | None" = None,
        owner: str = "user",
        tags: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.engine = engine
        self.grid = grid
        self.streams = streams or RandomStreams(seed=0)
        self.services: Dict[str, Service] = dict(
            build_registration_services(
                engine, grid, self.streams, timings=timings, owner=owner, tags=tags
            )
        )
        if mtt_time is None:
            mtt_time = (
                timings.get("MultiTransfoTest")
                if timings and "MultiTransfoTest" in timings
                else TruncatedNormal(mu=60.0, sigma=10.0, floor=1.0)
            )
        # The statistics step runs at the enactor host (it collects the
        # whole result set); modelled as a local service with a
        # realistic duration rather than a grid job.
        self.services["MultiTransfoTest"] = LocalService(
            engine,
            "MultiTransfoTest",
            input_ports=(
                "crest_transforms",
                "baladin_transforms",
                "yasmina_transforms",
                "pf_transforms",
                "method",
            ),
            output_ports=("accuracy_rotation", "accuracy_translation"),
            function=multi_transfo_test,
            duration=self._duration_model(mtt_time),
        )
        self.workflow = self._build_workflow()
        self.database = ImageDatabase(self.streams)

    def _duration_model(self, spec: "float | Distribution"):
        if isinstance(spec, Distribution):
            rng = self.streams.get("mtt-duration")
            return lambda _inputs: float(spec.sample(rng))
        return float(spec)

    def _build_workflow(self) -> Workflow:
        builder = (
            WorkflowBuilder("bronze-standard")
            .source("referenceImage")
            .source("floatingImage")
            .source("scale")
            .source("methodToTest")
            .service("crestLines", self.services["crestLines"])
            .service("crestMatch", self.services["crestMatch"])
            .service("Baladin", self.services["Baladin"])
            .service("Yasmina", self.services["Yasmina"])
            .service("PFMatchICP", self.services["PFMatchICP"])
            .service("PFRegister", self.services["PFRegister"])
            .service(
                "MultiTransfoTest",
                self.services["MultiTransfoTest"],
                synchronization=True,
                groupable=False,
            )
            .sink("accuracy_rotation")
            .sink("accuracy_translation")
        )
        builder.connect("floatingImage:output", "crestLines:floating_image")
        builder.connect("referenceImage:output", "crestLines:reference_image")
        builder.connect("scale:output", "crestLines:scale")
        builder.connect("crestLines:crest_reference", "crestMatch:crest_reference")
        builder.connect("crestLines:crest_floating", "crestMatch:crest_floating")
        for method in ("Baladin", "Yasmina", "PFMatchICP"):
            builder.connect("floatingImage:output", f"{method}:floating_image")
            builder.connect("referenceImage:output", f"{method}:reference_image")
            builder.connect("crestMatch:transform", f"{method}:init_transform")
        builder.connect("PFMatchICP:matched_points", "PFRegister:matched_points")
        builder.connect("crestMatch:transform", "MultiTransfoTest:crest_transforms")
        builder.connect("Baladin:transform", "MultiTransfoTest:baladin_transforms")
        builder.connect("Yasmina:transform", "MultiTransfoTest:yasmina_transforms")
        builder.connect("PFRegister:transform", "MultiTransfoTest:pf_transforms")
        builder.connect("methodToTest:output", "MultiTransfoTest:method")
        builder.connect("MultiTransfoTest:accuracy_rotation", "accuracy_rotation:input")
        builder.connect(
            "MultiTransfoTest:accuracy_translation", "accuracy_translation:input"
        )
        return builder.build()

    # -- data sets -----------------------------------------------------------
    def build_dataset(
        self,
        n_pairs: int,
        method_to_test: str = "crestMatch",
        scale: int = DEFAULT_SCALE,
        pairs: Optional[List[ImagePair]] = None,
    ) -> InputDataSet:
        """An input data set registering *n_pairs* image pairs.

        Image items carry both the GFN (7.8 MB files, staged in by every
        registration job) and the :class:`ImagePair` value the simulated
        programs read the ground truth from.
        """
        if pairs is None:
            pairs = self.database.generate_pairs(n_pairs)
        elif len(pairs) < n_pairs:
            raise ValueError(f"need {n_pairs} pairs, got {len(pairs)}")
        pairs = pairs[:n_pairs]
        dataset = InputDataSet(name=f"bronze-{n_pairs}")
        for pair in pairs:
            dataset.add(
                "floatingImage",
                DataItem(value=pair, gfn=pair.floating.gfn, size=pair.floating.size_bytes),
            )
            dataset.add(
                "referenceImage",
                DataItem(value=pair, gfn=pair.reference.gfn, size=pair.reference.size_bytes),
            )
            # scale is a constant parameter; replicate it so the dot
            # product pairs one scale item with every image pair.
            dataset.add("scale", DataItem(value=scale))
        dataset.add("methodToTest", DataItem(value=method_to_test))
        return dataset

    # -- enactment -------------------------------------------------------------
    def enact(
        self,
        config: OptimizationConfig,
        n_pairs: int = 12,
        dataset: Optional[InputDataSet] = None,
        method_to_test: str = "crestMatch",
        cache: "Optional[ResultCache]" = None,
        instrumentation=None,
        journal=None,
        resume: bool = False,
        crash_after: Optional[int] = None,
        profiler=None,
    ) -> EnactmentResult:
        """Run the workflow under *config* over *n_pairs* image pairs.

        Passing a :class:`~repro.cache.ResultCache` (or enabling one on
        *config* via ``with_cache``) memoizes every invocation by
        provenance key, which makes a re-enactment over the same data
        set replay from the cache instead of re-submitting grid jobs.
        An :class:`~repro.observability.InstrumentationBus` turns the
        run into a correlated span stream (enactor + grid layers) and
        attaches the per-run metrics snapshot to the result.

        *journal* (an :class:`~repro.core.journal.EnactmentJournal` or a
        path) enables the crash-safe WAL; ``resume=True`` replays the
        journal's completed invocations before executing the rest.
        *crash_after* raises a simulated crash once that many new
        invocations completed (crash-resume testing).

        A *profiler* (:class:`~repro.observability.profiling.Profiler`)
        is installed across the whole stack — engine, grid, broker,
        enactor, and the bus if one is attached — for the duration of
        the enactment.
        """
        if dataset is None:
            dataset = self.build_dataset(n_pairs, method_to_test=method_to_test)
        enactor = MoteurEnactor(
            self.engine,
            self.workflow,
            config,
            grid=self.grid,
            cache=cache,
            instrumentation=instrumentation,
            journal=journal,
            crash_after_n_invocations=crash_after,
        )
        if profiler is not None:
            from repro.observability.profiling import install

            install(
                profiler,
                self.engine,
                self.grid,
                self.grid.broker,
                enactor,
                instrumentation,
            )
        if resume:
            return enactor.resume(dataset)
        return enactor.run(dataset)

    @staticmethod
    def jobs_per_pair() -> int:
        """The paper's count: 6 job submissions per image pair."""
        return 6
