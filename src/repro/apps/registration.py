"""The four registration methods as simulated grid services.

"The first registration algorithm is crestMatch.  Its result is used
to initialize the other registration algorithms which are Baladin,
Yasmina and PFMatchICP/PFRegister.  crestLines is a pre-processing
step."  (Section 4.2)

Each method becomes a :class:`~repro.services.wrapper.GenericWrapperService`
built from a realistic executable descriptor (command-line options
mirror the Figure 8 example), a calibrated compute-time model, and a
*program* producing real outputs: the pair's ground-truth transform
perturbed by method-specific noise.  The noise levels are loosely
inspired by the published bronze-standard assessments (feature-based
methods a bit noisier in translation, intensity-based methods tighter).

The per-method compute times below are this reproduction's calibration
(the paper does not publish per-code timings); what matters to the
reproduction is their order of magnitude relative to the ~10-minute
grid overhead, which is what makes job grouping profitable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.apps.imaging import ImagePair
from repro.apps.transforms import RigidTransform
from repro.grid.middleware import Grid
from repro.services.descriptor import (
    AccessMethod,
    ExecutableDescriptor,
    InputSpec,
    OutputSpec,
    SandboxSpec,
)
from repro.services.wrapper import GenericWrapperService
from repro.sim.engine import Engine
from repro.util import codec
from repro.util.distributions import Distribution, TruncatedNormal, as_distribution
from repro.util.rng import RandomStreams, stable_hash64
from repro.util.units import KIBIBYTE, MEBIBYTE

__all__ = [
    "RegistrationResult",
    "CrestData",
    "MatchedPointSet",
    "AlgorithmProfile",
    "DEFAULT_PROFILES",
    "build_registration_services",
]

_SERVER = "http://colors.unice.fr"


@codec.register("RegistrationResult")
@dataclass(frozen=True)
class RegistrationResult:
    """One method's estimated transform for one image pair."""

    method: str
    pair_id: int
    transform: RigidTransform

    def __repr__(self) -> str:  # compact: these end up on command lines
        return f"{self.method}#{self.pair_id}"


@codec.register("CrestData")
@dataclass(frozen=True)
class CrestData:
    """Crest lines extracted from one image (the crestLines output)."""

    pair: ImagePair
    role: str  # "reference" | "floating"
    n_points: int

    def __repr__(self) -> str:
        return f"crest({self.pair.pair_id},{self.role},{self.n_points}pts)"


@codec.register("MatchedPointSet")
@dataclass(frozen=True)
class MatchedPointSet:
    """Point matches produced by PFMatchICP, consumed by PFRegister."""

    pair: ImagePair
    n_matches: int

    def __repr__(self) -> str:
        return f"matches({self.pair.pair_id},{self.n_matches})"


@dataclass(frozen=True)
class AlgorithmProfile:
    """Error and cost model of one registration method."""

    name: str
    rotation_sigma_deg: float
    translation_sigma_mm: float
    compute_time: Distribution


def _tn(mu: float, sigma: float) -> TruncatedNormal:
    return TruncatedNormal(mu=mu, sigma=sigma, floor=1.0)


#: Calibrated defaults (see module docstring).
DEFAULT_PROFILES: Dict[str, AlgorithmProfile] = {
    "crestLines": AlgorithmProfile("crestLines", 0.0, 0.0, _tn(120.0, 20.0)),
    "crestMatch": AlgorithmProfile("crestMatch", 0.30, 1.2, _tn(90.0, 15.0)),
    "Baladin": AlgorithmProfile("Baladin", 0.18, 0.6, _tn(420.0, 60.0)),
    "Yasmina": AlgorithmProfile("Yasmina", 0.15, 0.5, _tn(360.0, 50.0)),
    "PFMatchICP": AlgorithmProfile("PFMatchICP", 0.0, 0.0, _tn(240.0, 40.0)),
    "PFRegister": AlgorithmProfile("PFRegister", 0.25, 0.9, _tn(40.0, 8.0)),
}


def _pair_of(value: object) -> ImagePair:
    """Extract the ImagePair from whatever flowed in on an image port."""
    if isinstance(value, ImagePair):
        return value
    pair = getattr(value, "pair", None)
    if isinstance(pair, ImagePair):
        return pair
    raise TypeError(f"expected an ImagePair-carrying value, got {type(value).__name__}")


def build_registration_services(
    engine: Engine,
    grid: Grid,
    streams: Optional[RandomStreams] = None,
    profiles: Optional[Mapping[str, AlgorithmProfile]] = None,
    timings: Optional[Mapping[str, "float | Distribution"]] = None,
    owner: str = "user",
    tags: Optional[Mapping[str, object]] = None,
) -> Dict[str, GenericWrapperService]:
    """Build the six services of the Figure 9 workflow.

    ``profiles`` overrides the full error/cost models; ``timings``
    overrides just the compute-time models (handy for constant-time
    model-validation runs).  ``owner`` and ``tags`` flow onto every
    submitted job description (fair-share accounting and tenant/run
    attribution when several enactments share the testbed).
    """
    streams = streams or RandomStreams(seed=0)
    tags = dict(tags or {})
    table = dict(DEFAULT_PROFILES)
    if profiles:
        table.update(profiles)

    def time_of(name: str) -> "float | Distribution":
        if timings and name in timings:
            return as_distribution(timings[name])
        return table[name].compute_time

    def rng_for(name: str, pair_id: int) -> np.random.Generator:
        # One generator per (algorithm, image pair), derived from the
        # master seed: an algorithm's draws for pair k are the same no
        # matter which invocations ran before it.  That input-determinism
        # is what makes a crash-resumed run byte-identical to an
        # uninterrupted one — a shared per-algorithm stream would hand
        # out draws in completion order, which a resume reshuffles.
        seq = np.random.SeedSequence(
            [streams.seed, stable_hash64(f"algorithm:{name}"), int(pair_id)]
        )
        return np.random.default_rng(seq)

    services: Dict[str, GenericWrapperService] = {}

    # -- crestLines: pre-processing, extracts crest lines from both images
    def crestlines_program(floating_image, reference_image, scale):
        pair = _pair_of(floating_image)
        crestlines_rng = rng_for("crestLines", pair.pair_id)
        n_ref = int(crestlines_rng.integers(1500, 4000))
        n_flo = int(crestlines_rng.integers(1500, 4000))
        return {
            "crest_reference": CrestData(pair=pair, role="reference", n_points=n_ref),
            "crest_floating": CrestData(pair=pair, role="floating", n_points=n_flo),
        }

    services["crestLines"] = GenericWrapperService(
        engine,
        grid,
        ExecutableDescriptor(
            name="crestLines",
            access=AccessMethod("URL", _SERVER),
            value="CrestLines.pl",
            inputs=(
                InputSpec("floating_image", "-im1", AccessMethod("GFN")),
                InputSpec("reference_image", "-im2", AccessMethod("GFN")),
                InputSpec("scale", "-s"),
            ),
            outputs=(
                OutputSpec("crest_reference", "-c1"),
                OutputSpec("crest_floating", "-c2"),
            ),
            sandboxes=(
                SandboxSpec("convert8bits", AccessMethod("URL", _SERVER), "Convert8bits.pl"),
                SandboxSpec("copy", AccessMethod("URL", _SERVER), "copy"),
                SandboxSpec("cmatch", AccessMethod("URL", _SERVER), "cmatch"),
            ),
        ),
        program=crestlines_program,
        compute_time=time_of("crestLines"),
        output_sizes={"crest_reference": 1 * MEBIBYTE, "crest_floating": 1 * MEBIBYTE},
        owner=owner,
        tags=tags,
    )

    # -- crestMatch: feature-based registration, initializes the others
    crestmatch_profile = table["crestMatch"]

    def crestmatch_program(crest_reference, crest_floating):
        pair = _pair_of(crest_reference)
        estimate = pair.true_transform.perturb(
            rng_for("crestMatch", pair.pair_id),
            crestmatch_profile.rotation_sigma_deg,
            crestmatch_profile.translation_sigma_mm,
        )
        return {"transform": RegistrationResult("crestMatch", pair.pair_id, estimate)}

    services["crestMatch"] = GenericWrapperService(
        engine,
        grid,
        ExecutableDescriptor(
            name="crestMatch",
            access=AccessMethod("URL", _SERVER),
            value="CrestMatch",
            inputs=(
                InputSpec("crest_reference", "-c1", AccessMethod("GFN")),
                InputSpec("crest_floating", "-c2", AccessMethod("GFN")),
            ),
            outputs=(OutputSpec("transform", "-o"),),
        ),
        program=crestmatch_program,
        compute_time=time_of("crestMatch"),
        output_sizes={"transform": 4 * KIBIBYTE},
        owner=owner,
        tags=tags,
    )

    # -- Baladin and Yasmina: intensity-based, need an initialization
    def intensity_method(method: str, executable: str) -> GenericWrapperService:
        profile = table[method]

        def program(floating_image, reference_image, init_transform):
            pair = _pair_of(floating_image)
            estimate = pair.true_transform.perturb(
                rng_for(method, pair.pair_id),
                profile.rotation_sigma_deg,
                profile.translation_sigma_mm,
            )
            return {"transform": RegistrationResult(method, pair.pair_id, estimate)}

        return GenericWrapperService(
            engine,
            grid,
            ExecutableDescriptor(
                name=method,
                access=AccessMethod("URL", _SERVER),
                value=executable,
                inputs=(
                    InputSpec("floating_image", "-flo", AccessMethod("GFN")),
                    InputSpec("reference_image", "-ref", AccessMethod("GFN")),
                    InputSpec("init_transform", "-init", AccessMethod("GFN")),
                ),
                outputs=(OutputSpec("transform", "-res"),),
            ),
            program=program,
            compute_time=time_of(method),
            output_sizes={"transform": 4 * KIBIBYTE},
            owner=owner,
            tags=tags,
        )

    services["Baladin"] = intensity_method("Baladin", "baladin")
    services["Yasmina"] = intensity_method("Yasmina", "yasmina")

    # -- PFMatchICP -> PFRegister: the two-step point/feature pipeline
    def pfmatch_program(floating_image, reference_image, init_transform):
        pair = _pair_of(floating_image)
        rng = rng_for("PFMatchICP", pair.pair_id)
        return {
            "matched_points": MatchedPointSet(
                pair=pair, n_matches=int(rng.integers(800, 2500))
            )
        }

    services["PFMatchICP"] = GenericWrapperService(
        engine,
        grid,
        ExecutableDescriptor(
            name="PFMatchICP",
            access=AccessMethod("URL", _SERVER),
            value="PFMatchICP",
            inputs=(
                InputSpec("floating_image", "-flo", AccessMethod("GFN")),
                InputSpec("reference_image", "-ref", AccessMethod("GFN")),
                InputSpec("init_transform", "-init", AccessMethod("GFN")),
            ),
            outputs=(OutputSpec("matched_points", "-pairs"),),
        ),
        program=pfmatch_program,
        compute_time=time_of("PFMatchICP"),
        output_sizes={"matched_points": 256 * KIBIBYTE},
        owner=owner,
        tags=tags,
    )

    pfregister_profile = table["PFRegister"]

    def pfregister_program(matched_points):
        pair = matched_points.pair
        estimate = pair.true_transform.perturb(
            rng_for("PFRegister", pair.pair_id),
            pfregister_profile.rotation_sigma_deg,
            pfregister_profile.translation_sigma_mm,
        )
        return {"transform": RegistrationResult("PFRegister", pair.pair_id, estimate)}

    services["PFRegister"] = GenericWrapperService(
        engine,
        grid,
        ExecutableDescriptor(
            name="PFRegister",
            access=AccessMethod("URL", _SERVER),
            value="PFRegister",
            inputs=(InputSpec("matched_points", "-pairs", AccessMethod("GFN")),),
            outputs=(OutputSpec("transform", "-res"),),
        ),
        program=pfregister_program,
        compute_time=time_of("PFRegister"),
        output_sizes={"transform": 4 * KIBIBYTE},
        owner=owner,
        tags=tags,
    )

    return services
