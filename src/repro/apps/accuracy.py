"""MultiTransfoTest: the bronze-standard accuracy statistics.

"The MultiTransfoTest service is responsible for the evaluation of the
accuracy of the registration algorithms [...]  This service evaluates
the accuracy of a specified registration algorithm by comparing its
results with means computed on all the others.  Thus, the
MultiTransfoTest service has to be synchronized: it must be enacted
once every of its ancestor is inactive." (Section 4.2)

The statistic, per image pair:

1. compute the **bronze standard** — the mean transform over the
   *other* methods' estimates for that pair,
2. measure the tested method's rotation error (geodesic angle) and
   translation error (Euclidean norm) against that mean,

then report the standard deviations over all pairs — the method's
rotation/translation accuracy, the two workflow outputs of Figure 9
(``accuracy_rotation`` / ``accuracy_translation``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.apps.registration import RegistrationResult
from repro.apps.transforms import mean_transform

__all__ = ["AccuracyReport", "bronze_standard_assessment", "multi_transfo_test"]


@dataclass(frozen=True)
class AccuracyReport:
    """Per-method accuracy against the bronze standard."""

    method: str
    n_pairs: int
    rotation_accuracy_deg: float  # std of rotation errors
    translation_accuracy_mm: float  # std of translation errors
    rotation_bias_deg: float  # mean rotation error
    translation_bias_mm: float  # mean translation error


def bronze_standard_assessment(
    results_by_method: Mapping[str, Sequence[RegistrationResult]],
    tested_method: str,
) -> AccuracyReport:
    """Assess *tested_method* against the mean of all the other methods."""
    if tested_method not in results_by_method:
        raise KeyError(
            f"unknown method {tested_method!r}; have {sorted(results_by_method)}"
        )
    others = {m: r for m, r in results_by_method.items() if m != tested_method}
    if not others:
        raise ValueError("the bronze standard needs at least one other method")

    tested_by_pair = {r.pair_id: r for r in results_by_method[tested_method]}
    other_by_pair: Dict[int, List[RegistrationResult]] = defaultdict(list)
    for method_results in others.values():
        for result in method_results:
            other_by_pair[result.pair_id].append(result)

    rotation_errors: List[float] = []
    translation_errors: List[float] = []
    for pair_id, tested in sorted(tested_by_pair.items()):
        references = other_by_pair.get(pair_id)
        if not references:
            continue  # no bronze standard available for this pair
        bronze = mean_transform([r.transform for r in references])
        rotation_errors.append(tested.transform.rotation_distance_deg(bronze))
        translation_errors.append(tested.transform.translation_distance(bronze))
    if not rotation_errors:
        raise ValueError(
            f"no overlapping pairs between {tested_method!r} and the other methods"
        )
    rot = np.asarray(rotation_errors)
    trans = np.asarray(translation_errors)
    return AccuracyReport(
        method=tested_method,
        n_pairs=len(rotation_errors),
        rotation_accuracy_deg=float(rot.std(ddof=1)) if rot.size > 1 else 0.0,
        translation_accuracy_mm=float(trans.std(ddof=1)) if trans.size > 1 else 0.0,
        rotation_bias_deg=float(rot.mean()),
        translation_bias_mm=float(trans.mean()),
    )


def multi_transfo_test(
    crest_transforms: Sequence[RegistrationResult],
    baladin_transforms: Sequence[RegistrationResult],
    yasmina_transforms: Sequence[RegistrationResult],
    pf_transforms: Sequence[RegistrationResult],
    method: Sequence[str],
) -> Dict[str, float]:
    """The MultiTransfoTest service program (signature = its input ports).

    Every transform argument is the *whole stream* of one upstream
    registration method (this processor is a synchronization barrier);
    ``method`` is the MethodToTest input — a one-item stream naming the
    method under evaluation.
    """
    if not method:
        raise ValueError("MethodToTest input is empty")
    tested = method[0]
    results_by_method = {
        "crestMatch": list(crest_transforms),
        "Baladin": list(baladin_transforms),
        "Yasmina": list(yasmina_transforms),
        "PFRegister": list(pf_transforms),
    }
    report = bronze_standard_assessment(results_by_method, tested)
    return {
        "accuracy_rotation": report.rotation_accuracy_deg,
        "accuracy_translation": report.translation_accuracy_mm,
    }
