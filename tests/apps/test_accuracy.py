"""Tests for the bronze-standard accuracy statistics."""

import numpy as np
import pytest

from repro.apps.accuracy import bronze_standard_assessment, multi_transfo_test
from repro.apps.registration import RegistrationResult
from repro.apps.transforms import RigidTransform


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def make_results(rng, n_pairs, methods_sigmas):
    """Per-method results: truth (per pair) + method-specific noise."""
    truths = [RigidTransform.random(rng) for _ in range(n_pairs)]
    by_method = {}
    for method, (rot_sigma, trans_sigma) in methods_sigmas.items():
        by_method[method] = [
            RegistrationResult(method, i, truths[i].perturb(rng, rot_sigma, trans_sigma))
            for i in range(n_pairs)
        ]
    return by_method


class TestBronzeStandardAssessment:
    def test_reports_per_method(self, rng):
        results = make_results(
            rng, 20,
            {"crestMatch": (0.3, 1.0), "Baladin": (0.2, 0.5),
             "Yasmina": (0.2, 0.5), "PFRegister": (0.3, 1.0)},
        )
        report = bronze_standard_assessment(results, "crestMatch")
        assert report.method == "crestMatch"
        assert report.n_pairs == 20
        assert report.rotation_accuracy_deg > 0
        assert report.translation_accuracy_mm > 0

    def test_noisier_method_scores_worse(self, rng):
        results = make_results(
            rng, 60,
            {"sloppy": (1.0, 4.0), "tight": (0.05, 0.2),
             "m3": (0.2, 0.5), "m4": (0.2, 0.5)},
        )
        sloppy = bronze_standard_assessment(results, "sloppy")
        tight = bronze_standard_assessment(results, "tight")
        assert sloppy.rotation_accuracy_deg > tight.rotation_accuracy_deg
        assert sloppy.translation_accuracy_mm > tight.translation_accuracy_mm

    def test_perfect_method_near_zero_bias(self, rng):
        truths = [RigidTransform.random(rng) for _ in range(10)]
        results = {
            "perfect": [RegistrationResult("perfect", i, truths[i]) for i in range(10)],
            "other1": [
                RegistrationResult("other1", i, truths[i].perturb(rng, 0.01, 0.05))
                for i in range(10)
            ],
            "other2": [
                RegistrationResult("other2", i, truths[i].perturb(rng, 0.01, 0.05))
                for i in range(10)
            ],
        }
        report = bronze_standard_assessment(results, "perfect")
        assert report.rotation_bias_deg < 0.05
        assert report.translation_bias_mm < 0.2

    def test_unknown_method_rejected(self, rng):
        results = make_results(rng, 3, {"a": (0.1, 0.1), "b": (0.1, 0.1)})
        with pytest.raises(KeyError):
            bronze_standard_assessment(results, "zzz")

    def test_single_method_rejected(self, rng):
        results = make_results(rng, 3, {"only": (0.1, 0.1)})
        with pytest.raises(ValueError, match="at least one other"):
            bronze_standard_assessment(results, "only")

    def test_no_overlapping_pairs_rejected(self, rng):
        results = {
            "a": [RegistrationResult("a", 0, RigidTransform())],
            "b": [RegistrationResult("b", 99, RigidTransform())],
        }
        with pytest.raises(ValueError, match="overlapping"):
            bronze_standard_assessment(results, "a")

    def test_pairs_missing_from_others_skipped(self, rng):
        results = make_results(rng, 5, {"a": (0.1, 0.1), "b": (0.1, 0.1)})
        results["a"].append(RegistrationResult("a", 999, RigidTransform()))
        report = bronze_standard_assessment(results, "a")
        assert report.n_pairs == 5


class TestMultiTransfoTest:
    def test_service_program_signature(self, rng):
        results = make_results(
            rng, 12,
            {"crestMatch": (0.3, 1.2), "Baladin": (0.18, 0.6),
             "Yasmina": (0.15, 0.5), "PFRegister": (0.25, 0.9)},
        )
        outputs = multi_transfo_test(
            crest_transforms=results["crestMatch"],
            baladin_transforms=results["Baladin"],
            yasmina_transforms=results["Yasmina"],
            pf_transforms=results["PFRegister"],
            method=["crestMatch"],
        )
        assert set(outputs) == {"accuracy_rotation", "accuracy_translation"}
        assert outputs["accuracy_rotation"] > 0
        assert outputs["accuracy_translation"] > 0

    def test_empty_method_rejected(self, rng):
        results = make_results(rng, 2, {"crestMatch": (0.1, 0.1), "Baladin": (0.1, 0.1),
                                        "Yasmina": (0.1, 0.1), "PFRegister": (0.1, 0.1)})
        with pytest.raises(ValueError, match="MethodToTest"):
            multi_transfo_test(
                results["crestMatch"], results["Baladin"],
                results["Yasmina"], results["PFRegister"], method=[],
            )
