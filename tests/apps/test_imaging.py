"""Tests for the synthetic image database."""

import pytest

from repro.apps.imaging import ImageDatabase, MedicalImage
from repro.util.rng import RandomStreams
from repro.util.units import MEBIBYTE


class TestMedicalImage:
    def test_paper_geometry_size(self):
        image = MedicalImage(patient=0, time_point=0)
        # 256 x 256 x 60 x 2 bytes = 7.5 MiB ~= the paper's "7.8 MB"
        assert image.size_bytes == 256 * 256 * 60 * 2
        assert 7.0 * MEBIBYTE < image.size_bytes < 8.0 * MEBIBYTE

    def test_compressed_size_near_paper(self):
        image = MedicalImage(patient=0, time_point=0)
        # "approximately 2.3 MB when compressed"
        assert 2.0 * MEBIBYTE < image.compressed_bytes < 2.6 * MEBIBYTE

    def test_gfn_unique_per_acquisition(self):
        a = MedicalImage(patient=1, time_point=0)
        b = MedicalImage(patient=1, time_point=1)
        assert a.gfn != b.gfn
        assert "patient001" in a.gfn


class TestImageDatabase:
    def test_generates_requested_pairs(self):
        pairs = ImageDatabase(RandomStreams(1)).generate_pairs(12)
        assert len(pairs) == 12
        assert [p.pair_id for p in pairs] == list(range(12))

    def test_paper_patient_scaling(self):
        # 12/66/126 pairs from 1/7/25 patients at ~5 pairs per patient
        db = ImageDatabase(RandomStreams(1))
        for n_pairs, min_patients in ((12, 2), (66, 13), (126, 25)):
            pairs = db.generate_pairs(n_pairs, pairs_per_patient=5)
            assert len({pair.floating.patient for pair in pairs}) >= min_patients

    def test_pairs_within_patient(self):
        pairs = ImageDatabase(RandomStreams(1)).generate_pairs(10)
        for pair in pairs:
            assert pair.floating.patient == pair.reference.patient
            assert pair.reference.time_point == pair.floating.time_point + 1

    def test_ground_truth_deterministic(self):
        a = ImageDatabase(RandomStreams(5)).generate_pairs(3)
        b = ImageDatabase(RandomStreams(5)).generate_pairs(3)
        for pa, pb in zip(a, b):
            assert pa.true_transform.is_close(pb.true_transform, 1e-12, 1e-12)

    def test_ground_truth_varies_across_pairs(self):
        pairs = ImageDatabase(RandomStreams(5)).generate_pairs(2)
        assert not pairs[0].true_transform.is_close(pairs[1].true_transform)

    def test_zero_pairs(self):
        assert ImageDatabase(RandomStreams(1)).generate_pairs(0) == []

    def test_validation(self):
        db = ImageDatabase(RandomStreams(1))
        with pytest.raises(ValueError):
            db.generate_pairs(-1)
        with pytest.raises(ValueError):
            db.generate_pairs(5, pairs_per_patient=0)
