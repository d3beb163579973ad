"""Synthetic medical-image database.

The paper's inputs: "a database of injected T1 brain MRIs from the
cancer treatment center 'Centre Antoine Lacassagne' ... All images are
256×256×60 and coded on 16 bits, thus leading to a 7.8 MB size per
image (approximately 2.3 MB when compressed)", acquired "at several
time points to monitor the growth of brain tumors" — experiments used
12, 66 and 126 image pairs from 1, 7 and 25 patients.

We cannot ship that database, so :class:`ImageDatabase` generates an
equivalent synthetic one: per patient, a series of acquisitions whose
inter-acquisition rigid motion (the registration ground truth) is drawn
randomly.  Only the metadata matters to the system — file sizes drive
transfers, ground-truth transforms drive the registration outputs — so
the substitution preserves every code path the paper exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apps.transforms import RigidTransform
from repro.util import codec
from repro.util.rng import RandomStreams

__all__ = ["MedicalImage", "ImagePair", "ImageDatabase"]

#: the paper's image geometry
DEFAULT_SHAPE = (256, 256, 60)
DEFAULT_BITS = 16


@codec.register("MedicalImage")
@dataclass(frozen=True)
class MedicalImage:
    """Metadata of one acquisition (the bytes themselves are synthetic)."""

    patient: int
    time_point: int
    shape: tuple = DEFAULT_SHAPE
    bits: int = DEFAULT_BITS
    compressed_ratio: float = 0.30  # ~2.3 MB over 7.8 MB

    @property
    def image_id(self) -> str:
        """Stable identifier: patient + acquisition time point."""
        return f"patient{self.patient:03d}/t{self.time_point:02d}"

    @property
    def gfn(self) -> str:
        """The Grid File Name the image is registered under."""
        return f"gfn://lacassagne/{self.image_id}.mhd"

    @property
    def size_bytes(self) -> float:
        """Raw size: voxels × bytes per voxel (≈ 7.8 MB for the default)."""
        voxels = 1
        for dim in self.shape:
            voxels *= dim
        return voxels * (self.bits / 8)

    @property
    def compressed_bytes(self) -> float:
        """Lossless-compressed size (≈ 2.3 MB for the default)."""
        return self.size_bytes * self.compressed_ratio


@codec.register("ImagePair")
@dataclass(frozen=True)
class ImagePair:
    """One registration problem: floating image onto reference image.

    ``true_transform`` maps floating-image coordinates into the
    reference frame — the synthetic ground truth that simulated
    algorithms perturb to produce their estimates.
    """

    pair_id: int
    floating: MedicalImage
    reference: MedicalImage
    true_transform: RigidTransform

    def __repr__(self) -> str:
        return (
            f"<ImagePair #{self.pair_id} {self.floating.image_id} -> "
            f"{self.reference.image_id}>"
        )


class ImageDatabase:
    """Synthetic multi-patient, multi-time-point acquisition database."""

    def __init__(
        self,
        streams: Optional[RandomStreams] = None,
        max_angle_deg: float = 8.0,
        max_translation_mm: float = 15.0,
    ) -> None:
        self._streams = streams or RandomStreams(seed=0)
        self.max_angle_deg = max_angle_deg
        self.max_translation_mm = max_translation_mm

    def generate_pairs(self, n_pairs: int, pairs_per_patient: int = 5) -> List[ImagePair]:
        """Generate *n_pairs* registration problems.

        Patients contribute ``pairs_per_patient`` consecutive-time-point
        pairs each (the paper's 12/66/126 pairs come from 1/7/25
        patients, i.e. roughly 5 pairs per patient).
        """
        if n_pairs < 0:
            raise ValueError(f"n_pairs must be >= 0, got {n_pairs}")
        if pairs_per_patient < 1:
            raise ValueError(f"pairs_per_patient must be >= 1, got {pairs_per_patient}")
        rng = self._streams.get("image-database")
        pairs: List[ImagePair] = []
        patient = 0
        time_point = 0
        for pair_id in range(n_pairs):
            if time_point >= pairs_per_patient:
                patient += 1
                time_point = 0
            floating = MedicalImage(patient=patient, time_point=time_point)
            reference = MedicalImage(patient=patient, time_point=time_point + 1)
            truth = RigidTransform.random(
                rng,
                max_angle_deg=self.max_angle_deg,
                max_translation=self.max_translation_mm,
            )
            pairs.append(
                ImagePair(
                    pair_id=pair_id,
                    floating=floating,
                    reference=reference,
                    true_transform=truth,
                )
            )
            time_point += 1
        return pairs

    @staticmethod
    def patients_of(pairs: List[ImagePair]) -> int:
        """Number of distinct patients across *pairs*."""
        return len({p.floating.patient for p in pairs})
