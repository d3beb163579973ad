"""Rigid 3-D transforms: the data the Bronze Standard actually computes.

"Medical image registration consists in searching a transformation
(that is to say 6 parameters in the rigid case — 3 rotation angles and
3 translation parameters) between two images" (Section 4.2).

:class:`RigidTransform` is a unit quaternion plus a translation vector,
with composition, inversion, perturbation, and distance metrics.  The
bronze-standard statistic needs a **mean of rotations**, computed here
with the standard quaternion-averaging method (the eigenvector of the
accumulated outer-product matrix — Markley et al.), which is exact for
the small dispersions involved.

The algebra is closed-form quaternion arithmetic on Python floats —
the formulas a rotation library evaluates, without the per-object
dispatch a 3-component operation would otherwise pay:

* extrinsic ``xyz`` Euler angles are the product ``qz ⊗ qy ⊗ qx`` of
  the half-angle elementary quaternions;
* composition is the Hamilton product; the inverse is the conjugate;
* a vector turns as ``v + w·t + u × t`` with ``t = 2·(u × v)``, point
  arrays through the 3×3 matrix;
* the rotation angle is ``2·atan2(|u|, |w|)``.

Only :func:`mean_transform` uses numpy linear algebra (``eigh``).  The
results agree with a reference rotation library to a few ulps, not to
the bit (``tests/properties/test_transform_oracle.py`` holds the
tolerances); per seed they are byte-identical.  No simulation concepts
— these are the honest data products flowing through the simulated
services.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.util import codec

__all__ = ["RigidTransform", "mean_transform", "rotation_angle_deg"]

Quat = Tuple[float, float, float, float]
Vec = Tuple[float, float, float]


def _unit(x: float, y: float, z: float, w: float) -> Quat:
    """Normalize and pick the canonical sign (q and -q are one rotation).

    ``w >= 0``; on ``w == 0`` the first nonzero of x, y, z is positive.
    Negative zeros are cleared so one rotation has one encoding.
    """
    norm = math.hypot(x, y, z, w)
    if norm == 0.0:
        raise ValueError("zero quaternion is not a rotation")
    if w < 0.0 or (
        w == 0.0 and (x < 0.0 or (x == 0.0 and (y < 0.0 or (y == 0.0 and z < 0.0))))
    ):
        norm = -norm
    return (x / norm + 0.0, y / norm + 0.0, z / norm + 0.0, w / norm + 0.0)


def _hamilton(p: Sequence[float], q: Sequence[float]) -> Quat:
    """``p ⊗ q``: rotate by *q* first, then by *p*."""
    px, py, pz, pw = p
    qx, qy, qz, qw = q
    return (
        pw * qx + qw * px + (py * qz - pz * qy),
        pw * qy + qw * py + (pz * qx - px * qz),
        pw * qz + qw * pz + (px * qy - py * qx),
        pw * qw - px * qx - py * qy - pz * qz,
    )


def _rotate(q: Sequence[float], v: Sequence[float]) -> Vec:
    """Turn the vector *v* by the unit quaternion *q*."""
    x, y, z, w = q
    vx, vy, vz = v
    tx = 2.0 * (y * vz - z * vy)
    ty = 2.0 * (z * vx - x * vz)
    tz = 2.0 * (x * vy - y * vx)
    return (
        vx + w * tx + (y * tz - z * ty),
        vy + w * ty + (z * tx - x * tz),
        vz + w * tz + (x * ty - y * tx),
    )


def _euler_xyz(angles_deg: Sequence[float]) -> Quat:
    """Extrinsic ``xyz`` angles (degrees) as ``qz ⊗ (qy ⊗ qx)``, expanded."""
    ax_deg, ay_deg, az_deg = angles_deg
    hx = math.radians(ax_deg) / 2.0
    hy = math.radians(ay_deg) / 2.0
    hz = math.radians(az_deg) / 2.0
    sx, cx = math.sin(hx), math.cos(hx)
    sy, cy = math.sin(hy), math.cos(hy)
    sz, cz = math.sin(hz), math.cos(hz)
    # qy ⊗ qx
    r0, r1, r2, r3 = cy * sx, cx * sy, -(sy * sx), cy * cx
    return (cz * r0 - sz * r1, cz * r1 + sz * r0, cz * r2 + r3 * sz, cz * r3 - sz * r2)


def _angle_deg(q: Sequence[float]) -> float:
    x, y, z, w = q
    return math.degrees(2.0 * math.atan2(math.hypot(x, y, z), abs(w)))


def _vector3(values) -> Vec:
    vector = np.asarray(values, dtype=float)
    if vector.shape != (3,):
        raise ValueError(f"translation must have shape (3,), got {vector.shape}")
    return tuple(vector.tolist())


def _make(q: Sequence[float], t: Sequence[float]) -> "RigidTransform":
    """Build from floats: normalizes *q*, skips the constructor's checks."""
    transform = object.__new__(RigidTransform)
    transform.__dict__.update(quaternion=np.array(_unit(*q)), translation=np.array(t))
    return transform


@codec.register("RigidTransform")
@dataclass(frozen=True)
class RigidTransform:
    """A rigid spatial transform: rotation (unit quaternion) + translation.

    ``RigidTransform()`` is the identity.

    The quaternion uses the ``(x, y, z, w)`` convention and is kept
    normalized with a canonical sign (see :func:`_unit`), so equal
    rotations compare, hash and fingerprint equal.
    """

    quaternion: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.0, 1.0]))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        quat = np.asarray(self.quaternion, dtype=float)
        if quat.shape != (4,):
            raise ValueError(f"quaternion must have shape (4,), got {quat.shape}")
        quat = _unit(*quat.tolist())
        self.__dict__.update(
            quaternion=np.array(quat), translation=np.array(_vector3(self.translation))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RigidTransform):
            return NotImplemented
        return (
            self.quaternion.tolist() == other.quaternion.tolist()
            and self.translation.tolist() == other.translation.tolist()
        )

    def __hash__(self) -> int:
        return hash((*self.quaternion.tolist(), *self.translation.tolist()))

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_euler_deg(
        cls, angles_deg: Sequence[float], translation: Sequence[float]
    ) -> "RigidTransform":
        """From extrinsic XYZ Euler angles in degrees plus a translation (mm)."""
        angles = np.asarray(angles_deg, dtype=float).tolist()
        return _make(_euler_xyz(angles), _vector3(translation))

    @classmethod
    def random(
        cls,
        rng: np.random.Generator,
        max_angle_deg: float = 10.0,
        max_translation: float = 20.0,
    ) -> "RigidTransform":
        """A random small transform (inter-acquisition patient motion)."""
        if max_angle_deg < 0 or max_translation < 0:
            raise ValueError("bounds must be >= 0")
        angles = rng.uniform(-max_angle_deg, max_angle_deg, size=3)
        translation = rng.uniform(-max_translation, max_translation, size=3)
        return cls.from_euler_deg(angles, translation)

    # -- algebra ------------------------------------------------------------
    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """``self ∘ other``: apply *other* first, then *self*."""
        q = self.quaternion.tolist()
        tx, ty, tz = _rotate(q, other.translation.tolist())
        sx, sy, sz = self.translation.tolist()
        return _make(_hamilton(q, other.quaternion.tolist()), (tx + sx, ty + sy, tz + sz))

    def inverse(self) -> "RigidTransform":
        """The transform undoing this one."""
        x, y, z, w = self.quaternion.tolist()
        conjugate = (-x, -y, -z, w)
        tx, ty, tz = _rotate(conjugate, self.translation.tolist())
        return _make(conjugate, (-tx, -ty, -tz))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform an ``(n, 3)`` (or ``(3,)``) point array."""
        x, y, z, w = self.quaternion.tolist()
        matrix = np.array(
            [
                [x * x - y * y - z * z + w * w, 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), -x * x + y * y - z * z + w * w, 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), -x * x - y * y + z * z + w * w],
            ]
        )
        return np.asarray(points, dtype=float) @ matrix.T + self.translation

    def perturb(
        self,
        rng: np.random.Generator,
        rotation_sigma_deg: float,
        translation_sigma: float,
    ) -> "RigidTransform":
        """Compose with small Gaussian noise — a noisy *estimate* of self.

        This is how simulated registration algorithms produce their
        answers: ground truth composed with method-specific error.
        """
        if rotation_sigma_deg < 0 or translation_sigma < 0:
            raise ValueError("sigmas must be >= 0")
        noise = _euler_xyz(rng.normal(0.0, rotation_sigma_deg, size=3).tolist())
        nx, ny, nz = rng.normal(0.0, translation_sigma, size=3).tolist()
        tx, ty, tz = _rotate(noise, self.translation.tolist())
        return _make(_hamilton(noise, self.quaternion.tolist()), (tx + nx, ty + ny, tz + nz))

    # -- metrics -----------------------------------------------------------------
    def rotation_distance_deg(self, other: "RigidTransform") -> float:
        """Geodesic rotation distance in degrees."""
        x, y, z, w = other.quaternion.tolist()
        return _angle_deg(_hamilton(self.quaternion.tolist(), (-x, -y, -z, w)))

    def translation_distance(self, other: "RigidTransform") -> float:
        """Euclidean distance between the translation parts."""
        return math.dist(self.translation.tolist(), other.translation.tolist())

    def is_close(
        self, other: "RigidTransform", angle_tol_deg: float = 1e-6, trans_tol: float = 1e-6
    ) -> bool:
        """Approximate equality within the given tolerances."""
        return (
            self.rotation_distance_deg(other) <= angle_tol_deg
            and self.translation_distance(other) <= trans_tol
        )

    def __repr__(self) -> str:
        t = self.translation
        return (
            f"RigidTransform(angle={rotation_angle_deg(self):.2f}deg, "
            f"t=[{t[0]:.2f}, {t[1]:.2f}, {t[2]:.2f}])"
        )


def mean_transform(transforms: Sequence[RigidTransform]) -> RigidTransform:
    """The mean rigid transform: quaternion average + arithmetic translation.

    The rotation mean maximizes ``Σ (qᵀ qᵢ)²`` — the principal
    eigenvector of ``Σ qᵢ qᵢᵀ`` (Markley's quaternion averaging), which
    coincides with the Fréchet mean for the dispersion levels of
    registration noise.  This is the "mean registration [that] should
    be more precise and is called a bronze-standard".
    """
    if not transforms:
        raise ValueError("cannot average zero transforms")
    quats = np.stack([t.quaternion for t in transforms])
    accumulator = quats.T @ quats  # 4x4 symmetric
    eigenvalues, eigenvectors = np.linalg.eigh(accumulator)
    mean_quat = eigenvectors[:, int(np.argmax(eigenvalues))]
    translation = np.mean([t.translation for t in transforms], axis=0)
    return RigidTransform(quaternion=mean_quat, translation=translation)


def rotation_angle_deg(transform: RigidTransform) -> float:
    """Magnitude of the rotation part, in degrees."""
    return _angle_deg(transform.quaternion.tolist())
