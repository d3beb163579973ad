"""Differential oracle: the closed-form float transforms against scipy's Rotation.

:mod:`repro.apps.transforms` computes rotations as Python-float
quaternion arithmetic; scipy's ``Rotation`` is the reference here and
only here (``pytest.importorskip``: the package itself does not import
scipy).  Every operation gets the same inputs on both sides — the
reference is built from the transform's own quaternion — so each check
isolates one formula.  Tolerances:

* quaternion components: 1e-14 absolute (up to the sign of q, which
  names the same rotation);
* translations and points: 1e-12 · max(1, |expected|);
* rotation distances and angles: 1e-10 degrees.

Hand mutants of ``repro.apps.transforms``, each passing
``tests/properties/test_transform_properties.py`` (the self-consistency
properties: a wrong but consistent algebra satisfies them) and killed
here:

1. intrinsic ``XYZ`` order: ``_euler_xyz`` returns ``qx ⊗ qy ⊗ qz``;
2. half angle dropped: ``hx = math.radians(ax_deg)`` (and y, z);
3. translation sign in ``apply``: ``... @ matrix.T - self.translation``;
4. ``perturb`` turns the translation by the conjugate of the noise.

Two more are killed here and by the properties as well: the inverse's
translation sign (``_make(conjugate, (tx, ty, tz))``: its compose with
the original is no identity) and swapped ``atan2`` arguments in
``_angle_deg`` (a transform's distance to itself reads 180°).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.transforms import RigidTransform, mean_transform, rotation_angle_deg

Rotation = pytest.importorskip("scipy.spatial.transform").Rotation

QUAT_TOL = 1e-14
VECTOR_TOL = 1e-12
ANGLE_TOL_DEG = 1e-10

angles = st.lists(st.floats(-180.0, 180.0, allow_nan=False), min_size=3, max_size=3)
vectors = st.lists(st.floats(-100.0, 100.0, allow_nan=False), min_size=3, max_size=3)
transforms = st.builds(RigidTransform.from_euler_deg, angles, vectors)
points = st.integers(1, 8).flatmap(
    lambda n: st.lists(vectors, min_size=n, max_size=n).map(np.array)
)
sigmas = st.floats(0.0, 5.0, allow_nan=False)
seeds = st.integers(0, 2**32 - 1)


def rotation_of(t: RigidTransform) -> Rotation:
    return Rotation.from_quat(t.quaternion)


def assert_quat(actual: np.ndarray, expected: np.ndarray) -> None:
    error = min(np.abs(actual - expected).max(), np.abs(actual + expected).max())
    assert error <= QUAT_TOL, (actual, expected, error)
    assert actual[3] >= 0.0


def assert_vector(actual: np.ndarray, expected: np.ndarray) -> None:
    bound = VECTOR_TOL * max(1.0, float(np.abs(expected).max()))
    assert np.abs(actual - expected).max() <= bound, (actual, expected)


def assert_angle(actual: float, expected_rad: float) -> None:
    assert abs(actual - np.degrees(expected_rad)) <= ANGLE_TOL_DEG


class TestAgainstScipy:
    @given(angles, vectors)
    def test_from_euler_deg(self, a, t):
        ours = RigidTransform.from_euler_deg(a, t)
        assert_quat(ours.quaternion, Rotation.from_euler("xyz", a, degrees=True).as_quat())
        assert ours.translation.tolist() == [float(v) for v in t]

    @given(transforms, transforms)
    def test_compose(self, a, b):
        ours = a.compose(b)
        ra, rb = rotation_of(a), rotation_of(b)
        assert_quat(ours.quaternion, (ra * rb).as_quat())
        assert_vector(ours.translation, ra.apply(b.translation) + a.translation)

    @given(transforms)
    def test_inverse(self, t):
        ours = t.inverse()
        inverse = rotation_of(t).inv()
        assert_quat(ours.quaternion, inverse.as_quat())
        assert_vector(ours.translation, -inverse.apply(t.translation))

    @given(transforms, points)
    def test_apply(self, t, p):
        expected = rotation_of(t).apply(p) + t.translation
        assert_vector(t.apply(p), expected)
        assert_vector(t.apply(p[0]), expected[0])

    @given(transforms, sigmas, sigmas, seeds)
    def test_perturb(self, t, rotation_sigma, translation_sigma, seed):
        ours = t.perturb(np.random.default_rng(seed), rotation_sigma, translation_sigma)
        rng = np.random.default_rng(seed)
        noise = Rotation.from_euler("xyz", rng.normal(0.0, rotation_sigma, 3), degrees=True)
        noise_translation = rng.normal(0.0, translation_sigma, 3)
        assert_quat(ours.quaternion, (noise * rotation_of(t)).as_quat())
        assert_vector(ours.translation, noise.apply(t.translation) + noise_translation)

    @given(transforms, transforms)
    def test_rotation_distance(self, a, b):
        expected = (rotation_of(a) * rotation_of(b).inv()).magnitude()
        assert_angle(a.rotation_distance_deg(b), expected)

    @given(transforms)
    def test_rotation_angle(self, t):
        assert_angle(rotation_angle_deg(t), rotation_of(t).magnitude())

    @given(transforms, transforms, st.floats(0.0, 180.0), st.floats(0.0, 200.0))
    def test_is_close(self, a, b, angle_tol, trans_tol):
        distance = np.degrees((rotation_of(a) * rotation_of(b).inv()).magnitude())
        gap = np.linalg.norm(a.translation - b.translation)
        # the decision is only defined away from the tolerance boundary
        if abs(distance - angle_tol) > 1e-9 and abs(gap - trans_tol) > 1e-9:
            expected = bool(distance <= angle_tol and gap <= trans_tol)
            assert a.is_close(b, angle_tol, trans_tol) == expected

    @given(transforms, st.lists(st.tuples(seeds, sigmas), min_size=1, max_size=6))
    def test_mean_of_estimates(self, truth, draws):
        # the bronze standard averages estimates scattered around one truth
        estimates = [truth.perturb(np.random.default_rng(s), sigma, 1.0) for s, sigma in draws]
        expected = Rotation.from_quat(np.stack([e.quaternion for e in estimates])).mean()
        ours = mean_transform(estimates)
        assert_angle(ours.rotation_distance_deg(RigidTransform(expected.as_quat())), 0.0)
