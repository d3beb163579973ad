"""Property-based tests for rigid-transform algebra."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.transforms import RigidTransform, mean_transform

angles = st.lists(st.floats(-180.0, 180.0, allow_nan=False), min_size=3, max_size=3)
vectors = st.lists(st.floats(-100.0, 100.0, allow_nan=False), min_size=3, max_size=3)
transforms = st.builds(RigidTransform.from_euler_deg, angles, vectors)


class TestGroupProperties:
    @given(transforms)
    def test_inverse_involution(self, t):
        assert t.inverse().inverse().is_close(t, 1e-6, 1e-6)

    @given(transforms)
    def test_inverse_cancels(self, t):
        identity = RigidTransform()
        assert t.compose(t.inverse()).is_close(identity, 1e-6, 1e-6)

    @given(transforms, transforms, transforms)
    def test_associativity(self, a, b, c):
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert left.is_close(right, 1e-5, 1e-4)

    @given(transforms, transforms)
    def test_compose_matches_pointwise_application(self, a, b):
        point = np.array([1.0, -2.0, 3.0])
        assert np.allclose(a.compose(b).apply(point), a.apply(b.apply(point)), atol=1e-6)

    @given(transforms)
    def test_rigid_preserves_distances(self, t):
        p = np.array([1.0, 2.0, 3.0])
        q = np.array([-4.0, 0.0, 2.0])
        before = np.linalg.norm(p - q)
        after = np.linalg.norm(t.apply(p) - t.apply(q))
        assert abs(before - after) < 1e-8 * max(1.0, before)


class TestMetricsProperties:
    @given(transforms, transforms)
    def test_rotation_distance_bounds(self, a, b):
        d = a.rotation_distance_deg(b)
        assert 0.0 <= d <= 180.0 + 1e-9

    @given(transforms)
    def test_self_distance_zero(self, t):
        assert t.rotation_distance_deg(t) < 1e-6
        assert t.translation_distance(t) == 0.0


class TestMeanProperties:
    @given(transforms, st.integers(1, 6))
    def test_mean_of_copies_is_the_transform(self, t, n):
        assert mean_transform([t] * n).is_close(t, 1e-6, 1e-6)

    @given(transforms)
    def test_mean_invariant_to_quaternion_sign(self, t):
        flipped = RigidTransform(quaternion=-t.quaternion, translation=t.translation)
        mean = mean_transform([t, flipped, t])
        assert mean.rotation_distance_deg(t) < 1e-6
