"""Tests for rigid-transform algebra."""

import pickle

import numpy as np
import pytest

from repro.apps.registration import RegistrationResult
from repro.apps.transforms import RigidTransform, mean_transform, rotation_angle_deg
from repro.util.codec import canonical, decode, encode


@pytest.fixture
def rng():
    return np.random.default_rng(21)


class TestConstruction:
    def test_identity(self):
        identity = RigidTransform()
        point = np.array([1.0, 2.0, 3.0])
        assert np.allclose(identity.apply(point), point)

    def test_quaternion_normalized(self):
        transform = RigidTransform(quaternion=np.array([0.0, 0.0, 0.0, 2.0]))
        assert np.linalg.norm(transform.quaternion) == pytest.approx(1.0)

    def test_canonical_sign(self):
        a = RigidTransform(quaternion=np.array([0.1, 0.2, 0.3, 0.9]))
        b = RigidTransform(quaternion=-np.array([0.1, 0.2, 0.3, 0.9]))
        assert np.allclose(a.quaternion, b.quaternion)

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            RigidTransform(quaternion=np.zeros(4))

    def test_bad_translation_shape_rejected(self):
        with pytest.raises(ValueError):
            RigidTransform(translation=np.zeros(2))

    def test_from_euler(self):
        transform = RigidTransform.from_euler_deg([90, 0, 0], [0, 0, 0])
        rotated = transform.apply(np.array([0.0, 1.0, 0.0]))
        assert np.allclose(rotated, [0.0, 0.0, 1.0], atol=1e-12)

    def test_random_respects_bounds(self, rng):
        for _ in range(20):
            transform = RigidTransform.random(rng, max_angle_deg=5.0, max_translation=2.0)
            assert rotation_angle_deg(transform) <= 5.0 * np.sqrt(3) + 1e-9
            assert np.abs(transform.translation).max() <= 2.0


class TestEqualityAndHash:
    def test_equal_transforms_compare_equal(self):
        a = RigidTransform.from_euler_deg([1, 2, 3], [4, 5, 6])
        b = RigidTransform.from_euler_deg([1, 2, 3], [4, 5, 6])
        c = RigidTransform.from_euler_deg([1, 2, 3], [4, 5, 7])
        assert a == b
        assert a != c
        assert a != "not a transform"

    def test_hash_agrees_with_equality(self):
        a = RigidTransform.from_euler_deg([1, 2, 3], [4, 5, 6])
        b = RigidTransform.from_euler_deg([1, 2, 3], [4, 5, 6])
        c = RigidTransform.from_euler_deg([1, 2, 3], [4, 5, 7])
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2

    def test_dataclasses_holding_transforms_compare(self):
        t = RigidTransform.from_euler_deg([1, 2, 3], [4, 5, 6])
        same = RigidTransform.from_euler_deg([1, 2, 3], [4, 5, 6])
        assert RegistrationResult("Baladin", 3, t) == RegistrationResult("Baladin", 3, same)

    @pytest.mark.parametrize(
        "quat",
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.6, -0.8, 0.0],
            [0.6, 0.0, -0.8, 0.0],
        ],
    )
    def test_half_turn_has_one_encoding(self, quat):
        # w == 0: q and -q both have w >= 0; the first nonzero of x, y, z
        # breaks the tie, so both signs land on one quaternion, one hash
        # and one cache fingerprint
        a = RigidTransform(quaternion=np.array(quat))
        b = RigidTransform(quaternion=-np.array(quat))
        assert a.quaternion.tobytes() == b.quaternion.tobytes()
        assert a == b and hash(a) == hash(b)
        assert canonical(encode(a)) == canonical(encode(b))
        first = next(c for c in a.quaternion if c != 0.0)
        assert first > 0.0

    def test_negative_zeros_cleared(self):
        t = RigidTransform(quaternion=np.array([-0.0, 0.0, -0.0, -1.0]))
        assert t.quaternion.tobytes() == np.array([0.0, 0.0, 0.0, 1.0]).tobytes()

    def test_state_is_the_two_arrays(self, rng):
        # cache keys, FileStore lines and journal lines encode exactly
        # these two float64 arrays
        t = RigidTransform.random(rng).perturb(rng, 0.3, 1.2)
        assert list(vars(t)) == ["quaternion", "translation"]
        assert t.quaternion.dtype == np.float64 and t.quaternion.shape == (4,)
        assert t.translation.dtype == np.float64 and t.translation.shape == (3,)
        assert pickle.loads(pickle.dumps(t)) == t
        back = decode(encode(t))
        assert type(back) is RigidTransform and back == t
        assert list(vars(back)) == ["quaternion", "translation"]


class TestAlgebra:
    def test_compose_with_identity(self, rng):
        transform = RigidTransform.random(rng)
        identity = RigidTransform()
        assert transform.compose(identity).is_close(transform)
        assert identity.compose(transform).is_close(transform)

    def test_inverse_cancels(self, rng):
        transform = RigidTransform.random(rng)
        assert transform.compose(transform.inverse()).is_close(RigidTransform())
        assert transform.inverse().compose(transform).is_close(RigidTransform())

    def test_compose_applies_right_first(self, rng):
        a = RigidTransform.random(rng)
        b = RigidTransform.random(rng)
        point = rng.normal(size=3)
        assert np.allclose(a.compose(b).apply(point), a.apply(b.apply(point)))

    def test_apply_batch(self, rng):
        transform = RigidTransform.random(rng)
        points = rng.normal(size=(10, 3))
        moved = transform.apply(points)
        assert moved.shape == (10, 3)
        # rigid: distances preserved
        original = np.linalg.norm(points[0] - points[1])
        assert np.linalg.norm(moved[0] - moved[1]) == pytest.approx(original)


class TestMetrics:
    def test_rotation_distance_symmetric(self, rng):
        a = RigidTransform.random(rng)
        b = RigidTransform.random(rng)
        assert a.rotation_distance_deg(b) == pytest.approx(b.rotation_distance_deg(a))

    def test_known_rotation_distance(self):
        a = RigidTransform.from_euler_deg([30, 0, 0], [0, 0, 0])
        b = RigidTransform.from_euler_deg([50, 0, 0], [0, 0, 0])
        assert a.rotation_distance_deg(b) == pytest.approx(20.0)

    def test_translation_distance(self):
        a = RigidTransform(translation=np.array([1.0, 0.0, 0.0]))
        b = RigidTransform(translation=np.array([4.0, 4.0, 0.0]))
        assert a.translation_distance(b) == pytest.approx(5.0)


class TestPerturb:
    def test_zero_noise_is_identity(self, rng):
        transform = RigidTransform.random(rng)
        assert transform.perturb(rng, 0.0, 0.0).is_close(transform)

    def test_noise_scale(self, rng):
        truth = RigidTransform.random(rng)
        errors = [
            truth.perturb(rng, 0.5, 2.0).rotation_distance_deg(truth) for _ in range(300)
        ]
        # rotation error should be on the order of the sigma (in degrees)
        assert 0.3 < np.mean(errors) < 2.0

    def test_negative_sigma_rejected(self, rng):
        with pytest.raises(ValueError):
            RigidTransform().perturb(rng, -1.0, 0.0)


class TestMeanTransform:
    def test_mean_of_identical(self, rng):
        transform = RigidTransform.random(rng)
        mean = mean_transform([transform] * 5)
        assert mean.is_close(transform, angle_tol_deg=1e-9, trans_tol=1e-9)

    def test_mean_reduces_noise(self, rng):
        # The whole point of the bronze standard: the mean over noisy
        # estimates is closer to truth than the individual estimates.
        truth = RigidTransform.random(rng)
        estimates = [truth.perturb(rng, 0.5, 2.0) for _ in range(30)]
        mean = mean_transform(estimates)
        mean_error = mean.rotation_distance_deg(truth)
        individual = np.mean([e.rotation_distance_deg(truth) for e in estimates])
        assert mean_error < individual

    def test_mean_translation_is_arithmetic(self):
        transforms = [
            RigidTransform(translation=np.array([0.0, 0.0, 0.0])),
            RigidTransform(translation=np.array([2.0, 4.0, 6.0])),
        ]
        assert np.allclose(mean_transform(transforms).translation, [1.0, 2.0, 3.0])

    def test_mean_handles_quaternion_sign_flips(self, rng):
        truth = RigidTransform.random(rng)
        flipped = RigidTransform(quaternion=-truth.quaternion, translation=truth.translation)
        mean = mean_transform([truth, flipped])
        assert mean.rotation_distance_deg(truth) == pytest.approx(0.0, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_transform([])
