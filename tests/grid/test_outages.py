"""OutageSchedule: deterministic down/up windows for grid entities."""

import pytest

from repro.grid.faults import DurabilityFaultModel, OutageSchedule


class TestOutageSchedule:
    def test_none_is_empty(self):
        schedule = OutageSchedule.none()
        assert schedule.empty
        assert not schedule.is_down("anything", 0.0)

    def test_windows_are_half_open(self):
        schedule = OutageSchedule.from_windows({"se-a": [(100.0, 200.0)]})
        assert not schedule.is_down("se-a", 99.9)
        assert schedule.is_down("se-a", 100.0)
        assert schedule.is_down("se-a", 199.9)
        assert not schedule.is_down("se-a", 200.0)

    def test_next_up(self):
        schedule = OutageSchedule.from_windows({"se-a": [(100.0, 200.0)]})
        assert schedule.next_up("se-a", 150.0) == 200.0
        # already up: next_up is "now"
        assert schedule.next_up("se-a", 50.0) == 50.0
        assert schedule.next_up("se-a", 250.0) == 250.0
        assert schedule.next_up("unknown", 150.0) == 150.0

    def test_overlapping_windows_merge(self):
        schedule = OutageSchedule.from_windows(
            {"ce": [(100.0, 200.0), (150.0, 300.0), (300.0, 350.0)]}
        )
        assert schedule.down_windows("ce") == ((100.0, 350.0),)
        assert schedule.next_up("ce", 120.0) == 350.0

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            OutageSchedule.from_windows({"x": [(200.0, 100.0)]})
        with pytest.raises(ValueError):
            OutageSchedule.from_windows({"x": [(-5.0, 100.0)]})

    def test_flapping_builder(self):
        schedule = OutageSchedule.none().with_flapping(
            "se-flap", start=100.0, down=50.0, up=100.0, cycles=3
        )
        assert schedule.down_windows("se-flap") == (
            (100.0, 150.0),
            (250.0, 300.0),
            (400.0, 450.0),
        )
        assert schedule.is_down("se-flap", 120.0)
        assert not schedule.is_down("se-flap", 200.0)
        assert schedule.is_down("se-flap", 430.0)


class TestDurabilityFaultModel:
    def test_none_is_inactive(self):
        model = DurabilityFaultModel.none()
        assert not model.active

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            DurabilityFaultModel(loss_probability=0.8, corruption_probability=0.5)
        with pytest.raises(ValueError):
            DurabilityFaultModel(loss_probability=-0.1)

    def test_access_outcome_draws_exactly_one_number(self):
        model = DurabilityFaultModel(
            loss_probability=0.3, corruption_probability=0.3
        )

        class CountingRng:
            def __init__(self, value):
                self.value = value
                self.draws = 0

            def random(self):
                self.draws += 1
                return self.value

        lost = CountingRng(0.1)
        assert model.access_outcome(lost) == "lost"
        assert lost.draws == 1
        corrupt = CountingRng(0.5)
        assert model.access_outcome(corrupt) == "corrupt"
        assert corrupt.draws == 1
        ok = CountingRng(0.9)
        assert model.access_outcome(ok) == "ok"
        assert ok.draws == 1
