import math

import pytest

from repro.sensors import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_custom_start(self):
        assert SimClock(100.0).now() == 100.0

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance(5.0) == 5.0
        assert clock.now() == 5.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now() == 4.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to_future(self):
        clock = SimClock(10.0)
        assert clock.advance_to(20.0) == 20.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock(10.0)
        assert clock.advance_to(5.0) == 10.0

    @pytest.mark.parametrize("seconds", [math.nan, math.inf])
    def test_non_finite_advance_rejected(self, seconds):
        clock = SimClock(10.0)
        with pytest.raises(ValueError):
            clock.advance(seconds)
        assert clock.now() == 10.0

    @pytest.mark.parametrize("instant", [math.nan, math.inf, -math.inf])
    def test_non_finite_advance_to_rejected(self, instant):
        clock = SimClock(10.0)
        with pytest.raises(ValueError):
            clock.advance_to(instant)
        assert clock.now() == 10.0

    @pytest.mark.parametrize("start", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, start):
        with pytest.raises(ValueError):
            SimClock(start)
