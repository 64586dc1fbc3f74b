"""Edge-case tests for event failure propagation."""

import pytest

from repro.sim import Simulator


def test_event_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_unwaited_failed_event_raises_at_processing():
    sim = Simulator()
    event = sim.event()
    event.fail(RuntimeError("nobody listening"))
    with pytest.raises(RuntimeError, match="nobody listening"):
        sim.run()


