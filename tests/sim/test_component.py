"""Unit tests for the Component base class."""

from repro.sim.component import Component


class TestComponent:
    def test_schedule_uses_simulator(self, sim):
        component = Component(sim, "widget")
        fired = []
        component.schedule(5, lambda: fired.append(component.now))
        sim.run()
        assert fired == [5]
