"""Base class for simulation model objects."""

from __future__ import annotations

from repro.sim.kernel import Simulator


class Component:
    """A named model object bound to a :class:`~repro.sim.kernel.Simulator`.

    All hardware-ish objects in the library (switches, caches, memory
    controllers, processors, network interfaces) derive from this class and
    schedule their work through ``self.sim``.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"
