"""Base class for simulation model objects."""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.kernel import Simulator


class Component:
    """A named model object bound to a :class:`~repro.sim.kernel.Simulator`.

    Components provide a uniform way to schedule work.  All hardware-ish
    objects in the library (switches, caches, memory controllers,
    processors, network interfaces) derive from this class.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name

    # ------------------------------------------------------------ scheduling
    @property
    def now(self) -> int:
        return self.sim.now

    def schedule(
        self,
        delay: int,
        callback: Callable[..., None],
        arg: Any = None,
        priority: int = 0,
    ) -> None:
        """Run ``callback`` after ``delay`` ns (``callback(arg)`` when ``arg``
        is not None); see :meth:`repro.sim.kernel.Simulator.schedule`."""
        self.sim.schedule(delay, callback, arg, priority)

    def schedule_at(
        self,
        time: int,
        callback: Callable[..., None],
        arg: Any = None,
        priority: int = 0,
    ) -> None:
        self.sim.schedule_at(time, callback, arg, priority)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"
