"""System assembly and simulation harness."""

from repro.system.config import SystemConfig
from repro.system.builder import BuiltSystem, SystemBuilder
from repro.system.simulation import SimulationRunner
from repro.system.results import RunResult, ProtocolComparison

__all__ = [
    "SystemConfig",
    "SystemBuilder",
    "BuiltSystem",
    "SimulationRunner",
    "RunResult",
    "ProtocolComparison",
]
