"""The layer map: every module under ``src/repro/`` belongs to one layer.

A traced simulator run aggregates cProfile self time by these layers.
Anything outside ``src/repro/`` (the interpreter's builtins, the standard
library, this benchmark) is ``interp``.  :func:`check_layer_map` fails
loudly when a module appears that no rule names, so repository code never
falls silently into ``interp``.
"""

from __future__ import annotations

import pstats
from pathlib import Path
from typing import Dict, Tuple

#: Simulator layers, in report order.
SIM_LAYERS = (
    "workloads",
    "system",
    "sim",
    "protocols",
    "core",
    "network",
    "memory",
    "processor",
    "interp",
)

#: Service layers (measured by spans, not by cProfile).
SERVICE_LAYERS = ("server", "manager", "cache")

#: Code no benchmark workload executes: the static analyser, the perf
#: harness and the analytical models.  Mapped so the self-check stays exact.
TOOLS_LAYER = "tools"

LAYERS = SIM_LAYERS + SERVICE_LAYERS + (TOOLS_LAYER,)

#: Whole packages under ``src/repro/``: every module inside belongs to the layer.
PACKAGE_LAYERS: Dict[str, str] = {
    "workloads": "workloads",
    "system": "system",
    # Spec resolution and replica scheduling sit on the run path between
    # the public API and the runner.
    "api": "system",
    "parallel": "system",
    "sim": "sim",
    "protocols": "protocols",
    "core": "core",
    "network": "network",
    "memory": "memory",
    "processor": "processor",
    "analysis": TOOLS_LAYER,
    "lint": TOOLS_LAYER,
    "perf": TOOLS_LAYER,
}

#: Single modules, by path relative to ``src/repro/``.  The service package
#: is split module by module: a new service module must be placed by hand.
MODULE_LAYERS: Dict[str, str] = {
    "__init__.py": "system",
    "_version.py": "system",
    "client.py": "server",
    "service/server.py": "server",
    "service/wire.py": "server",
    "service/cli.py": "server",
    "service/__main__.py": "server",
    "service/__init__.py": "manager",
    "service/manager.py": "manager",
    "service/fairness.py": "manager",
    "service/faults.py": "manager",
    "service/journal.py": "manager",
    "service/metrics.py": "manager",
    "service/events.py": "manager",
    "service/cache.py": "cache",
}


class LayerMapError(RuntimeError):
    """A module under ``src/repro/`` maps to no layer, or to more than one."""


def layer_of_module(relative: str) -> str:
    """The layer of one module, given its path relative to ``src/repro/``."""
    matches = []
    if relative in MODULE_LAYERS:
        matches.append(MODULE_LAYERS[relative])
    package = relative.split("/", 1)[0] if "/" in relative else None
    if package in PACKAGE_LAYERS:
        matches.append(PACKAGE_LAYERS[package])
    if len(matches) != 1:
        raise LayerMapError(
            f"src/repro/{relative} maps to {len(matches)} layers {matches}; "
            "add it to exactly one of PACKAGE_LAYERS or MODULE_LAYERS in "
            "perfbench/layers.py"
        )
    return matches[0]


def check_layer_map(package_root: Path) -> Dict[str, str]:
    """Map every ``.py`` file under ``package_root``; raise on any gap."""
    modules = sorted(
        path.relative_to(package_root).as_posix()
        for path in package_root.rglob("*.py")
    )
    if not modules:
        raise LayerMapError(f"no modules found under {package_root}")
    mapping = {module: layer_of_module(module) for module in modules}
    stale = [name for name in MODULE_LAYERS if name not in mapping]
    stale += [name for name in PACKAGE_LAYERS if not (package_root / name).is_dir()]
    if stale:
        raise LayerMapError(f"layer map names modules that do not exist: {stale}")
    return mapping


def _repo_relative(filename: str) -> str:
    """``filename``'s path below ``src/repro/``, or "" if it is not repo code."""
    marker = "/src/repro/"
    normalised = filename.replace("\\", "/")
    index = normalised.rfind(marker)
    return normalised[index + len(marker) :] if index >= 0 else ""


def aggregate_profile(
    stats: pstats.Stats, mapping: Dict[str, str]
) -> Tuple[Dict[str, float], Dict[Tuple[str, str], int]]:
    """Self time per layer (seconds) and call counts per (module, function).

    Raises :class:`LayerMapError` when a profiled repo file is not in
    ``mapping`` -- the profile and the tree must agree.
    """
    self_time = {layer: 0.0 for layer in LAYERS}
    calls: Dict[Tuple[str, str], int] = {}
    total = 0.0
    for (filename, _line, function), row in stats.stats.items():
        _primitive, ncalls, tottime, _cumtime, _callers = row
        total += tottime
        relative = _repo_relative(filename)
        if relative:
            if relative not in mapping:
                raise LayerMapError(f"profiled module src/repro/{relative} is unmapped")
            layer = mapping[relative]
            key = (relative, function)
            calls[key] = calls.get(key, 0) + ncalls
        else:
            layer = "interp"
        self_time[layer] += tottime
    accounted = sum(self_time.values())
    if abs(accounted - total) > 1e-9 * max(1.0, total):
        raise LayerMapError(
            f"layer self times sum to {accounted} s, profile holds {total} s"
        )
    return self_time, calls


def shares(self_time: Dict[str, float]) -> Dict[str, float]:
    """Self time as a share of the total; the shares sum to 1."""
    total = sum(self_time.values())
    if total <= 0:
        raise LayerMapError("the traced run recorded no self time")
    result = {layer: seconds / total for layer, seconds in self_time.items()}
    if abs(sum(result.values()) - 1.0) > 1e-9:
        raise LayerMapError(f"layer shares sum to {sum(result.values())}, not 1")
    return result
