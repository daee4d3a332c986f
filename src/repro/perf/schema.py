"""Schema of the ``BENCH_*.json`` performance artifacts.

A report is one JSON object::

    {
      "schema_version": 1,
      "suite": "smoke",
      "created_unix": 1753500000.0,
      "host": {"python": "3.11.7", "platform": "linux", "cpus": 4},
      "calibration_s": 0.0183,
      "scenarios": [
        {
          "name": "kernel_microbench",
          "runtime_s": 0.41,
          "events": 120197,
          "events_per_sec": 293163.4,
          "peak_rss_kb": 48000,
          "metrics": {"chains": 600}
        },
        ...
      ]
    }

``calibration_s`` is the wall time of a fixed pure-Python workload measured
once per harness run; :mod:`repro.perf.compare` uses the ratio of two
reports' calibrations to normalise runtimes across hosts of different
speeds.  ``peak_rss_kb`` is the process-wide peak resident set size after
the scenario ran (monotonic across scenarios within one report).
"""

from __future__ import annotations

import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional

SCHEMA_VERSION = 1

_REQUIRED_REPORT_FIELDS = ("schema_version", "suite", "scenarios")
_REQUIRED_SCENARIO_FIELDS = ("name", "runtime_s", "peak_rss_kb")


class SchemaError(ValueError):
    """Raised when a BENCH report does not match the schema."""


def host_fingerprint() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "platform": sys.platform,
        "cpus": os.cpu_count() or 1,
    }


def make_scenario(
    name: str,
    runtime_s: float,
    peak_rss_kb: int,
    events: Optional[int] = None,
    metrics: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build one schema-conformant scenario record."""
    events_per_sec: Optional[float] = None
    if events is not None and runtime_s > 0:
        events_per_sec = events / runtime_s
    return {
        "name": name,
        "runtime_s": runtime_s,
        "events": events,
        "events_per_sec": events_per_sec,
        "peak_rss_kb": peak_rss_kb,
        "metrics": metrics or {},
    }


def make_report(
    suite: str,
    scenarios: List[Dict[str, Any]],
    calibration_s: float,
) -> Dict[str, Any]:
    """Build one schema-conformant report."""
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "created_unix": time.time(),
        "host": host_fingerprint(),
        "calibration_s": calibration_s,
        "scenarios": scenarios,
    }


def validate_report(report: Any) -> None:
    """Raise :class:`SchemaError` unless ``report`` matches the schema."""
    if not isinstance(report, dict):
        kind = type(report).__name__
        raise SchemaError(f"report must be an object, got {kind}")
    for field in _REQUIRED_REPORT_FIELDS:
        if field not in report:
            raise SchemaError(f"report is missing required field {field!r}")
    if report["schema_version"] != SCHEMA_VERSION:
        version = report["schema_version"]
        raise SchemaError(f"unsupported schema_version {version!r}")
    scenarios = report["scenarios"]
    if not isinstance(scenarios, list) or not scenarios:
        raise SchemaError("report.scenarios must be a non-empty list")
    for scenario in scenarios:
        if not isinstance(scenario, dict):
            raise SchemaError("every scenario must be an object")
        for field in _REQUIRED_SCENARIO_FIELDS:
            if field not in scenario:
                raise SchemaError(f"scenario is missing required field {field!r}")
        runtime = scenario["runtime_s"]
        if not isinstance(runtime, (int, float)) or runtime < 0:
            name = scenario["name"]
            raise SchemaError(f"scenario {name!r} has invalid runtime_s {runtime!r}")
