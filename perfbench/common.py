"""Helpers shared by the benchmark's modules (no repo imports at load time)."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` (fail if it is absent)."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no repro package under {SRC}; run from a checkout "
            "of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def sim_spec(name: str, seed: int):
    """The ``ExperimentSpec`` of simulator workload ``name`` under ``seed``."""
    from repro.api import ExperimentSpec
    from specs import SIM_WORKLOADS

    return ExperimentSpec.make(**SIM_WORKLOADS[name], seed=seed)


def digest(result: Any) -> str:
    """SHA-256 of a ``RunResult``'s fields as canonical JSON."""
    document = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux ``ru_maxrss``),
    less the host sampler's chase table, resident since before the work."""
    from hostspeed import CHASE_TABLE_MIB

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - CHASE_TABLE_MIB


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method); needs two values or more."""
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


def load_json(path: Path) -> Dict[str, Any]:
    return json.loads(path.read_text())
