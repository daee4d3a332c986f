"""Profile one perf scenario and report its top-N hotspots.

Future perf PRs should be measured, not guessed::

    PYTHONPATH=src python -m repro.perf.profile --scenario figure3_runtime
    PYTHONPATH=src python -m repro.perf.profile --scenario scale_directory \
        --scale 0.05 --top 15 --sort tottime --json hotspots.json

The scenario runs once under :mod:`cProfile`; the report lists the top-N
functions by cumulative (default) or internal time, and ``--json`` writes the
same rows machine-readably so regressions in individual hot functions can be
tracked across commits.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.perf import scenarios as sc

#: Scenario registry shared with the harness suites.
SCENARIOS: Dict[str, Callable[[float], Dict[str, Any]]] = {
    "kernel_microbench": sc.kernel_microbench,
    "figure3_runtime": sc.figure3_runtime,
    "figure4_traffic": sc.figure4_traffic,
    "parallel_sweep": sc.parallel_sweep,
    "scale_snooping": sc.scale_snooping,
    "scale_snooping_256": sc.scale_snooping_256,
    "scale_directory": sc.scale_directory,
    "scale_mesi_directory": sc.scale_mesi_directory,
}

_SORT_KEYS = {"cumulative": "cumtime", "tottime": "tottime"}


def profile_scenario(
    scenario: str,
    scale: Optional[float] = None,
    top: int = 25,
    sort: str = "cumulative",
) -> List[Dict[str, Any]]:
    """Run ``scenario`` under cProfile; return the top-N hotspot rows."""
    if scenario not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose one of {sorted(SCENARIOS)}"
        )
    if sort not in _SORT_KEYS:
        raise ValueError(f"unknown sort {sort!r}; choose one of {sorted(_SORT_KEYS)}")
    thunk = SCENARIOS[scenario]
    profiler = cProfile.Profile()
    profiler.enable()
    if scale is None:
        thunk()
    else:
        thunk(scale)
    profiler.disable()

    stats = pstats.Stats(profiler)
    value_key = _SORT_KEYS[sort]
    rows: List[Dict[str, Any]] = []
    for location, measurements in stats.stats.items():
        filename, line, function = location
        cc, ncalls, tottime, cumtime, _callers = measurements
        rows.append(
            {
                "function": function,
                "file": filename,
                "line": line,
                "ncalls": ncalls,
                "primitive_calls": cc,
                "tottime": tottime,
                "cumtime": cumtime,
            }
        )
    rows.sort(key=lambda row: row[value_key], reverse=True)
    return rows[:top]


def format_rows(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'ncalls':>10} {'tottime':>9} {'cumtime':>9}  function"]
    for row in rows:
        where = f"{row['file']}:{row['line']}({row['function']})"
        cells = f"{row['ncalls']:>10} {row['tottime']:>9.3f} {row['cumtime']:>9.3f}"
        lines.append(f"{cells}  {where}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.perf.profile",
        description="Profile a perf scenario and print its top-N hotspots.",
    )
    parser.add_argument(
        "--scenario", default="figure3_runtime", choices=sorted(SCENARIOS)
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale override (scenario default when omitted)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=25,
        help="number of hotspot rows to report (default 25)",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=sorted(_SORT_KEYS),
        help="rank by cumulative or internal time",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        help="also write the rows to this JSON file",
    )
    args = parser.parse_args(argv)

    rows = profile_scenario(
        args.scenario, scale=args.scale, top=args.top, sort=args.sort
    )
    print(f"[profile] {args.scenario}: top {len(rows)} by {args.sort}")
    print(format_rows(rows))
    if args.json is not None:
        payload = {"scenario": args.scenario, "sort": args.sort, "rows": rows}
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"[profile] wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
