"""Run a named perf suite and emit ``BENCH_*.json`` artifacts.

Usage::

    PYTHONPATH=src python -m repro.perf.harness --suite smoke --output-dir .

Suites:

* ``kernel``  -- kernel dispatch microbenchmark only (writes ``BENCH_kernel.json``)
* ``figures`` -- Figure 3 / Figure 4 / parallel sweep scenarios (writes
  ``BENCH_figures.json``)
* ``scale``   -- 64- and 256-node timestamp-snooping and 256-node directory runs
  (writes ``BENCH_scale.json``)
* ``smoke``   -- kernel+figures files at reduced scale; the CI gate
* ``full``    -- every file at full scale

The emitted JSON is schema-versioned (see :mod:`repro.perf.schema`); diff
two runs with ``python -m repro.perf.compare``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.perf import scenarios as sc
from repro.perf.schema import make_report, validate_report

KERNEL_FILE = "BENCH_kernel.json"
FIGURES_FILE = "BENCH_figures.json"
SCALE_FILE = "BENCH_scale.json"

# suite -> list of (output file, scenario thunk) pairs.  Thunks take the
# suite's scale multiplier.
_SUITES: Dict[str, List[Tuple[str, Callable[[float], Dict[str, Any]]]]] = {
    "kernel": [
        (KERNEL_FILE, sc.kernel_microbench),
    ],
    "figures": [
        (FIGURES_FILE, sc.figure3_runtime),
        (FIGURES_FILE, sc.figure4_traffic),
        (FIGURES_FILE, sc.parallel_sweep),
    ],
    "scale": [
        (SCALE_FILE, sc.scale_snooping),
        (SCALE_FILE, sc.scale_snooping_256),
        (SCALE_FILE, sc.scale_directory),
        (SCALE_FILE, sc.scale_mesi_directory),
    ],
    "smoke": [
        (KERNEL_FILE, sc.kernel_microbench),
        (FIGURES_FILE, sc.figure3_runtime),
        (FIGURES_FILE, sc.figure4_traffic),
        (FIGURES_FILE, sc.parallel_sweep),
    ],
    "full": [
        (KERNEL_FILE, sc.kernel_microbench),
        (FIGURES_FILE, sc.figure3_runtime),
        (FIGURES_FILE, sc.figure4_traffic),
        (FIGURES_FILE, sc.parallel_sweep),
        (SCALE_FILE, sc.scale_snooping),
        (SCALE_FILE, sc.scale_snooping_256),
        (SCALE_FILE, sc.scale_directory),
        (SCALE_FILE, sc.scale_mesi_directory),
    ],
}

#: Default scale multiplier per suite (scenario functions each define what
#: 1.0 means for them; smoke and scale keep CI wall-clock short -- the
#: committed ``benchmarks/baselines/`` files are generated at these same
#: defaults so the CI gate compares like with like).
_SUITE_SCALE = {
    "kernel": 1.0,
    "figures": 1.0,
    "scale": 0.15,
    "smoke": 0.4,
    "full": 1.0,
}


def run_suite(
    suite: str,
    output_dir: Path,
    scale: float | None = None,
) -> Dict[str, Path]:
    """Run every scenario of ``suite``; return the files written."""
    if suite not in _SUITES:
        raise SystemExit(f"unknown suite {suite!r}; choose one of {sorted(_SUITES)}")
    effective_scale = _SUITE_SCALE[suite] if scale is None else scale
    calibration = sc.calibrate()
    by_file: Dict[str, List[Dict[str, Any]]] = {}
    for filename, scenario in _SUITES[suite]:
        print(f"[perf] running {scenario.__name__} (scale {effective_scale}) ...")
        record = scenario(effective_scale)
        eps = record["events_per_sec"]
        line = f"[perf]   {record['name']}: {record['runtime_s']:.3f} s"
        if eps:
            line += f", {eps:,.0f} events/s"
        line += f", peak RSS {record['peak_rss_kb']} KiB"
        print(line)
        by_file.setdefault(filename, []).append(record)

    output_dir.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}
    for filename, records in by_file.items():
        report = make_report(suite, records, calibration)
        validate_report(report)
        path = output_dir / filename
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"[perf] wrote {path}")
        written[filename] = path
    return written


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.perf.harness",
        description="Run a perf suite and emit BENCH_*.json artifacts.",
    )
    parser.add_argument("--suite", default="smoke", choices=sorted(_SUITES))
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=Path("."),
        help="directory receiving the BENCH_*.json files (default: cwd)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="override the suite's workload scale multiplier",
    )
    args = parser.parse_args(argv)
    run_suite(args.suite, args.output_dir, scale=args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
