"""The repository benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload snoop64 --seed 42 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": 9, "failed": 0,
     "metrics": {"ops_per_s": {"value": 12345.6, "unit": "1/s"}, ...}}

The lines above it are a readable table of every end-to-end metric the
workload has, by name and with units (``refs_per_s``, ``req_per_s``,
``hit_p99_ms``, ``error_rate``, ...).  ``--out FILE`` also appends the whole
record as one JSON line, the input of ``perfbench/compare.py``.
``--record-goldens`` recomputes ``perfbench/goldens.json`` (only for a
change that is meant to alter simulated results).

The exit code is 0 when every output matched its recorded answer, 1 when
any did not (the JSON line is still printed), and non-zero without a
result when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import layers
from common import HERE, PACKAGE, ROOT, digest, load_json, median, peak_rss_mb
from common import use_source_tree
from specs import (
    DEFAULT_SEED,
    END_TO_END,
    GOLDEN_SEEDS,
    PER_LAYER,
    SERVICE_WORKLOAD,
    SETUP_SAMPLES,
    SIM_WORKLOADS,
    WORKLOADS,
)

GOLDENS = HERE / "goldens.json"
WORK_ROOT = ROOT / ".perfbench-work"
#: Per-probe time limit; a probe that takes longer is a failed set-up.
PROBE_TIMEOUT_S = 120


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_goldens and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def check_benchmark_file() -> None:
    """BENCHMARK.json (when present) must name exactly the metrics reported."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    document = load_json(path)
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in document["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in document["per_layer"]},
        "workloads": [w["name"] for w in document["workloads"]],
    }
    reported = {
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
        "workloads": list(WORKLOADS),
    }
    if declared != reported:
        raise SystemExit("perfbench: BENCHMARK.json and perfbench/specs.py disagree")


# ------------------------------------------------------------------ set-up
def setup_probes(argv: List[str]) -> Dict[str, float]:
    """Median of ``SETUP_SAMPLES`` fresh-process set-up measurements."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        completed = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), *argv],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {completed.stderr.strip()}")
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1]))
    return {key: median([s[key] for s in samples]) for key in samples[0]}


# --------------------------------------------------------------- workloads
def run_sim(args: argparse.Namespace, goldens: Dict[str, Any]) -> Dict[str, Any]:
    from simbench import SimRun

    setup = setup_probes(["sim", args.workload, str(args.seed)])
    golden = goldens["sim"][args.workload].get(str(args.seed))
    run = SimRun(args.workload, args.seed, golden)
    record: Dict[str, Any] = {"golden_checked": golden is not None}
    if args.trace:
        traced = run.traced()
        record["per_layer"] = dict(traced["per_layer"])
        record["per_layer"]["workloads.build_s"] = setup["workloads.build_s"]
        record["per_layer"]["system.build_s"] = setup["system.build_s"]
        record["self_time_s"] = traced["self_time_s"]
    else:
        timed = run.timed(args.seconds)
        rss = peak_rss_mb()
        record["end_to_end"] = {
            "refs_per_s": (timed["refs_per_s"], "refs/s"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (rss, "MiB"),
            "wall_refs_per_s": (timed["wall_refs_per_s"], "refs/s"),
            "wall_run_p50_ms": (timed["wall_run_p50_ms"], "ms"),
            "wall_setup_s": (setup["wall_setup_s"], "s"),
            "host_factor": (timed["host_factor"], "x"),
        }
        record["metrics"] = {
            "ops_per_s": timed["refs_per_s"],
            "p50_ms": timed["run_p50_ms"],
            "setup_s": setup["setup_s"],
            "peak_rss_mb": rss,
        }
        record["repetitions"] = timed["repetitions"]
        record["run_walls_s"] = timed["run_walls_s"]
        record["host_factors"] = timed["host_factors"]
        record["warmup_s"] = run.warmup_s
    record["attempted"] = run.attempted
    record["failures"] = run.failures
    return record


def run_service(args: argparse.Namespace, goldens: Dict[str, Any], work: Path):
    from servicebench import ServiceMix

    setup = setup_probes(["service", str(work / "probe-cache")])
    mix = ServiceMix(args.seed, work, goldens["catalogue"])
    try:
        if args.trace:
            traced = mix.traced(args.seconds)
            record: Dict[str, Any] = {"per_layer": traced["per_layer"]}
            record["span_self_time_s"] = traced["span_self_time_s"]
        else:
            loop = mix.end_to_end(args.seconds)
            rss = peak_rss_mb()
            record = {
                "end_to_end": {
                    "req_per_s": (loop["req_per_s"], "1/s"),
                    "hit_p50_ms": (loop["hit_p50_ms"], "ms"),
                    "hit_p99_ms": (loop["hit_p99_ms"], "ms"),
                    "miss_p50_ms": (loop["miss_p50_ms"], "ms"),
                    "setup_s": (setup["setup_s"], "s"),
                    "peak_rss_mb": (rss, "MiB"),
                    "wall_req_per_s": (loop["wall_req_per_s"], "1/s"),
                    "wall_hit_p50_ms": (loop["wall_hit_p50_ms"], "ms"),
                    "wall_setup_s": (setup["wall_setup_s"], "s"),
                    "host_factor": (loop["host_factor"], "x"),
                },
                "metrics": {
                    "ops_per_s": loop["req_per_s"],
                    "p50_ms": loop["hit_p50_ms"],
                    "setup_s": setup["setup_s"],
                    "peak_rss_mb": rss,
                },
                "hits": loop["hits"],
                "misses": loop["misses"],
                "loop_s": loop["loop_s"],
            }
    finally:
        mix.close()
    record["attempted"] = mix.attempted
    record["failures"] = mix.failures
    return record


# ------------------------------------------------------------------ output
def finish(args: argparse.Namespace, record: Dict[str, Any]) -> int:
    failed = len(record["failures"])
    attempted = max(1, record["attempted"])
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        correct=failed == 0,
        failed=failed,
        error_rate=failed / attempted,
    )
    names = PER_LAYER if args.trace else END_TO_END
    values = record["per_layer"] if args.trace else record["metrics"]
    metrics = {
        name: {"value": values.get(name, 0), "unit": unit}
        for name, unit in names.items()
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if not args.trace:
        for name, (value, unit) in record["end_to_end"].items():
            print(f"  {name:<18} {value:>14.4f} {unit}")
    else:
        for name, body in metrics.items():
            print(f"  {name:<24} {body['value']:>14.6g} {body['unit']}")
    print(f"  {'error_rate':<18} {record['error_rate']:>14.4f} ({failed}/{attempted})")
    for failure in record["failures"][:10]:
        print(f"  FAILED: {failure}")
    if args.out is not None:
        with args.out.open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


def record_goldens() -> int:
    """Recompute every golden digest and rewrite ``goldens.json``."""
    from servicebench import catalogue
    from simbench import SimRun

    from repro import api

    document: Dict[str, Any] = {"sim": {}, "catalogue": {}}
    for name in SIM_WORKLOADS:
        document["sim"][name] = {
            str(seed): digest(SimRun(name, seed, None).reference)
            for seed in GOLDEN_SEEDS
        }
        print(f"recorded {name}", file=sys.stderr)
    for spec in catalogue():
        document["catalogue"][spec.label] = digest(api.run_experiment(spec=spec))
    GOLDENS.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    use_source_tree()
    layers.check_layer_map(PACKAGE)
    check_benchmark_file()
    if args.record_goldens:
        return record_goldens()
    goldens = load_json(GOLDENS)
    work = WORK_ROOT / f"run-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        if args.workload == SERVICE_WORKLOAD:
            record = run_service(args, goldens, work)
        else:
            record = run_sim(args, goldens)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return finish(args, record)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
