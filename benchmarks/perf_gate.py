"""The CI perf gate: time each scenario beside a pinned reference commit.

Committed baseline numbers age with the host they were recorded on, so
this gate records none.  It checks out the commit named in
``benchmarks/perf_reference`` into a temporary git worktree and runs every
scenario of a suite in a fresh subprocess, alternately against that tree's
``src/`` and this checkout's, for ``PAIRS`` pairs on the same runner.  A
scenario fails when its median wall time exceeds ``BOUND`` times the
reference median, or when it raised or left no measurement on either side.
Reference medians under ``FLOOR_S`` never fail: timer noise dominates them.

Usage::

    python benchmarks/perf_gate.py --suite pr       # per-PR gate
    python benchmarks/perf_gate.py --suite nightly  # full-scale gate

Prints a markdown table on stdout (progress goes to stderr), writes every
raw wall time to ``perf-gate-<suite>.jsonl`` and exits 1 on a failure.
``--run SCENARIO`` is the subprocess entry: it runs one scenario at its
``--suite`` scale against the ``repro`` on ``PYTHONPATH`` and prints its
wall time as JSON, so a scenario can be profiled on its own::

    PYTHONPATH=src python -m cProfile -s tottime \\
        benchmarks/perf_gate.py --run scale_directory

After an intentional slowdown, write the new commit's sha into
``benchmarks/perf_reference`` and say why in the pull request.

The scenarios call only public ``repro.api`` functions, the
``repro.sim.kernel.Simulator`` scheduling calls and the gateway's
``ServerThread``/``ServiceClient``, so the reference tree runs them too.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

GATE = Path(__file__).resolve()
ROOT = GATE.parents[1]
REFERENCE_FILE = GATE.with_name("perf_reference")

#: Alternating (reference, change) runs per scenario.
PAIRS = 5
#: A change median above this multiple of the reference median fails.
BOUND = 1.25
#: Reference medians below this many seconds never fail.
FLOOR_S = 0.05
#: Seconds before one scenario subprocess counts as failed.
RUN_TIMEOUT_S = 1800

SIDES = ("reference", "change")


# ------------------------------------------------------------------ scenarios
def kernel_microbench(scale: float) -> float:
    """Kernel dispatch: ``chains`` hop chains, each fanning eight same-tick
    priority-0 deliveries plus one priority-1 event per wave.  Times only
    ``Simulator.run``; a supporting number beside the end-to-end scenarios."""
    from repro.sim.kernel import Simulator

    chains = max(50, int(600 * scale))
    events = max(20_000, int(400_000 * scale))
    sim = Simulator()
    schedule = sim.schedule
    fanout = 8
    waves = 0

    def noop(arg: object) -> None:
        return None

    def wave() -> None:
        nonlocal waves
        waves += 1
        if waves * (fanout + 1) >= events:
            return
        for _ in range(fanout):
            schedule(15, noop, 0)
        schedule(15, wave, None, 1)

    for chain in range(chains):
        schedule(chain % 7, wave)
    start = time.perf_counter()
    sim.run()
    return time.perf_counter() - start


def _timed(call: Callable[[], object]) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def figure3_runtime(scale: float) -> float:
    """Figure 3: the three-protocol runtime comparison on barnes."""
    from repro import api

    return _timed(lambda: api.compare_protocols(workload="barnes", scale=scale))


def figure4_traffic(scale: float) -> float:
    """Figure 4: the three-protocol traffic comparison on the torus."""
    from repro import api

    return _timed(
        lambda: api.compare_protocols(workload="apache", network="torus", scale=scale)
    )


def parallel_sweep(scale: float) -> float:
    """The (protocol x replica) grid, two replicas on a two-process pool."""
    from repro import api

    return _timed(
        lambda: api.compare_protocols(
            workload="oltp", scale=scale, perturbation_replicas=2, jobs=2
        )
    )


def _scale_run(protocol: str, network: str, num_nodes: int, scale: float) -> float:
    from repro import api

    return _timed(
        lambda: api.run_experiment(
            workload="oltp",
            protocol=protocol,
            network=network,
            scale=scale,
            num_nodes=num_nodes,
        )
    )


def scale_snooping(scale: float) -> float:
    """64-node TS-Snoop on a radix-8 butterfly (ordered fan-out dominates)."""
    return _scale_run("ts-snoop", "butterfly", 64, scale)


def scale_snooping_256(scale: float) -> float:
    """256-node TS-Snoop on a 16x16 torus, at a tenth of the suite scale."""
    return _scale_run("ts-snoop", "torus", 256, scale / 10)


def scale_directory(scale: float) -> float:
    """256-node DirOpt on a 16x16 torus (deep queues, wide directories)."""
    return _scale_run("diropt", "torus", 256, scale)


def scale_mesi_directory(scale: float) -> float:
    """64-node MESI directory on an 8x8 torus (clean-exclusive grants)."""
    return _scale_run("mesi-dir", "torus", 64, scale)


def gateway_cold_start(scale: float) -> float:
    """A service gateway's cold start: import the server and the client,
    start a ``ServerThread`` on an empty disk result cache, answer one
    health check, stop.  ``scale`` is unused: a process starts only once."""
    with tempfile.TemporaryDirectory(prefix="perf-gate-cache-") as cache_dir:
        start = time.perf_counter()
        from repro.client import ServiceClient
        from repro.service.cache import ResultCache
        from repro.service.server import ServerThread

        with ServerThread(jobs=1, cache=ResultCache(cache_dir)) as server:
            with ServiceClient(server.base_url) as client:
                client.health()
        return time.perf_counter() - start


SCENARIOS: Dict[str, Callable[[float], float]] = {
    scenario.__name__: scenario
    for scenario in (
        kernel_microbench,
        figure3_runtime,
        figure4_traffic,
        parallel_sweep,
        scale_snooping,
        scale_snooping_256,
        scale_directory,
        scale_mesi_directory,
        gateway_cold_start,
    )
}

_SCALE_SUITE = (
    "scale_snooping",
    "scale_snooping_256",
    "scale_directory",
    "scale_mesi_directory",
)

#: suite -> {scenario: scale}.
SUITES: Dict[str, Dict[str, float]] = {
    "pr": {
        "kernel_microbench": 0.4,
        "figure3_runtime": 0.4,
        "figure4_traffic": 0.4,
        "parallel_sweep": 0.4,
        **dict.fromkeys(_SCALE_SUITE, 0.15),
        "gateway_cold_start": 1.0,
    },
    "nightly": {
        "figure3_runtime": 1.0,
        "figure4_traffic": 1.0,
        "parallel_sweep": 1.0,
        **dict.fromkeys(_SCALE_SUITE, 0.5),
    },
}


# ---------------------------------------------------------------- measuring
def run_in_subprocess(src: Path, suite: str, scenario: str) -> Dict[str, object]:
    """One scenario in a fresh interpreter importing ``repro`` from ``src``.

    Returns ``{"wall_s": seconds}``, or ``{"error": reason}`` when the
    subprocess raised, timed out or printed no measurement.
    """
    command = [sys.executable, str(GATE), "--suite", suite, "--run", scenario]
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        proc = subprocess.run(
            command,
            cwd=src.parent,
            env=env,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S} s"}
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
        return {"error": lines[-1]}
    try:
        return {"wall_s": float(json.loads(proc.stdout.splitlines()[-1])["wall_s"])}
    except (IndexError, KeyError, TypeError, ValueError):
        return {"error": f"no measurement in output {proc.stdout[-200:]!r}"}


def measure(
    suite: str,
    names: Sequence[str],
    trees: Dict[str, Path],
    log_path: Path,
    pairs: int = PAIRS,
) -> List[Dict[str, object]]:
    """Run ``names`` alternately on each side of ``trees`` for ``pairs``.

    Even pairs run the reference first, odd pairs the change, so drift on
    the host weighs on both sides alike.  Every record is appended to
    ``log_path`` as one JSON line as soon as it exists.
    """
    records: List[Dict[str, object]] = []
    with log_path.open("w") as log:
        for pair in range(pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for name in names:
                for side in order:
                    record = {"pair": pair, "side": side, "scenario": name}
                    record.update(run_in_subprocess(trees[side], suite, name))
                    records.append(record)
                    log.write(json.dumps(record, sort_keys=True) + "\n")
                    log.flush()
                    outcome = record.get("error") or f"{record['wall_s']:.3f} s"
                    progress = f"pair {pair + 1}/{pairs} {name} {side}: {outcome}"
                    print(f"[perf-gate] {progress}", file=sys.stderr, flush=True)
    return records


# ------------------------------------------------------------------ judging
def _spread(walls: List[float]) -> Tuple[float, float, float]:
    """(median, first quartile, third quartile) of ``walls``."""
    if len(walls) < 2:
        return walls[0], walls[0], walls[0]
    q1, median, q3 = statistics.quantiles(walls, n=4, method="inclusive")
    return median, q1, q3


def judge(
    records: List[Dict[str, object]], names: Sequence[str]
) -> Tuple[List[Dict[str, object]], bool]:
    """One row per scenario of ``names``, and whether the gate fails."""
    rows: List[Dict[str, object]] = []
    for name in names:
        mine = [record for record in records if record["scenario"] == name]
        errors = [f"{r['side']}: {r['error']}" for r in mine if "error" in r]
        measured = [r for r in mine if "wall_s" in r]
        # side -> {pair: wall}
        walls = {
            side: {r["pair"]: r["wall_s"] for r in measured if r["side"] == side}
            for side in SIDES
        }
        row: Dict[str, object] = {"scenario": name, "failed": True}
        if errors:
            row["verdict"] = "raised (" + "; ".join(errors) + ")"
        elif not all(walls.values()):
            missing = [side for side in SIDES if not walls[side]]
            row["verdict"] = f"missing on {' and '.join(missing)}"
        else:
            reference = _spread(list(walls["reference"].values()))
            change = _spread(list(walls["change"].values()))
            ratio = change[0] / reference[0]
            won = sum(
                walls["change"][pair] < wall
                for pair, wall in walls["reference"].items()
                if pair in walls["change"]
            )
            row.update(
                reference=reference,
                change=change,
                ratio=ratio,
                won=f"{won}/{len(walls['reference'])}",
            )
            row["failed"] = reference[0] >= FLOOR_S and ratio > BOUND
            if reference[0] < FLOOR_S:
                row["verdict"] = f"ok (reference under {FLOOR_S} s, not gated)"
            elif row["failed"]:
                row["verdict"] = f"REGRESSED (> {BOUND:.2f}x)"
            else:
                row["verdict"] = "ok"
        rows.append(row)
    return rows, any(row["failed"] for row in rows)


def render(rows: List[Dict[str, object]], title: str) -> str:
    """The rows as one GitHub-flavoured markdown table."""

    def cell(spread: object) -> str:
        if not spread:
            return "-"
        median, q1, q3 = spread
        return f"{median:.3f} ({q1:.3f}-{q3:.3f})"

    lines = [
        f"### {title}",
        "",
        f"Wall seconds, median (q1-q3) of {PAIRS} alternating pairs.",
        "",
        "| scenario | reference | change | ratio | change faster | verdict |",
        "|---|---:|---:|---:|---:|---|",
    ]
    for row in rows:
        cells = (
            row["scenario"],
            cell(row.get("reference")),
            cell(row.get("change")),
            f"{row['ratio']:.2f}x" if "ratio" in row else "-",
            row.get("won", "-"),
            row["verdict"],
        )
        lines.append("| " + " | ".join(map(str, cells)) + " |")
    failed = [str(row["scenario"]) for row in rows if row["failed"]]
    lines.append("")
    if failed:
        lines.append(f"**FAIL**: {', '.join(failed)}")
    else:
        lines.append(f"**PASS**: every scenario within {BOUND:.2f}x of the reference")
    return "\n".join(lines)


# -------------------------------------------------------------------- trees
def reference_sha() -> str:
    return REFERENCE_FILE.read_text().split()[0]


@contextmanager
def reference_tree(sha: str) -> Iterator[Path]:
    """A detached git worktree of ``sha``, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as scratch:
        tree = Path(scratch) / "reference"
        add = subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", str(tree), sha],
            capture_output=True,
            text=True,
        )
        if add.returncode != 0:
            raise SystemExit(
                f"perf_gate: cannot check out reference {sha}: {add.stderr.strip()}"
            )
        try:
            yield tree
        finally:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                capture_output=True,
            )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perf_gate.py",
        description="Time a perf suite beside the pinned reference commit.",
    )
    parser.add_argument("--suite", choices=sorted(SUITES), default="pr")
    parser.add_argument(
        "--run",
        metavar="SCENARIO",
        choices=sorted(SCENARIOS),
        help="run one scenario in this process and print its wall time",
    )
    args = parser.parse_args(argv)
    suite = SUITES[args.suite]
    if args.run:
        if args.run not in suite:
            parser.error(f"{args.run} is not in the {args.suite} suite")
        scale = suite[args.run]
        print(json.dumps({"scenario": args.run, "wall_s": SCENARIOS[args.run](scale)}))
        return 0

    sha = reference_sha()
    log_path = Path(f"perf-gate-{args.suite}.jsonl")
    with reference_tree(sha) as tree:
        trees = {"reference": tree / "src", "change": ROOT / "src"}
        records = measure(args.suite, list(suite), trees, log_path)
    rows, failed = judge(records, list(suite))
    title = f"Perf gate, {args.suite} suite: change vs reference {sha[:12]}"
    print(render(rows, title))
    print(f"[perf-gate] raw walls in {log_path}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
