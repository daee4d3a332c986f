"""The measured scenarios of the perf harness.

Each scenario function runs one workload shape and returns a
schema-conformant scenario record (see :mod:`repro.perf.schema`).  Scenario
wall time is measured with ``perf_counter``; ``peak_rss_kb`` is the
process-wide peak RSS after the scenario finished.
"""

from __future__ import annotations

import resource
import sys
import time
from typing import Any, Dict

from repro import api
from repro.perf.schema import make_scenario
from repro.sim.kernel import Simulator


def peak_rss_kb() -> int:
    """Process-wide peak resident set size in KiB (ru_maxrss is KiB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS
        rss //= 1024
    return int(rss)


def calibrate(iterations: int = 2_000_000, repeats: int = 3) -> float:
    """Wall time of a fixed pure-Python workload (best of ``repeats``).

    Reports embed this so :mod:`repro.perf.compare` can normalise runtimes
    measured on hosts of different speeds.  The best-of-N guards the
    normalisation itself against one-off host noise: a calibration taken
    during a throttle would make every runtime in the report look faster
    than it is.
    """
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc += i & 7
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _run_kernel_churn(chains: int, events: int) -> tuple:
    """Event churn shaped like the simulator's hot path.

    ``chains`` concurrent hop chains each fan eight same-tick priority-0
    deliveries plus one priority-1 event per wave -- the dense near-future
    distribution that link/switch hops produce -- scheduled with a bare
    callback plus payload, as the protocol producers do.
    """
    sim = Simulator()
    schedule = sim.schedule
    fanout = 8
    count = 0

    def wave() -> None:
        nonlocal count
        count += 1
        if count * (fanout + 1) >= events:
            return
        for _ in range(fanout):
            schedule(15, _noop_arg, 0)
        schedule(15, wave, None, 1)

    for chain in range(chains):
        schedule(chain % 7, wave)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_processed, elapsed


def _noop_arg(arg) -> None:
    return None


def kernel_microbench(scale: float = 1.0) -> Dict[str, Any]:
    """Kernel dispatch microbenchmark: schedule-and-dispatch throughput.

    A supporting number only: the kernel is a minority of a whole run's
    wall time, so the ``scale`` suite is the end-to-end measure.
    """
    chains = max(50, int(600 * scale))
    events = max(20_000, int(400_000 * scale))
    # Best-of-N absorbs one-off host noise (GC pause, container throttle).
    processed, elapsed = min(
        (_run_kernel_churn(chains, events) for _ in range(2)),
        key=lambda pair: pair[1],
    )
    return make_scenario(
        name="kernel_microbench",
        runtime_s=elapsed,
        peak_rss_kb=peak_rss_kb(),
        events=processed,
        metrics={"chains": chains},
    )


def figure3_runtime(scale: float = 0.3) -> Dict[str, Any]:
    """Figure 3: the three-protocol runtime comparison on one workload."""
    start = time.perf_counter()
    comparison = api.compare_protocols(workload="barnes", scale=scale)
    elapsed = time.perf_counter() - start
    events = sum(result.sim_events for result in comparison.results.values())
    metrics: Dict[str, Any] = {"scale": scale}
    for protocol, result in comparison.results.items():
        metrics[f"runtime_ns_{protocol}"] = result.runtime_ns
    return make_scenario(
        name="figure3_runtime",
        runtime_s=elapsed,
        peak_rss_kb=peak_rss_kb(),
        events=events,
        metrics=metrics,
    )


def figure4_traffic(scale: float = 0.3) -> Dict[str, Any]:
    """Figure 4: per-link traffic accounting on the torus network."""
    start = time.perf_counter()
    comparison = api.compare_protocols(workload="apache", network="torus", scale=scale)
    elapsed = time.perf_counter() - start
    events = sum(result.sim_events for result in comparison.results.values())
    metrics: Dict[str, Any] = {"scale": scale}
    for protocol, result in comparison.results.items():
        metrics[f"per_link_bytes_{protocol}"] = result.per_link_bytes
    return make_scenario(
        name="figure4_traffic",
        runtime_s=elapsed,
        peak_rss_kb=peak_rss_kb(),
        events=events,
        metrics=metrics,
    )


def _scale_run(
    name: str,
    protocol: str,
    network: str,
    num_nodes: int,
    scale: float,
    workload: str = "oltp",
) -> Dict[str, Any]:
    """One ``scale``-suite scenario: a large-node run, timed best-of-two.

    Single multi-second runs on a shared CI host see one-off noise (GC
    pause, container throttle) well above the effects being tracked.
    Bit-identity of whole runs is pinned by the golden ``RunResult``
    digests in the test suite, not re-checked here.
    """
    best = None
    result = None
    for _ in range(2):
        start = time.perf_counter()
        result = api.run_experiment(
            workload=workload,
            protocol=protocol,
            network=network,
            scale=scale,
            num_nodes=num_nodes,
        )
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    events = result.sim_events
    return make_scenario(
        name=name,
        runtime_s=best,
        peak_rss_kb=peak_rss_kb(),
        events=events,
        metrics={
            "scale": scale,
            "num_nodes": num_nodes,
            "protocol": protocol,
            "network": network,
            "workload": workload,
        },
    )


def scale_snooping(scale: float = 0.15) -> Dict[str, Any]:
    """64-node timestamp snooping on a radix-8 butterfly (broadcast fan-out
    is the dominant cost at this node count)."""
    return _scale_run("scale_snooping", "ts-snoop", "butterfly", 64, scale)


def scale_snooping_256(scale: float = 0.15) -> Dict[str, Any]:
    """256-node timestamp snooping on a 16x16 torus, tractable since the
    snoop filter cut the ordered fan-out to the interested nodes.  Runs at
    a tenth of the suite scale, about 2 s per run at the suite default."""
    return _scale_run("scale_snooping_256", "ts-snoop", "torus", 256, scale / 10)


def scale_directory(scale: float = 0.15) -> Dict[str, Any]:
    """256-node DirOpt on a 16x16 torus (deep event queues, wide directory
    state)."""
    return _scale_run("scale_directory", "diropt", "torus", 256, scale)


def scale_mesi_directory(scale: float = 0.15) -> Dict[str, Any]:
    """64-node MESI directory on an 8x8 torus (clean-exclusive grants trim
    upgrade misses, so the event mix differs from the MSI directories)."""
    return _scale_run("scale_mesi_directory", "mesi-dir", "torus", 64, scale)


def parallel_sweep(scale: float = 0.2, jobs: int = 2) -> Dict[str, Any]:
    """The (protocol x replica) grid on a small process pool."""
    start = time.perf_counter()
    comparison = api.compare_protocols(
        workload="oltp",
        scale=scale,
        perturbation_replicas=2,
        jobs=jobs,
    )
    elapsed = time.perf_counter() - start
    events = sum(result.sim_events for result in comparison.results.values())
    return make_scenario(
        name="parallel_sweep",
        runtime_s=elapsed,
        peak_rss_kb=peak_rss_kb(),
        events=events,
        metrics={"scale": scale, "jobs": jobs},
    )
