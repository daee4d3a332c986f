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
from repro.system.config import SystemConfig


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


def _run_scheduler_churn(
    scheduler: str,
    chains: int,
    events: int,
    event_pool: bool = True,
    batched: bool = False,
) -> tuple:
    """Event churn shaped like the simulator's hot path.

    ``chains`` concurrent hop chains each fan eight same-tick deliveries
    plus one token-priority event per wave -- the dense near-future
    distribution that link/switch hops produce and the calendar queue is
    tuned for.  ``batched=True`` schedules the fan-out through the
    fire-and-forget tick-batch path (bare pairs in the tick lane) the
    protocol producers use.
    """
    sim = Simulator(
        scheduler=scheduler, event_pool=event_pool, batched_dispatch=batched
    )
    fanout = 8
    count = 0

    if batched:
        schedule_batched = sim.schedule_batched

        def wave() -> None:
            nonlocal count
            count += 1
            if count * (fanout + 1) >= events:
                return
            for _ in range(fanout):
                schedule_batched(15, _noop_arg, 0)
            sim.schedule(15, wave, priority=1)

    else:

        def wave() -> None:
            nonlocal count
            count += 1
            if count * (fanout + 1) >= events:
                return
            for _ in range(fanout):
                sim.schedule(15, _noop, priority=0)
            sim.schedule(15, wave, priority=1)

    for chain in range(chains):
        sim.schedule(chain % 7, wave)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_processed, elapsed


def _noop() -> None:
    return None


def _noop_arg(arg) -> None:
    return None


def kernel_microbench(scale: float = 1.0) -> Dict[str, Any]:
    """Scheduler/pool/batching microbenchmark (the kernel tentpole metric).

    The headline ``runtime_s`` / ``events_per_sec`` are the default
    configuration's (calendar queue + event pool + batched dispatch, the
    path the protocol producers use); the reference heapq numbers, the
    timing-wheel, no-pool and unbatched variants and the speedups ride
    along in ``metrics``.
    """
    chains = max(50, int(600 * scale))
    events = max(20_000, int(400_000 * scale))

    # Best-of-N absorbs one-off host noise (GC pause, container throttle).
    def best(
        scheduler: str,
        event_pool: bool = True,
        batched: bool = False,
        repeats: int = 2,
    ) -> tuple:
        return min(
            (
                _run_scheduler_churn(scheduler, chains, events, event_pool, batched)
                for _ in range(repeats)
            ),
            key=lambda pair: pair[1],
        )

    heapq_events, heapq_s = best("heapq", event_pool=False)
    calendar_events, calendar_s = best("calendar")
    nopool_events, nopool_s = best("calendar", event_pool=False)
    wheel_events, wheel_s = best("wheel")
    batched_events, batched_s = best("calendar", batched=True)
    event_counts = {
        heapq_events,
        calendar_events,
        nopool_events,
        wheel_events,
        batched_events,
    }
    assert len(event_counts) == 1, "schedulers processed different work"
    heapq_eps = heapq_events / heapq_s if heapq_s else 0.0
    calendar_eps = calendar_events / calendar_s if calendar_s else 0.0
    nopool_eps = nopool_events / nopool_s if nopool_s else 0.0
    wheel_eps = wheel_events / wheel_s if wheel_s else 0.0
    batched_eps = batched_events / batched_s if batched_s else 0.0
    return make_scenario(
        name="kernel_microbench",
        runtime_s=batched_s,
        peak_rss_kb=peak_rss_kb(),
        events=batched_events,
        metrics={
            "chains": chains,
            "heapq_runtime_s": heapq_s,
            "heapq_events_per_sec": heapq_eps,
            "calendar_events_per_sec": calendar_eps,
            "calendar_nopool_events_per_sec": nopool_eps,
            "wheel_events_per_sec": wheel_eps,
            "batched_events_per_sec": batched_eps,
            "speedup": batched_eps / heapq_eps if heapq_eps else 0.0,
            "pool_speedup": calendar_eps / nopool_eps if nopool_eps else 0.0,
            "wheel_vs_calendar": wheel_eps / calendar_eps if calendar_eps else 0.0,
            "batch_speedup": batched_eps / calendar_eps if calendar_eps else 0.0,
        },
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


def _scale_comparison(
    name: str,
    protocol: str,
    network: str,
    num_nodes: int,
    scale: float,
    workload: str = "oltp",
) -> Dict[str, Any]:
    """One ``scale``-suite scenario: a large-node run on the packed data
    path with batched dispatch, timed against the dict/object reference
    data path and against unbatched dispatch.

    The headline ``runtime_s`` / ``events_per_sec`` are the default fast
    path's (packed + batched); the reference-data-path and
    unbatched-dispatch numbers, the speedups and bit-identity checks ride
    along in ``metrics`` (mirroring ``kernel_microbench``'s
    calendar-vs-heapq shape).  Each variant is timed best-of-two: single
    multi-second runs on a shared CI host see one-off noise (GC pause,
    container throttle) well above the effects being tracked.
    """

    def timed_best(config: SystemConfig = None, repeats: int = 2) -> tuple:
        best = None
        result = None
        for _ in range(repeats):
            start = time.perf_counter()
            result = api.run_experiment(
                workload=workload,
                protocol=protocol,
                network=network,
                scale=scale,
                num_nodes=num_nodes,
                config=config,
            )
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        return result, best

    packed, packed_s = timed_best()
    reference, reference_s = timed_best(
        SystemConfig(
            protocol=protocol, network=network, num_nodes=num_nodes
        ).with_reference_data_path()
    )
    unbatched, unbatched_s = timed_best(
        SystemConfig(
            protocol=protocol,
            network=network,
            num_nodes=num_nodes,
            batched_dispatch=False,
        )
    )

    if packed != reference:
        # A hard error, not an assert: a benchmark must never publish packed
        # numbers for a data path that diverged from its reference (and
        # asserts vanish under ``python -O``).
        raise RuntimeError(f"{name}: packed and reference data paths diverged")
    if packed != unbatched:
        raise RuntimeError(f"{name}: batched and unbatched dispatch diverged")
    events = packed.sim_events
    packed_eps = events / packed_s if packed_s else 0.0
    reference_eps = reference.sim_events / reference_s if reference_s else 0.0
    unbatched_eps = unbatched.sim_events / unbatched_s if unbatched_s else 0.0
    speedup = packed_eps / reference_eps if reference_eps else 0.0
    return make_scenario(
        name=name,
        runtime_s=packed_s,
        peak_rss_kb=peak_rss_kb(),
        events=events,
        metrics={
            "scale": scale,
            "num_nodes": num_nodes,
            "protocol": protocol,
            "network": network,
            "workload": workload,
            "reference_runtime_s": reference_s,
            "reference_events_per_sec": reference_eps,
            "packed_events_per_sec": packed_eps,
            "unbatched_runtime_s": unbatched_s,
            "unbatched_events_per_sec": unbatched_eps,
            "speedup_vs_reference": speedup,
            "batching_speedup": packed_eps / unbatched_eps
            if unbatched_eps
            else 0.0,
            "bit_identical": True,
        },
    )


def scale_snooping(scale: float = 0.15) -> Dict[str, Any]:
    """64-node timestamp snooping on a radix-8 butterfly (broadcast fan-out
    is the dominant cost at this node count)."""
    return _scale_comparison("scale_snooping", "ts-snoop", "butterfly", 64, scale)


def scale_snooping_256(scale: float = 0.15) -> Dict[str, Any]:
    """256-node timestamp snooping on a 16x16 torus, tractable since the
    snoop filter cut the ordered fan-out to the interested nodes.  Runs at
    a tenth of the suite scale, about 2 s per run at the suite default."""
    return _scale_comparison("scale_snooping_256", "ts-snoop", "torus", 256, scale / 10)


def scale_directory(scale: float = 0.15) -> Dict[str, Any]:
    """256-node DirOpt on a 16x16 torus (deep event queues, wide directory
    state)."""
    return _scale_comparison("scale_directory", "diropt", "torus", 256, scale)


def scale_mesi_directory(scale: float = 0.15) -> Dict[str, Any]:
    """64-node MESI directory on an 8x8 torus (clean-exclusive grants trim
    upgrade misses, so the event mix differs from the MSI directories)."""
    return _scale_comparison("scale_mesi_directory", "mesi-dir", "torus", 64, scale)


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
