"""The benchmark's workload definitions (plain data; imports nothing).

Sizes are chosen so one simulator repetition takes 1.6-3.5 s on a 2-CPU
x86-64 host, leaving room for six or more timed repetitions in a 20 s run.
"""

from __future__ import annotations

#: Simulator workloads: ``ExperimentSpec.make`` arguments.  The run's
#: ``--seed`` becomes ``SystemConfig.seed``.
SIM_WORKLOADS = {
    # 64 ordered deliveries per address transaction: the TS-Snoop fan-out
    # dominates, so a snoop filter shows here first.
    "snoop64": dict(
        workload="oltp",
        protocol="ts-snoop",
        network="butterfly",
        num_nodes=64,
        consistency="sc",
        scale=0.12,
    ),
    # No ordered broadcast at all: kernel, directory and data network.  A
    # snoop filter must leave this one unchanged.
    "dir256": dict(
        workload="oltp",
        protocol="diropt",
        network="torus",
        num_nodes=256,
        consistency="sc",
        scale=0.08,
    ),
}

SERVICE_WORKLOAD = "service-mix"

WORKLOADS = tuple(SIM_WORKLOADS) + (SERVICE_WORKLOAD,)

#: The pre-warmed catalogue of the service mix: every (workload, protocol)
#: pair below at 4 nodes, scale 0.1, the library's default seed.
CATALOGUE_WORKLOADS = ("oltp", "dss", "apache", "altavista", "barnes")
CATALOGUE_PROTOCOLS = ("ts-snoop", "dirclassic", "diropt", "mesi-dir")
CATALOGUE_NODES = 4
CATALOGUE_SCALE = 0.1

#: Closed loop: this many client threads, each waiting for its reply
#: before sending the next request.
SERVICE_CLIENTS = 2
#: Requests per client per second of ``--seconds``: the loop's size is
#: fixed by the run length, sized so the loop takes about ``--seconds``
#: on a 2-CPU x86-64 host.
REQUESTS_PER_CLIENT_PER_S = 80
#: The timed loop runs in this many consecutive chunks, with a host
#: calibration between each two (see ``hostspeed``).
SERVICE_CHUNKS = 10
#: Share of requests that name a never-seen spec (compute, then store).
MISS_SHARE = 0.05
#: Misses re-run directly (outside the timed window) and compared.
MISS_SAMPLE = 4

#: Fresh processes measuring set-up; the reported ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Seed used when ``--seed`` is omitted (the library's default seed).
DEFAULT_SEED = 42

#: End-to-end metrics (``--trace 0``), the same four on every workload.
#: ``ops_per_s``: simulated memory references per host-second of
#: ``SimulationRunner.run`` (simulator workloads) or completed requests per
#: second of the closed loop (service-mix).  ``p50_ms``: the median wait for
#: one result -- one ``SimulationRunner.run`` repetition, or one cache-hit
#: request from submit to terminal event.
END_TO_END = {
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``).  A metric of a layer the workload's
#: trace does not cover reads 0.
PER_LAYER = {
    "workloads.build_s": "s",
    "system.build_s": "s",
    "workloads.self_share": "fraction",
    "system.self_share": "fraction",
    "sim.self_share": "fraction",
    "sim.ns_per_event": "ns",
    "sim.events": "count",
    "protocols.self_share": "fraction",
    "protocols.misses": "count",
    "protocols.c2c_frac": "fraction",
    "protocols.nacks": "count",
    "protocols.retries": "count",
    "core.self_share": "fraction",
    "core.ordered_txns": "count",
    "core.fanout_per_txn": "count",
    "network.self_share": "fraction",
    "network.data_msgs": "count",
    "network.link_bytes": "B",
    "memory.self_share": "fraction",
    "processor.self_share": "fraction",
    "interp.self_share": "fraction",
    "server.submit_ms": "ms",
    "server.stream_ms": "ms",
    "manager.submit_ms": "ms",
    "manager.compute_ms": "ms",
    "manager.queue_peak": "count",
    "manager.rejected": "count",
    "manager.jobs_retained": "count",
    "cache.hit_ratio": "fraction",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "trace.overhead": "ratio",
}

#: Seeds with a recorded golden ``RunResult`` digest per simulator
#: workload.  42 is the default; the sizes above were chosen on it alone,
#: so every other seed is held out.
GOLDEN_SEEDS = tuple(range(32)) + (DEFAULT_SEED,)
