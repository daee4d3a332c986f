#!/usr/bin/env python3
"""Scenario: should the next OLTP server use snooping or a directory?

A systems architect sizing a 16-way database machine wants to know how much
of TS-Snoop's latency advantage survives as the interconnect and block size
change -- exactly the trade-off the paper's conclusion describes ("timestamp
snooping is worth considering when buying more interconnect bandwidth is
easier than reducing interconnect latency").

The script sweeps the OLTP workload across:

* both evaluated topologies (indirect butterfly, direct torus),
* both coherence styles (TS-Snoop vs. the NACK-free directory),

and prints runtime, per-link traffic, and the analytic worst-case traffic
penalty at 64- and 128-byte blocks.

With ``--service`` the sweep is submitted through the simulation service
(:mod:`repro.service`) as two overlapping planning sessions sharing one
job manager: the service's content-addressed cache dedups the second
session's identical requests, so each unique experiment is simulated
exactly once and the second architect gets their answers for free.

Usage::

    python examples/oltp_capacity_planning.py [scale] [--service]
"""

import sys

from repro import api
from repro.analysis.report import format_table
from repro.analysis.traffic_model import per_miss_bytes
from repro.network import make_topology
from repro.system.results import ProtocolComparison

NETWORKS = ("butterfly", "torus")
PROTOCOLS = ("ts-snoop", "diropt")


def sweep_direct(scale):
    """One comparison per network via the one-shot convenience API."""
    return {network: api.compare_protocols(
                workload="oltp", network=network, scale=scale,
                protocols=PROTOCOLS)
            for network in NETWORKS}


def sweep_via_service(scale):
    """The same sweep through the job manager, twice, deduplicated.

    Two overlapping "planning sessions" submit the identical experiment
    grid to one shared service.  The content-addressed result cache and
    in-flight join guarantee each unique (config, workload, replica) is
    simulated once; the second session replays bit-identical results.
    """
    import asyncio

    from repro.api.spec import ExperimentSpec
    from repro.service.cache import ResultCache
    from repro.service.manager import JobManager

    specs = [ExperimentSpec.make("oltp", protocol=protocol, network=network,
                                 scale=scale)
             for network in NETWORKS for protocol in PROTOCOLS]

    async def run():
        async with JobManager(cache=ResultCache()) as manager:
            first = [await manager.submit_async(spec) for spec in specs]
            second = [await manager.submit_async(spec) for spec in specs]
            await manager.drain()
            results = [await handle.result() for handle in first]
            replayed = [await handle.result() for handle in second]
        return manager, results, replayed

    manager, results, replayed = asyncio.run(run())
    assert results == replayed, "replayed session must be bit-identical"

    replicas = manager.snapshot()["replicas"]
    print("service: %d experiments requested, %d simulated, %d replayed "
          "from cache -- the second session was free"
          % (2 * len(specs), replicas["replicas_computed"],
             replicas["replicas_from_cache"]))
    print()

    comparisons = {}
    for network in NETWORKS:
        comparison = ProtocolComparison(workload="oltp", network=network,
                                        baseline_protocol=PROTOCOLS[0])
        for spec, result in zip(specs, results):
            if spec.network == network:
                comparison.add(result)
        comparisons[network] = comparison
    return comparisons


def main() -> None:
    argv = list(sys.argv[1:])
    use_service = "--service" in argv
    if use_service:
        argv.remove("--service")
    scale = float(argv[0]) if argv else 0.4

    sweep = sweep_via_service if use_service else sweep_direct
    comparisons = sweep(scale)

    rows = []
    for network in NETWORKS:
        comparison = comparisons[network]
        snoop = comparison.results["ts-snoop"]
        directory = comparison.results["diropt"]
        speedup = comparison.speedup_of_baseline_over("diropt")
        extra = comparison.extra_traffic_of_baseline_over("diropt")
        rows.append([network, snoop.runtime_ns, directory.runtime_ns,
                     f"+{100 * speedup:.0f}%",
                     f"{snoop.per_link_bytes:.0f}",
                     f"{directory.per_link_bytes:.0f}",
                     f"+{100 * extra:.0f}%"])

    print(format_table(
        ["network", "TS-Snoop ns", "DirOpt ns", "TS advantage",
         "TS B/link", "Dir B/link", "TS extra traffic"],
        rows, title="OLTP: latency vs. bandwidth across interconnects"))

    print()
    print("Worst-case extra bandwidth per miss (Section 5 bound):")
    bound_rows = []
    for block_bytes in (64, 128):
        for network in NETWORKS:
            bound = per_miss_bytes(make_topology(network), block_bytes)
            bound_rows.append([network, block_bytes,
                               f"+{100 * bound.extra_fraction:.0f}%"])
    print(format_table(["network", "block size (B)", "max extra traffic"],
                       bound_rows))
    print()
    print("Reading: if the planned interconnect has bandwidth headroom of "
          "at least the 'TS extra traffic' column, timestamp snooping "
          "converts it into the runtime advantage shown; otherwise the "
          "directory is the safer choice.")


if __name__ == "__main__":
    main()
