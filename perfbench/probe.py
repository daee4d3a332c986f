"""Measure one workload's set-up in this fresh process; print it as JSON.

    python3 perfbench/probe.py sim <workload> <seed>
    python3 perfbench/probe.py service <cache-dir>

Simulator set-up is imports + ``build_streams`` + the first
``SystemBuilder.build``.  Service set-up is imports + ``ServerThread``
start with an empty on-disk ``ResultCache`` until ``/v1/health`` answers.
``setup_s`` is net of host-speed samples and divided by the host's speed
factor (see ``hostspeed``); ``wall_setup_s`` is the raw figure.
"""

from __future__ import annotations

import time

from hostspeed import HostSampler, chase_table

chase_table()  # the sampler's table is built before the set-up clock starts
START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from common import sim_spec, use_source_tree  # noqa: E402


def sim_setup(name: str, seed: int) -> dict:
    from repro.system.builder import SystemBuilder, build_streams

    spec = sim_spec(name, seed)  # imports repro.api too
    imported = time.perf_counter()
    config = spec.config()
    streams = build_streams(spec.profile(), config)
    streamed = time.perf_counter()
    SystemBuilder(config).build(streams)
    built = time.perf_counter()
    return {
        "setup_s": built - START,
        "import_s": imported - START,
        "workloads.build_s": streamed - imported,
        "system.build_s": built - streamed,
    }


def service_setup(cache_dir: str) -> dict:
    from repro.client import ServiceClient
    from repro.service.cache import ResultCache
    from repro.service.server import ServerThread

    server = ServerThread(jobs=1, cache=ResultCache(cache_dir)).start()
    try:
        ServiceClient(server.base_url).health()
        ready = time.perf_counter()
    finally:
        server.stop()
    return {"setup_s": ready - START}


def main(argv: list) -> int:
    use_source_tree()
    with HostSampler() as sampler:
        if argv[:1] == ["sim"] and len(argv) == 3:
            report = sim_setup(argv[1], int(argv[2]))
        elif argv[:1] == ["service"] and len(argv) == 2:
            report = service_setup(argv[1])
        else:
            print(__doc__, file=sys.stderr)
            return 2
    report["wall_setup_s"] = report["setup_s"]
    report["setup_s"] = (report["setup_s"] - sampler.spent_s) / sampler.factor
    report["host_factor"] = sampler.factor
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
