#!/usr/bin/env python3
"""Regenerate Table 2 (unloaded latencies) and explore what-if variants.

Prints the paper's Table 2 from the closed-form latency model, then shows
how the snooping-vs-directory cache-to-cache gap changes with faster
switches or slower memory -- the sensitivity the paper's conclusion alludes
to ("worth considering when buying more interconnect bandwidth is easier
than reducing interconnect latency").

Usage::

    python examples/latency_table.py
"""

from repro.analysis.latency_model import LatencyModel, table2_latencies
from repro.analysis.report import format_table
from repro.network.timing import NetworkTiming
from repro.protocols.timing import ProtocolTiming


def print_table2() -> None:
    rows = []
    for topology, latencies in table2_latencies().items():
        rows.append([topology, latencies.one_way_ns,
                     latencies.block_from_memory_ns,
                     latencies.block_from_cache_snooping_ns,
                     latencies.block_from_cache_directory_ns])
    print(format_table(
        ["topology", "one-way", "from memory", "cache-to-cache (snooping)",
         "cache-to-cache (directory, 3 hops)"],
        rows, title="Table 2 — unloaded latencies (ns)"))


def print_sensitivity() -> None:
    rows = []
    for switch_ns in (5, 10, 15, 25):
        model = LatencyModel(NetworkTiming(overhead_ns=4, switch_ns=switch_ns),
                             ProtocolTiming())
        butterfly = model.for_hops("butterfly", 3)
        rows.append([switch_ns,
                     butterfly.block_from_cache_snooping_ns,
                     butterfly.block_from_cache_directory_ns,
                     f"{butterfly.snooping_to_directory_ratio:.2f}"])
    print()
    print(format_table(
        ["Dswitch (ns)", "snooping c2c (ns)", "directory c2c (ns)",
         "snooping / directory"],
        rows, title="Sensitivity: switch latency vs the 3-hop penalty "
                    "(butterfly)"))
    print()
    print("Slower links widen the directory's three-hop penalty (snooping's "
          "relative advantage grows); extremely fast links shrink it, which "
          "is when directories become competitive on latency as well.")


if __name__ == "__main__":
    print_table2()
    print_sensitivity()
