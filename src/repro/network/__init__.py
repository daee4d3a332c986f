"""Interconnect substrate.

Provides the two evaluated topologies (four radix-4 butterflies and a 4x4
bidirectional torus), message/packet definitions with the paper's byte
accounting (72-byte data messages, 8-byte address/control messages), per-link
traffic accounting for Figure 4, an unordered point-to-point data network and
the virtual networks used by the directory protocols.
"""

import math


def make_topology(name: str, num_endpoints: int = 16):
    """The :class:`~repro.network.topology.Topology` of one of the two
    evaluated topologies, by name.

    ``name`` is one of ``"butterfly"`` or ``"torus"`` (case-insensitive).
    The two-stage butterfly requires a perfect-square endpoint count (the
    radix follows as its square root: 16 nodes -> radix 4 as in the paper,
    64 -> radix 8, 256 -> radix 16 for the ``scale`` perf suite).
    """
    from repro.network.butterfly import ButterflyTopology
    from repro.network.torus import TorusTopology

    key = name.strip().lower()
    if key in ("butterfly", "bfly", "indirect"):
        radix = math.isqrt(num_endpoints)
        if radix * radix != num_endpoints:
            raise ValueError(
                "the two-stage butterfly requires a perfect-square endpoint "
                f"count, got {num_endpoints}"
            )
        return ButterflyTopology(num_endpoints=num_endpoints, radix=radix)
    if key in ("torus", "2d-torus", "direct"):
        return TorusTopology.for_endpoints(num_endpoints)
    raise ValueError(f"unknown topology {name!r}; expected 'butterfly' or 'torus'")
