"""Interconnect substrate.

Provides the two evaluated topologies (four radix-4 butterflies and a 4x4
bidirectional torus), message/packet definitions with the paper's byte
accounting (72-byte data messages, 8-byte address/control messages), per-link
traffic accounting for Figure 4, an unordered point-to-point data network
(which also carries the directory protocols' unordered virtual networks) and
DirOpt's point-to-point ordered forwarded-request network.
"""

import math

#: Accepted topology spellings -> canonical name (canonical names map to
#: themselves).  ``repro.api.spec`` takes its network names from here.
NETWORK_ALIASES = {
    "butterfly": "butterfly",
    "bfly": "butterfly",
    "indirect": "butterfly",
    "torus": "torus",
    "2d-torus": "torus",
    "direct": "torus",
}


def canonical_network_name(name: str) -> str:
    """Resolve any accepted topology spelling (case-insensitive) to its
    canonical name."""
    try:
        return NETWORK_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown topology {name!r}; expected 'butterfly' or 'torus'"
        ) from None


def make_topology(name: str, num_endpoints: int = 16):
    """The :class:`~repro.network.topology.Topology` of one of the two
    evaluated topologies, by any spelling in :data:`NETWORK_ALIASES`.

    The two-stage butterfly requires a perfect-square endpoint count (the
    radix follows as its square root: 16 nodes -> radix 4 as in the paper,
    64 -> radix 8, 256 -> radix 16 for the ``scale`` perf suite).
    """
    from repro.network.butterfly import ButterflyTopology
    from repro.network.torus import TorusTopology

    if canonical_network_name(name) == "torus":
        return TorusTopology.for_endpoints(num_endpoints)
    radix = math.isqrt(num_endpoints)
    if radix * radix != num_endpoints:
        raise ValueError(
            "the two-stage butterfly requires a perfect-square endpoint "
            f"count, got {num_endpoints}"
        )
    return ButterflyTopology(num_endpoints=num_endpoints, radix=radix)
