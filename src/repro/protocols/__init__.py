"""Cache-coherence protocols.

The paper's three protocols, all MSI, all allowing silent S -> I downgrades
(Section 4.2):

* :mod:`repro.protocols.ts_snoop` -- **TS-Snoop**, timestamp snooping with a
  per-block memory owner bit (the Synapse trick of Section 3) and the
  prefetch-at-arrival optimisation;
* :mod:`repro.protocols.dir_classic` -- **DirClassic**, an SGI-Origin-2000
  style full-bit-vector directory that uses busy states and NACKs;
* :mod:`repro.protocols.dir_opt` -- **DirOpt**, a NACK-free directory that
  relies on a point-to-point ordered forwarding network and never blocks at
  the home node.

Two matrix extensions beyond the paper:

* :mod:`repro.protocols.mesi_dir` -- **MESIDir**, DirOpt plus a
  clean-exclusive (E) state with silent E -> M store upgrades;
* :mod:`repro.protocols.moesi_snoop` -- **MOESISnoop**, TS-Snoop plus an
  owned-sharing (O) state that supplies data without memory writebacks.

:data:`PROTOCOLS` is the canonical registry: canonical lower-case name
-> factory class.  ``repro.api`` and ``repro.lint`` both derive their
protocol lists from it, so adding a protocol here is the single
registration point.
"""

from repro.protocols.base import (
    CacheControllerBase,
    MissRecord,
    MissSource,
    ProtocolName,
    ProtocolTiming,
)
from repro.protocols.directory_state import (
    DirectoryBank,
    DirectoryEntry,
    DirectoryState,
)
from repro.protocols.ts_snoop import TSSnoopNode, TSSnoopProtocol
from repro.protocols.directory import (
    DirectoryCacheController,
    DirectoryMemoryController,
    DirectoryPolicy,
    DirectoryProtocol,
)
from repro.protocols.dir_classic import DirClassicProtocol
from repro.protocols.dir_opt import DirOptProtocol
from repro.protocols.mesi_dir import MESIDirProtocol
from repro.protocols.moesi_snoop import MOESISnoopProtocol

__all__ = [
    "ProtocolName",
    "ProtocolTiming",
    "MissRecord",
    "MissSource",
    "CacheControllerBase",
    "DirectoryState",
    "DirectoryEntry",
    "DirectoryBank",
    "TSSnoopProtocol",
    "TSSnoopNode",
    "DirectoryProtocol",
    "DirectoryPolicy",
    "DirectoryCacheController",
    "DirectoryMemoryController",
    "DirClassicProtocol",
    "DirOptProtocol",
    "MESIDirProtocol",
    "MOESISnoopProtocol",
    "PROTOCOLS",
    "PROTOCOL_ALIASES",
    "canonical_protocol_name",
    "make_protocol",
]

#: Canonical protocol registry, in paper order first: canonical name ->
#: factory class.  ``repro.api.spec`` derives its accepted names (and hence
#: ``ExperimentSpec`` cache keys) from the keys of this dict.
PROTOCOLS = {
    "ts-snoop": TSSnoopProtocol,
    "dirclassic": DirClassicProtocol,
    "diropt": DirOptProtocol,
    "mesi-dir": MESIDirProtocol,
    "moesi-snoop": MOESISnoopProtocol,
}

#: Accepted spellings -> canonical name (canonical names map to themselves).
PROTOCOL_ALIASES = {
    "ts-snoop": "ts-snoop",
    "tssnoop": "ts-snoop",
    "snoop": "ts-snoop",
    "timestamp-snooping": "ts-snoop",
    "dirclassic": "dirclassic",
    "dir-classic": "dirclassic",
    "classic": "dirclassic",
    "diropt": "diropt",
    "dir-opt": "diropt",
    "opt": "diropt",
    "mesi-dir": "mesi-dir",
    "mesidir": "mesi-dir",
    "mesi": "mesi-dir",
    "moesi-snoop": "moesi-snoop",
    "moesisnoop": "moesi-snoop",
    "moesi": "moesi-snoop",
}


def canonical_protocol_name(name: str) -> str:
    """Resolve any accepted spelling to its canonical registry key."""
    key = name.strip().lower().replace("_", "-")
    try:
        return PROTOCOL_ALIASES[key]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; expected one of {sorted(PROTOCOLS)}"
        ) from None


def make_protocol(name: str):
    """Factory returning a protocol object by any accepted name."""
    return PROTOCOLS[canonical_protocol_name(name)]()
