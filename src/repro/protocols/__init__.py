"""Cache-coherence protocols.

The paper's three protocols, all MSI, all allowing silent S -> I downgrades
(Section 4.2):

* **TS-Snoop** (:mod:`repro.protocols.ts_snoop`), timestamp snooping with a
  per-block memory owner bit (the Synapse trick of Section 3) and the
  prefetch-at-arrival optimisation;
* **DirClassic** (:mod:`repro.protocols.directory`), an SGI-Origin-2000
  style full-bit-vector directory that uses busy states and NACKs;
* **DirOpt**, a NACK-free directory that relies on a point-to-point ordered
  forwarding network and never blocks at the home node.

Two matrix extensions beyond the paper:

* **MESIDir**, DirOpt plus a clean-exclusive (E) state with silent E -> M
  store upgrades;
* **MOESISnoop**, TS-Snoop plus an owned-sharing (O) state that supplies
  data without memory writebacks.

:data:`PROTOCOLS` is the only list of protocols: canonical lower-case name
-> factory taking the :class:`~repro.system.config.SystemConfig`.  The
directory protocols are one class with three policies, and MOESISnoop is
TS-Snoop with ``owned_state=True``.  ``repro.api`` derives its protocol
names from the keys.  A factory imports its controller module only when
called, so a process that only names protocols (the service gateway
validating specs) loads no controller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.protocols.base import CoherenceProtocol
    from repro.system.config import SystemConfig


def _ts_snoop(config: SystemConfig, owned_state: bool = False):
    from repro.protocols.ts_snoop import TSSnoopProtocol

    return TSSnoopProtocol(
        prefetch=config.prefetch_optimization,
        slack=config.slack,
        detailed_network=config.detailed_address_network,
        owned_state=owned_state,
    )


def _moesi_snoop(config: SystemConfig):
    return _ts_snoop(config, owned_state=True)


def _dir_classic(config: SystemConfig):
    from repro.protocols.directory import DIR_CLASSIC, DirectoryProtocol

    return DirectoryProtocol(DIR_CLASSIC)


def _dir_opt(config: SystemConfig):
    from repro.protocols.directory import DIR_OPT, DirectoryProtocol

    return DirectoryProtocol(DIR_OPT)


def _mesi_dir(config: SystemConfig):
    from repro.protocols.directory import MESI_DIR, DirectoryProtocol

    return DirectoryProtocol(MESI_DIR)


#: Canonical protocol registry, in paper order first: canonical name ->
#: factory of a ``SystemConfig``.  ``repro.api.spec`` derives its accepted
#: names (and hence ``ExperimentSpec`` cache keys) from the keys of this
#: dict.  The directory protocols ignore the snooping-only config options.
PROTOCOLS = {
    "ts-snoop": _ts_snoop,
    "dirclassic": _dir_classic,
    "diropt": _dir_opt,
    "mesi-dir": _mesi_dir,
    "moesi-snoop": _moesi_snoop,
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


def make_protocol(config: SystemConfig) -> CoherenceProtocol:
    """The protocol ``config.protocol`` names (any accepted spelling),
    built with the config's protocol options."""
    return PROTOCOLS[canonical_protocol_name(config.protocol)](config)
