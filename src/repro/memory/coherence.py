"""Cache states and processor access types, with their packed integer codes.

The paper's evaluated protocols are all MSI (Section 4.2), with processors
allowed to silently downgrade S -> I.  The enumeration is the full MOESI set
(Section 3 discusses the general MOESI case and the Synapse-style memory
owner bit) because the MESI and MOESI protocol variants use E and O.  The
transition rules themselves live in the controllers
(:meth:`repro.protocols.base.CacheControllerBase.access` and the protocols'
response handlers), not here.
"""

from __future__ import annotations

from enum import Enum, auto


class CacheState(Enum):
    """Stable MOESI cache states (Sweazey & Smith classification)."""

    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Dense integer codes for packed (array-backed) cache storage.  INVALID is
#: 0 so a zero-initialised state column reads as an empty way.
STATE_FROM_CODE = (
    CacheState.INVALID,
    CacheState.SHARED,
    CacheState.EXCLUSIVE,
    CacheState.OWNED,
    CacheState.MODIFIED,
)
for _code, _state in enumerate(STATE_FROM_CODE):
    _state.code = _code
del _code, _state


class AccessType(Enum):
    """Processor-side access categories."""

    LOAD = auto()
    STORE = auto()
    ATOMIC = auto()  # read-modify-write (test-and-set style)


#: Dense integer codes for packed reference streams.
ACCESS_FROM_CODE = (AccessType.LOAD, AccessType.STORE, AccessType.ATOMIC)
# ``needs_write_permission`` is read on every reference and every protocol
# message; a plain member attribute avoids a property call on the hot path.
for _code, _access in enumerate(ACCESS_FROM_CODE):
    _access.code = _code
    _access.needs_write_permission = _access is not AccessType.LOAD
del _code, _access

