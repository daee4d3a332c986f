"""Coherence messages and their byte/traffic accounting.

Figure 4 of the paper assumes 72-byte data messages (a 64-byte block plus
header) and 8-byte non-data messages, and splits link traffic into four
categories: Data, Request, Nack and Misc (forwards, invalidations,
acknowledgments).  Like the paper's fixed-format messages, a
:class:`Message` has a fixed set of typed fields; no protocol builds a
per-message field dict.
"""
# repro-lint: hot

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

DATA_MESSAGE_BYTES = 72
CONTROL_MESSAGE_BYTES = 8


class TrafficCategory(str, Enum):
    """Link-traffic categories used in Figure 4."""

    DATA = "Data"
    REQUEST = "Request"
    NACK = "Nack"
    MISC = "Misc."


class MessageKind(Enum):
    """Every message type exchanged by the three protocols."""

    # Address/request messages (broadcast for TS-Snoop, unicast to home for
    # the directory protocols).
    GETS = ("GETS", TrafficCategory.REQUEST, CONTROL_MESSAGE_BYTES)
    GETM = ("GETM", TrafficCategory.REQUEST, CONTROL_MESSAGE_BYTES)
    UPGRADE = ("UPGRADE", TrafficCategory.REQUEST, CONTROL_MESSAGE_BYTES)
    PUTM = ("PUTM", TrafficCategory.REQUEST, CONTROL_MESSAGE_BYTES)

    # Data-carrying messages.
    DATA = ("DATA", TrafficCategory.DATA, DATA_MESSAGE_BYTES)
    DATA_EXCLUSIVE = ("DATA_EXCLUSIVE", TrafficCategory.DATA, DATA_MESSAGE_BYTES)
    WRITEBACK_DATA = ("WRITEBACK_DATA", TrafficCategory.DATA, DATA_MESSAGE_BYTES)

    # Directory-protocol control messages.
    FORWARD_GETS = ("FORWARD_GETS", TrafficCategory.MISC, CONTROL_MESSAGE_BYTES)
    FORWARD_GETM = ("FORWARD_GETM", TrafficCategory.MISC, CONTROL_MESSAGE_BYTES)
    INVALIDATE = ("INVALIDATE", TrafficCategory.MISC, CONTROL_MESSAGE_BYTES)
    INV_ACK = ("INV_ACK", TrafficCategory.MISC, CONTROL_MESSAGE_BYTES)
    WRITEBACK_ACK = ("WRITEBACK_ACK", TrafficCategory.MISC, CONTROL_MESSAGE_BYTES)
    TRANSFER = ("TRANSFER", TrafficCategory.MISC, CONTROL_MESSAGE_BYTES)
    NACK = ("NACK", TrafficCategory.NACK, CONTROL_MESSAGE_BYTES)

    # Token used by the timestamp network (piggybacked; a couple of bits in
    # practice, so it is not charged any link bytes).
    TOKEN = ("TOKEN", TrafficCategory.MISC, 0)

    def __init__(self, label: str, category: TrafficCategory, size_bytes: int) -> None:
        self.label = label
        self.category = category
        #: ``category.value`` resolved once -- Enum's ``.value`` descriptor
        #: costs a function call, and accounting reads this per message.
        self.category_key = category.value
        self.size_bytes = size_bytes

    @property
    def is_data(self) -> bool:
        return self.category is TrafficCategory.DATA

    @property
    def is_request(self) -> bool:
        return self.category is TrafficCategory.REQUEST


_message_ids = itertools.count()


@dataclass(slots=True)
class Message:
    """One protocol message.

    ``dst`` is ``None`` for broadcast address transactions (TS-Snoop); every
    other message is a unicast.  The protocol fields after ``block`` are
    typed slots, one per field any protocol sends; a kind that does not use
    a field leaves it at its default:

    * ``version`` -- the block's version token (data and writeback data);
    * ``from_cache`` -- the data came from another cache (3-hop / dirty);
    * ``acks_expected`` -- invalidation acks the requester must collect;
    * ``requester`` -- whom a forward or invalidation acts for;
    * ``sharing`` -- a writeback that keeps an S copy (MSI downgrade);
    * ``new_owner`` -- whom an ownership TRANSFER hands the block to.
    """

    kind: MessageKind
    src: int
    dst: Optional[int]
    block: int
    version: int = 0
    from_cache: bool = False
    acks_expected: int = 0
    requester: Optional[int] = None
    sharing: bool = False
    new_owner: Optional[int] = None
    # repro-lint: disable=HOT001 -- default_factory runs once per *fresh*
    # shell; the pooled fast path reassigns msg_id without constructing.
    msg_id: int = field(default_factory=lambda: next(_message_ids))

    @property
    def size_bytes(self) -> int:
        return self.kind.size_bytes

    @property
    def category(self) -> TrafficCategory:
        return self.kind.category

    @property
    def is_broadcast(self) -> bool:
        return self.dst is None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        target = "broadcast" if self.dst is None else f"n{self.dst}"
        return (
            f"<{self.kind.label} #{self.msg_id} n{self.src}->{target} "
            f"block={self.block}>"
        )


class MessagePool:
    """A free list of :class:`Message` shells for the per-hop fast path.

    Protocol controllers allocate several messages per miss; pooling reuses
    the dataclass shell instead of churning the allocator.  An acquire sets
    every field, the protocol fields to their defaults unless given, so a
    recycled shell carries nothing over.  The contract is explicit
    ownership: whoever consumes a message calls :meth:`release` exactly
    once, after its last read, and only for messages whose handler provably
    retains no reference (deferred forwards and deferred home responses are
    released by the code that later consumes them).  Every acquire -- fresh
    or recycled -- draws a new ``msg_id``, so identifiers never collide with
    a still-tracked message.
    """

    __slots__ = ("_free",)

    def __init__(self) -> None:
        self._free: list = []

    def acquire(
        self,
        kind: MessageKind,
        src: int,
        dst: Optional[int],
        block: int,
        *,
        version: int = 0,
        from_cache: bool = False,
        acks_expected: int = 0,
        requester: Optional[int] = None,
        sharing: bool = False,
        new_owner: Optional[int] = None,
    ) -> Message:
        free = self._free
        message = free.pop() if free else Message(kind, src, dst, block)
        message.kind = kind
        message.src = src
        message.dst = dst
        message.block = block
        message.version = version
        message.from_cache = from_cache
        message.acks_expected = acks_expected
        message.requester = requester
        message.sharing = sharing
        message.new_owner = new_owner
        message.msg_id = next(_message_ids)
        return message

    def release(self, message: Message) -> None:
        self._free.append(message)

    def __len__(self) -> int:
        return len(self._free)


class PoolSafetyError(RuntimeError):
    """A pooled shell's ownership contract was violated at runtime."""


def _call_site(depth: int = 2) -> str:
    """``file:line in function`` of the caller ``depth`` frames up."""
    frame = sys._getframe(depth)
    return f"{frame.f_code.co_filename}:{frame.f_lineno} in {frame.f_code.co_name}"


class SanitizedMessagePool(MessagePool):
    """A :class:`MessagePool` that enforces the ownership contract.

    ``SystemConfig.sanitize`` swaps this in: every acquire records its call
    site, a double release raises :class:`PoolSafetyError` naming *both*
    release sites, releasing a message the pool never handed out raises,
    and :meth:`assert_no_leaks` reports every never-released shell with its
    acquisition site.  The tracking tables hold strong references, so a
    tracked shell can never be garbage-collected and have its identity
    reused while the record is live.
    """

    __slots__ = ("_live", "_released")

    def __init__(self) -> None:
        super().__init__()
        self._live: Dict[int, Tuple[Message, str]] = {}
        self._released: Dict[int, Tuple[Message, str]] = {}

    def acquire(
        self,
        kind: MessageKind,
        src: int,
        dst: Optional[int],
        block: int,
        *,
        version: int = 0,
        from_cache: bool = False,
        acks_expected: int = 0,
        requester: Optional[int] = None,
        sharing: bool = False,
        new_owner: Optional[int] = None,
    ) -> Message:
        message = super().acquire(
            kind,
            src,
            dst,
            block,
            version=version,
            from_cache=from_cache,
            acks_expected=acks_expected,
            requester=requester,
            sharing=sharing,
            new_owner=new_owner,
        )
        # repro-lint: disable=DET005 -- diagnostic identity keys over strong
        # references; never feeds back into model state or event order.
        key = id(message)
        self._released.pop(key, None)
        self._live[key] = (message, _call_site())
        return message

    def release(self, message: Message) -> None:
        # repro-lint: disable=DET005 -- diagnostic identity key (see acquire).
        key = id(message)
        already = self._released.get(key)
        if already is not None:
            raise PoolSafetyError(
                f"double release of {message!r}: first released at "
                f"{already[1]}, released again at {_call_site()}"
            )
        entry = self._live.pop(key, None)
        if entry is None:
            raise PoolSafetyError(
                f"release of {message!r}, which this pool did not hand out "
                f"(release attempted at {_call_site()})"
            )
        self._released[key] = (message, _call_site())
        super().release(message)

    # ------------------------------------------------------------ inspection
    @property
    def live_messages(self) -> int:
        """Shells acquired but not yet released."""
        return len(self._live)

    def leak_report(self) -> List[str]:
        """One line per never-released shell, with its acquisition site."""
        return [
            f"{message!r} acquired at {site}"
            for message, site in self._live.values()
        ]

    def assert_no_leaks(self) -> None:
        """Raise :class:`PoolSafetyError` if any shell was never released."""
        leaks = self.leak_report()
        if leaks:
            shown = "\n  ".join(leaks[:20])
            extra = f"\n  ... and {len(leaks) - 20} more" if len(leaks) > 20 else ""
            raise PoolSafetyError(
                f"{len(leaks)} message shell(s) never released:\n  {shown}{extra}"
            )
