"""Coherence messages and their byte/traffic accounting.

Figure 4 of the paper assumes 72-byte data messages (a 64-byte block plus
header) and 8-byte non-data messages, and splits link traffic into four
categories: Data, Request, Nack and Misc (forwards, invalidations,
acknowledgments).
"""
# repro-lint: hot

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

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
    other message is a unicast.  ``payload`` carries protocol-specific fields
    (e.g. ack counts, version tokens) without subclassing.
    """

    kind: MessageKind
    src: int
    dst: Optional[int]
    block: int
    sent_at: int = 0
    # repro-lint: disable=HOT001 -- default_factory runs once per *fresh*
    # shell; the pooled fast path reassigns msg_id without constructing.
    msg_id: int = field(default_factory=lambda: next(_message_ids))
    payload: Dict[str, Any] = field(default_factory=dict)

    @property
    def size_bytes(self) -> int:
        return self.kind.size_bytes

    @property
    def category(self) -> TrafficCategory:
        return self.kind.category

    @property
    def is_broadcast(self) -> bool:
        return self.dst is None

    def reply(
        self, kind: MessageKind, src: int, *, sent_at: int = 0, **payload: Any
    ) -> "Message":
        """Build a unicast reply to this message's sender."""
        return Message(
            kind=kind,
            src=src,
            dst=self.src,
            block=self.block,
            sent_at=sent_at,
            payload=dict(payload),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        target = "broadcast" if self.dst is None else f"n{self.dst}"
        return (
            f"<{self.kind.label} #{self.msg_id} n{self.src}->{target} "
            f"block={self.block}>"
        )


class MessagePool:
    """A free list of :class:`Message` shells for the per-hop fast path.

    Protocol controllers allocate several messages per miss; pooling reuses
    the dataclass shell *and* its payload dict instead of churning the
    allocator.  The contract is explicit ownership: whoever consumes a
    message calls :meth:`release` exactly once, after its last read, and only
    for messages whose handler provably retains no reference (deferred
    forwards and deferred home responses are released by the code that later
    consumes them).  Every acquire -- fresh or recycled -- draws a new
    ``msg_id``, so identifiers never collide with a still-tracked message.
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
        **payload: Any,
    ) -> Message:
        free = self._free
        if not free:
            return Message(kind=kind, src=src, dst=dst, block=block, payload=payload)
        message = free.pop()
        message.kind = kind
        message.src = src
        message.dst = dst
        message.block = block
        message.sent_at = 0
        message.msg_id = next(_message_ids)
        old = message.payload
        old.clear()
        old.update(payload)
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
        **payload: Any,
    ) -> Message:
        message = super().acquire(kind, src, dst, block, **payload)
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
