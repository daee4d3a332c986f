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
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

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

    def __init__(self, label: str, category: TrafficCategory, size_bytes: int) -> None:
        self.label = label
        self.category = category
        #: ``category.value`` resolved once -- Enum's ``.value`` descriptor
        #: costs a function call, and accounting reads this per message.
        self.category_key = category.value
        self.size_bytes = size_bytes


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
    msg_id: int = field(default_factory=_message_ids.__next__)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        target = "broadcast" if self.dst is None else f"n{self.dst}"
        return (
            f"<{self.kind.label} #{self.msg_id} n{self.src}->{target} "
            f"block={self.block}>"
        )
