"""Unit tests for messages and their Figure 4 byte accounting."""

import dataclasses

from repro.network.message import (
    CONTROL_MESSAGE_BYTES,
    DATA_MESSAGE_BYTES,
    Message,
    MessageKind,
    TrafficCategory,
)

#: Every protocol field and a non-default value for it.
FIELDS = {
    "version": 7,
    "from_cache": True,
    "acks_expected": 3,
    "requester": 9,
    "sharing": True,
    "new_owner": 11,
}


class TestMessageKinds:
    def test_paper_byte_sizes(self):
        assert DATA_MESSAGE_BYTES == 72
        assert CONTROL_MESSAGE_BYTES == 8
        assert MessageKind.DATA.size_bytes == 72
        assert MessageKind.GETS.size_bytes == 8

    def test_figure4_categories(self):
        assert MessageKind.DATA.category is TrafficCategory.DATA
        assert MessageKind.WRITEBACK_DATA.category is TrafficCategory.DATA
        assert MessageKind.GETS.category is TrafficCategory.REQUEST
        assert MessageKind.GETM.category is TrafficCategory.REQUEST
        assert MessageKind.NACK.category is TrafficCategory.NACK
        assert MessageKind.INVALIDATE.category is TrafficCategory.MISC
        assert MessageKind.INV_ACK.category is TrafficCategory.MISC
        assert MessageKind.FORWARD_GETS.category is TrafficCategory.MISC


class TestMessage:
    def test_fields_cover_every_protocol_slot(self):
        names = [field.name for field in dataclasses.fields(Message)]
        assert names == ["kind", "src", "dst", "block", *FIELDS, "msg_id"]
        message = Message(MessageKind.DATA, 0, 1, 5, **FIELDS)
        assert {name: getattr(message, name) for name in FIELDS} == FIELDS
        assert not hasattr(message, "__dict__")

    def test_unique_ids(self):
        a = Message(MessageKind.GETS, 0, None, 1)
        b = Message(MessageKind.GETS, 0, None, 1)
        assert b.msg_id == a.msg_id + 1

    def test_explicit_id_does_not_consume_one(self):
        a = Message(MessageKind.GETS, 0, None, 1)
        pinned = Message(MessageKind.GETS, 0, None, 1, msg_id=-5)
        b = Message(MessageKind.GETS, 0, None, 1)
        assert pinned.msg_id == -5
        assert b.msg_id == a.msg_id + 1

    def test_protocol_fields_default(self):
        message = Message(MessageKind.GETS, src=3, dst=8, block=42)
        assert message.version == message.acks_expected == 0
        assert message.from_cache is message.sharing is False
        assert message.requester is message.new_owner is None

    def test_fields_are_per_message(self):
        a = Message(MessageKind.DATA, 0, 1, 2)
        b = Message(MessageKind.DATA, 0, 1, 2)
        a.version = 5
        a.requester = 3
        assert (b.version, b.requester) == (0, None)
