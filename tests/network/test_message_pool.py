"""Unit tests for the Message free-list pool."""

import dataclasses
import inspect

import pytest

from repro.network.message import (
    Message,
    MessageKind,
    MessagePool,
    SanitizedMessagePool,
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


class TestMessagePool:
    def test_acquire_builds_a_normal_message(self):
        pool = MessagePool()
        message = pool.acquire(MessageKind.GETS, 1, 2, 99, version=4)
        assert message.kind is MessageKind.GETS
        assert (message.src, message.dst, message.block) == (1, 2, 99)
        assert message.version == 4
        assert message.requester is None

    def test_fields_cover_every_protocol_slot(self):
        names = [field.name for field in dataclasses.fields(Message)]
        assert names == ["kind", "src", "dst", "block", *FIELDS, "msg_id"]

    @pytest.mark.parametrize("pool_class", [MessagePool, SanitizedMessagePool])
    def test_release_then_acquire_reuses_the_shell(self, pool_class):
        pool = pool_class()
        first = pool.acquire(MessageKind.DATA, 0, 1, 5, **FIELDS)
        assert {name: getattr(first, name) for name in FIELDS} == FIELDS
        pool.release(first)
        assert len(pool) == 1
        second = pool.acquire(MessageKind.NACK, 3, 4, 6)
        assert second is first
        assert len(pool) == 0
        # fully re-initialised: every field back at its default
        assert second.kind is MessageKind.NACK
        assert (second.src, second.dst, second.block) == (3, 4, 6)
        fresh = Message(MessageKind.NACK, 3, 4, 6)
        for name in FIELDS:
            assert getattr(second, name) == getattr(fresh, name), name

    def test_sanitized_pool_takes_the_same_arguments(self):
        assert inspect.signature(SanitizedMessagePool.acquire) == inspect.signature(
            MessagePool.acquire
        )

    def test_reused_shells_get_fresh_ids(self):
        pool = MessagePool()
        first = pool.acquire(MessageKind.GETS, 0, 1, 2)
        first_id = first.msg_id
        pool.release(first)
        second = pool.acquire(MessageKind.GETS, 0, 1, 2)
        assert second.msg_id != first_id

    def test_pool_accepts_plainly_constructed_messages(self):
        pool = MessagePool()
        message = Message(kind=MessageKind.INV_ACK, src=0, dst=1, block=3)
        pool.release(message)
        recycled = pool.acquire(MessageKind.GETM, 5, 6, 7)
        assert recycled is message
        assert recycled.kind is MessageKind.GETM

    def test_broadcast_destination_supported(self):
        pool = MessagePool()
        message = pool.acquire(MessageKind.PUTM, 2, None, 11)
        assert message.is_broadcast
