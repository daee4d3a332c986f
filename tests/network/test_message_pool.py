"""Unit tests for the Message free-list pool."""

from repro.network.message import Message, MessageKind, MessagePool


class TestMessagePool:
    def test_acquire_builds_a_normal_message(self):
        pool = MessagePool()
        message = pool.acquire(MessageKind.GETS, 1, 2, 99, version=4)
        assert message.kind is MessageKind.GETS
        assert (message.src, message.dst, message.block) == (1, 2, 99)
        assert message.payload == {"version": 4}

    def test_release_then_acquire_reuses_the_shell(self):
        pool = MessagePool()
        first = pool.acquire(MessageKind.DATA, 0, 1, 5, version=7,
                             from_cache=True)
        pool.release(first)
        assert len(pool) == 1
        second = pool.acquire(MessageKind.NACK, 3, 4, 6)
        assert second is first
        assert len(pool) == 0
        # fully re-initialised: no stale payload or routing
        assert second.kind is MessageKind.NACK
        assert (second.src, second.dst, second.block) == (3, 4, 6)
        assert second.payload == {}
        assert second.sent_at == 0

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
