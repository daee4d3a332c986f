"""Tests for the per-client deficit-round-robin scheduler.

The headline property (hypothesis-driven): over any served prefix during
which two clients stay backlogged, their cumulative unit-cost service per
unit weight stays within a quantum-bounded envelope of each other --
starvation is impossible by construction, no matter how adversarial the
arrival pattern.  Deterministic tests pin the exact 2:1 schedule, the
within-client priority/FIFO contract, and the asyncio queue surface
(hold/release gate, join/task_done accounting).
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.events import DEFAULT_CLIENT_ID
from repro.service.fairness import DeficitRoundRobinQueue


async def _drain(queue: DeficitRoundRobinQueue):
    """Dequeue everything currently enqueued, in schedule order."""
    order = []
    while len(queue):
        order.append(await queue.get())
        queue.task_done()
    return order


def _fill_and_drain(queue, units):
    """Enqueue ``(client, priority, cost, item)`` units, then drain."""
    for client, priority, cost, item in units:
        queue.put_nowait(client, priority, cost, item)
    return asyncio.run(_drain(queue))


class TestQueueSurface:
    def test_put_get_roundtrip_and_len(self):
        queue = DeficitRoundRobinQueue()
        queue.put_nowait(DEFAULT_CLIENT_ID, 0, 5, "a")
        queue.put_nowait(DEFAULT_CLIENT_ID, 0, 5, "b")
        assert len(queue) == 2
        assert asyncio.run(_drain(queue)) == ["a", "b"]
        assert len(queue) == 0

    def test_join_waits_for_task_done(self):
        async def scenario():
            queue = DeficitRoundRobinQueue()
            queue.put_nowait("c", 0, 1, "x")
            await queue.get()
            join = asyncio.ensure_future(queue.join())
            await asyncio.sleep(0)
            assert not join.done()
            queue.task_done()
            await asyncio.wait_for(join, timeout=1)

        asyncio.run(scenario())

    def test_task_done_without_put_raises(self):
        queue = DeficitRoundRobinQueue()
        with pytest.raises(ValueError):
            queue.task_done()

    def test_hold_gates_dispatch_until_release(self):
        async def scenario():
            queue = DeficitRoundRobinQueue()
            queue.hold()
            queue.put_nowait("c", 0, 1, "x")
            getter = asyncio.ensure_future(queue.get())
            await asyncio.sleep(0.01)
            assert not getter.done()
            queue.release()
            assert await asyncio.wait_for(getter, timeout=1) == "x"

        asyncio.run(scenario())

    def test_rejects_nonpositive_cost_and_weight(self):
        queue = DeficitRoundRobinQueue()
        with pytest.raises(ValueError):
            queue.put_nowait("c", 0, 0, "x")
        with pytest.raises(ValueError):
            queue.set_weight("c", 0)
        with pytest.raises(ValueError):
            DeficitRoundRobinQueue(weights={"c": -1})


class TestSingleClientOrdering:
    def test_priority_then_fifo_matches_old_flat_queue(self):
        queue = DeficitRoundRobinQueue()
        units = [
            ("c", 5, 3, "low-1"),
            ("c", 0, 3, "high-1"),
            ("c", 5, 3, "low-2"),
            ("c", 0, 3, "high-2"),
        ]
        order = _fill_and_drain(queue, units)
        assert order == ["high-1", "high-2", "low-1", "low-2"]

    def test_items_never_compared_on_priority_ties(self):
        # Heap tuples carry a unique sequence number before the item, so
        # unorderable payloads (dicts) never raise on priority ties.
        queue = DeficitRoundRobinQueue()
        order = _fill_and_drain(queue, [("c", 0, 1, {"n": 1}), ("c", 0, 1, {"n": 2})])
        assert order == [{"n": 1}, {"n": 2}]


class TestWeightedSchedule:
    def test_two_to_one_weights_serve_two_to_one(self):
        queue = DeficitRoundRobinQueue(
            weights={"alpha": 2, "beta": 1}, record_schedule=True
        )
        units = [("alpha", 0, 10, f"a{i}") for i in range(4)]
        units += [("beta", 0, 10, f"b{i}") for i in range(2)]
        order = _fill_and_drain(queue, units)
        assert order == ["a0", "a1", "b0", "a2", "a3", "b1"]
        assert queue.served_cost == {"alpha": 40, "beta": 20}
        assert queue.serve_log == [
            ("alpha", 10),
            ("alpha", 10),
            ("beta", 10),
            ("alpha", 10),
            ("alpha", 10),
            ("beta", 10),
        ]

    def test_equal_weights_alternate(self):
        queue = DeficitRoundRobinQueue()
        units = [("a", 0, 7, f"a{i}") for i in range(3)]
        units += [("b", 0, 7, f"b{i}") for i in range(3)]
        assert _fill_and_drain(queue, units) == [
            "a0",
            "b0",
            "a1",
            "b1",
            "a2",
            "b2",
        ]

    def test_heavy_client_cannot_starve_light_one(self):
        queue = DeficitRoundRobinQueue(record_schedule=True)
        units = [("flood", 0, 1, f"f{i}") for i in range(100)]
        units += [("victim", 0, 1, "v0")]
        order = _fill_and_drain(queue, units)
        # With equal weights the victim's lone unit is served within the
        # first ring round, not after the flood drains.
        assert order.index("v0") <= 2

    def test_quantum_tracks_largest_cost(self):
        queue = DeficitRoundRobinQueue()
        assert queue.quantum == 1
        queue.put_nowait("c", 0, 50, "x")
        assert queue.quantum == 50
        queue.put_nowait("c", 0, 10, "y")
        assert queue.quantum == 50

    def test_emptied_lane_forfeits_banked_deficit(self):
        queue = DeficitRoundRobinQueue()
        queue.put_nowait("a", 0, 10, "a0")
        asyncio.run(_drain(queue))
        # The lane drained with banked credit; re-arriving work must not
        # inherit it (a fresh burst cannot leapfrog a steady client).
        queue.put_nowait("a", 0, 10, "a1")
        queue.put_nowait("b", 0, 10, "b0")
        assert asyncio.run(_drain(queue)) == ["a1", "b0"]

    def test_clients_dict_reports_weights_and_ledger(self):
        queue = DeficitRoundRobinQueue(weights={"alpha": 3})
        queue.put_nowait("alpha", 0, 10, "a")
        queue.put_nowait("beta", 0, 10, "b")
        asyncio.run(queue.get())
        queue.task_done()
        report = queue.clients_dict()
        assert report["alpha"] == {
            "weight": 3,
            "served_cost": 10,
            "served_units": 1,
            "backlog": 0,
        }
        assert report["beta"]["backlog"] == 1
        assert report["beta"]["weight"] == 1


# -------------------------------------------------------------- property
_JOBS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # client index
        st.integers(min_value=0, max_value=3),  # priority
        st.integers(min_value=1, max_value=60),  # unit cost
    ),
    min_size=2,
    max_size=60,
)
_WEIGHTS = st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=4)


@settings(max_examples=60, deadline=None)
@given(weight_list=_WEIGHTS, jobs=_JOBS)
def test_drr_service_tracks_weighted_share_within_quantum_envelope(weight_list, jobs):
    """The starvation bound, for arbitrary arrival patterns.

    While two clients both stay backlogged, each ring round gives lane
    ``i`` exactly ``quantum * w_i`` fresh credit and no lane ever banks a
    full quantum, so at any served prefix the per-unit-weight service of
    two continuously-backlogged clients differs by at most
    ``quantum * (1 + 1/w_i + 1/w_j)`` -- one quantum for the at-most-one
    visit-count skew of the round-robin ring, plus each lane's banked
    remainder.  The bound is what "starvation-free by construction" means
    operationally: it is independent of backlog sizes, priorities and
    arrival order.
    """
    clients = [f"c{index}" for index in range(len(weight_list))]
    weights = dict(zip(clients, weight_list))
    queue = DeficitRoundRobinQueue(weights=weights, record_schedule=True)
    backlog = {client: 0 for client in clients}
    for client_index, priority, cost in jobs:
        client = clients[client_index % len(clients)]
        queue.put_nowait(client, priority, cost, (client, priority, cost))
        backlog[client] += 1
    served_items = asyncio.run(_drain(queue))
    assert len(served_items) == len(jobs)

    quantum = queue.quantum
    assert quantum == max(cost for _c, _p, cost in jobs)

    # Conservation: the ledger matches what was enqueued, exactly.
    assert sum(queue.served_cost.values()) == sum(c for _, _, c in jobs)

    # Within each client, service respects priority-then-FIFO.
    per_client: dict = {client: [] for client in clients}
    for client, priority, cost in served_items:
        per_client[client].append(priority)
    for client, priorities in per_client.items():
        assert priorities == sorted(priorities)

    # The fairness envelope over every prefix of the serve log.
    served = {client: 0 for client in clients}
    for log_client, cost in queue.serve_log:
        backlogged_before = {c for c in clients if backlog[c] > 0}
        served[log_client] += cost
        backlog[log_client] -= 1
        for left in backlogged_before:
            for right in backlogged_before:
                if left >= right:
                    continue
                gap = abs(served[left] / weights[left] - served[right] / weights[right])
                bound = quantum * (1 + 1 / weights[left] + 1 / weights[right])
                assert gap <= bound + 1e-9, (
                    f"per-weight service gap {gap} between {left} and "
                    f"{right} exceeds the envelope {bound}"
                )
