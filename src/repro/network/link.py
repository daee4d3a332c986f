"""Links and link-traffic accounting (the raw material of Figure 4)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.network.message import Message, TrafficCategory
from repro.sim.stats import ByteCounter


class Link:
    """A single directed link with its own byte counter.

    Used by the detailed token-passing network; the analytic performance
    model accounts traffic in aggregate through :class:`TrafficAccountant`
    instead of instantiating hundreds of link objects.
    """

    def __init__(self, src: str, dst: str) -> None:
        self.src = src
        self.dst = dst
        self.counter = ByteCounter(f"link:{src}->{dst}")

    def carry(self, message: Message) -> None:
        self.counter.record(message.category.value, message.size_bytes)

    def carry_batch(self, messages: Iterable[Message]) -> None:
        """Account a same-tick batch of messages with one pass per category.

        The detailed network forwards whole waves of copies in a single
        event; accounting them together folds the per-message dict updates
        into one :meth:`ByteCounter.record` call per traffic category.
        """
        totals: Dict[str, list] = {}
        for message in messages:
            key = message.category.value
            entry = totals.get(key)
            if entry is None:
                totals[key] = [1, message.size_bytes]
            else:
                entry[0] += 1
                entry[1] += message.size_bytes
        for key, (count, num_bytes) in totals.items():
            self.counter.record_total(key, num_bytes, count)

    @property
    def total_bytes(self) -> int:
        return self.counter.total_bytes()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Link {self.src}->{self.dst} {self.total_bytes}B>"


@dataclass
class TrafficAccountant:
    """Aggregate link-traffic bookkeeping for one simulation run.

    Every message send records ``link traversals x message bytes`` under its
    Figure 4 category.  ``per_link_bytes`` divides by the topology's link
    count to produce the paper's "traffic per link" metric.
    """

    num_links: int
    bytes_by_category: Dict[str, int] = field(default_factory=dict)
    messages_by_category: Dict[str, int] = field(default_factory=dict)
    link_traversals: int = 0

    def record(self, message: Message, traversals: int) -> None:
        """Account one message crossing ``traversals`` links.

        A broadcast is recorded with ``traversals=tree.link_count()`` --
        one call for the whole same-tick delivery wave rather than one per
        copy (the try/except favours the hot established-category path).
        """
        if traversals < 0:
            raise ValueError("traversals must be non-negative")
        kind = message.kind
        category = kind.category_key
        num_bytes = kind.size_bytes * traversals
        try:
            self.bytes_by_category[category] += num_bytes
            self.messages_by_category[category] += 1
        except KeyError:
            self.bytes_by_category[category] = num_bytes
            self.messages_by_category[category] = 1
        self.link_traversals += traversals

    def record_raw(
        self, category: TrafficCategory, size_bytes: int, traversals: int
    ) -> None:
        """Record traffic without a :class:`Message` object (analytic models)."""
        key = category.value
        self.bytes_by_category[key] = (
            self.bytes_by_category.get(key, 0) + size_bytes * traversals
        )
        self.messages_by_category[key] = self.messages_by_category.get(key, 0) + 1
        self.link_traversals += traversals

    # ------------------------------------------------------------- reporting
    def total_bytes(self) -> int:
        return sum(self.bytes_by_category.values())

    def bytes_for(self, category: TrafficCategory) -> int:
        return self.bytes_by_category.get(category.value, 0)

    def per_link_bytes(self) -> float:
        if self.num_links <= 0:
            return 0.0
        return self.total_bytes() / self.num_links

    def breakdown_fractions(self) -> Dict[str, float]:
        total = self.total_bytes()
        if total == 0:
            return {}
        return {key: value / total for key, value in self.bytes_by_category.items()}

    def reset(self) -> None:
        self.bytes_by_category.clear()
        self.messages_by_category.clear()
        self.link_traversals = 0
