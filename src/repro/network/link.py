"""Link-traffic accounting (the raw material of Figure 4).

The performance model charges traffic in aggregate: one
:class:`TrafficAccountant` per run, shared by every network of the build,
rather than one object per physical link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.network.message import Message


@dataclass
class TrafficAccountant:
    """Aggregate link-traffic bookkeeping for one simulation run.

    Every message send records ``link traversals x message bytes`` under its
    Figure 4 category.  ``per_link_bytes`` divides by the topology's link
    count to produce the paper's "traffic per link" metric.
    """

    num_links: int
    bytes_by_category: Dict[str, int] = field(default_factory=dict)

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
        except KeyError:
            self.bytes_by_category[category] = num_bytes

    # ------------------------------------------------------------- reporting
    def total_bytes(self) -> int:
        return sum(self.bytes_by_category.values())

    def per_link_bytes(self) -> float:
        if self.num_links <= 0:
            return 0.0
        return self.total_bytes() / self.num_links

    def reset(self) -> None:
        self.bytes_by_category.clear()
