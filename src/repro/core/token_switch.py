"""The token-passing network switch (Section 2.2, Figure 1).

A :class:`TokenSwitch` is pure protocol logic with no simulator dependency:
the detailed network model (:mod:`repro.core.timestamp_network`) drives it
with events, while unit tests (including an executable transcription of the
paper's Figure 1 example) drive it directly.

Switch behaviour:

* one token counter per input port;
* a logically centralised transaction buffer;
* a switch may *propagate* a token when every input counter is non-zero and
  no buffered transaction has zero slack; propagating sends a token on every
  output, decrements every input counter, and decrements the slack of every
  buffered transaction (rule 2);
* a transaction entering on a port gains slack equal to that port's token
  counter (rule 1);
* a transaction leaving on a branch gains that branch's ``delta-D`` (rule 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.core.logical_time import SlackRules


@dataclass(slots=True)
class BufferedTransaction:
    """A transaction held in a switch buffer (or endpoint queue).

    Only the fields the ordering machinery needs: the payload is opaque to
    the switch.
    """

    payload: Any
    slack: int
    source: int
    sequence: int = 0

    def __post_init__(self) -> None:
        if self.slack < 0:
            raise ValueError("slack must be non-negative")


class TokenSwitch:
    """One network switch with token-passing logic.

    ``input_ports`` / ``output_ports`` are opaque identifiers (the detailed
    network uses upstream/downstream node ids).
    """

    def __init__(
        self,
        name: str,
        input_ports: Sequence[str],
        output_ports: Sequence[str],
        initial_tokens: int = 1,
    ) -> None:
        if initial_tokens < 0:
            raise ValueError("initial_tokens must be non-negative")
        self.name = name
        self.input_ports = list(input_ports)
        self.output_ports = list(output_ports)
        self.token_counts: Dict[str, int] = {
            port: initial_tokens for port in self.input_ports
        }
        self.buffer: List[BufferedTransaction] = []
        self.tokens_propagated = 0  # == this switch's GT progress
        self.transactions_seen = 0

    # -------------------------------------------------------------- tokens
    def receive_token(self, port: str) -> None:
        """A token arrived on ``port``."""
        if port not in self.token_counts:
            raise KeyError(f"{self.name}: unknown input port {port!r}")
        self.token_counts[port] += 1

    def can_propagate(self) -> bool:
        """True when the switch may send the next token wave.

        Requires a token on every input and no zero-slack buffered
        transaction (the ``S >= 0`` invariant).
        """
        if any(count <= 0 for count in self.token_counts.values()):
            return False
        return all(txn.slack > 0 for txn in self.buffer)

    def propagate_token(self) -> List[str]:
        """Send a token on every output; returns the output ports to notify.

        Decrements every input token counter and the slack of every buffered
        transaction (rule 2).  Callers must have checked
        :meth:`can_propagate`.
        """
        if not self.can_propagate():
            raise RuntimeError(f"{self.name}: propagate_token while not ready")
        for port in self.token_counts:
            self.token_counts[port] -= 1
        for txn in self.buffer:
            txn.slack = SlackRules.on_token_passes(txn.slack)
        self.tokens_propagated += 1
        return list(self.output_ports)

    @property
    def guarantee_time(self) -> int:
        """The switch's GT, measured as tokens propagated since reset.

        "Intuitively, the GT of a switch is the number of tokens it has
        propagated" (Section 2.2).
        """
        return self.tokens_propagated

    # -------------------------------------------------------- transactions
    def receive_transaction(self, port: str, transaction: BufferedTransaction) -> None:
        """A transaction entered on ``port``: apply rule 1 and buffer it."""
        if port not in self.token_counts:
            raise KeyError(f"{self.name}: unknown input port {port!r}")
        transaction.slack = SlackRules.on_enter_switch(
            transaction.slack, self.token_counts[port]
        )
        self.buffer.append(transaction)
        self.transactions_seen += 1

    def inject_transaction(self, transaction: BufferedTransaction) -> None:
        """Buffer a transaction originating at this switch (no input port)."""
        self.buffer.append(transaction)
        self.transactions_seen += 1

    def release_transaction(
        self,
        transaction: BufferedTransaction,
        branches: Iterable[Tuple[str, int]],
        factory=BufferedTransaction,
    ) -> List[Tuple[str, BufferedTransaction]]:
        """Remove a buffered transaction and emit one copy per branch.

        ``branches`` is a sequence of ``(output_port, delta_d)`` pairs from
        the broadcast routing table.  Each emitted copy has rule 3 applied.
        ``factory`` builds the copies; the detailed network passes a
        free-list-backed factory so hop copies reuse retired shells.
        """
        self.buffer.remove(transaction)
        outputs: List[Tuple[str, BufferedTransaction]] = []
        for port, delta_d in branches:
            if port not in self.output_ports:
                raise KeyError(f"{self.name}: unknown output port {port!r}")
            copy = factory(
                payload=transaction.payload,
                slack=SlackRules.on_branch(transaction.slack, delta_d),
                source=transaction.source,
                sequence=transaction.sequence,
            )
            outputs.append((port, copy))
        return outputs

    # ------------------------------------------------------------- helpers
    def buffered_count(self) -> int:
        return len(self.buffer)

    def zero_slack_transactions(self) -> List[BufferedTransaction]:
        return [txn for txn in self.buffer if txn.slack == 0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<TokenSwitch {self.name} tokens={self.token_counts} "
            f"buffered={len(self.buffer)} GT={self.guarantee_time}>"
        )
