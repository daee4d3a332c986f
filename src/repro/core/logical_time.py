"""Logical time arithmetic: ordering times, guarantee times and slack.

Section 2.1 defines two logical times:

* **Ordering time (OT)** -- the logical time at which an address transaction
  takes effect; the OTs of all transactions (with a source-id tie-break)
  define the total order that the snooping protocol processes.
* **Guarantee time (GT)** -- a per-switch / per-endpoint logical time that is
  guaranteed to be less than the OT of any transaction that may still
  arrive; a destination may process a transaction once ``OT <= GT``.

Section 2.2's implementation never carries OT explicitly: a transaction
carries only a *slack* value, and ``OT = GT_source + Dmax + S`` is implied at
injection and kept invariant by the three slack-adjustment rules collected in
:class:`SlackRules`.
"""

from __future__ import annotations


class SlackRules:
    """The three slack-adjustment rules of Section 2.2.

    All adjustments follow the recurrence ``S_new = S_old + dGT + dD`` and
    must keep ``S_new >= 0``.
    """

    @staticmethod
    def on_enter_switch(slack: int, input_token_count: int) -> int:
        """Rule 1: entering a switch, a transaction moves past the tokens
        waiting on its input port, so ``dGT = +token_count``."""
        if slack < 0 or input_token_count < 0:
            raise ValueError("slack and token count must be non-negative")
        return slack + input_token_count

    @staticmethod
    def on_token_passes(slack: int) -> int:
        """Rule 2: a propagated token moves past a buffered transaction,
        making it one unit closer to its OT (``dGT = -1``).

        Raises if the transaction already has zero slack: the ``S >= 0``
        invariant *prohibits* tokens from moving past zero-slack
        transactions, which is exactly what guarantees on-time delivery.
        """
        if slack <= 0:
            raise ValueError("a token may not move past a zero-slack transaction")
        return slack - 1

    @staticmethod
    def on_branch(slack: int, delta_d: int) -> int:
        """Rule 3: leaving on a branch whose remaining path is ``delta_d``
        links shorter than the longest branch adds that difference."""
        if slack < 0 or delta_d < 0:
            raise ValueError("slack and delta_d must be non-negative")
        return slack + delta_d
