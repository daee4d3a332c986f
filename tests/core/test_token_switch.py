"""Unit tests for the token-passing switch."""

import pytest

from repro.core.token_switch import BufferedTransaction, TokenSwitch


def make_switch(initial_tokens: int = 1) -> TokenSwitch:
    return TokenSwitch("sw", input_ports=["in0", "in1"],
                       output_ports=["out0", "out1"],
                       initial_tokens=initial_tokens)


class TestTokenPropagation:
    def test_initial_tokens_allow_first_propagation(self):
        switch = make_switch()
        assert switch.can_propagate()
        outputs = switch.propagate_token()
        assert set(outputs) == {"out0", "out1"}
        assert switch.guarantee_time == 1
        assert not switch.can_propagate()

    def test_needs_token_on_every_input(self):
        switch = make_switch(initial_tokens=0)
        switch.receive_token("in0")
        assert not switch.can_propagate()
        switch.receive_token("in1")
        assert switch.can_propagate()

    def test_propagate_decrements_all_inputs(self):
        switch = make_switch(initial_tokens=2)
        switch.propagate_token()
        assert all(count == 1 for count in switch.token_counts.values())

    def test_propagate_when_not_ready_raises(self):
        switch = make_switch(initial_tokens=0)
        with pytest.raises(RuntimeError):
            switch.propagate_token()

    def test_unknown_port_rejected(self):
        switch = make_switch()
        with pytest.raises(KeyError):
            switch.receive_token("bogus")


class TestSlackInteraction:
    def test_rule1_applied_on_entry(self):
        switch = make_switch(initial_tokens=2)
        transaction = BufferedTransaction(payload="msg", slack=1, source=0)
        switch.receive_transaction("in0", transaction)
        assert transaction.slack == 3          # moved past two waiting tokens

    def test_rule2_applied_on_propagation(self):
        switch = make_switch()
        transaction = BufferedTransaction(payload="msg", slack=2, source=0)
        switch.inject_transaction(transaction)
        switch.propagate_token()
        assert transaction.slack == 1

    def test_zero_slack_blocks_propagation(self):
        switch = make_switch()
        switch.inject_transaction(BufferedTransaction("msg", slack=0, source=0))
        assert not switch.can_propagate()

    def test_release_applies_delta_d_per_branch(self):
        switch = make_switch()
        transaction = BufferedTransaction("msg", slack=1, source=0)
        switch.inject_transaction(transaction)
        outputs = switch.release_transaction(
            transaction, [("out0", 0), ("out1", 2)])
        assert len(switch.buffer) == 0
        slacks = {port: copy.slack for port, copy in outputs}
        assert slacks == {"out0": 1, "out1": 3}

    def test_release_emits_fresh_copies_of_one_payload(self):
        switch = make_switch()
        transaction = BufferedTransaction("msg", slack=1, source=3, sequence=8)
        switch.inject_transaction(transaction)
        outputs = switch.release_transaction(
            transaction, [("out0", 0), ("out1", 0)])
        copies = [copy for _port, copy in outputs]
        assert copies[0] is not copies[1]
        assert all(copy is not transaction for copy in copies)
        assert all(copy.payload == "msg" for copy in copies)
        assert [(c.source, c.sequence) for c in copies] == [(3, 8), (3, 8)]
        # The released transaction is left as it was.
        assert (transaction.payload, transaction.slack) == ("msg", 1)

    def test_release_unknown_port_rejected(self):
        switch = make_switch()
        transaction = BufferedTransaction("msg", slack=1, source=0)
        switch.inject_transaction(transaction)
        with pytest.raises(KeyError):
            switch.release_transaction(transaction, [("nope", 0)])

    def test_negative_slack_rejected_at_construction(self):
        with pytest.raises(ValueError):
            BufferedTransaction("msg", slack=-1, source=0)
