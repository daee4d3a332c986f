"""Executable transcription of the paper's Figure 1 token-passing example.

Figure 1 walks a simplified 2x2 switch through five steps (a)-(e):

(a) the switch has an empty buffer, one token counted on each input, and an
    incoming message with slack 1;
(b) the message is buffered; moving past the waiting token raises its slack
    to 2 (rule 1, dGT = +1);
(c) a token arrives on each input and is counted;
(d) the switch issues a token on each output; the token moves past the
    buffered message, lowering its slack back to 1 (rule 2, dGT = -1);
(e) contention clears and the message leaves; the branch whose remaining
    path is one hop shorter gets slack 2 (rule 3, dD = +1) while the longest
    branch keeps slack 1.
"""

from repro.core.token_switch import BufferedTransaction, TokenSwitch


def test_figure1_token_passing_example():
    switch = TokenSwitch("2x2", input_ports=["top", "bottom"],
                         output_ports=["top", "bottom"], initial_tokens=1)

    # (a) empty buffer, a message with slack 1 arrives on the top input.
    message = BufferedTransaction(payload="msg", slack=1, source=0)
    assert len(switch.buffer) == 0

    # (b) the switch buffers the message; it moves past the one waiting token
    # on its input, so its slack becomes 2.
    switch.receive_transaction("top", message)
    assert message.slack == 2
    assert len(switch.buffer) == 1

    # (c) the switch processes the incoming tokens by incrementing counters.
    switch.receive_token("top")
    switch.receive_token("bottom")
    assert switch.token_counts == {"top": 2, "bottom": 2}

    # (d) it can issue a token on each output; the token moves past the
    # buffered message, decreasing its slack to 1.
    assert switch.can_propagate()
    outputs = switch.propagate_token()
    assert set(outputs) == {"top", "bottom"}
    assert message.slack == 1
    assert switch.token_counts == {"top": 1, "bottom": 1}

    # (e) contention removed: the message leaves on both output links.  The
    # top branch is one hop shorter than the bottom branch (dD = 1), so the
    # copy sent there carries slack 2 while the copy on the longest path
    # keeps slack 1.
    copies = switch.release_transaction(message,
                                        [("top", 1), ("bottom", 0)])
    slack_by_port = {port: copy.slack for port, copy in copies}
    assert slack_by_port == {"top": 2, "bottom": 1}
    assert len(switch.buffer) == 0


def test_figure1_zero_slack_variant_blocks_token():
    """If the buffered message had arrived with zero slack, step (d) would be
    forbidden: tokens may not move past zero-slack transactions."""
    switch = TokenSwitch("2x2", input_ports=["top", "bottom"],
                         output_ports=["top", "bottom"], initial_tokens=0)
    message = BufferedTransaction(payload="msg", slack=0, source=0)
    switch.receive_transaction("top", message)
    switch.receive_token("top")
    switch.receive_token("bottom")
    assert not switch.can_propagate()
    # Forwarding the message unblocks token propagation.
    switch.release_transaction(message, [("top", 0)])
    assert switch.can_propagate()
