"""Unit tests for the slack-adjustment rules."""

import pytest
from hypothesis import given, strategies as st

from repro.core.logical_time import SlackRules


class TestSlackRules:
    def test_rule1_entering_switch(self):
        assert SlackRules.on_enter_switch(1, 0) == 1
        assert SlackRules.on_enter_switch(1, 2) == 3

    def test_rule2_token_passes(self):
        assert SlackRules.on_token_passes(2) == 1

    def test_rule2_zero_slack_blocks_token(self):
        """The S >= 0 invariant prohibits tokens passing zero-slack
        transactions."""
        with pytest.raises(ValueError):
            SlackRules.on_token_passes(0)

    def test_rule3_branch_delta(self):
        assert SlackRules.on_branch(1, 0) == 1
        assert SlackRules.on_branch(1, 2) == 3

    @given(st.integers(min_value=0, max_value=50),
           st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=5))
    def test_rules_never_produce_negative_slack(self, slack, tokens, delta):
        after_enter = SlackRules.on_enter_switch(slack, tokens)
        after_branch = SlackRules.on_branch(after_enter, delta)
        assert after_branch >= 0
        if after_branch > 0:
            assert SlackRules.on_token_passes(after_branch) >= 0
