"""Litmus goldens: the consistency matrix, pinned per protocol.

Every (pattern, protocol, model) cell's observed outcome set is exact and
deterministic (the harness sweeps a fixed delay grid on a deterministic
simulator), so the goldens pin the sets themselves -- any protocol or
store-buffer change that widens or narrows an outcome set fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.processor.litmus as litmus
from repro.processor.litmus import (
    DEFAULT_DELAYS_NS,
    PATTERNS,
    LitmusResult,
    run_litmus,
)
from repro.protocols import PROTOCOLS

ALL_PROTOCOLS = tuple(PROTOCOLS)

#: The three SC-legal SB outcomes (at least one store is globally visible
#: before the other core's load).
SB_SC_GOLDEN = frozenset({(0, 1), (1, 0), (1, 1)})
#: TSO adds the store-buffering outcome; the grid never produces (1, 1)
#: under TSO because both buffered stores always retire after the loads.
SB_TSO_GOLDEN = frozenset({(0, 0), (0, 1), (1, 0)})
#: Message passing: flag unseen, nothing seen, or both seen -- never flag
#: without data.
MP_GOLDEN = frozenset({(0, 0), (0, 1), (1, 1)})
#: Load buffering: the (1, 1) cycle needs load->store reordering, which
#: neither model performs.
LB_GOLDEN = frozenset({(0, 0), (0, 1), (1, 0)})


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestLitmusGoldens:
    def test_sb_store_buffering_forbidden_under_sc(self, protocol):
        result = run_litmus("sb", protocol, "sc")
        assert result.clean
        assert result.outcomes == SB_SC_GOLDEN

    def test_sb_store_buffering_observed_under_tso(self, protocol):
        result = run_litmus("sb", protocol, "tso")
        assert result.clean  # SB has no forbidden outcome under TSO
        assert (0, 0) in result.outcomes
        assert result.outcomes == SB_TSO_GOLDEN

    @pytest.mark.parametrize("model", ("sc", "tso"))
    def test_mp_fifo_ordering_holds(self, protocol, model):
        result = run_litmus("mp", protocol, model)
        assert result.clean
        assert (1, 0) not in result.outcomes
        assert result.outcomes == MP_GOLDEN

    @pytest.mark.parametrize("model", ("sc", "tso"))
    def test_lb_cycle_never_observed(self, protocol, model):
        result = run_litmus("lb", protocol, model)
        assert result.clean
        assert (1, 1) not in result.outcomes
        assert result.outcomes == LB_GOLDEN


class TestHarness:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown litmus pattern"):
            run_litmus("iriw", "ts-snoop", "sc")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown consistency model"):
            run_litmus("sb", "ts-snoop", "weak")

    def test_every_pattern_defines_both_models(self):
        for pattern in PATTERNS.values():
            assert set(pattern.forbidden) == {"sc", "tso"}

    def test_delay_grid_includes_the_race_and_the_settle(self):
        # 0 ns races the cores (store buffering); the largest delay lets
        # one core finish first (message passing actually passing).
        assert min(DEFAULT_DELAYS_NS) == 0
        assert max(DEFAULT_DELAYS_NS) >= 500

    def test_result_reports_forbidden_intersection(self):
        result = run_litmus("sb", "ts-snoop", "sc")
        assert result.forbidden == frozenset({(0, 0)})
        assert result.forbidden_observed == frozenset()


class TestGateEntry:
    """``python -m repro.processor.litmus``: the CI consistency gate."""

    def test_module_entry_prints_every_cell_and_passes(self):
        src = Path(litmus.__file__).parents[2]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.processor.litmus"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        cells = len(PATTERNS) * len(ALL_PROTOCOLS) * 2
        assert lines[-1] == f"[litmus] {cells} cells, 0 violations"
        assert len(lines) == cells + 1
        assert all(line.endswith(" ok") for line in lines[:-1])

    def test_forbidden_outcome_exits_1(self, monkeypatch, capsys):
        bad = LitmusResult(
            pattern="mp",
            protocol="ts-snoop",
            consistency="sc",
            outcomes=frozenset({(0, 0), (1, 0)}),
            forbidden=frozenset({(1, 0)}),
        )
        monkeypatch.setattr(
            litmus, "litmus_matrix", lambda protocols: {("mp", "ts-snoop", "sc"): bad}
        )
        assert litmus.main() == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("FORBIDDEN (1, 0)")
        assert lines[-1] == "[litmus] 1 cells, 1 violations"
