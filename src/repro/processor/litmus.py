"""Litmus-test harness for the consistency-model matrix.

Classic two-core litmus patterns run on the full simulator (real protocol,
real network, real timing) rather than on an abstract memory model.  Each
pattern hand-crafts two tiny reference streams, attaches a load observer to
the two cores' cache controllers, and records the version tokens their loads
return (0 = the initial value, 1 = the other core's store).  One simulated
run yields one outcome tuple; sweeping a grid of per-core start delays
yields the *observed outcome set* for a (pattern, protocol, consistency)
cell.

Patterns (names follow the usual litmus literature):

* ``sb`` -- store buffering.  ``P0: st x; ld y`` / ``P1: st y; ld x``.
  Outcome ``(0, 0)`` (both loads miss both stores) is forbidden under SC
  and is *the* signature of TSO's store->load reordering.
* ``mp`` -- message passing.  ``P0: st data; st flag`` / ``P1: ld flag;
  ld data``.  Outcome ``(1, 0)`` (flag set but stale data) is forbidden
  under both SC and TSO: the store buffer drains in FIFO order.
* ``lb`` -- load buffering.  ``P0: ld y; st x`` / ``P1: ld x; st y``.
  Outcome ``(1, 1)`` requires load->store reordering, which neither model
  performs (loads block in both).

The harness never interprets protocol internals: correctness falls out of
the coherence fabric delivering version tokens, so the same assertions hold
across every protocol in ``repro.protocols.PROTOCOLS``.

``python -m repro.processor.litmus`` runs the whole matrix (every pattern
on every protocol under SC and TSO), prints one line per cell and exits 1
if any cell observed a forbidden outcome.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.memory.coherence import AccessType
from repro.protocols import PROTOCOLS
from repro.sim.kernel import SimulationError
from repro.system.builder import SystemBuilder
from repro.system.config import SystemConfig
from repro.workloads.generator import Reference

#: Per-core start-delay grid (nanoseconds) swept by :func:`run_litmus`.
#: Near-zero delays race the two cores (exposing store buffering); the
#: large delays give one core time to complete before the other starts
#: (exposing the "other" outcomes, e.g. message passing actually passing).
DEFAULT_DELAYS_NS = (0, 10, 40, 150, 600)

#: Litmus systems are deliberately tiny: two active cores plus two idle
#: nodes so the tested blocks are homed away from both actors (every
#: request crosses the network).
LITMUS_NODES = 4
_BLOCK_X = 2
_BLOCK_Y = 3

_MAX_EVENTS = 2_000_000

_Observations = Dict[int, List[Tuple[int, int]]]


@dataclass(frozen=True)
class LitmusPattern:
    """One litmus shape: stream builder, outcome reader, forbidden sets."""

    name: str
    description: str
    #: Streams for cores 0 and 1 given per-core think instructions.
    streams: Callable[[int, int], Tuple[List[Reference], List[Reference]]]
    #: Reduce the per-core load observations to the outcome tuple.
    outcome: Callable[[_Observations], Tuple[int, int]]
    #: Outcomes each consistency model must never produce.
    forbidden: Mapping[str, frozenset]


@dataclass(frozen=True)
class LitmusResult:
    """The observed outcome set for one (pattern, protocol, model) cell."""

    pattern: str
    protocol: str
    consistency: str
    outcomes: frozenset
    forbidden: frozenset

    @property
    def forbidden_observed(self) -> frozenset:
        """Forbidden outcomes that actually occurred (empty = model holds)."""
        return self.outcomes & self.forbidden

    @property
    def clean(self) -> bool:
        return not self.forbidden_observed


def _observed(records: List[Tuple[int, int]], block: int) -> int:
    for observed_block, version in records:
        if observed_block == block:
            return version
    raise SimulationError(f"no load of block {block} was observed")


def _sb_streams(think0, think1):
    return (
        [
            Reference(_BLOCK_X, AccessType.STORE, think0),
            Reference(_BLOCK_Y, AccessType.LOAD),
        ],
        [
            Reference(_BLOCK_Y, AccessType.STORE, think1),
            Reference(_BLOCK_X, AccessType.LOAD),
        ],
    )


def _sb_outcome(observations):
    return (
        _observed(observations[0], _BLOCK_Y),
        _observed(observations[1], _BLOCK_X),
    )


def _mp_streams(think0, think1):
    return (
        [
            Reference(_BLOCK_X, AccessType.STORE, think0),
            Reference(_BLOCK_Y, AccessType.STORE),
        ],
        [
            Reference(_BLOCK_Y, AccessType.LOAD, think1),
            Reference(_BLOCK_X, AccessType.LOAD),
        ],
    )


def _mp_outcome(observations):
    return (
        _observed(observations[1], _BLOCK_Y),
        _observed(observations[1], _BLOCK_X),
    )


def _lb_streams(think0, think1):
    return (
        [
            Reference(_BLOCK_Y, AccessType.LOAD, think0),
            Reference(_BLOCK_X, AccessType.STORE),
        ],
        [
            Reference(_BLOCK_X, AccessType.LOAD, think1),
            Reference(_BLOCK_Y, AccessType.STORE),
        ],
    )


def _lb_outcome(observations):
    return (
        _observed(observations[0], _BLOCK_Y),
        _observed(observations[1], _BLOCK_X),
    )


PATTERNS: Dict[str, LitmusPattern] = {
    "sb": LitmusPattern(
        name="sb",
        description="store buffering: st x; ld y || st y; ld x",
        streams=_sb_streams,
        outcome=_sb_outcome,
        forbidden={"sc": frozenset({(0, 0)}), "tso": frozenset()},
    ),
    "mp": LitmusPattern(
        name="mp",
        description="message passing: st data; st flag || ld flag; ld data",
        streams=_mp_streams,
        outcome=_mp_outcome,
        forbidden={
            "sc": frozenset({(1, 0)}),
            "tso": frozenset({(1, 0)}),
        },
    ),
    "lb": LitmusPattern(
        name="lb",
        description="load buffering: ld y; st x || ld x; st y",
        streams=_lb_streams,
        outcome=_lb_outcome,
        forbidden={
            "sc": frozenset({(1, 1)}),
            "tso": frozenset({(1, 1)}),
        },
    ),
}


def _run_one(
    pattern: LitmusPattern,
    protocol: str,
    consistency: str,
    delay0_ns: int,
    delay1_ns: int,
) -> Tuple[int, int]:
    """Run one delay point and return its outcome tuple."""
    config = SystemConfig(
        num_nodes=LITMUS_NODES,
        protocol=protocol,
        consistency=consistency,
        enable_checker=True,
    )
    ipns = config.instructions_per_ns
    stream0, stream1 = pattern.streams(delay0_ns * ipns, delay1_ns * ipns)
    streams: List[List[Reference]] = [stream0, stream1]
    streams.extend([] for _ in range(2, config.num_nodes))

    system = SystemBuilder(config).build(streams)
    observations: _Observations = {0: [], 1: []}
    for core in (0, 1):
        records = observations[core]
        system.controllers[core].load_observer = (
            lambda block, version, _records=records: _records.append((block, version))
        )

    for processor in system.processors:
        processor.start()
    while not system.all_finished():
        processed = system.sim.run(max_events=_MAX_EVENTS)
        if processed == 0 and not system.all_finished():
            raise SimulationError(
                f"litmus {pattern.name}/{protocol}/{consistency} deadlocked "
                f"at delays ({delay0_ns}, {delay1_ns})"
            )
    if system.checker is not None:
        system.checker.assert_clean()
    return pattern.outcome(observations)


def run_litmus(
    pattern: str,
    protocol: str,
    consistency: str,
    *,
    delays_ns: Iterable[int] = DEFAULT_DELAYS_NS,
) -> LitmusResult:
    """Sweep the delay grid for one cell and collect the outcome set."""
    try:
        spec = PATTERNS[pattern]
    except KeyError:
        raise ValueError(
            f"unknown litmus pattern {pattern!r}; "
            f"expected one of {sorted(PATTERNS)}"
        ) from None
    try:
        forbidden = spec.forbidden[consistency]
    except KeyError:
        raise ValueError(
            f"unknown consistency model {consistency!r}; "
            f"expected one of {sorted(spec.forbidden)}"
        ) from None

    delays = tuple(delays_ns)
    outcomes = set()
    for delay0 in delays:
        for delay1 in delays:
            outcomes.add(_run_one(spec, protocol, consistency, delay0, delay1))
    return LitmusResult(
        pattern=pattern,
        protocol=protocol,
        consistency=consistency,
        outcomes=frozenset(outcomes),
        forbidden=forbidden,
    )


def litmus_matrix(
    protocols: Iterable[str],
    consistencies: Iterable[str] = ("sc", "tso"),
    patterns: Optional[Iterable[str]] = None,
    *,
    delays_ns: Iterable[int] = DEFAULT_DELAYS_NS,
) -> Dict[Tuple[str, str, str], LitmusResult]:
    """Run every (pattern, protocol, consistency) cell of the matrix."""
    names = tuple(patterns) if patterns is not None else tuple(PATTERNS)
    delays = tuple(delays_ns)
    results = {}
    for pattern in names:
        for protocol in protocols:
            for consistency in consistencies:
                results[(pattern, protocol, consistency)] = run_litmus(
                    pattern, protocol, consistency, delays_ns=delays
                )
    return results


def main() -> int:
    """The consistency matrix as a pass/fail check: exit 1 on a violation."""
    results = litmus_matrix(tuple(PROTOCOLS))
    violations = 0
    for (pattern, protocol, consistency), result in sorted(results.items()):
        outcomes = " ".join(str(o) for o in sorted(result.outcomes))
        verdict = "ok"
        if not result.clean:
            violations += 1
            verdict = (
                "FORBIDDEN "
                + " ".join(str(o) for o in sorted(result.forbidden_observed))
            )
        print(f"{pattern:3s} {protocol:12s} {consistency:3s} {outcomes:24s} {verdict}")
    print(f"[litmus] {len(results)} cells, {violations} violations", flush=True)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
