"""The simulation runner: warm-up, measurement, perturbed replicas.

Methodology follows Section 4.3:

* every workload is run for a warm-up phase and then measured;
* the identical reference streams are replayed for every protocol, network
  and perturbed replica;
* redundant simulations are perturbed by injecting small random delays into
  message responses, and the *minimum* runtime across the replica set is
  reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.sim.kernel import SimulationError
from repro.sim.randomness import PerturbationModel
from repro.system.builder import BuiltSystem, SystemBuilder
from repro.system.config import SystemConfig
from repro.system.results import RunResult
from repro.workloads.generator import Reference
from repro.workloads.profiles import WorkloadProfile, get_profile


@dataclass
class _PhaseBookkeeping:
    """Per-run bookkeeping for the warm-up / measurement boundary."""

    measure_start_ns: int = 0
    instructions_at_boundary: Dict[int, int] = field(default_factory=dict)
    references_at_boundary: Dict[int, int] = field(default_factory=dict)


class SimulationRunner:
    """Runs one workload on one configuration and produces a RunResult."""

    #: Event budget per run; generous, purely a runaway guard.
    MAX_EVENTS = 80_000_000

    def __init__(
        self, config: SystemConfig, profile: Union[str, WorkloadProfile]
    ) -> None:
        self.config = config
        self.profile = get_profile(profile) if isinstance(profile, str) else profile

    # ------------------------------------------------------------------ run
    def run(
        self,
        streams: Optional[Sequence[Sequence[Reference]]] = None,
        *,
        jobs: Optional[int] = 1,
    ) -> RunResult:
        """Run all perturbation replicas and return the minimum-runtime one.

        ``jobs`` controls replica-level parallelism (1 = serial, 0 = one
        worker per CPU).  Parallel runs are bit-identical to serial ones --
        see :mod:`repro.parallel`.
        """
        from repro.parallel.executor import run_replica_jobs
        from repro.parallel.sweep import expand_entry, select_minimum_replica

        specs = expand_entry(self.config, self.profile, streams=streams)
        return select_minimum_replica(run_replica_jobs(specs, jobs=jobs))

    # ------------------------------------------------------------- one run
    def run_replica(
        self,
        streams: Sequence[Sequence[Reference]],
        perturbation: PerturbationModel,
    ) -> RunResult:
        """Run exactly one perturbation replica (every replica job runs here)."""
        profile = self.profile
        config = self.config
        phase = _PhaseBookkeeping()
        waiting: List = []

        def on_phase_barrier(processor) -> None:
            waiting.append(processor)

        builder = SystemBuilder(config)
        boundary = min(
            profile.warmup_references_per_node,
            max(0, profile.references_per_node - 1),
        )
        system = builder.build(
            streams,
            perturbation=perturbation,
            phase_boundary=boundary or None,
            on_phase_barrier=on_phase_barrier,
        )

        for processor in system.processors:
            processor.start()

        sim = system.sim
        measurement_started = boundary == 0
        while not system.all_finished():
            processed = sim.run(max_events=500_000)
            if not measurement_started and len(waiting) == len(system.processors):
                # Every processor reached the warm-up boundary: reset the
                # statistics and release them into the measured phase.
                measurement_started = True
                phase.measure_start_ns = sim.now
                for processor in system.processors:
                    phase.instructions_at_boundary[processor.node] = (
                        processor.instructions_executed
                    )
                    phase.references_at_boundary[processor.node] = (
                        processor.references_issued
                    )
                system.reset_measurement_state()
                for processor in system.processors:
                    processor.resume()
                continue
            if processed == 0 and not system.all_finished():
                self._report_deadlock(system)
            if sim.events_processed > self.MAX_EVENTS:
                raise SimulationError(
                    f"{config.label}: exceeded event budget "
                    f"({self.MAX_EVENTS}) -- runaway simulation"
                )

        if not measurement_started:
            phase.measure_start_ns = 0

        # Let in-flight writebacks and acknowledgements drain so traffic
        # accounting is complete (bounded; the detailed token network never
        # quiesces, so cap the drain).
        sim.run(max_events=200_000, until=sim.now + 10_000)

        return self._collect(system, phase)

    # ------------------------------------------------------------- results
    def _collect(self, system: BuiltSystem, phase: _PhaseBookkeeping) -> RunResult:
        runtime = system.finish_time() - phase.measure_start_ns
        instructions = sum(
            processor.instructions_executed
            - phase.instructions_at_boundary.get(processor.node, 0)
            for processor in system.processors
        )
        references = sum(
            processor.references_issued
            - phase.references_at_boundary.get(processor.node, 0)
            for processor in system.processors
        )

        misses = 0
        c2c = 0
        writebacks = 0
        nacks = 0
        retries = 0
        latency_total = 0
        for controller in system.controllers:
            misses += controller.misses
            c2c += controller.cache_to_cache_misses
            writebacks += controller.dirty_evictions
            nacks += controller.nacks_received
            retries += controller.retries_sent
            latency_total += controller.miss_latency_total_ns

        data_touched = self._data_touched_mb(system)
        accountant = system.accountant
        return RunResult(
            workload=self.profile.name,
            protocol=self.config.protocol,
            network=self.config.network,
            runtime_ns=runtime,
            instructions=instructions,
            references=references,
            misses=misses,
            cache_to_cache_misses=c2c,
            writebacks=writebacks,
            nacks=nacks,
            retries=retries,
            data_touched_mb=data_touched,
            per_link_bytes=accountant.per_link_bytes(),
            traffic_bytes_by_category=dict(accountant.bytes_by_category),
            average_miss_latency_ns=(latency_total / misses) if misses else 0.0,
            sim_events=system.sim.events_processed,
        )

    def _data_touched_mb(self, system: BuiltSystem) -> float:
        blocks = set()
        for controller in system.controllers:
            blocks.update(controller.cache.resident_blocks())
            for record in controller.miss_records:
                blocks.add(record.block)
        return len(blocks) * self.config.block_size_bytes / (1024 * 1024)

    def _report_deadlock(self, system: BuiltSystem) -> None:
        stuck = [
            processor.node
            for processor in system.processors
            if not processor.finished and not processor.waiting_at_phase_barrier
        ]
        details = []
        for controller in system.controllers:
            for block in controller.mshrs.blocks_in_flight():
                entry = controller.mshrs.get(block)
                details.append(
                    f"node {controller.node} block {block} "
                    f"kind {entry.kind} ordered={entry.ordered} "
                    f"data={entry.data_received}"
                )
        raise SimulationError(
            f"{self.config.label}: simulation deadlocked; processors stuck: "
            f"{stuck}; outstanding transactions: {details[:12]}"
        )
