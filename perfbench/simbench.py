"""The simulator workloads: timed repetitions and the traced repetition.

Every repetition is one ``SimulationRunner.run`` over the same reference
streams.  Repetition 0 runs untimed: it gives the reference result, and a
fresh process can run its first repetition slower (imports finishing,
allocator warm-up).  Every repetition must return a ``RunResult`` equal to
repetition 0's, and repetition 0 must match the recorded golden digest
when the seed has one.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import pstats
import time
from typing import Any, Dict, List, Optional

import layers
from common import PACKAGE, digest, median, sim_spec
from hostspeed import HostSampler

#: Timed repetitions per run, at least, however long they take.
MIN_REPETITIONS = 3


class SimRun:
    """One simulator workload under one seed, built once, run many times."""

    def __init__(self, name: str, seed: int, golden: Optional[str]) -> None:
        from repro.system.builder import build_streams
        from repro.system.simulation import SimulationRunner

        spec = sim_spec(name, seed)
        config = spec.config()
        profile = spec.profile()
        self.references = profile.references_per_node * config.num_nodes
        self.streams = build_streams(profile, config)
        self.runner = SimulationRunner(config, profile)
        self.attempted = 0
        self.failures: List[str] = []
        self.reference = None
        self.reference, self.warmup_s = self._run_checked("warm-up")
        if self.reference is None:
            raise RuntimeError(f"{name} seed {seed}: {self.failures[-1]}")
        if golden is not None and digest(self.reference) != golden:
            self.failures.append(
                f"{name} seed {seed}: RunResult digest differs from the golden"
            )

    def _run_checked(
        self,
        label: str,
        profiler: Optional[cProfile.Profile] = None,
        sampler: Optional[HostSampler] = None,
    ):
        """One repetition; returns (result, wall seconds) and checks the result.

        With a ``sampler``, it samples host speed during the repetition and
        the seconds are net of its samples.
        """
        gc.collect()
        self.attempted += 1
        start = time.perf_counter()
        try:
            with sampler or contextlib.nullcontext():
                if profiler is None:
                    result = self.runner.run(self.streams)
                else:
                    result = profiler.runcall(self.runner.run, self.streams)
        except Exception as error:  # a failed run counts, the benchmark goes on
            self.failures.append(f"{label}: {error!r}")
            return None, time.perf_counter() - start
        elapsed = time.perf_counter() - start - (sampler.spent_s if sampler else 0.0)
        if self.reference is not None and result != self.reference:
            self.failures.append(f"{label}: RunResult differs from repetition 0")
        return result, elapsed

    def timed(self, seconds: float) -> Dict[str, Any]:
        """Repeat until ``seconds`` have passed (and at least a few times).

        Each repetition's net time is divided by the host's speed factor
        while it ran (see ``hostspeed``).
        """
        walls, factors = [], []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_REPETITIONS or time.perf_counter() < deadline:
            sampler = HostSampler()
            _result, elapsed = self._run_checked(
                f"repetition {len(walls) + 1}", sampler=sampler
            )
            walls.append(elapsed)
            factors.append(sampler.factor)
        run_s = median([wall / factor for wall, factor in zip(walls, factors)])
        wall_s = median(walls)
        return {
            "refs_per_s": self.references / run_s,
            "run_p50_ms": run_s * 1000.0,
            "wall_refs_per_s": self.references / wall_s,
            "wall_run_p50_ms": wall_s * 1000.0,
            "host_factor": median(factors),
            "repetitions": len(walls),
            "run_walls_s": walls,
            "host_factors": factors,
        }

    def traced(self) -> Dict[str, Any]:
        """One untraced repetition, then the same repetition under cProfile."""
        _plain, untraced_s = self._run_checked("untraced repetition")
        profiler = cProfile.Profile()
        _traced, traced_s = self._run_checked("traced repetition", profiler)
        mapping = layers.check_layer_map(PACKAGE)
        self_time, calls = layers.aggregate_profile(pstats.Stats(profiler), mapping)
        share = layers.shares(self_time)
        result = self.reference
        ordered = calls.get(("core/analytical_ordering.py", "_deliver_ordered"), 0)
        handled = calls.get(("protocols/ts_snoop.py", "_on_ordered"), 0)
        metrics: Dict[str, Any] = {
            f"{layer}.self_share": share[layer] for layer in layers.SIM_LAYERS
        }
        metrics.update(
            {
                "sim.ns_per_event": untraced_s * 1e9 / result.sim_events,
                "sim.events": result.sim_events,
                "protocols.misses": result.misses,
                "protocols.c2c_frac": result.cache_to_cache_fraction,
                "protocols.nacks": result.nacks,
                "protocols.retries": result.retries,
                "core.ordered_txns": ordered,
                "core.fanout_per_txn": handled / ordered if ordered else 0.0,
                "network.data_msgs": calls.get(("network/data_network.py", "send"), 0),
                "network.link_bytes": result.per_link_bytes,
                "trace.overhead": traced_s / untraced_s,
            }
        )
        return {"per_layer": metrics, "self_time_s": self_time}
