"""The service-mix workload: a closed loop of clients against a loopback
gateway with an on-disk result cache.

One ``ServerThread(jobs=1)`` runs in this process.  Before the loop, the
catalogue is computed through the service (so the cache holds it) and every
catalogue result is compared with a direct ``api.run_experiment`` and with
its golden digest.  During the loop each client thread submits a request
and waits for its terminal event before sending the next one.  Requests
are drawn from a seeded plan: most name a catalogue spec (a cache hit);
``MISS_SHARE`` of them name a never-seen spec (a unique seed), which the
backend computes and stores.  After the loop every hit is compared with
its pre-warmed result, and a fixed sample of misses with direct runs.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from common import digest, median, percentile
from hostspeed import HostSampler
from specs import (
    CATALOGUE_NODES,
    CATALOGUE_PROTOCOLS,
    CATALOGUE_SCALE,
    CATALOGUE_WORKLOADS,
    MISS_SAMPLE,
    MISS_SHARE,
    REQUESTS_PER_CLIENT_PER_S,
    SERVICE_CHUNKS,
    SERVICE_CLIENTS,
)


def catalogue() -> List[Any]:
    from repro.api import ExperimentSpec

    return [
        ExperimentSpec.make(
            workload,
            protocol=protocol,
            scale=CATALOGUE_SCALE,
            num_nodes=CATALOGUE_NODES,
        )
        for workload in CATALOGUE_WORKLOADS
        for protocol in CATALOGUE_PROTOCOLS
    ]


def requests_per_client(seconds: float) -> int:
    """The loop's fixed request count per client for a ``--seconds`` budget.

    Fixed work, not a fixed duration: a faster service finishes sooner,
    and both sides of a comparison serve (and retain) the same jobs.
    """
    return max(1, round(seconds * REQUESTS_PER_CLIENT_PER_S))


def request_plan(
    specs: Sequence[Any], seed: int, client: int, phase: int
) -> Iterator[Tuple[str, Any]]:
    """The endless, seeded request sequence of one client in one phase.

    Miss specs carry a ``SystemConfig.seed`` no other request of the run
    uses (and never the catalogue's), so each one computes.
    """
    rng = random.Random(f"service-mix/{seed}/{client}/{phase}")
    for index in itertools.count():
        spec = rng.choice(specs)
        if rng.random() < MISS_SHARE:
            miss_seed = 1_000_000 * (seed + 1) + 200_000 * phase
            miss_seed += 100_000 * client + index
            yield "miss", spec.with_overrides(seed=miss_seed)
        else:
            yield "hit", spec


@dataclass
class Request:
    kind: str
    spec: Any
    submit_s: float
    stream_s: float
    result: Any

    @property
    def total_ms(self) -> float:
        return (self.submit_s + self.stream_s) * 1000.0


class ClientLoop(threading.Thread):
    """One closed-loop client: submit, wait for the terminal event, repeat."""

    def __init__(
        self,
        base_url: str,
        client: int,
        plan: Iterator[Tuple[str, Any]],
        count: int,
    ) -> None:
        super().__init__(name=f"service-mix-client-{client}", daemon=True)
        self.base_url = base_url
        self.client = client
        self.plan = plan
        self.count = count
        self.requests: List[Request] = []
        self.errors: List[str] = []

    def run(self) -> None:
        from repro.client import ServiceClient, ServiceClientError
        from repro.service.manager import JobCancelledError

        client = ServiceClient(self.base_url, client_id=f"client-{self.client}")
        for kind, spec in itertools.islice(self.plan, self.count):
            start = time.perf_counter()
            try:
                accepted = client.submit(spec)
                submitted = time.perf_counter()
                result = client.wait(accepted.job_id)
            except (ServiceClientError, JobCancelledError, OSError) as error:
                # A refusal (429) or a failed job counts against error_rate.
                self.errors.append(f"{kind} {spec.label}: {error!r}")
                continue
            done = time.perf_counter()
            self.requests.append(
                Request(kind, spec, submitted - start, done - submitted, result)
            )


def closed_loop(loops: Sequence[ClientLoop]) -> float:
    """Run the client threads to completion; returns the loop's wall time."""
    start = time.perf_counter()
    for loop in loops:
        loop.start()
    for loop in loops:
        loop.join()
    return time.perf_counter() - start


class Tracer:
    """Timing spans around service entry points (installed in traced runs).

    Each span records name, start, end, its own id and the id of the span
    that was open when it began (a context variable, so asyncio tasks and
    threads each keep their own parent chain).
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, Optional[int]]] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _open(self):
        with self._lock:
            span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        return span_id, parent, token, time.perf_counter()

    def _close(self, name: str, opened) -> None:
        end = time.perf_counter()
        span_id, parent, token, start = opened
        self._current.reset(token)
        with self._lock:
            self.spans.append((name, start, end, span_id, parent))

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = getattr(owner, attribute)
        tracer = self
        if asyncio.iscoroutinefunction(original):

            async def traced(*args, **kwargs):
                opened = tracer._open()
                try:
                    return await original(*args, **kwargs)
                finally:
                    tracer._close(name, opened)

        else:

            def traced(*args, **kwargs):
                opened = tracer._open()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._close(name, opened)

        setattr(owner, attribute, traced)

    def p50_ms(self, name: str) -> float:
        durations = [
            end - start for span, start, end, _, _ in self.spans if span == name
        ]
        return median(durations) * 1000.0 if durations else 0.0

    def self_time_s(self) -> Dict[str, float]:
        """Per span name: summed duration minus the time of child spans."""
        child_time: Dict[int, float] = {}
        for _name, start, end, _id, parent in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: Dict[str, float] = {}
        for name, start, end, span_id, _parent in self.spans:
            own = (end - start) - child_time.get(span_id, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals


class ServiceMix:
    """One run of the service mix: server, pre-warm, loop(s), checks."""

    def __init__(self, seed: int, work_dir: Path, golden: Dict[str, str]) -> None:
        from repro.service.cache import ResultCache
        from repro.service.server import ServerThread

        self.seed = seed
        self.golden = golden
        self.catalogue = catalogue()
        self.attempted = 0
        self.failures: List[str] = []
        self.prewarmed: Dict[Any, Any] = {}
        self.cache = ResultCache(work_dir / "cache")
        self.server = ServerThread(jobs=1, cache=self.cache).start()

    def close(self) -> None:
        self.server.stop()

    # ----------------------------------------------------------- pre-warm
    def prewarm(self) -> None:
        from repro import api
        from repro.client import ServiceClient

        client = ServiceClient(self.server.base_url, client_id="prewarm")
        for spec in self.catalogue:
            self.attempted += 1
            served = client.run(spec)
            direct = api.run_experiment(spec=spec)
            if served != direct:
                self.failures.append(
                    f"pre-warm {spec.label}: differs from a direct run"
                )
            elif self.golden.get(spec.label) != digest(served):
                self.failures.append(f"pre-warm {spec.label}: differs from the golden")
            self.prewarmed[spec] = served

    # --------------------------------------------------------------- loop
    def plans(self, phase: int) -> List[Iterator[Tuple[str, Any]]]:
        return [
            request_plan(self.catalogue, self.seed, client, phase)
            for client in range(SERVICE_CLIENTS)
        ]

    def loop(
        self, plans: Sequence[Iterator[Tuple[str, Any]]], count: int
    ) -> Tuple[float, List[ClientLoop]]:
        """The next ``count`` requests of each client's plan; returns
        (wall seconds, clients).  Check the clients with ``_check`` after."""
        loops = [
            ClientLoop(self.server.base_url, client, plan, count)
            for client, plan in enumerate(plans)
        ]
        return closed_loop(loops), loops

    def _check(self, loops: Sequence[ClientLoop]) -> None:
        from repro import api

        misses = []
        for loop in loops:
            self.attempted += len(loop.requests) + len(loop.errors)
            self.failures.extend(loop.errors)
            for request in loop.requests:
                if request.kind == "hit":
                    if request.result != self.prewarmed[request.spec]:
                        self.failures.append(
                            f"hit {request.spec.label}: differs from its pre-warm"
                        )
                else:
                    misses.append(request)
                    expected = (request.spec.workload, request.spec.protocol)
                    if (request.result.workload, request.result.protocol) != expected:
                        self.failures.append(f"miss {request.spec.label}: wrong run")
        for request in misses[:MISS_SAMPLE]:
            if request.result != api.run_experiment(spec=request.spec):
                self.failures.append(
                    f"miss {request.spec.label}: differs from a direct run"
                )

    # ------------------------------------------------------------ metrics
    def end_to_end(self, seconds: float) -> Dict[str, Any]:
        """The timed closed loop (no spans installed), in ``SERVICE_CHUNKS``
        consecutive chunks, each with its own host-speed sampler.

        ``req_per_s`` is the median over chunks of the chunk's rate (net of
        samples) times its speed factor; latencies are divided by their
        chunk's factor (see ``hostspeed``).  The ``wall_`` figures are raw.
        """
        self.prewarm()
        plans = self.plans(phase=0)
        total = requests_per_client(seconds)
        counts = [
            total * (i + 1) // SERVICE_CHUNKS - total * i // SERVICE_CHUNKS
            for i in range(SERVICE_CHUNKS)
        ]
        chunks = []
        for count in counts:
            with HostSampler() as sampler:
                wall, loops = self.loop(plans, count)
            chunks.append((wall - sampler.spent_s, sampler.factor, loops))
        self._check([loop for _wall, _factor, loops in chunks for loop in loops])
        rates, hits, misses, wall_hits = [], [], [], []
        for wall, factor, loops in chunks:
            requests = [request for loop in loops for request in loop.requests]
            rates.append(len(requests) / wall * factor)
            hits += [r.total_ms / factor for r in requests if r.kind == "hit"]
            misses += [r.total_ms / factor for r in requests if r.kind == "miss"]
            wall_hits += [r.total_ms for r in requests if r.kind == "hit"]
        if not hits or not misses:
            raise RuntimeError(
                f"the loop completed {len(hits)} hits and {len(misses)} misses; "
                "it needs both"
            )
        loop_s = sum(wall for wall, _factor, _loops in chunks)
        return {
            "req_per_s": median(rates),
            "hit_p50_ms": median(hits),
            "hit_p99_ms": percentile(hits, 99),
            "miss_p50_ms": median(misses),
            "wall_req_per_s": (len(hits) + len(misses)) / loop_s,
            "wall_hit_p50_ms": median(wall_hits),
            "host_factor": median([factor for _wall, factor, _loops in chunks]),
            "hits": len(hits),
            "misses": len(misses),
            "loop_s": loop_s,
        }

    def traced(self, seconds: float) -> Dict[str, Any]:
        """An untraced loop, then the same request counts with spans on."""
        from repro.client import ServiceClient

        self.prewarm()
        count = requests_per_client(seconds / 2)
        untraced_s, plain = self.loop(self.plans(phase=1), count)
        tracer = Tracer()
        manager = self.server.manager

        def install() -> None:
            tracer.wrap(manager, "submit_async", "manager.submit")
            tracer.wrap(manager.backend, "run", "manager.compute")
            tracer.wrap(self.cache, "get", "cache.get")
            tracer.wrap(self.cache, "put", "cache.put")

        self.server.call(install)
        traced_s, traced = self.loop(self.plans(phase=2), count)
        self._check(plain + traced)
        snapshot = ServiceClient(self.server.base_url).metrics()
        retained = self.server.call(lambda: len(manager.jobs))
        replicas = snapshot["replicas"]
        served = replicas["replicas_from_cache"] + replicas["replicas_computed"]
        requests = [request for loop in plain for request in loop.requests]
        per_layer = {
            "server.submit_ms": median([r.submit_s for r in requests]) * 1000.0,
            "server.stream_ms": median([r.stream_s for r in requests]) * 1000.0,
            "manager.submit_ms": tracer.p50_ms("manager.submit"),
            "manager.compute_ms": tracer.p50_ms("manager.compute"),
            "manager.queue_peak": snapshot["queue"]["peak_queue_depth"],
            "manager.rejected": snapshot["jobs"]["jobs_rejected"],
            "manager.jobs_retained": retained,
            "cache.hit_ratio": replicas["replicas_from_cache"] / served,
            "cache.get_ms": tracer.p50_ms("cache.get"),
            "cache.put_ms": tracer.p50_ms("cache.put"),
            "trace.overhead": traced_s / untraced_s,
        }
        return {"per_layer": per_layer, "span_self_time_s": tracer.self_time_s()}
