"""Command-line front-end of the simulation service.

::

    python -m repro.service oltp,protocol=diropt,scale=0.2 dss,priority=1
    python -m repro.service oltp,protocol=mesi-dir,consistency=tso
    python -m repro.service --jobs 4 --cache-dir .repro-cache oltp dss
    python -m repro.service --listen 127.0.0.1:8642 --client-weight nightly=2
    python -m repro.service --self-test --metrics-out service-metrics.json
    python -m repro.service --litmus

Each positional argument is one experiment request: a workload name
followed by comma-separated ``key=value`` settings.  ``protocol``,
``network``, ``scale`` and ``priority`` are recognised directly; any
other key becomes a :class:`~repro.system.config.SystemConfig` override
(``slack=2``, ``perturbation_replicas=3``, ...) applied through
:meth:`~repro.api.spec.ExperimentSpec.with_overrides`, so the CLI
surfaces the exact same validation errors as the Python API.  Requests
are validated eagerly, streamed as they progress, and deduplicated
through the shared result cache.

``--listen HOST:PORT`` serves the HTTP/WebSocket gateway
(:mod:`repro.service.server`) instead of running one-shot requests;
``--client-weight CLIENT=N`` gives named clients weighted shares of the
deficit-round-robin scheduler and ``--cache-budget BYTES`` bounds the
on-disk result store (LRU eviction).

``--self-test`` runs a deterministic end-to-end exercise of the service
(overlapping sweeps from two clients, cache replay, event-ordering and
bit-identity checks, a kill-and-recover pass that SIGKILLs a pool worker
mid-sweep and resumes the job from the journal, and a loopback-gateway
pass that drives two weighted HTTP clients through a real socket and
asserts DRR fairness, cache eviction and wire bit-identity) and exits
non-zero on any violation; CI runs it as a smoke test and archives the
resulting metrics snapshot.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.spec import ExperimentSpec, ExperimentSpecError
from repro.client import ServiceClient
from repro.service.cache import ResultCache
from repro.service.events import (
    SOURCE_COMPUTED,
    JobAdmitted,
    JobCancelled,
    JobCompleted,
    JobEvent,
    JobProgress,
    ReplicaCompleted,
    describe,
)
from repro.service.journal import JobJournal
from repro.service.manager import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_MAX_PENDING_COST,
    AdmissionError,
    JobManager,
    WorkerPoolBackend,
)
from repro.service.metrics import validate_metrics_snapshot
from repro.service.server import GatewayServer, ServerThread

_DIRECT_KEYS = ("workload", "protocol", "network")


def _coerce(value: str) -> Any:
    """``key=value`` strings into numbers/bools where they look like one."""
    lowered = value.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            continue
    return value


def parse_request(
    text: str, default_scale: Optional[float] = None
) -> Tuple[ExperimentSpec, int]:
    """One CLI positional into ``(spec, priority)``.

    Grammar: ``workload[,key=value]...`` -- e.g.
    ``oltp,protocol=diropt,scale=0.2,priority=1,slack=2``.  A request
    without an inline ``scale=`` falls back to ``default_scale`` (the
    ``--scale`` flag) when one is given.  Config overrides are applied
    through :meth:`ExperimentSpec.with_overrides`, so a bad override
    raises the same :class:`ExperimentSpecError` the Python API would.
    """
    named: Dict[str, str] = {}
    workload: Optional[str] = None
    overrides: Dict[str, Any] = {}
    priority = 0
    for part in filter(None, (piece.strip() for piece in text.split(","))):
        if "=" not in part:
            if workload is not None:
                raise ExperimentSpecError(
                    f"request {text!r} names two workloads "
                    f"({workload!r} and {part!r})"
                )
            workload = part
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "priority":
            priority = int(value)
        elif key == "scale":
            overrides["scale"] = float(value)
        elif key in _DIRECT_KEYS:
            named[key] = value
        else:
            overrides[key] = _coerce(value)
    workload = named.pop("workload", workload)
    if workload is None:
        raise ExperimentSpecError(f"request {text!r} does not name a workload")
    scale = overrides.pop("scale", default_scale)
    if scale is not None:
        named["scale"] = scale
    spec = ExperimentSpec.make(workload, **named)
    if overrides:
        spec = spec.with_overrides(**overrides)
    return spec, priority


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run experiment requests through the simulation service.",
    )
    parser.add_argument(
        "requests",
        nargs="*",
        metavar="REQUEST",
        help="workload[,key=value]... e.g. oltp,protocol=diropt,scale=0.2",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker subprocesses (0 = one per CPU; default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist the result cache under DIR (default: memory only)",
    )
    parser.add_argument(
        "--cache-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="bound the on-disk result store to BYTES, evicting least-"
        "recently-used entries (default: unbounded; needs --cache-dir)",
    )
    parser.add_argument(
        "--memory-entries",
        type=int,
        default=512,
        metavar="N",
        help="in-memory LRU size of the result cache (default 512)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="COST",
        help="admission budget in cost units (0 disables admission control)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the schema-v2 service metrics snapshot to PATH",
    )
    parser.add_argument(
        "--journal-dir",
        metavar="DIR",
        default=None,
        help="keep a crash-safe job journal under DIR; on startup, jobs the "
        "journal records as unfinished are recovered and completed first",
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=DEFAULT_MAX_ATTEMPTS,
        metavar="N",
        help="attempt budget per replica for transient failures "
        f"(default {DEFAULT_MAX_ATTEMPTS})",
    )
    parser.add_argument(
        "--replica-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt replica deadline; overruns count as transient "
        "failures and retry (default: no deadline)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="default reference-stream scale for requests without an "
        "inline scale= (and for --self-test, where it defaults to 0.05)",
    )
    parser.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help="serve the HTTP/WebSocket gateway on HOST:PORT (port 0 picks "
        "an ephemeral port) instead of running one-shot requests",
    )
    parser.add_argument(
        "--client-weight",
        action="append",
        default=[],
        metavar="CLIENT=WEIGHT",
        help="give CLIENT a weighted share of the fair scheduler "
        "(repeatable; unlisted clients get weight 1)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the event stream"
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the deterministic service exercise and exit non-zero on failure",
    )
    parser.add_argument(
        "--litmus",
        action="store_true",
        help="run the consistency litmus matrix (sb/mp/lb on every "
        "protocol under sc and tso) and exit non-zero if any model "
        "produces a forbidden outcome",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _parse_weights(args.client_weight)
    except ValueError as error:
        parser.error(str(error))
    if args.litmus:
        if args.requests:
            parser.error("--litmus takes no REQUEST arguments")
        return _litmus()
    if args.self_test:
        if args.requests:
            parser.error("--self-test takes no REQUEST arguments")
        return asyncio.run(_self_test(args))
    if args.listen is not None:
        if args.requests:
            parser.error("--listen takes no REQUEST arguments")
        try:
            _parse_listen(args.listen)
        except ValueError as error:
            parser.error(str(error))
        try:
            return asyncio.run(_listen(args))
        except KeyboardInterrupt:
            return 0
    if not args.requests:
        parser.error("no REQUEST given (or use --listen / --self-test)")
    try:
        requests = [parse_request(text, args.scale) for text in args.requests]
    except (ExperimentSpecError, ValueError) as error:
        parser.error(str(error))
    return asyncio.run(_serve(requests, args))


def _parse_weights(entries: Sequence[str]) -> Dict[str, int]:
    """``CLIENT=WEIGHT`` flags into a weights map (positive ints only)."""
    weights: Dict[str, int] = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(
                f"--client-weight wants CLIENT=WEIGHT, got {entry!r}"
            )
        try:
            weights[name] = int(value)
        except ValueError:
            raise ValueError(
                f"--client-weight {entry!r}: weight must be an integer"
            ) from None
    return weights


def _parse_listen(text: str) -> Tuple[str, int]:
    """``HOST:PORT`` into its parts (port 0 means ephemeral)."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"--listen wants HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"--listen {text!r}: port must be an integer") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"--listen {text!r}: port out of range")
    return host, port


def _make_manager(args: argparse.Namespace) -> JobManager:
    cache = ResultCache(
        args.cache_dir,
        memory_entries=args.memory_entries,
        disk_budget_bytes=args.cache_budget,
    )
    budget: Optional[int]
    if args.budget is None:
        budget = DEFAULT_MAX_PENDING_COST
    elif args.budget <= 0:
        budget = None
    else:
        budget = args.budget
    journal = None
    if args.journal_dir:
        journal = JobJournal(Path(args.journal_dir) / "journal.jsonl")
    return JobManager(
        jobs=args.jobs,
        cache=cache,
        max_pending_cost=budget,
        journal=journal,
        max_attempts=args.max_attempts,
        replica_timeout=args.replica_timeout,
        client_weights=_parse_weights(args.client_weight),
    )


async def _pump(handle: Any, quiet: bool) -> List[JobEvent]:
    events = []
    async for event in handle.events():
        events.append(event)
        if not quiet:
            print(describe(event))
    return events


def _finish_metrics(manager: JobManager, args: argparse.Namespace) -> None:
    snapshot = manager.snapshot()
    validate_metrics_snapshot(snapshot)
    if args.metrics_out:
        path = Path(args.metrics_out)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"wrote metrics snapshot to {path}")
    replicas = snapshot["replicas"]
    print(
        "service: computed={computed} cached={cached} deduped={deduped} "
        "peak_queue={peak}".format(
            computed=replicas["replicas_computed"],
            cached=replicas["replicas_from_cache"],
            deduped=replicas["replicas_deduped"],
            peak=snapshot["queue"]["peak_queue_depth"],
        )
    )


async def _serve(
    requests: Sequence[Tuple[ExperimentSpec, int]], args: argparse.Namespace
) -> int:
    manager = _make_manager(args)
    failures = 0
    async with manager:
        handles = manager.recover()
        for handle in handles:
            print(f"recovered {handle.job_id} {handle.spec.label} from the journal")
        for spec, priority in requests:
            try:
                handles.append(manager.submit(spec, priority=priority))
            except AdmissionError as error:
                failures += 1
                print(f"rejected {spec.label}: {error}")
        pumps = [
            asyncio.create_task(_pump(handle, args.quiet)) for handle in handles
        ]
        await manager.drain()
        if pumps:
            await asyncio.gather(*pumps)
        for handle in handles:
            try:
                result = await handle.result()
            except Exception as error:
                failures += 1
                print(f"{handle.job_id} {handle.spec.label}: {error}")
                continue
            print(f"{handle.job_id} {handle.spec.label}: {result.summary()}")
    if manager.journal is not None:
        manager.journal.close()
    _finish_metrics(manager, args)
    return 1 if failures else 0


async def _listen(args: argparse.Namespace) -> int:
    """``--listen``: serve the HTTP/WebSocket gateway until interrupted."""
    host, port = _parse_listen(args.listen)
    manager = _make_manager(args)
    async with manager:
        gateway = GatewayServer(manager, host=host, port=port)
        await gateway.start()
        for handle in manager.recover():
            print(f"recovered {handle.job_id} {handle.spec.label} from the journal")
        print(f"serving on http://{host}:{gateway.port}", flush=True)
        try:
            await asyncio.Event().wait()
        finally:
            await gateway.aclose()
            if manager.journal is not None:
                manager.journal.close()
    return 0


def _litmus() -> int:
    """``--litmus``: the consistency matrix as a pass/fail CLI check."""
    from repro.processor.litmus import litmus_matrix
    from repro.protocols import PROTOCOLS

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
    print(
        f"[litmus] {len(results)} cells, {violations} violations",
        flush=True,
    )
    return 1 if violations else 0


# -------------------------------------------------------------- self-test
def _check(condition: bool, message: str, problems: List[str]) -> None:
    if not condition:
        problems.append(message)


def _check_stream(events: List[JobEvent], problems: List[str]) -> None:
    """Assert the ordering contract of :mod:`repro.service.events`.

    Informational events (retries, quarantines, degradation notices) may
    interleave anywhere mid-stream, so they are filtered out before the
    replica/progress pair structure is checked.
    """
    label = events[0].job_id if events else "<empty>"
    if events:
        _check(
            not events[0].informational and not events[-1].informational,
            f"{label}: stream starts or ends with an informational event",
            problems,
        )
    events = [event for event in events if not event.informational]
    if len(events) == 1 and isinstance(events[0], JobCancelled):
        return  # cancelled before admission: a lone terminal is the contract
    _check(len(events) >= 2, f"{label}: stream has fewer than two events", problems)
    if not events:
        return
    _check(
        isinstance(events[0], JobAdmitted),
        f"{label}: stream does not start with JobAdmitted",
        problems,
    )
    _check(
        events[-1].terminal and isinstance(events[-1], JobCompleted),
        f"{label}: stream does not end with JobCompleted",
        problems,
    )
    middle = events[1:-1]
    _check(
        all(not event.terminal for event in middle),
        f"{label}: terminal event in mid-stream",
        problems,
    )
    pairs = [middle[index : index + 2] for index in range(0, len(middle), 2)]
    completed = 0
    for pair in pairs:
        ok = (
            len(pair) == 2
            and isinstance(pair[0], ReplicaCompleted)
            and isinstance(pair[1], JobProgress)
        )
        _check(ok, f"{label}: replica/progress events not paired", problems)
        if ok:
            completed += 1
            _check(
                pair[1].completed == completed,
                f"{label}: progress count {pair[1].completed} != {completed}",
                problems,
            )


async def _self_test(args: argparse.Namespace) -> int:
    scale = 0.05 if args.scale is None else args.scale
    problems: List[str] = []
    specs = [
        ExperimentSpec.make("oltp", protocol=protocol, scale=scale)
        for protocol in ("ts-snoop", "diropt")
    ]
    cache = ResultCache(args.cache_dir, memory_entries=args.memory_entries)

    # Phase 1: two clients submit overlapping sweeps concurrently.
    manager = JobManager(jobs=1, cache=cache)
    async with manager:
        first = [manager.submit(spec) for spec in specs]
        second = [manager.submit(spec) for spec in specs]
        pumps = [
            asyncio.create_task(_pump(handle, args.quiet))
            for handle in first + second
        ]
        await manager.drain()
        streams = await asyncio.gather(*pumps)
        results_first = [await handle.result() for handle in first]
        results_second = [await handle.result() for handle in second]

    unique_replicas = sum(spec.config().perturbation_replicas for spec in specs)
    _check(
        manager.backend.submissions == unique_replicas,
        f"overlapping sweeps simulated {manager.backend.submissions} "
        f"replicas, expected exactly {unique_replicas}",
        problems,
    )
    _check(
        results_first == results_second,
        "duplicate submissions returned different results",
        problems,
    )
    for events in streams:
        _check_stream(events, problems)
    duplicate_sources = {
        event.source
        for events in streams[len(specs) :]
        for event in events
        if isinstance(event, ReplicaCompleted)
    }
    _check(
        SOURCE_COMPUTED not in duplicate_sources,
        "a duplicate job recomputed a replica instead of joining/replaying",
        problems,
    )

    # Phase 2: a fresh manager replays the sweep purely from the cache.
    replay = JobManager(jobs=1, cache=cache)
    async with replay:
        handles = [replay.submit(spec) for spec in specs]
        drains = [asyncio.create_task(_pump(handle, True)) for handle in handles]
        await replay.drain()
        await asyncio.gather(*drains)
        replayed = [await handle.result() for handle in handles]
    _check(
        replay.backend.submissions == 0,
        f"cached replay submitted {replay.backend.submissions} replicas "
        "to the pool, expected zero simulation work",
        problems,
    )
    _check(
        replayed == results_first,
        "cached replay is not bit-identical to the fresh run",
        problems,
    )

    # Phase 3: kill a pool worker mid-sweep, tear the manager down, and
    # recover the sweep from the journal + cache frontier.
    recovery_stats = await _kill_and_recover(scale, args.quiet, problems)

    # Phase 4: drive the HTTP/WebSocket gateway over a real loopback
    # socket with two weighted clients: DRR fairness, wire bit-identity,
    # cached replay with zero pool submissions, disk-budget eviction.
    gateway_stats = _loopback_gateway(scale, problems)

    manager.metrics.extra["self_test"] = {
        "scale": scale,
        "unique_replicas": unique_replicas,
        "replay_submissions": replay.backend.submissions,
        "kill_and_recover": recovery_stats,
        "gateway": gateway_stats,
    }
    snapshot = manager.snapshot()
    try:
        validate_metrics_snapshot(snapshot)
    except Exception as error:
        problems.append(f"metrics snapshot failed validation: {error}")
    else:
        jobs = snapshot["jobs"]
        _check(
            jobs["jobs_retained"] == len(manager.jobs) and jobs["jobs_evicted"] == 0,
            f"retention counters {jobs['jobs_retained']}/{jobs['jobs_evicted']} "
            f"do not match the {len(manager.jobs)} held jobs and no evictions",
            problems,
        )
    if args.metrics_out:
        path = Path(args.metrics_out)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")

    for problem in problems:
        print(f"self-test FAILED: {problem}")
    if not problems:
        print(
            f"self-test ok: {unique_replicas} unique replicas computed once, "
            f"{len(specs)} duplicate jobs joined, cached replay bit-identical "
            "with zero pool submissions; kill-and-recover resumed "
            f"{recovery_stats['recovered_jobs']} job(s) recomputing only "
            f"{recovery_stats['recovery_submissions']}/"
            f"{recovery_stats['total_replicas']} replica(s), bit-identical; "
            "loopback gateway served 2:1 weighted clients within "
            f"{gateway_stats['max_fairness_gap']:.0f}/"
            f"{gateway_stats['quantum']} cost units of their shares, "
            f"replayed over HTTP with {gateway_stats['replay_submissions']} "
            f"pool submissions and evicted {gateway_stats['disk_evictions']} "
            "entries under the disk budget"
        )
    return 1 if problems else 0


def _loopback_gateway(scale: float, problems: List[str]) -> Dict[str, Any]:
    """The ``--self-test`` loopback-gateway pass.

    Hosts a real gateway on an ephemeral loopback port
    (:class:`~repro.service.server.ServerThread`) and drives it with two
    blocking :class:`~repro.client.ServiceClient` identities holding a
    2:1 weight split.  The scheduler is paused while both clients submit,
    so the deficit-round-robin schedule over the resulting backlog is
    deterministic; every served prefix while both lanes stay backlogged
    must keep the clients' cumulative unit-cost service within one
    quantum of their weighted shares.  Results must be bit-identical to
    direct ``api.run_experiment`` calls, a second gateway over the same
    cache directory must replay the sweep with **zero** pool submissions,
    and a third gateway with a small ``--cache-budget`` must evict
    least-recently-used disk entries while staying under the budget.
    """
    weights = {"alpha": 2, "beta": 1}
    alpha_specs = [
        ExperimentSpec.make("oltp", protocol="ts-snoop", scale=scale),
        ExperimentSpec.make("oltp", protocol="diropt", scale=scale),
        ExperimentSpec.make("oltp", protocol="dirclassic", scale=scale),
        ExperimentSpec.make("oltp", protocol="ts-snoop", scale=scale, slack=2),
    ]
    beta_specs = [
        ExperimentSpec.make("oltp", protocol="diropt", scale=scale, slack=2),
        ExperimentSpec.make("oltp", protocol="dirclassic", scale=scale, slack=2),
    ]
    all_specs = alpha_specs + beta_specs
    stats: Dict[str, Any] = {
        "weights": dict(weights),
        "jobs": len(all_specs),
        "quantum": 0,
        "serve_prefixes_checked": 0,
        "max_fairness_gap": 0.0,
        "replay_submissions": -1,
        "disk_evictions": 0,
    }
    with tempfile.TemporaryDirectory(prefix="repro-gateway-") as tmp:
        root = Path(tmp)

        # Phase A: weighted fairness and wire bit-identity.
        with (
            ServerThread(
                jobs=1,
                cache=ResultCache(root / "cache"),
                client_weights=weights,
                record_schedule=True,
            ) as server,
            ServiceClient(server.base_url, client_id="alpha") as alpha,
            ServiceClient(server.base_url, client_id="beta") as beta,
        ):
            clients = {"alpha": alpha, "beta": beta}
            server.call(server.manager.pause_scheduling)
            accepted = [
                ("alpha", spec, clients["alpha"].submit(spec))
                for spec in alpha_specs
            ] + [
                ("beta", spec, clients["beta"].submit(spec))
                for spec in beta_specs
            ]
            server.call(server.manager.resume_scheduling)
            fresh: List[Any] = []
            for name, spec, ticket in accepted:
                events = list(clients[name].stream(ticket.job_id))
                _check_stream(events, problems)
                final = events[-1] if events else None
                _check(
                    isinstance(final, JobCompleted),
                    f"gateway job {ticket.job_id} did not complete",
                    problems,
                )
                fresh.append(final.result if isinstance(final, JobCompleted) else None)
            serve_log = server.call(
                lambda: list(server.manager.scheduler.serve_log)
            )
            stats["quantum"] = server.call(
                lambda: server.manager.scheduler.quantum
            )

        backlog = {"alpha": len(alpha_specs), "beta": len(beta_specs)}
        served = {"alpha": 0, "beta": 0}
        for client_id, cost in serve_log:
            both_backlogged = backlog["alpha"] > 0 and backlog["beta"] > 0
            served[client_id] += cost
            backlog[client_id] -= 1
            if not both_backlogged:
                continue
            gap = abs(
                served["alpha"] / weights["alpha"]
                - served["beta"] / weights["beta"]
            )
            stats["serve_prefixes_checked"] += 1
            stats["max_fairness_gap"] = max(stats["max_fairness_gap"], gap)
            _check(
                gap <= stats["quantum"],
                f"gateway DRR fairness violated: per-weight service gap "
                f"{gap} exceeds the quantum {stats['quantum']} "
                f"after serving {served}",
                problems,
            )
        _check(
            stats["serve_prefixes_checked"] > 0,
            "gateway fairness pass never observed both lanes backlogged",
            problems,
        )
        for spec, result in zip(all_specs, fresh):
            _check(
                result is not None and result == spec.run(),
                f"gateway result for {spec.label} is not bit-identical to "
                "a direct api.run_experiment call",
                problems,
            )

        # Phase B: a second gateway over the same cache directory replays
        # the whole sweep over HTTP without any pool submissions.
        with (
            ServerThread(jobs=1, cache=ResultCache(root / "cache")) as replay,
            ServiceClient(replay.base_url, client_id="replay") as client,
        ):
            replayed = [client.run(spec) for spec in all_specs]
            stats["replay_submissions"] = replay.call(
                lambda: replay.manager.backend.submissions
            )
        _check(
            stats["replay_submissions"] == 0,
            f"gateway cached replay submitted {stats['replay_submissions']} "
            "replicas to the pool, expected zero simulation work",
            problems,
        )
        _check(
            replayed == fresh,
            "gateway cached replay is not bit-identical to the fresh run",
            problems,
        )

        # Phase C: a disk budget of ~2.5 entries must evict LRU entries
        # and stay under the budget while the sweep still completes.
        sizes = sorted(
            entry.stat().st_size for entry in (root / "cache").glob("??/*.json")
        )
        budget = sizes[0] + sizes[1] + sizes[2] // 2
        with (
            ServerThread(
                jobs=1,
                cache=ResultCache(root / "budgeted", disk_budget_bytes=budget),
            ) as budgeted,
            ServiceClient(budgeted.base_url, client_id="evict") as client,
        ):
            for spec in all_specs:
                client.run(spec)
            metrics = client.metrics()
        cache_stats = metrics["cache"]
        stats["disk_evictions"] = cache_stats["disk_evictions"]
        _check(
            cache_stats["disk_evictions"] > 0,
            "gateway disk-budget pass evicted nothing despite writing "
            f"{len(all_specs)} entries into a {budget}-byte budget",
            problems,
        )
        _check(
            cache_stats["disk_bytes"] <= budget,
            f"disk store holds {cache_stats['disk_bytes']} bytes, over the "
            f"{budget}-byte budget",
            problems,
        )
    return stats


async def _kill_and_recover(
    scale: float, quiet: bool, problems: List[str]
) -> Dict[str, Any]:
    """The ``--self-test`` kill-and-recover pass.

    Starts a multi-replica sweep on a one-worker pool with a disk cache
    and a journal, SIGKILLs the worker after the first replica lands,
    abandons the manager mid-sweep (no drain, no terminal record),
    appends a torn half-record to the journal, then recovers in a fresh
    service life: the torn tail must truncate cleanly, only the missing
    replicas may be recomputed, and the merged result must be bit-identical
    to an unfaulted run.
    """
    spec = ExperimentSpec.make(
        "oltp", scale=scale, perturbation_replicas=3
    )
    stats: Dict[str, Any] = {
        "recovered_jobs": 0,
        "total_replicas": spec.config().perturbation_replicas,
        "recovery_submissions": -1,
        "recovered_from_cache": 0,
        "torn_bytes_dropped": 0,
    }

    # The unfaulted reference run (memory-only cache).
    baseline_manager = JobManager(jobs=1)
    async with baseline_manager:
        baseline_handle = baseline_manager.submit(spec)
        drain = asyncio.create_task(_pump(baseline_handle, True))
        await baseline_manager.drain()
        await drain
        baseline = await baseline_handle.result()

    with tempfile.TemporaryDirectory(prefix="repro-selftest-") as tmp:
        root = Path(tmp)
        journal_path = root / "journal.jsonl"
        cache = ResultCache(root / "cache")
        journal = JobJournal(journal_path, fsync=False)
        backend = WorkerPoolBackend(max_workers=1)
        crashed = JobManager(
            jobs=1, cache=cache, backend=backend, journal=journal
        )
        await crashed.start()
        crashed.submit(spec)
        deadline = asyncio.get_running_loop().time() + 120.0
        while journal.count("replica-completed") < 1:
            if asyncio.get_running_loop().time() > deadline:
                problems.append(
                    "kill-and-recover: no replica completed within 120s"
                )
                await crashed.aclose()
                journal.close()
                return stats
            await asyncio.sleep(0.005)
        # SIGKILL the worker, then abandon the manager before it can
        # observe the crash: no retry, no terminal journal record --
        # exactly what a service process dying mid-sweep leaves behind.
        for pid in backend.worker_pids:
            os.kill(pid, signal.SIGKILL)
        await crashed.aclose()
        journal.close()
        completed_before = journal.count("replica-completed")
        with open(journal_path, "ab") as handle:
            handle.write(b'deadbeef {"type":"replica-comp')

        # A fresh service life over the same journal and cache directory.
        recovered_journal = JobJournal(journal_path, fsync=False)
        stats["torn_bytes_dropped"] = recovered_journal.torn_bytes_dropped
        _check(
            recovered_journal.torn_bytes_dropped > 0,
            "kill-and-recover: the torn journal tail was not truncated",
            problems,
        )
        recovery_cache = ResultCache(root / "cache")
        recovery = JobManager(
            jobs=1, cache=recovery_cache, journal=recovered_journal
        )
        async with recovery:
            handles = recovery.recover()
            stats["recovered_jobs"] = len(handles)
            _check(
                len(handles) == 1,
                f"kill-and-recover: expected 1 unfinished job to recover, "
                f"got {len(handles)}",
                problems,
            )
            pumps = [
                asyncio.create_task(_pump(handle, quiet)) for handle in handles
            ]
            await recovery.drain()
            streams = await asyncio.gather(*pumps)
            results = [await handle.result() for handle in handles]
        recovered_journal.close()

        for events in streams:
            _check_stream(events, problems)
        total = stats["total_replicas"]
        from_cache = recovery.metrics.replicas_from_cache
        submissions = recovery.backend.submissions
        stats["recovery_submissions"] = submissions
        stats["recovered_from_cache"] = from_cache
        _check(
            submissions + from_cache == total,
            f"kill-and-recover: {submissions} recomputed + {from_cache} "
            f"cached != {total} total replicas",
            problems,
        )
        _check(
            from_cache >= completed_before,
            f"kill-and-recover: only {from_cache} replicas came from the "
            f"cache but the journal recorded {completed_before} complete",
            problems,
        )
        _check(
            submissions < total,
            "kill-and-recover: recovery recomputed every replica instead "
            "of resuming from the cache frontier",
            problems,
        )
        _check(
            bool(results) and results[0] == baseline,
            "kill-and-recover: recovered result is not bit-identical to "
            "the unfaulted run",
            problems,
        )
    return stats
