"""Command-line front-end of the simulation service.

::

    python -m repro.service oltp,protocol=diropt,scale=0.2 dss,priority=1
    python -m repro.service oltp,protocol=mesi-dir,consistency=tso
    python -m repro.service --jobs 4 --cache-dir .repro-cache oltp dss
    python -m repro.service --listen 127.0.0.1:8642 --client-weight nightly=2

Each positional argument is one experiment request: a workload name
followed by comma-separated ``key=value`` settings.  ``protocol``,
``network``, ``scale`` and ``priority`` are recognised directly; any
other key becomes a :class:`~repro.system.config.SystemConfig` override
(``slack=2``, ``perturbation_replicas=3``, ...) applied through
:meth:`~repro.api.spec.ExperimentSpec.with_overrides`, so the CLI
surfaces the exact same validation errors as the Python API.  Requests
are validated eagerly, streamed as they progress, and deduplicated
through the shared result cache.

``--listen HOST:PORT`` serves the HTTP gateway
(:mod:`repro.service.server`) instead of running one-shot requests;
``--client-weight CLIENT=N`` gives named clients weighted shares of the
deficit-round-robin scheduler and ``--cache-budget BYTES`` bounds the
on-disk result store (LRU eviction).

A value the service would reject (a negative ``--jobs``, a non-positive
client weight or cache budget, a budget without ``--cache-dir``) is a
usage error: the CLI exits 2 with the constructor's message.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.spec import ExperimentSpec, ExperimentSpecError
from repro.service.cache import ResultCache
from repro.service.events import JobEvent, describe
from repro.service.journal import JobJournal
from repro.service.manager import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_MAX_PENDING_COST,
    AdmissionError,
    JobManager,
)
from repro.service.metrics import validate_metrics_snapshot
from repro.service.server import GatewayServer

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
        help="write the schema-v4 service metrics snapshot to PATH",
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
        help="default reference-stream scale for requests without an inline scale=",
    )
    parser.add_argument(
        "--listen",
        metavar="HOST:PORT",
        default=None,
        help="serve the HTTP gateway on HOST:PORT (port 0 picks "
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
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    requests: List[Tuple[ExperimentSpec, int]] = []
    try:
        if args.listen is not None:
            if args.requests:
                parser.error("--listen takes no REQUEST arguments")
            _parse_listen(args.listen)
        elif not args.requests:
            parser.error("no REQUEST given (or use --listen)")
        else:
            requests = [parse_request(text, args.scale) for text in args.requests]
        manager = _make_manager(args)
    except (ExperimentSpecError, ValueError) as error:
        parser.error(str(error))
    if args.listen is None:
        return asyncio.run(_serve(manager, requests, args))
    try:
        return asyncio.run(_listen(manager, args))
    except KeyboardInterrupt:
        return 0


def _parse_weights(entries: Sequence[str]) -> Dict[str, int]:
    """``CLIENT=WEIGHT`` flags into a weights map (positive ints only)."""
    weights: Dict[str, int] = {}
    for entry in entries:
        name, sep, value = entry.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"--client-weight wants CLIENT=WEIGHT, got {entry!r}")
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
    """The manager the flags describe; a rejected value raises ValueError."""
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
    weights = _parse_weights(args.client_weight)
    journal = None
    if args.journal_dir:
        journal = JobJournal(Path(args.journal_dir) / "journal.jsonl")
    try:
        return JobManager(
            jobs=args.jobs,
            cache=cache,
            max_pending_cost=budget,
            journal=journal,
            max_attempts=args.max_attempts,
            replica_timeout=args.replica_timeout,
            client_weights=weights,
        )
    except ValueError:
        if journal is not None:
            journal.close()
        raise


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
    manager: JobManager,
    requests: Sequence[Tuple[ExperimentSpec, int]],
    args: argparse.Namespace,
) -> int:
    failures = 0
    async with manager:
        handles = manager.recover()
        for handle in handles:
            print(f"recovered {handle.job_id} {handle.spec.label} from the journal")
        for spec, priority in requests:
            try:
                handles.append(await manager.submit_async(spec, priority=priority))
            except AdmissionError as error:
                failures += 1
                print(f"rejected {spec.label}: {error}")
        pumps = [asyncio.create_task(_pump(handle, args.quiet)) for handle in handles]
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


async def _listen(manager: JobManager, args: argparse.Namespace) -> int:
    """``--listen``: serve the HTTP gateway until interrupted."""
    host, port = _parse_listen(args.listen)
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
