"""High-level convenience API.

Most users only need two calls::

    from repro import api

    # One run.
    result = api.run_experiment(workload="oltp", protocol="ts-snoop",
                                network="butterfly", scale=0.5)

    # The Figure 3 / Figure 4 comparison for one workload and network.
    comparison = api.compare_protocols(workload="oltp", network="torus")
    print(comparison.normalized_runtime("dirclassic"))

The documented request object is :class:`~repro.api.spec.ExperimentSpec`:
a frozen, eagerly-validated value naming the workload, protocol, network,
scale and any ``SystemConfig`` overrides.  The keyword-style wrappers below
(:func:`run_experiment`, :func:`compare_protocols`, :func:`sweep_workloads`)
are thin shims that build specs internally, so existing call sites keep
working unchanged; new code can construct specs directly::

    spec = api.ExperimentSpec.make("oltp", protocol="diropt", slack=2)
    result = api.run_experiment(spec=spec)

The spec is the whole experiment.  Every entry point also accepts
``jobs=`` to fan the underlying simulations out over a process pool (1 =
serial, N = N workers, 0 = one per CPU); results are bit-identical
regardless of ``jobs`` -- see :mod:`repro.parallel`.  Cached replay of
already-computed replicas lives in :class:`repro.service.manager.JobManager`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.api.spec import (
    NETWORK_NAMES,
    OVERRIDE_FIELD_NAMES,
    PROTOCOL_NAMES,
    WORKLOAD_NAMES,
    ExperimentSpec,
    ExperimentSpecError,
)
from repro.system.results import ProtocolComparison, RunResult
from repro.workloads.profiles import workload_names

#: Paper order of the protocols in Figures 3 and 4.  The comparison
#: wrappers default to the paper trio; the MESI/MOESI matrix variants in
#: :data:`PROTOCOL_NAMES` opt in via ``protocols=``.
DEFAULT_PROTOCOLS = PROTOCOL_NAMES[:3]

__all__ = [
    "DEFAULT_PROTOCOLS",
    "PROTOCOL_NAMES",
    "NETWORK_NAMES",
    "WORKLOAD_NAMES",
    "OVERRIDE_FIELD_NAMES",
    "ExperimentSpec",
    "ExperimentSpecError",
    "run_experiment",
    "compare_protocols",
    "sweep_workloads",
    "run_specs",
]


def run_specs(
    specs: Sequence[ExperimentSpec], *, jobs: Optional[int] = 1
) -> List[RunResult]:
    """Run a batch of experiment specs; one merged result per spec, in order.

    The shared execution path of every wrapper below: specs are flattened
    into one replica-job pool (all workers stay busy across spec
    boundaries) and merged with the serial selection rule, so results are
    bit-identical to one-at-a-time serial runs.
    """
    from repro.parallel.sweep import run_matrix

    entries = [(spec.config(), spec.profile()) for spec in specs]
    return run_matrix(entries, jobs=jobs)


def run_experiment(
    workload: str = "oltp",
    protocol: str = "ts-snoop",
    network: str = "butterfly",
    scale: float = 1.0,
    jobs: Optional[int] = 1,
    spec: Optional[ExperimentSpec] = None,
    **overrides: Any,
) -> RunResult:
    """Run one workload on one protocol/network and return its RunResult.

    ``scale`` multiplies the length of the reference streams (1.0 is the
    library default of a few thousand references per processor).  ``jobs``
    parallelises the perturbation replicas across worker processes.
    Additional keyword arguments override :class:`~repro.system.config.SystemConfig`
    fields, e.g. ``perturbation_replicas=3`` or ``slack=2``; they are
    validated eagerly (unknown names raise :class:`ExperimentSpecError`
    listing the valid choices).  Alternatively pass a ready-made
    ``spec=``, which wins over the loose keywords.
    """
    if spec is None:
        spec = ExperimentSpec.make(
            workload, protocol=protocol, network=network, scale=scale, **overrides
        )
    return run_specs([spec], jobs=jobs)[0]


def compare_protocols(
    workload: str = "oltp",
    network: str = "butterfly",
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    scale: float = 1.0,
    jobs: Optional[int] = 1,
    **overrides: Any,
) -> ProtocolComparison:
    """Run every protocol on the identical reference streams (Figures 3/4).

    With ``jobs > 1`` the (protocol x replica) grid runs on one shared
    process pool; the comparison is bit-identical to a serial run.
    """
    specs = [
        ExperimentSpec.make(
            workload, protocol=protocol, network=network, scale=scale, **overrides
        )
        for protocol in protocols
    ]
    results = run_specs(specs, jobs=jobs)
    comparison = ProtocolComparison(
        workload=specs[0].workload,
        network=specs[0].network,
        baseline_protocol=specs[0].protocol,
    )
    for result in results:
        comparison.add(result)
    return comparison


def sweep_workloads(
    network: str = "butterfly",
    workloads: Optional[Iterable[str]] = None,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    scale: float = 1.0,
    jobs: Optional[int] = 1,
    **overrides: Any,
) -> Dict[str, ProtocolComparison]:
    """Figure 3 / Figure 4 data: every workload on one network.

    The full (workload x protocol x replica) matrix is flattened into one
    job pool, so ``jobs=N`` keeps all N workers busy across workload
    boundaries instead of parallelising each comparison separately.
    """
    names = list(workloads or workload_names())
    if not names:
        return {}
    specs = [
        ExperimentSpec.make(
            workload, protocol=protocol, network=network, scale=scale, **overrides
        )
        for workload in names
        for protocol in protocols
    ]
    results = run_specs(specs, jobs=jobs)

    comparisons: Dict[str, ProtocolComparison] = {}
    index = 0
    for workload in names:
        comparison = ProtocolComparison(
            workload=specs[index].workload,
            network=specs[index].network,
            baseline_protocol=specs[index].protocol,
        )
        for _protocol in protocols:
            comparison.add(results[index])
            index += 1
        comparisons[workload] = comparison
    return comparisons
