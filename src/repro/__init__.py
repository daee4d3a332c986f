"""Timestamp Snooping reproduction library.

Reproduction of Martin et al., "Timestamp Snooping: An Approach for Extending
SMPs" (ASPLOS 2000).  The package provides:

* ``repro.api`` -- the library entry points: ``ExperimentSpec``,
  ``run_experiment``, ``compare_protocols`` and ``sweep_workloads``.
* ``repro.core`` -- the paper's contribution: a logically-ordered broadcast
  address network built from token-passing switches and endpoint ordering
  queues.
* ``repro.network`` -- interconnect substrate (butterfly and torus topologies,
  links with traffic accounting, an unordered data network).
* ``repro.memory`` -- cache arrays, coherence state machinery, MSHRs.
* ``repro.protocols`` -- the paper's TS-Snoop, DirClassic and DirOpt
  coherence protocols, plus the MESIDir and MOESISnoop variants.
* ``repro.processor`` -- the blocking processor model, the SC/TSO
  consistency machinery and the litmus harness.
* ``repro.workloads`` -- synthetic commercial-workload reference generators.
* ``repro.system`` -- system configuration, builder and simulation runner.
* ``repro.parallel`` -- process-pool experiment orchestration (the ``jobs=``
  knob; parallel sweeps are bit-identical to serial ones) and the replica
  worker subprocess.
* ``repro.service`` -- the simulation service: job manager, result cache,
  journal and the HTTP gateway (``python -m repro.service``).
* ``repro.client`` -- the blocking HTTP client of that gateway.
* ``repro.lint`` -- the static analyser (``python -m repro.lint``).
* ``repro.analysis`` -- closed-form latency/traffic models and report helpers.

The simulator packages (``core``, ``network``, ``memory``, ``protocols``,
``processor``, ``workloads``, ``system`` and ``sim``) import none of their
submodules in ``__init__``: import a name from the module that defines it
(``repro.system.config.SystemConfig``).  So each process loads only the
layers it runs; the service gateway never loads the simulator its
workers run.

Quickstart::

    from repro import api
    result = api.run_experiment(workload="oltp", protocol="ts-snoop",
                                network="butterfly")
    print(result.runtime_ns, result.cache_to_cache_fraction)
"""

from repro._version import __version__

__all__ = ["__version__"]
