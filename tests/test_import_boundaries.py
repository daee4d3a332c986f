"""Each process imports only the layers it runs.

The service gateway parses specs and serves cache hits; only its worker
subprocesses simulate.  A library script simulates in process and never
serves.  Every check imports one process's entry modules in a fresh
interpreter and lists the modules it must not have loaded, so a package
``__init__`` or a module-level import that re-couples the layers fails
here rather than as a slower cold start.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The simulator proper: what only a process that simulates needs.
SIMULATOR = (
    "repro.core",
    "repro.processor.processor",
    "repro.system.builder",
    "repro.system.simulation",
    "repro.memory.cache",
    "repro.protocols.base",
    "repro.protocols.directory",
    "repro.protocols.directory_state",
    "repro.protocols.ts_snoop",
    "repro.protocols.dir_classic",
    "repro.protocols.dir_opt",
    "repro.protocols.mesi_dir",
    "repro.protocols.moesi_snoop",
)

_PROBE = """
import importlib, json, sys
for name in sys.argv[1].split(","):
    importlib.import_module(name)
forbidden = sys.argv[2].split(",")
print(json.dumps(sorted(
    module for module in sys.modules
    if any(module == f or module.startswith(f + ".") for f in forbidden)
)))
"""


def loaded(imports, forbidden):
    """The modules of ``forbidden`` (or below them) that importing
    ``imports`` in a fresh interpreter loads."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, ",".join(imports), ",".join(forbidden)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_forbidden_simulator_module_exists():
    # A renamed module would let the gateway check pass without checking.
    for name in SIMULATOR:
        assert importlib.util.find_spec(name) is not None, name


@pytest.mark.parametrize(
    "imports, forbidden",
    [
        pytest.param(
            ["repro.service.server", "repro.client", "repro.service.cache"],
            [*SIMULATOR, "multiprocessing", "concurrent.futures.process"],
            id="gateway",
        ),
        pytest.param(
            ["repro.api", "repro.system.builder"],
            ["multiprocessing", "concurrent.futures", "asyncio", "repro.service"],
            id="library",
        ),
        pytest.param(
            ["repro.parallel.worker"],
            ["asyncio", "multiprocessing", "repro.service"],
            id="worker",
        ),
    ],
)
def test_process_loads_only_its_layers(imports, forbidden):
    assert loaded(imports, forbidden) == []
