"""Whole-run bit-identity against recorded golden ``RunResult`` digests.

Every cell of {ts-snoop, dirclassic, diropt, mesi-dir, moesi-snoop} x
{butterfly, torus} x {sc, tso} x {oltp, dss, apache, altavista, barnes}
(16 nodes, scale 0.05, seed 1), plus the detailed token-passing address
network (slack 0 and 2) and perturbation replicas, must reproduce the
SHA-256 digest recorded in ``golden_runresults.json``.  The digest is the
hash of the result's fields as canonical JSON, the same form as
``perfbench/common.digest``.

Any change to the simulator that moves a single bit of a result -- event
dispatch order above all -- fails here.  To record new goldens after a
deliberate behaviour change, run this file as a script::

    PYTHONPATH=src python tests/integration/test_golden_runresults.py --write
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import api

GOLDEN_PATH = Path(__file__).with_name("golden_runresults.json")

PROTOCOLS = ("ts-snoop", "dirclassic", "diropt", "mesi-dir", "moesi-snoop")
NETWORKS = ("butterfly", "torus")
CONSISTENCY = ("sc", "tso")
WORKLOADS = ("oltp", "dss", "apache", "altavista", "barnes")
BASE = dict(num_nodes=16, scale=0.05, seed=1)


def _cells():
    cells = {}
    for protocol in PROTOCOLS:
        for network in NETWORKS:
            for consistency in CONSISTENCY:
                for workload in WORKLOADS:
                    cells[f"{protocol}/{network}/{consistency}/{workload}"] = dict(
                        BASE,
                        workload=workload,
                        protocol=protocol,
                        network=network,
                        consistency=consistency,
                    )
    for protocol in ("ts-snoop", "dirclassic", "diropt"):
        barnes = dict(BASE, workload="barnes", protocol=protocol)
        cells[f"{protocol}/detailed/barnes"] = dict(
            barnes, detailed_address_network=True
        )
        cells[f"{protocol}/replicas2/barnes"] = dict(barnes, perturbation_replicas=2)
    cells["ts-snoop/detailed-slack2/oltp"] = dict(
        BASE,
        workload="oltp",
        protocol="ts-snoop",
        detailed_address_network=True,
        slack=2,
    )
    return cells


CELLS = _cells()


def digest(result) -> str:
    document = json.dumps(dataclasses.asdict(result), sort_keys=True)
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def _run(cell: str) -> str:
    return digest(api.run_experiment(**CELLS[cell]))


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_cell(goldens):
    assert sorted(goldens) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_runresult_matches_golden(cell, goldens):
    assert _run(cell) == goldens[cell]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    digests = {cell: _run(cell) for cell in sorted(CELLS)}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CELLS)} digests to {GOLDEN_PATH}")
