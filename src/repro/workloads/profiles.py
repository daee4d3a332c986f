"""Calibrated workload profiles (the five benchmarks of Table 1).

Each profile mixes the sharing patterns of :mod:`repro.workloads.patterns`
with weights chosen so that the simulated benchmark characterisation
(Table 3: footprint, miss volume, cache-to-cache fraction) reproduces the
paper's.  The paper's own numbers are carried along (``paper_*`` fields) so
the Table 3 bench can print the comparison.

Scale: the paper simulates millions of misses per run; the default profiles
issue a few thousand references per processor so a pure-Python simulator
finishes in seconds.  Use :meth:`WorkloadProfile.scaled` to grow or shrink a
run; protocol comparisons are ratio-based and insensitive to the factor
(verified by the scaling ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.sim.randomness import DeterministicRandom
from repro.workloads.patterns import (
    AccessPattern,
    LockPattern,
    MigratoryPattern,
    PrivatePattern,
    ProducerConsumerPattern,
    ReadSharedPattern,
)


@dataclass(frozen=True)
class WorkloadProfile:
    """Parameters of one synthetic benchmark."""

    name: str
    description: str

    # Stream shape.
    references_per_node: int = 3000
    warmup_references_per_node: int = 800
    mean_think_instructions: int = 80

    # Footprint (in 64-byte blocks).
    private_blocks_per_node: int = 2000
    read_shared_blocks: int = 1200
    migratory_blocks: int = 400
    producer_consumer_buffers: int = 200
    lock_blocks: int = 16

    # Reference mix (weights are normalised internally).
    private_weight: float = 0.60
    read_shared_weight: float = 0.12
    migratory_weight: float = 0.14
    producer_consumer_weight: float = 0.07
    lock_weight: float = 0.07

    # Pattern tuning.
    private_write_fraction: float = 0.30
    private_locality_skew: float = 0.60
    producer_fraction: float = 0.40

    # The paper's Table 3 characterisation, for reporting.
    paper_data_touched_mb: float = 0.0
    paper_total_misses_millions: float = 0.0
    paper_three_hop_percent: float = 0.0

    # ------------------------------------------------------------ derived
    def footprint_blocks(self, num_nodes: int) -> int:
        return (
            self.private_blocks_per_node * num_nodes
            + self.read_shared_blocks
            + self.migratory_blocks
            + self.producer_consumer_buffers
            + self.lock_blocks
        )

    def footprint_mb(self, num_nodes: int, block_size: int = 64) -> float:
        return self.footprint_blocks(num_nodes) * block_size / (1024 * 1024)

    def scaled(self, factor: float) -> "WorkloadProfile":
        """A copy with the stream length scaled by ``factor`` (>= 0.1)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(
            self,
            references_per_node=max(32, int(self.references_per_node * factor)),
            warmup_references_per_node=max(
                16, int(self.warmup_references_per_node * factor)
            ),
        )

    # ----------------------------------------------------------- patterns
    def build_patterns(
        self,
        num_nodes: int,
        rng: DeterministicRandom,
    ) -> List[Tuple[float, AccessPattern]]:
        """Instantiate the pattern mix over a non-overlapping block layout."""
        base = 0
        private = PrivatePattern(
            base,
            self.private_blocks_per_node,
            num_nodes,
            write_fraction=self.private_write_fraction,
            locality_skew=self.private_locality_skew,
        )
        base += private.footprint_blocks()
        read_shared = ReadSharedPattern(base, self.read_shared_blocks)
        base += read_shared.footprint_blocks()
        migratory = MigratoryPattern(base, self.migratory_blocks)
        base += migratory.footprint_blocks()
        producer_consumer = ProducerConsumerPattern(
            base,
            self.producer_consumer_buffers,
            num_nodes,
            produce_fraction=self.producer_fraction,
        )
        base += producer_consumer.footprint_blocks()
        locks = LockPattern(base, self.lock_blocks)

        mix = [
            (self.private_weight, private),
            (self.read_shared_weight, read_shared),
            (self.migratory_weight, migratory),
            (self.producer_consumer_weight, producer_consumer),
            (self.lock_weight, locks),
        ]
        return [(weight, pattern) for weight, pattern in mix if weight > 0]


#: The five benchmarks of Table 1, calibrated against Table 3.
PROFILES: Dict[str, WorkloadProfile] = {
    "oltp": WorkloadProfile(
        name="oltp",
        description="DB2 running a TPC-C-like online transaction mix",
        private_blocks_per_node=420,
        read_shared_blocks=320,
        migratory_blocks=500,
        producer_consumer_buffers=250,
        lock_blocks=24,
        private_weight=0.64,
        read_shared_weight=0.15,
        migratory_weight=0.09,
        producer_consumer_weight=0.07,
        lock_weight=0.05,
        mean_think_instructions=80,
        paper_data_touched_mb=47.1,
        paper_total_misses_millions=5.3,
        paper_three_hop_percent=43.0,
    ),
    "dss": WorkloadProfile(
        name="dss",
        description="DB2 running TPC-H query 12 (decision support)",
        private_blocks_per_node=380,
        read_shared_blocks=520,
        migratory_blocks=96,
        producer_consumer_buffers=64,
        lock_blocks=4,
        private_weight=0.50,
        read_shared_weight=0.12,
        migratory_weight=0.22,
        producer_consumer_weight=0.06,
        lock_weight=0.10,
        mean_think_instructions=70,
        paper_data_touched_mb=8.7,
        paper_total_misses_millions=1.7,
        paper_three_hop_percent=60.0,
    ),
    "apache": WorkloadProfile(
        name="apache",
        description="Apache web server driven by the SURGE client",
        private_blocks_per_node=400,
        read_shared_blocks=560,
        migratory_blocks=350,
        producer_consumer_buffers=200,
        lock_blocks=16,
        private_weight=0.60,
        read_shared_weight=0.17,
        migratory_weight=0.10,
        producer_consumer_weight=0.08,
        lock_weight=0.05,
        mean_think_instructions=90,
        paper_data_touched_mb=13.3,
        paper_total_misses_millions=2.3,
        paper_three_hop_percent=40.0,
    ),
    "altavista": WorkloadProfile(
        name="altavista",
        description="AltaVista search engine serving a query trace",
        private_blocks_per_node=380,
        read_shared_blocks=520,
        migratory_blocks=320,
        producer_consumer_buffers=180,
        lock_blocks=12,
        private_weight=0.60,
        read_shared_weight=0.18,
        migratory_weight=0.10,
        producer_consumer_weight=0.08,
        lock_weight=0.04,
        mean_think_instructions=85,
        paper_data_touched_mb=15.3,
        paper_total_misses_millions=2.4,
        paper_three_hop_percent=40.0,
    ),
    "barnes": WorkloadProfile(
        name="barnes",
        description="SPLASH-2 barnes-hut, 16K bodies (scientific)",
        private_blocks_per_node=260,
        read_shared_blocks=500,
        migratory_blocks=260,
        producer_consumer_buffers=140,
        lock_blocks=8,
        private_weight=0.60,
        read_shared_weight=0.16,
        migratory_weight=0.10,
        producer_consumer_weight=0.09,
        lock_weight=0.05,
        mean_think_instructions=100,
        paper_data_touched_mb=4.0,
        paper_total_misses_millions=1.0,
        paper_three_hop_percent=43.0,
    ),
}


def get_profile(name: str) -> WorkloadProfile:
    """Look up a profile by its benchmark name (case-insensitive)."""
    key = name.strip().lower()
    aliases = {
        "tpc-c": "oltp",
        "tpcc": "oltp",
        "db2/tpc-c": "oltp",
        "tpc-h": "dss",
        "tpch": "dss",
        "db2/tpc-h": "dss",
        "web": "apache",
        "surge": "apache",
        "search": "altavista",
        "web-search": "altavista",
        "barnes-hut": "barnes",
        "splash": "barnes",
        "splash-2": "barnes",
    }
    key = aliases.get(key, key)
    if key not in PROFILES:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(PROFILES)}")
    return PROFILES[key]


def workload_names() -> List[str]:
    """Benchmark names in the order the paper's figures present them."""
    return ["oltp", "dss", "apache", "altavista", "barnes"]
