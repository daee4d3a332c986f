"""System configuration (the target system of Section 4.2 / Table 2)."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.network import canonical_network_name
from repro.network.timing import NetworkTiming
from repro.processor.consistency import CONSISTENCY_MODELS
from repro.protocols import canonical_protocol_name
from repro.protocols.timing import ProtocolTiming


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build one simulated target system.

    The defaults reproduce the paper's evaluated configuration: 16 SPARC
    nodes, 4 MB four-way level-two caches with 64-byte blocks, 1 GiB of
    globally shared memory interleaved across the nodes, 4-BIPS blocking
    processors, and the Table 2 network/controller latencies.
    """

    # Topology / scale.
    num_nodes: int = 16
    network: str = "butterfly"  # "butterfly" or "torus"

    # Caches and memory (Section 4.2).
    cache_size_bytes: int = 4 * 1024 * 1024
    cache_associativity: int = 4
    block_size_bytes: int = 64
    memory_bytes: int = 1 << 30

    # Protocol selection and options (see ``repro.protocols.PROTOCOLS``):
    # "ts-snoop", "dirclassic", "diropt", "mesi-dir", "moesi-snoop".  The
    # three options apply to the snooping protocols only; the directory
    # protocols ignore them.
    protocol: str = "ts-snoop"
    prefetch_optimization: bool = True  # Section 3, optimisation 1
    slack: int = 0  # initial slack S of Section 2.2
    detailed_address_network: bool = False

    # Memory-consistency model driven by the processors: "sc" (blocking,
    # the paper's model and the default) or "tso" (per-core FIFO store
    # buffer with load forwarding; see ``repro.processor.consistency``).
    consistency: str = "sc"

    # Timing.
    network_timing: NetworkTiming = field(default_factory=NetworkTiming)
    protocol_timing: ProtocolTiming = field(default_factory=ProtocolTiming)
    instructions_per_ns: int = 4

    # Methodology (Section 4.3): perturbed replicas, minimum-of-runs.
    perturbation_replicas: int = 1
    perturbation_max_delay_ns: int = 5
    seed: int = 42

    # Consistency checking (slows runs slightly; on for tests, off for
    # benchmarks by default).
    enable_checker: bool = False

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        # An unknown name fails here rather than after stream generation.
        canonical_protocol_name(self.protocol)
        canonical_network_name(self.network)
        if self.perturbation_replicas <= 0:
            raise ValueError("perturbation_replicas must be positive")
        if self.slack < 0:
            raise ValueError("slack must be non-negative")
        if self.consistency not in CONSISTENCY_MODELS:
            raise ValueError(
                f"unknown consistency model {self.consistency!r}; "
                f"choose one of {CONSISTENCY_MODELS}"
            )
        if self.block_size_bytes <= 0 or self.block_size_bytes & (
            self.block_size_bytes - 1
        ):
            raise ValueError("block_size_bytes must be a power of two")
        if self.cache_size_bytes <= 0:
            raise ValueError("cache_size_bytes must be positive")
        if self.cache_associativity <= 0:
            raise ValueError("cache_associativity must be positive")
        if self.cache_size_bytes % (self.cache_associativity * self.block_size_bytes):
            raise ValueError(
                "cache_size_bytes must be a multiple of "
                "cache_associativity * block_size_bytes"
            )
        if self.instructions_per_ns <= 0:
            raise ValueError("instructions_per_ns must be positive")

    # ------------------------------------------------------------- variants
    def with_options(self, **kwargs) -> "SystemConfig":
        return replace(self, **kwargs)

    @property
    def label(self) -> str:
        return f"{self.protocol}/{self.network}/{self.num_nodes}p"


#: The exact configuration evaluated in the paper.
PAPER_CONFIG = SystemConfig()
