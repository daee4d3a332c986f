"""Reference streams fed to the processors.

Streams are *packed*: :class:`PackedReferenceStream` stores the block
number, access-type code and think time of every reference as three
parallel ``array`` columns instead of one frozen dataclass per reference.
A few-million-reference run therefore builds three flat buffers rather than
millions of heap objects, and the processor's issue loop reads plain ints.
:class:`Reference` remains the logical unit: indexing or iterating a packed
stream materialises equal ``Reference`` views on demand, and a processor
handed a hand-written ``List[Reference]`` (tests, traces) packs it once at
construction.
"""

from __future__ import annotations

from array import array
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

from repro.memory.coherence import ACCESS_FROM_CODE, AccessType


@dataclass(frozen=True)
class Reference:
    """One level-two reference issued by a processor.

    ``think_instructions`` is the number of instructions the processor
    executes (at 4 per ns) before issuing this reference; ``block`` is the
    coherence-block number touched.
    """

    block: int
    access_type: AccessType
    think_instructions: int = 0

    def __post_init__(self) -> None:
        if self.block < 0:
            raise ValueError("block must be non-negative")
        if self.think_instructions < 0:
            raise ValueError("think_instructions must be non-negative")


class PackedReferenceStream(Sequence):
    """An immutable reference stream stored as parallel int columns.

    Equality works against any sequence of :class:`Reference` (including
    other packed streams, where it reduces to three array comparisons), so
    trace round-trip and determinism tests are layout-agnostic.
    """

    __slots__ = ("blocks", "access_codes", "think")

    def __init__(self, blocks: array, access_codes: array, think: array) -> None:
        if not (len(blocks) == len(access_codes) == len(think)):
            raise ValueError("packed columns must have equal length")
        self.blocks = blocks
        self.access_codes = access_codes
        self.think = think

    @classmethod
    def from_references(
        cls,
        references: Iterable[Reference],
    ) -> "PackedReferenceStream":
        blocks = array("q")
        codes = array("b")
        think = array("q")
        for reference in references:
            blocks.append(reference.block)
            codes.append(reference.access_type.code)
            think.append(reference.think_instructions)
        return cls(blocks, codes, think)

    # ------------------------------------------------------------- fast path
    def columns(self) -> Tuple[array, array, array]:
        """The raw (blocks, access_codes, think) columns (issue loop)."""
        return self.blocks, self.access_codes, self.think

    # ------------------------------------------------------------- sequence
    def __len__(self) -> int:
        return len(self.blocks)

    def __getitem__(self, index) -> Union[Reference, List[Reference]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return Reference(
            block=self.blocks[index],
            access_type=ACCESS_FROM_CODE[self.access_codes[index]],
            think_instructions=self.think[index],
        )

    def __iter__(self) -> Iterator[Reference]:
        decode = ACCESS_FROM_CODE
        for block, code, think in zip(self.blocks, self.access_codes, self.think):
            yield Reference(
                block=block, access_type=decode[code], think_instructions=think
            )

    def __eq__(self, other) -> bool:
        if isinstance(other, PackedReferenceStream):
            return (
                self.blocks == other.blocks
                and self.access_codes == other.access_codes
                and self.think == other.think
            )
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    __hash__ = None

    def __reduce__(self):
        return (PackedReferenceStream, (self.blocks, self.access_codes, self.think))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PackedReferenceStream {len(self)} refs>"


class WorkloadGenerator:
    """Builds per-processor reference streams from a workload profile.

    The generator walks the profile's access-pattern mix: for each reference
    it picks a pattern according to the profile weights and asks the pattern
    for the concrete block / access type.  Streams are materialised eagerly
    (packed columns) so that perturbed replicas of a run replay the
    *identical* reference streams, as the paper's methodology requires.

    Pattern selection inlines ``random.choices(weights=...)``: the cumulative
    weight table is computed once here instead of once per reference, and the
    draw consumes exactly one ``random()`` call either way, so streams are
    bit-identical to the pre-packed generator.
    """

    def __init__(self, profile, num_nodes: int, rng) -> None:
        self.profile = profile
        self.num_nodes = num_nodes
        self.rng = rng
        self._patterns = profile.build_patterns(num_nodes, rng)
        self._weights = [weight for weight, _pattern in self._patterns]
        self._pattern_objects = [pattern for _weight, pattern in self._patterns]
        self._cum_weights = list(accumulate(self._weights))
        self._total_weight = self._cum_weights[-1] + 0.0

    def build_streams(self) -> List[PackedReferenceStream]:
        """One eager reference stream per node (warm-up + measured phases)."""
        total = self.profile.references_per_node
        return [self._build_stream(node, total) for node in range(self.num_nodes)]

    def _build_stream(self, node: int, length: int) -> PackedReferenceStream:
        node_rng = self.rng.fork(node + 1)
        rng_random = node_rng.random
        patterns = self._pattern_objects
        cum_weights = self._cum_weights
        total_weight = self._total_weight
        hi = len(cum_weights) - 1
        mean_think = self.profile.mean_think_instructions
        geometric = node_rng.geometric

        blocks = array("q")
        codes = array("b")
        think = array("q")
        append_block = blocks.append
        append_code = codes.append
        append_think = think.append
        for _ in range(length):
            pattern = patterns[bisect(cum_weights, rng_random() * total_weight, 0, hi)]
            block, access_type = pattern.next_access(node, node_rng)
            append_block(block)
            append_code(access_type.code)
            append_think(geometric(mean_think))
        return PackedReferenceStream(blocks, codes, think)

    def footprint_blocks(self) -> int:
        """Distinct blocks the profile can touch (reported in Table 3)."""
        return sum(pattern.footprint_blocks() for pattern in self._pattern_objects)


def stream_iterator(stream: Sequence[Reference]) -> Iterator[Reference]:
    """Plain iterator over an eager stream."""
    return iter(stream)
