"""Deterministic randomness and the paper's perturbation methodology.

Section 4.3 of the paper: "we performed redundant simulations perturbed by
injecting small random delays in all message responses.  [...] we report the
minimum run time from a set of runs whose only difference is the
perturbation."  :class:`PerturbationModel` implements exactly that knob.
"""

from __future__ import annotations

import random
from typing import Iterable


class DeterministicRandom:
    """A seeded random source with the samplers the models draw from.

    A thin wrapper over :class:`random.Random` so that model code never
    touches the global random state and every simulation is reproducible
    from its seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        #: The generator's own bound method: a draw goes through no Python
        #: wrapper.
        self.random = self._rng.random

    # ``copy.deepcopy`` treats a bound C method as atomic, so a copy must
    # rebind ``random`` to its own generator rather than share the original's.
    def __getstate__(self) -> dict:
        return {"seed": self.seed, "_rng": self._rng}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.random = self._rng.random

    def fork(self, salt: int) -> "DeterministicRandom":
        """Derive an independent stream; used to give each node its own RNG."""
        return DeterministicRandom((self.seed * 1_000_003 + salt) & 0x7FFFFFFF)

    # ------------------------------------------------------------- primitives
    def uniform_int(self, low: int, high: int) -> int:
        """Inclusive integer in [low, high]."""
        return self._rng.randint(low, high)

    def geometric(self, mean: float) -> int:
        """Geometric-ish positive integer with the given mean (>= 1)."""
        if mean <= 1.0:
            return 1
        p = 1.0 / mean
        limit = 64 * mean
        rand = self._rng.random
        value = 1
        # Eight draws per pass while no ``limit`` break can fall inside it.
        # ``random()`` never returns NaN, so ``u <= p`` is ``not u > p``: the
        # same draws are consumed and the same value is returned as by the
        # one-draw loop below, which finishes the tail.
        while value + 8 <= limit:
            if rand() <= p:
                return value
            if rand() <= p:
                return value + 1
            if rand() <= p:
                return value + 2
            if rand() <= p:
                return value + 3
            if rand() <= p:
                return value + 4
            if rand() <= p:
                return value + 5
            if rand() <= p:
                return value + 6
            if rand() <= p:
                return value + 7
            value += 8
        while rand() > p:
            value += 1
            if value > limit:
                break
        return value

    def zipf_index(self, n: int, skew: float = 0.8) -> int:
        """A Zipf-like index in [0, n) used for hot/cold block selection."""
        if n <= 1:
            return 0
        # Inverse-CDF sampling over a truncated power law; coarse but cheap.
        u = self._rng.random()
        # ``u`` is in [0, 1), so the index is never negative, but the
        # product can still round up to ``n``.
        index = int(n * (u ** (1.0 / (1.0 - skew + 1e-9))))
        return index if index < n else n - 1


class PerturbationModel:
    """Small random delays injected into message responses.

    ``max_delay_ns == 0`` (replica 0) disables perturbation so the first
    replica of every experiment is the deterministic baseline.
    """

    def __init__(self, rng: DeterministicRandom, max_delay_ns: int = 0) -> None:
        if max_delay_ns < 0:
            raise ValueError("max_delay_ns must be non-negative")
        self._rng = rng
        self.max_delay_ns = max_delay_ns

    @property
    def enabled(self) -> bool:
        return self.max_delay_ns > 0

    def response_delay(self) -> int:
        """Extra latency (ns) to add to the next message response."""
        if self.max_delay_ns == 0:
            return 0
        return self._rng.uniform_int(0, self.max_delay_ns)

    @classmethod
    def replicas(
        cls, base_seed: int, count: int, max_delay_ns: int = 5
    ) -> Iterable["PerturbationModel"]:
        """Yield ``count`` perturbation models for redundant simulations.

        Replica 0 is unperturbed; replicas 1..count-1 use independent seeds.
        """
        for index in range(count):
            rng = DeterministicRandom(base_seed * 7919 + index)
            yield cls(rng, 0 if index == 0 else max_delay_ns)
