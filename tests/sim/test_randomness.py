"""Unit tests for deterministic randomness and perturbation."""

import copy
import math
import pickle

import pytest

from repro.sim.randomness import DeterministicRandom, PerturbationModel


class TestDeterministicRandom:
    def test_same_seed_same_sequence(self):
        a = DeterministicRandom(7)
        b = DeterministicRandom(7)
        assert [a.uniform_int(0, 100) for _ in range(20)] == \
               [b.uniform_int(0, 100) for _ in range(20)]

    def test_different_seeds_differ(self):
        a = DeterministicRandom(7)
        b = DeterministicRandom(8)
        assert [a.uniform_int(0, 10 ** 6) for _ in range(10)] != \
               [b.uniform_int(0, 10 ** 6) for _ in range(10)]

    def test_fork_is_deterministic_and_independent(self):
        root = DeterministicRandom(3)
        fork_a = root.fork(1)
        fork_b = DeterministicRandom(3).fork(1)
        assert [fork_a.random() for _ in range(5)] == \
               [fork_b.random() for _ in range(5)]
        assert root.fork(1).seed != root.fork(2).seed

    def test_geometric_mean_is_roughly_right(self):
        rng = DeterministicRandom(11)
        samples = [rng.geometric(40) for _ in range(4000)]
        mean = sum(samples) / len(samples)
        assert 30 < mean < 50
        assert min(samples) >= 1

    def test_geometric_degenerate_mean(self):
        rng = DeterministicRandom(1)
        assert rng.geometric(0.5) == 1

    def test_copies_draw_from_their_own_generator(self):
        rng = DeterministicRandom(3)
        rng.random()
        for make_copy in (copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            twin = make_copy(rng)
            drawn = [twin.random() for _ in range(3)]
            assert drawn == [rng.random() for _ in range(3)]

    def test_zipf_index_bounds(self):
        rng = DeterministicRandom(5)
        for _ in range(500):
            index = rng.zipf_index(100, skew=0.8)
            assert 0 <= index < 100

    def test_zipf_concentrates_on_low_indices(self):
        rng = DeterministicRandom(5)
        samples = [rng.zipf_index(1000, skew=0.8) for _ in range(3000)]
        low = sum(1 for s in samples if s < 100)
        assert low > len(samples) * 0.4

    def test_zipf_single_element(self):
        assert DeterministicRandom(1).zipf_index(1) == 0


class _StubSource:
    """Stands in for ``random.Random``: ``n`` draws above ``p``, then ``p``."""

    def __init__(self, n: int, p: float) -> None:
        self._draws = iter([1.0 - 1e-12] * n + [p])
        self.consumed = 0

    def random(self) -> float:
        self.consumed += 1
        return next(self._draws)


def _stubbed(source) -> DeterministicRandom:
    rng = DeterministicRandom(0)
    rng._rng = source
    return rng


class TestGeometricSampler:
    @pytest.mark.parametrize("mean", [1.0, 0.5, 0.0])
    def test_mean_at_most_one_makes_no_draw(self, mean):
        source = _StubSource(0, 1.0)
        assert _stubbed(source).geometric(mean) == 1
        assert source.consumed == 0

    @pytest.mark.parametrize("mean", [1.5, 1.7, 2.0, 3.0])
    def test_value_and_draws_match_the_one_draw_loop(self, mean):
        # The one-draw loop returns n + 1 after n draws above p and one at
        # or below it, except that it breaks at the first integer above
        # 64 * mean without drawing again.
        p = 1.0 / mean
        cap = math.floor(64 * mean) + 1
        for n in range(int(64 * mean) + 11):
            source = _StubSource(n, p)
            assert _stubbed(source).geometric(mean) == min(n + 1, cap), n
            assert source.consumed == min(n + 1, cap - 1), n

    def test_draw_position_after_seeded_samples_is_pinned(self):
        # Recorded with the one-draw loop: the sampler consumes exactly the
        # draws it always did.
        rng = DeterministicRandom(42)
        assert sum(rng.geometric(80) for _ in range(10_000)) == 803_601
        assert rng.random() == 0.42353964328828053


class TestPerturbationModel:
    def test_disabled_model_returns_zero(self):
        model = PerturbationModel(DeterministicRandom(1), max_delay_ns=0)
        assert not model.enabled
        assert all(model.response_delay() == 0 for _ in range(10))

    def test_enabled_model_bounded(self):
        model = PerturbationModel(DeterministicRandom(1), max_delay_ns=5)
        delays = [model.response_delay() for _ in range(200)]
        assert all(0 <= d <= 5 for d in delays)
        assert any(d > 0 for d in delays)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            PerturbationModel(DeterministicRandom(1), max_delay_ns=-1)

    def test_replica_zero_is_unperturbed(self):
        replicas = list(PerturbationModel.replicas(base_seed=9, count=4))
        assert len(replicas) == 4
        assert not replicas[0].enabled
        assert all(replica.enabled for replica in replicas[1:])
