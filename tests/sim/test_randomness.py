"""Unit tests for deterministic randomness and perturbation."""

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
