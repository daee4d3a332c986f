"""Unit tests for system configuration and result records."""

import pytest

from repro.network import NETWORK_ALIASES
from repro.network.message import TrafficCategory
from repro.protocols import PROTOCOL_ALIASES
from repro.system.config import PAPER_CONFIG, SystemConfig
from repro.system.results import ProtocolComparison, RunResult


class TestSystemConfig:
    def test_paper_defaults(self):
        config = PAPER_CONFIG
        assert config.num_nodes == 16
        assert config.cache_size_bytes == 4 * 1024 * 1024
        assert config.cache_associativity == 4
        assert config.block_size_bytes == 64
        assert config.memory_bytes == 1 << 30
        assert config.instructions_per_ns == 4
        assert config.network_timing.switch_ns == 15
        assert config.protocol_timing.memory_access_ns == 80

    def test_with_options(self):
        config = SystemConfig().with_options(slack=3, perturbation_replicas=2)
        assert config.slack == 3
        assert config.perturbation_replicas == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(num_nodes=0)
        with pytest.raises(ValueError):
            SystemConfig(slack=-1)
        with pytest.raises(ValueError):
            SystemConfig(block_size_bytes=48)
        with pytest.raises(ValueError):
            SystemConfig(perturbation_replicas=0)

    def test_removed_sanitize_field_is_rejected(self):
        with pytest.raises(TypeError, match="sanitize"):
            SystemConfig(sanitize=True)

    @pytest.mark.parametrize("protocol", sorted(PROTOCOL_ALIASES))
    def test_every_protocol_alias_is_accepted(self, protocol):
        assert SystemConfig(protocol=protocol).protocol == protocol

    @pytest.mark.parametrize("network", sorted(NETWORK_ALIASES))
    def test_every_network_alias_is_accepted(self, network):
        assert SystemConfig(network=network).network == network

    @pytest.mark.parametrize(
        "names, message",
        [
            ({"protocol": "bogus"}, "unknown protocol 'bogus'"),
            ({"network": "hypercube"}, "unknown topology 'hypercube'"),
            ({"protocol": "bogus", "network": "hypercube"}, "unknown protocol"),
        ],
    )
    def test_unknown_names_rejected_at_construction(self, names, message):
        with pytest.raises(ValueError, match=message):
            SystemConfig(**names)

    def test_label(self):
        assert SystemConfig().label == "ts-snoop/butterfly/16p"


def result(protocol, runtime, per_link, misses=100, c2c=40):
    return RunResult(workload="oltp", protocol=protocol, network="butterfly",
                     runtime_ns=runtime, instructions=1000, references=200,
                     misses=misses, cache_to_cache_misses=c2c, writebacks=0,
                     nacks=0, retries=0, data_touched_mb=1.0,
                     per_link_bytes=per_link,
                     traffic_bytes_by_category={"Data": 700, "Request": 300})


class TestRunResult:
    def test_fractions(self):
        r = result("ts-snoop", 1000, 50.0)
        assert r.cache_to_cache_fraction == pytest.approx(0.4)
        assert r.total_traffic_bytes == 1000
        assert r.traffic_fraction(TrafficCategory.DATA) == pytest.approx(0.7)

    def test_zero_misses_safe(self):
        r = result("ts-snoop", 1000, 50.0, misses=0, c2c=0)
        assert r.cache_to_cache_fraction == 0.0

    def test_summary_mentions_key_fields(self):
        text = result("ts-snoop", 1000, 50.0).summary()
        assert "oltp" in text and "ts-snoop" in text


class TestProtocolComparison:
    def make(self):
        comparison = ProtocolComparison(workload="oltp", network="butterfly",
                                        baseline_protocol="ts-snoop")
        comparison.add(result("ts-snoop", 1000, 120.0))
        comparison.add(result("dirclassic", 1300, 90.0))
        comparison.add(result("diropt", 1100, 85.0))
        return comparison

    def test_normalised_runtime(self):
        comparison = self.make()
        assert comparison.normalized_runtime("ts-snoop") == 1.0
        assert comparison.normalized_runtime("dirclassic") == pytest.approx(1.3)

    def test_paper_speedup_definition(self):
        """Footnote 4: X is n% faster than Y means Time_Y/Time_X - 1 = n%."""
        comparison = self.make()
        assert comparison.speedup_of_baseline_over("dirclassic") == pytest.approx(0.3)
        assert comparison.speedup_of_baseline_over("diropt") == pytest.approx(0.1)

    def test_traffic_normalisation(self):
        comparison = self.make()
        assert comparison.normalized_traffic("dirclassic") == pytest.approx(0.75)
        assert comparison.extra_traffic_of_baseline_over("diropt") == \
            pytest.approx(120 / 85 - 1)

    def test_protocols_listed(self):
        assert set(self.make().protocols()) == {"ts-snoop", "dirclassic",
                                                "diropt"}
