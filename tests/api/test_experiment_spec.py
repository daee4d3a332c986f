"""Tests for :class:`repro.api.spec.ExperimentSpec` and canonicalisation.

The spec object is the single request type of the redesigned API: eager
validation with actionable errors, alias canonicalisation, and a canonical
dictionary form that is stable under everything that cannot change a
simulated result (override order, restated defaults, alias spelling and
result-neutral checking knobs) while shifting for everything that can.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import api
from repro.api.spec import (
    OVERRIDE_FIELD_NAMES,
    RESULT_NEUTRAL_CONFIG_FIELDS,
    ExperimentSpec,
    ExperimentSpecError,
    canonical_config,
    canonical_experiment,
    canonical_network_name,
    canonical_protocol_name,
)
from repro.network import NETWORK_ALIASES, make_topology
from repro.protocols import PROTOCOL_ALIASES, PROTOCOLS
from repro.protocols import canonical_protocol_name as registry_protocol_name
from repro.system.config import SystemConfig
from repro.workloads.profiles import get_profile


class TestValidation:
    def test_defaults_build(self):
        spec = ExperimentSpec()
        assert spec.workload == "oltp"
        assert spec.protocol == "ts-snoop"
        assert spec.network == "butterfly"
        assert spec.scale == 1.0
        assert spec.overrides == ()

    def test_unknown_workload_lists_choices(self):
        with pytest.raises(ExperimentSpecError, match="oltp.*dss.*barnes"):
            ExperimentSpec.make("tpc-z")

    def test_unknown_protocol_lists_choices(self):
        with pytest.raises(ExperimentSpecError, match="ts-snoop, dirclassic"):
            ExperimentSpec.make("oltp", protocol="dragon")

    def test_unknown_network_lists_choices(self):
        with pytest.raises(ExperimentSpecError, match="butterfly, torus"):
            ExperimentSpec.make("oltp", network="mesh")

    def test_unknown_override_lists_valid_names(self):
        with pytest.raises(ExperimentSpecError, match="num_nodes"):
            ExperimentSpec.make("oltp", cache_megabytes=4)

    def test_reserved_override_rejected(self):
        with pytest.raises(ExperimentSpecError, match="spec field"):
            ExperimentSpec(overrides=(("protocol", "diropt"),))

    def test_bad_scale_rejected(self):
        with pytest.raises(ExperimentSpecError, match="scale"):
            ExperimentSpec.make("oltp", scale=0)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("num_nodes", -1),
            ("num_nodes", 0),
            ("slack", -1),
            ("slack", "two"),
            ("block_size_bytes", 48),
            ("cache_associativity", 0),
            ("cache_associativity", -4),
            ("cache_size_bytes", 0),
            ("cache_size_bytes", 1000),
            ("instructions_per_ns", 0),
        ],
    )
    def test_bad_override_value_rejected_eagerly(self, name, value):
        # Value validation is SystemConfig's, but it must fire at spec
        # construction, not at run time, and as a spec error (not a bare
        # ValueError or TypeError) so the gateway answers 400.
        with pytest.raises(ExperimentSpecError, match=name):
            ExperimentSpec.make("oltp", **{name: value})

    def test_malformed_overrides_tuple(self):
        with pytest.raises(ExperimentSpecError, match="pairs"):
            ExperimentSpec(overrides=("slack",))


class TestCanonicalisation:
    def test_aliases_canonicalise(self):
        spec = ExperimentSpec.make("tpc-c", protocol="snoop", network="bfly")
        assert (spec.workload, spec.protocol, spec.network) == (
            "oltp",
            "ts-snoop",
            "butterfly",
        )

    def test_alias_spellings_compare_equal(self):
        assert ExperimentSpec.make(
            "tpc-c", protocol="dir-opt", network="indirect"
        ) == ExperimentSpec.make("oltp", protocol="diropt", network="butterfly")

    def test_protocol_name_helpers(self):
        assert canonical_protocol_name("Timestamp-Snooping") == "ts-snoop"
        assert canonical_protocol_name("mesi") == "mesi-dir"
        assert canonical_protocol_name("moesi") == "moesi-snoop"
        assert canonical_network_name("2d-torus") == "torus"
        with pytest.raises(ExperimentSpecError):
            canonical_protocol_name("dragon")

    def test_override_order_irrelevant(self):
        a = ExperimentSpec(overrides=(("slack", 2), ("num_nodes", 4)))
        b = ExperimentSpec(overrides=(("num_nodes", 4), ("slack", 2)))
        assert a == b and hash(a) == hash(b)

    def test_spec_is_frozen_and_hashable(self):
        spec = ExperimentSpec.make("dss", slack=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.workload = "oltp"
        assert spec in {spec}

    def test_with_overrides_merges(self):
        spec = ExperimentSpec.make("oltp", slack=2)
        merged = spec.with_overrides(num_nodes=4, slack=3)
        assert merged.overrides_dict() == {"num_nodes": 4, "slack": 3}
        assert spec.overrides_dict() == {"slack": 2}

    def test_label(self):
        spec = ExperimentSpec.make("dss", protocol="diropt", scale=0.25)
        assert spec.label == "dss/diropt/butterfly@0.25"


class TestProtocolResolver:
    """The spec resolves protocol names through the registry's resolver."""

    @pytest.mark.parametrize("alias", sorted(PROTOCOL_ALIASES))
    def test_agrees_with_the_registry(self, alias):
        expected = PROTOCOL_ALIASES[alias]
        for spelling in (alias, f"  {alias.upper().replace('-', '_')} "):
            assert canonical_protocol_name(spelling) == expected
            assert registry_protocol_name(spelling) == expected

    def test_unknown_name_lists_choices_in_registry_order(self):
        with pytest.raises(ExperimentSpecError) as excinfo:
            canonical_protocol_name("dragon")
        assert str(excinfo.value) == (
            "unknown protocol 'dragon'; valid choices: " + ", ".join(PROTOCOLS)
        )
        assert excinfo.value.__suppress_context__

    def test_api_protocol_names_are_the_registry_keys(self):
        assert api.PROTOCOL_NAMES == tuple(PROTOCOLS)


class TestNetworkResolver:
    """The spec and the topology factory share one network alias table."""

    @pytest.mark.parametrize("alias", sorted(NETWORK_ALIASES))
    def test_spec_and_topology_agree(self, alias):
        expected = NETWORK_ALIASES[alias]
        for spelling in (alias, f"  {alias.upper()} "):
            assert ExperimentSpec(network=spelling).network == expected
            assert make_topology(spelling).name == expected

    def test_network_names_are_the_alias_targets(self):
        assert api.NETWORK_NAMES == ("butterfly", "torus")
        assert set(NETWORK_ALIASES.values()) == set(api.NETWORK_NAMES)


class TestEffectiveConfig:
    def test_config_applies_spec_fields_and_overrides(self):
        spec = ExperimentSpec.make(
            "oltp", protocol="diropt", network="torus", num_nodes=4, slack=2
        )
        config = spec.config()
        assert config.protocol == "diropt"
        assert config.network == "torus"
        assert config.num_nodes == 4
        assert config.slack == 2

    def test_profile_scaling(self):
        spec = ExperimentSpec.make("apache", scale=0.5)
        full = get_profile("apache")
        assert spec.profile().references_per_node == max(
            32, int(full.references_per_node * 0.5)
        )

    def test_override_names_cover_config(self):
        config_fields = {f.name for f in dataclasses.fields(SystemConfig)}
        assert set(OVERRIDE_FIELD_NAMES) == config_fields - {
            "protocol",
            "network",
        }


class TestCanonicalExperiment:
    def _doc(self, spec: ExperimentSpec) -> str:
        document = canonical_experiment(spec.config(), spec.profile())
        return json.dumps(document, sort_keys=True)

    def test_restated_default_hashes_identically(self):
        plain = ExperimentSpec.make("oltp")
        restated = ExperimentSpec.make("oltp", num_nodes=16, seed=42)
        assert self._doc(plain) == self._doc(restated)

    def test_result_neutral_knobs_hash_identically(self):
        plain = ExperimentSpec.make("oltp")
        knobbed = ExperimentSpec.make("oltp", enable_checker=True)
        assert self._doc(plain) == self._doc(knobbed)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("scheduler", "heapq"),
            ("event_pool", False),
            ("batched_dispatch", False),
            ("cache_array", "dict"),
            ("packed_streams", False),
            ("message_pooling", False),
            ("sanitize", True),
            ("jobs", 4),
        ],
    )
    def test_removed_knobs_are_rejected(self, name, value):
        with pytest.raises(ExperimentSpecError, match="unknown SystemConfig override"):
            ExperimentSpec.make("oltp", **{name: value})
        document = ExperimentSpec.make("oltp").as_document()
        document["overrides"] = [[name, value]]
        with pytest.raises(ExperimentSpecError, match=name):
            ExperimentSpec.from_document(document)

    def test_result_relevant_fields_change_the_document(self):
        base = ExperimentSpec.make("oltp")
        for variant in (
            ExperimentSpec.make("oltp", protocol="diropt"),
            ExperimentSpec.make("oltp", network="torus"),
            ExperimentSpec.make("oltp", scale=0.5),
            ExperimentSpec.make("dss"),
            ExperimentSpec.make("oltp", seed=7),
            ExperimentSpec.make("oltp", perturbation_replicas=3),
            ExperimentSpec.make("oltp", slack=2),
        ):
            assert self._doc(base) != self._doc(variant)

    def test_neutral_field_set_is_strictly_host_side(self):
        # Every neutral field must exist on SystemConfig and must not leak
        # into the canonical document.
        config_fields = {f.name for f in dataclasses.fields(SystemConfig)}
        assert RESULT_NEUTRAL_CONFIG_FIELDS <= config_fields
        document = canonical_config(SystemConfig())
        assert not RESULT_NEUTRAL_CONFIG_FIELDS & set(document)
        assert set(document) == config_fields - RESULT_NEUTRAL_CONFIG_FIELDS

    def test_nested_timing_is_flattened(self):
        document = canonical_config(SystemConfig())
        assert isinstance(document["network_timing"], dict)
        assert isinstance(document["protocol_timing"], dict)


class TestWrapperCompatibility:
    def test_run_experiment_spec_wins_over_keywords(self, monkeypatch):
        captured = {}

        def fake_run_specs(specs, **kwargs):
            captured["specs"] = specs
            return [object()]

        monkeypatch.setattr(api, "run_specs", fake_run_specs)
        spec = ExperimentSpec.make("dss", protocol="diropt")
        api.run_experiment(workload="oltp", spec=spec)
        assert captured["specs"] == [spec]

    def test_default_protocols_are_canonical(self):
        assert api.DEFAULT_PROTOCOLS == ("ts-snoop", "dirclassic", "diropt")

    def test_run_specs_empty(self):
        assert api.run_specs([]) == []
