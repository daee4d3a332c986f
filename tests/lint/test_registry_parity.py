"""Registry-parity (REG001, REG002) tests.

Synthetic registries prove each drift category is caught (missing
method, signature drift, property-vs-method mismatch) and that adding
public surface is allowed; the live registries prove the shipped fast
implementations mirror their references today.  REG002 covers the
protocol registry's three name surfaces (PROTOCOLS, ProtocolName,
api.spec.PROTOCOL_NAMES) the same way: live parity plus synthetic
drift injected through monkeypatching.
"""

from repro.lint.parity import check_protocol_registry, compare_registry
from repro.memory.cache import CACHE_ARRAYS


class Reference:
    def push(self, item, when):
        raise NotImplementedError

    def pop(self):
        raise NotImplementedError

    @property
    def depth(self):
        return 0


class Faithful(Reference):
    def tune(self, knob):
        """Extra public surface is allowed."""


class MissingMethod:
    def push(self, item, when):
        raise NotImplementedError

    @property
    def depth(self):
        return 0


class DriftedSignature(Reference):
    def push(self, item):  # dropped the `when` parameter
        raise NotImplementedError


class PropertyBecameMethod(Reference):
    def depth(self):  # type: ignore[override]
        return 0


def _messages(registry):
    findings = compare_registry(registry, "ref", "TEST", "owner.py")
    return [finding.message for finding in findings]


class TestSyntheticRegistries:
    def test_faithful_implementation_with_extras_is_clean(self):
        assert _messages({"ref": Reference, "fast": Faithful}) == []

    def test_missing_method_is_reported(self):
        messages = _messages({"ref": Reference, "fast": MissingMethod})
        assert len(messages) == 1
        assert "missing public method 'pop'" in messages[0]

    def test_signature_drift_is_reported(self):
        messages = _messages({"ref": Reference, "fast": DriftedSignature})
        assert len(messages) == 1
        assert "signature drifted" in messages[0]
        assert "(self, item)" in messages[0]
        assert "(self, item, when)" in messages[0]

    def test_property_vs_method_mismatch_is_reported(self):
        messages = _messages({"ref": Reference, "fast": PropertyBecameMethod})
        assert len(messages) == 1
        assert "property vs method mismatch" in messages[0]

    def test_reference_itself_is_never_compared(self):
        assert _messages({"ref": Reference}) == []


class TestLiveRegistries:
    def test_cache_arrays_mirror_the_dict_reference(self):
        findings = compare_registry(
            CACHE_ARRAYS, "dict", "CACHE_ARRAYS", "src/repro/memory/cache.py"
        )
        assert findings == [], [finding.message for finding in findings]


OWNER = "src/repro/protocols/__init__.py"


def _reg002_messages():
    return [finding.message for finding in check_protocol_registry(OWNER)]


class TestProtocolRegistryParity:
    def test_live_protocol_registry_is_in_lockstep(self):
        assert _reg002_messages() == []

    def test_unregistered_enum_member_is_reported(self, monkeypatch):
        import repro.protocols as protocols

        trimmed = dict(protocols.PROTOCOLS)
        del trimmed["moesi-snoop"]
        monkeypatch.setattr(protocols, "PROTOCOLS", trimmed)
        messages = _reg002_messages()
        assert any(
            "ProtocolName.MOESI_SNOOP is not registered" in message
            for message in messages
        )
        # The API surface still lists the dropped protocol, so the
        # PROTOCOL_NAMES comparison fires too.
        assert any("PROTOCOL_NAMES" in message for message in messages)

    def test_dangling_alias_is_reported(self, monkeypatch):
        import repro.protocols as protocols

        aliases = dict(protocols.PROTOCOL_ALIASES)
        aliases["mosi"] = "mosi-snoop"  # no such registered protocol
        monkeypatch.setattr(protocols, "PROTOCOL_ALIASES", aliases)
        messages = _reg002_messages()
        assert messages == [
            "PROTOCOL_ALIASES['mosi'] points at unregistered protocol "
            "'mosi-snoop'"
        ]

    def test_api_surface_drift_is_reported(self, monkeypatch):
        import repro.api.spec as spec

        monkeypatch.setattr(spec, "PROTOCOL_NAMES", spec.PROTOCOL_NAMES[:3])
        messages = _reg002_messages()
        assert len(messages) == 1
        assert "does not match PROTOCOLS keys" in messages[0]

    def test_factory_without_protocol_name_is_reported(self, monkeypatch):
        import repro.protocols as protocols

        class Nameless:
            def build(self, context):
                raise NotImplementedError

        broken = dict(protocols.PROTOCOLS)
        broken["moesi-snoop"] = Nameless
        monkeypatch.setattr(protocols, "PROTOCOLS", broken)
        messages = _reg002_messages()
        assert any(
            "does not carry a ProtocolName" in message for message in messages
        )
