"""Protocol-registry parity (REG002) tests.

The protocol registry's three name surfaces (PROTOCOLS, ProtocolName,
api.spec.PROTOCOL_NAMES) must agree: live parity plus synthetic drift
injected through monkeypatching.
"""

from repro.lint.parity import check_protocol_registry


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
        assert any("does not carry a ProtocolName" in message for message in messages)
