"""Messages are plain objects: nothing rewrites a message once it is sent.

Every protocol builds a fresh :class:`Message` per send, and neither the
address networks nor the data networks reuse a message for a later one.
So a handler may keep any message it receives, and the message still
holds the fields it was delivered with at the end of the run.  These
tests record every message any handler receives during a full checked
run and compare each with its snapshot at quiescence.
"""

import dataclasses

import pytest

from repro.core.analytical_ordering import AnalyticalTimestampNetwork
from repro.core.timestamp_network import TimestampAddressNetwork
from repro.network.data_network import DataNetwork
from repro.network.message import Message
from repro.system.builder import SystemBuilder, build_streams
from repro.system.config import SystemConfig
from repro.workloads.profiles import get_profile

FIELD_NAMES = tuple(field.name for field in dataclasses.fields(Message))

#: (protocol, topology, detailed address network)
CELLS = [
    ("ts-snoop", "butterfly", False),
    ("moesi-snoop", "butterfly", False),
    ("dirclassic", "butterfly", False),
    ("diropt", "butterfly", False),
    ("mesi-dir", "butterfly", False),
    ("ts-snoop", "butterfly", True),
    ("moesi-snoop", "butterfly", True),
    ("ts-snoop", "torus", False),
    ("diropt", "torus", False),
]


def _snapshot(message):
    return tuple(getattr(message, name) for name in FIELD_NAMES)


class _Recorder:
    """Every message delivered to any handler, with its fields on delivery."""

    def __init__(self):
        self.messages = []
        self.snapshots = []
        self.ordered = 0
        self.unicast = 0

    def keep(self, message):
        self.messages.append(message)
        self.snapshots.append(_snapshot(message))

    def wrap_ordered(self, handler):
        def recording_handler(delivery):
            self.ordered += 1
            self.keep(delivery.message)
            handler(delivery)

        return recording_handler

    def wrap_unicast(self, handler):
        def recording_handler(message):
            self.unicast += 1
            self.keep(message)
            handler(message)

        return recording_handler


@pytest.fixture
def recorder(monkeypatch):
    """Wrap every handler any network registers during the build."""
    recorder = _Recorder()

    def patch_attach(network_class, wrap):
        original = network_class.attach

        def attach(self, endpoint, handler):
            original(self, endpoint, wrap(handler))

        monkeypatch.setattr(network_class, "attach", attach)

    patch_attach(AnalyticalTimestampNetwork, recorder.wrap_ordered)
    patch_attach(TimestampAddressNetwork, recorder.wrap_ordered)
    patch_attach(DataNetwork, recorder.wrap_unicast)
    return recorder


def _checked_run(protocol, network, detailed):
    config = SystemConfig(
        protocol=protocol,
        network=network,
        detailed_address_network=detailed,
        enable_checker=True,
    )
    profile = get_profile("barnes").scaled(0.01)
    system = SystemBuilder(config).build(build_streams(profile, config))
    for processor in system.processors:
        processor.start()
    sim = system.sim
    while not system.all_finished():
        assert sim.run(max_events=500_000) > 0, f"{protocol}: deadlocked"
    # Drain in-flight writebacks and acknowledgements, bounded because the
    # detailed token network never quiesces.
    sim.run(max_events=200_000, until=sim.now + 10_000)
    return system


@pytest.mark.parametrize(
    "protocol, network, detailed",
    CELLS,
    ids=[f"{p}-{n}-{'detailed' if d else 'analytical'}" for p, n, d in CELLS],
)
def test_kept_messages_are_never_rewritten(recorder, protocol, network, detailed):
    system = _checked_run(protocol, network, detailed)
    assert system.all_finished()
    system.checker.assert_clean()
    assert recorder.unicast > 0
    if protocol.endswith("snoop"):
        assert recorder.ordered > 0
    changed = [
        (before, _snapshot(message))
        for message, before in zip(recorder.messages, recorder.snapshots)
        if _snapshot(message) != before
    ]
    assert not changed, f"{len(changed)} kept messages rewritten: {changed[:3]}"
    # One id per message object: no object was re-initialised as another
    # message, and no id was handed to two objects.
    owners = {}
    for message in recorder.messages:
        assert owners.setdefault(message.msg_id, message) is message
