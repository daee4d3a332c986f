"""Registry-parity rule (REG002).

The protocol registry must stay in three-way lockstep --
``repro.protocols.PROTOCOLS`` (the factory registry),
``repro.protocols.base.ProtocolName`` (the enum the controllers carry) and
``repro.api.spec.PROTOCOL_NAMES`` (the validated API surface).  Adding a
protocol to one place but not the others would let specs name protocols
the builder cannot make, or ship protocols the API rejects.
"""

from __future__ import annotations

from typing import Iterator, List

from repro.lint.framework import SEVERITY_ERROR, FileContext, Finding, Rule


def check_protocol_registry(path: str) -> List[Finding]:
    """Findings for any drift between the three protocol name surfaces.

    Compares ``repro.protocols.PROTOCOLS`` (with its alias table) against
    ``ProtocolName`` and ``repro.api.spec.PROTOCOL_NAMES``; ``path``
    anchors the findings (the module that owns the registry).
    """
    from repro.api.spec import PROTOCOL_NAMES
    from repro.protocols import (
        PROTOCOL_ALIASES,
        PROTOCOLS,
        canonical_protocol_name,
    )
    from repro.protocols.base import ProtocolName

    findings: List[Finding] = []

    def finding(message: str) -> Finding:
        return Finding(
            rule="REG002",
            severity=SEVERITY_ERROR,
            path=path,
            line=1,
            col=1,
            message=message,
        )

    # Every registered factory must carry a ProtocolName whose canonical
    # spelling is its own registry key, and every enum member must be
    # registered under exactly one key.
    names_seen = {}
    for key, factory in PROTOCOLS.items():
        # Factories are zero-argument (that is the registry contract
        # make_protocol relies on); the name may be a class attribute or
        # set at construction from a policy, so read the instance.
        member = getattr(factory(), "name", None)
        if not isinstance(member, ProtocolName):
            findings.append(
                finding(
                    f"PROTOCOLS[{key!r}] ({factory.__name__}) does not "
                    f"carry a ProtocolName as its .name"
                )
            )
            continue
        try:
            canonical = canonical_protocol_name(member.value)
        except ValueError:
            findings.append(
                finding(
                    f"PROTOCOLS[{key!r}]: ProtocolName.{member.name} value "
                    f"{member.value!r} has no alias back to a registry key"
                )
            )
            continue
        if canonical != key:
            findings.append(
                finding(
                    f"PROTOCOLS[{key!r}] carries ProtocolName.{member.name}, "
                    f"which canonicalises to {canonical!r}"
                )
            )
        names_seen.setdefault(member, key)
    for member in ProtocolName:
        if member not in names_seen:
            findings.append(
                finding(
                    f"ProtocolName.{member.name} is not registered in "
                    f"PROTOCOLS"
                )
            )

    # Aliases must resolve into the registry, and every key must be its
    # own alias (so canonical names round-trip).
    for alias, target in PROTOCOL_ALIASES.items():
        if target not in PROTOCOLS:
            findings.append(
                finding(
                    f"PROTOCOL_ALIASES[{alias!r}] points at unregistered "
                    f"protocol {target!r}"
                )
            )
    for key in PROTOCOLS:
        if PROTOCOL_ALIASES.get(key) != key:
            findings.append(
                finding(
                    f"registry key {key!r} is not its own alias; canonical "
                    f"names must round-trip through PROTOCOL_ALIASES"
                )
            )

    # The validated API surface must list exactly the registry, in order.
    if tuple(PROTOCOL_NAMES) != tuple(PROTOCOLS):
        findings.append(
            finding(
                f"repro.api.spec.PROTOCOL_NAMES {tuple(PROTOCOL_NAMES)!r} "
                f"does not match PROTOCOLS keys {tuple(PROTOCOLS)!r}"
            )
        )
    return findings


class ProtocolRegistryParityRule(Rule):
    id = "REG002"
    severity = SEVERITY_ERROR
    summary = "protocol registry, ProtocolName and api.spec drifted apart"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.path.endswith("repro/protocols/__init__.py"):
            return
        try:
            yield from check_protocol_registry(ctx.path)
        except ImportError:  # pragma: no cover - repro not importable
            return


RULES = (ProtocolRegistryParityRule(),)
