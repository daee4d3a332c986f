"""Registry-parity rules (REG001, REG002).

REG001: every registered fast implementation must mirror its reference's
public API: ``CACHE_ARRAYS`` ("dict" is the reference).  The rule imports
the live registries and compares public method signatures with
:mod:`inspect` -- names, parameter names and parameter kinds -- so API
drift fails at lint time instead of surfacing as an ``AttributeError`` deep
inside an equivalence run.

Fast implementations may *add* public methods (tuning knobs, extra
introspection); they may never lose or reshape a reference method.
``__init__`` is exempt (construction is owned by the registry factories),
as are dunders other than the container protocol the references export.

REG002: the protocol registry must stay in three-way lockstep --
``repro.protocols.PROTOCOLS`` (the factory registry),
``repro.protocols.base.ProtocolName`` (the enum the controllers carry) and
``repro.api.spec.PROTOCOL_NAMES`` (the validated API surface).  Adding a
protocol to one place but not the others would let specs name protocols
the builder cannot make, or ship protocols the API rejects.
"""

from __future__ import annotations

import inspect
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.framework import SEVERITY_ERROR, FileContext, Finding, Rule

#: Dunder methods that are part of the compared public API.
_COMPARED_DUNDERS = frozenset(
    {"__contains__", "__len__", "__bool__", "__iter__", "__getitem__"}
)


def _public_methods(cls: type) -> Dict[str, object]:
    methods: Dict[str, object] = {}
    for name in dir(cls):
        if name.startswith("_") and name not in _COMPARED_DUNDERS:
            continue
        member = inspect.getattr_static(cls, name)
        if isinstance(member, property):
            methods[name] = member
        elif inspect.isfunction(member):
            methods[name] = member
    return methods


def _signature_shape(func: object) -> Optional[List[Tuple[str, str]]]:
    try:
        signature = inspect.signature(func)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    return [
        (parameter.name, parameter.kind.name)
        for parameter in signature.parameters.values()
    ]


def _anchor(cls: type, member: object) -> Tuple[str, int]:
    """(path, line) of a method/property for anchoring a finding."""
    target = member.fget if isinstance(member, property) else member
    try:
        path = inspect.getsourcefile(target) or "<unknown>"
        _, line = inspect.getsourcelines(target)
    except (OSError, TypeError):
        try:
            path = inspect.getsourcefile(cls) or "<unknown>"
            _, line = inspect.getsourcelines(cls)
        except (OSError, TypeError):
            return "<unknown>", 1
    return path, line


def compare_registry(
    registry: Dict[str, type],
    reference_key: str,
    registry_name: str,
    path: str,
) -> List[Finding]:
    """Findings for every fast implementation that drifts from the reference.

    ``path`` anchors the findings (the module that owns the registry);
    lines point at the drifting implementation where source is available.
    """
    findings: List[Finding] = []
    reference = registry[reference_key]
    reference_methods = _public_methods(reference)
    for key, impl in registry.items():
        if key == reference_key:
            continue
        impl_methods = _public_methods(impl)
        for name, ref_member in sorted(reference_methods.items()):
            impl_member = impl_methods.get(name)
            if impl_member is None:
                _, line = _anchor(impl, impl)
                findings.append(
                    Finding(
                        rule="REG001",
                        severity=SEVERITY_ERROR,
                        path=path,
                        line=line,
                        col=1,
                        message=(
                            f"{registry_name}[{key!r}] ({impl.__name__}) is "
                            f"missing public method {name!r} of reference "
                            f"{reference.__name__}"
                        ),
                    )
                )
                continue
            if isinstance(ref_member, property) != isinstance(
                impl_member, property
            ):
                _, line = _anchor(impl, impl_member)
                findings.append(
                    Finding(
                        rule="REG001",
                        severity=SEVERITY_ERROR,
                        path=path,
                        line=line,
                        col=1,
                        message=(
                            f"{registry_name}[{key!r}].{name}: property vs "
                            f"method mismatch with {reference.__name__}"
                        ),
                    )
                )
                continue
            ref_shape = _signature_shape(
                ref_member.fget
                if isinstance(ref_member, property)
                else ref_member
            )
            impl_shape = _signature_shape(
                impl_member.fget
                if isinstance(impl_member, property)
                else impl_member
            )
            if ref_shape is not None and impl_shape is not None and (
                ref_shape != impl_shape
            ):
                _, line = _anchor(impl, impl_member)
                findings.append(
                    Finding(
                        rule="REG001",
                        severity=SEVERITY_ERROR,
                        path=path,
                        line=line,
                        col=1,
                        message=(
                            f"{registry_name}[{key!r}].{name} signature "
                            f"drifted from {reference.__name__}.{name}: "
                            f"{_render(impl_shape)} vs {_render(ref_shape)}"
                        ),
                    )
                )
    return findings


def _render(shape: List[Tuple[str, str]]) -> str:
    return "(" + ", ".join(name for name, _kind in shape) + ")"


#: Files that own a registry -> loader returning (registry, reference key,
#: registry name).  The rule fires once per owning file during a sweep.
def _load_cache_arrays():
    from repro.memory.cache import CACHE_ARRAYS

    return CACHE_ARRAYS, "dict", "CACHE_ARRAYS"


REGISTRY_OWNERS = {
    "repro/memory/cache.py": _load_cache_arrays,
}


class RegistryParityRule(Rule):
    id = "REG001"
    severity = SEVERITY_ERROR
    summary = "registered fast implementation drifted from its reference API"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for suffix, loader in REGISTRY_OWNERS.items():
            if not ctx.path.endswith(suffix):
                continue
            try:
                registry, reference_key, registry_name = loader()
            except ImportError:  # pragma: no cover - repro not importable
                return
            yield from compare_registry(
                registry, reference_key, registry_name, ctx.path
            )


# ----------------------------------------------------------------- REG002
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


RULES = (RegistryParityRule(), ProtocolRegistryParityRule())
