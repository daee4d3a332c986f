"""The typed experiment request object shared by the API and the service.

:class:`ExperimentSpec` replaces the ``**overrides`` kwargs-soup of the
original convenience API with one frozen, validated value object.  A spec
names exactly what used to be spread across positional arguments and loose
keywords:

* ``workload`` -- a profile name from :mod:`repro.workloads.profiles`
  (aliases such as ``"tpc-c"`` are canonicalised at construction);
* ``protocol`` / ``network`` -- canonical simulator names (aliases such as
  ``"snoop"`` or ``"bfly"`` are canonicalised too, so equivalent specs
  compare and hash equal);
* ``scale`` -- the reference-stream scale factor;
* ``overrides`` -- a sorted tuple of ``(field, value)`` pairs applied to
  :class:`~repro.system.config.SystemConfig`.

Every field is validated **eagerly** at construction: unknown workloads,
protocols, networks and override names raise :class:`ExperimentSpecError`
with the list of valid choices, instead of failing deep inside the system
builder.

The same object is what the service layer hashes for its content-addressed
result cache: :func:`canonical_experiment` resolves a spec (or an explicit
``(config, profile)`` pair) into a canonical dictionary that is independent
of override order, of overrides that restate a default, and of the
checking knobs that never change simulated results.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.network import NETWORK_ALIASES
from repro.network import canonical_network_name as _canonical_network_name
from repro.protocols import PROTOCOLS as _PROTOCOLS
from repro.protocols import canonical_protocol_name as _canonical_protocol_name
from repro.system.config import SystemConfig
from repro.workloads.profiles import WorkloadProfile, get_profile, workload_names


class ExperimentSpecError(ValueError):
    """A spec field failed eager validation (message lists valid choices)."""


#: Canonical protocol names, in registry order (the paper trio first, then
#: the MESI/MOESI matrix variants): the keys of
#: :data:`repro.protocols.PROTOCOLS`.
PROTOCOL_NAMES = tuple(_PROTOCOLS)

#: Canonical network names, in the order of
#: :data:`repro.network.NETWORK_ALIASES`.
NETWORK_NAMES = tuple(dict.fromkeys(NETWORK_ALIASES.values()))

#: ``SystemConfig`` fields that never change simulated results -- the
#: checking knobs.  They are excluded from the canonical form so cache
#: entries are shared across them.
RESULT_NEUTRAL_CONFIG_FIELDS = frozenset({"enable_checker", "sanitize"})

#: Config fields owned by dedicated spec fields; overriding them through
#: ``overrides`` would silently fight the spec, so it is rejected.
_RESERVED_OVERRIDES = ("network", "protocol")


def canonical_protocol_name(name: str) -> str:
    """Resolve a protocol name or alias to its canonical form."""
    try:
        return _canonical_protocol_name(name)
    except ValueError:
        raise ExperimentSpecError(
            f"unknown protocol {name!r}; valid choices: "
            f"{', '.join(PROTOCOL_NAMES)}"
        ) from None


def canonical_network_name(name: str) -> str:
    """Resolve a network name or alias to its canonical form."""
    try:
        return _canonical_network_name(name)
    except ValueError:
        raise ExperimentSpecError(
            f"unknown network {name!r}; valid choices: {', '.join(NETWORK_NAMES)}"
        ) from None


def _override_field_names() -> Tuple[str, ...]:
    return tuple(
        field.name
        for field in fields(SystemConfig)
        if field.name not in _RESERVED_OVERRIDES
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-specified experiment request.

    The single entry-point object of :mod:`repro.api`: every convenience
    wrapper builds specs internally, the service layer accepts them as job
    requests, and the result cache hashes their canonical form.  Construct
    directly or via :meth:`make` (which accepts config overrides as plain
    keywords)::

        spec = ExperimentSpec.make(
            "oltp", protocol="diropt", network="torus", scale=0.5, slack=2
        )
        result = spec.run()

    Instances are frozen, hashable and eagerly validated; two specs that
    describe the same experiment (override order, alias spelling or
    restated defaults notwithstanding) compare equal after
    :func:`canonical_experiment` resolution.
    """

    workload: str = "oltp"
    protocol: str = "ts-snoop"
    network: str = "butterfly"
    scale: float = 1.0
    #: ``SystemConfig`` overrides as a name-sorted tuple of pairs.
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        profile_name = _validate_workload(self.workload)
        object.__setattr__(self, "workload", profile_name)
        object.__setattr__(self, "protocol", canonical_protocol_name(self.protocol))
        object.__setattr__(self, "network", canonical_network_name(self.network))
        if not self.scale > 0:
            raise ExperimentSpecError(f"scale must be positive, got {self.scale!r}")
        object.__setattr__(self, "overrides", _normalise_overrides(self.overrides))
        # Building the effective config validates override *values* eagerly
        # too (SystemConfig.__post_init__ checks ranges, cache geometry and
        # registry names); a bad value is a spec error, not a crash.
        try:
            self.config()
        except (ValueError, TypeError) as error:
            raise ExperimentSpecError(
                "invalid SystemConfig override value in "
                f"{dict(self.overrides)!r}: {error}"
            ) from None

    # ------------------------------------------------------------ factory
    @classmethod
    def make(
        cls,
        workload: str = "oltp",
        protocol: str = "ts-snoop",
        network: str = "butterfly",
        scale: float = 1.0,
        **overrides: Any,
    ) -> "ExperimentSpec":
        """Build a spec with config overrides given as plain keywords."""
        return cls(
            workload=workload,
            protocol=protocol,
            network=network,
            scale=scale,
            overrides=tuple(sorted(overrides.items())),
        )

    # ----------------------------------------------------------- resolve
    def config(self) -> SystemConfig:
        """The effective ``SystemConfig`` (spec fields + overrides applied)."""
        return SystemConfig(
            protocol=self.protocol, network=self.network, **dict(self.overrides)
        )

    def profile(self) -> WorkloadProfile:
        """The effective workload profile, scaled."""
        profile = get_profile(self.workload)
        return profile if self.scale == 1.0 else profile.scaled(self.scale)

    def overrides_dict(self) -> Dict[str, Any]:
        return dict(self.overrides)

    # -------------------------------------------------------- persistence
    def as_document(self) -> Dict[str, Any]:
        """This spec as a JSON-safe dictionary (the job journal's format)."""
        return {
            "workload": self.workload,
            "protocol": self.protocol,
            "network": self.network,
            "scale": self.scale,
            "overrides": [[name, value] for name, value in self.overrides],
        }

    @classmethod
    def from_document(cls, document: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`as_document` output (re-validated)."""
        try:
            overrides = tuple(
                (pair[0], pair[1]) for pair in document.get("overrides", ())
            )
            return cls(
                workload=document["workload"],
                protocol=document["protocol"],
                network=document["network"],
                scale=document["scale"],
                overrides=overrides,
            )
        except (KeyError, TypeError, IndexError) as error:
            raise ExperimentSpecError(
                f"malformed spec document {document!r}: {error}"
            ) from None

    def with_overrides(self, **overrides: Any) -> "ExperimentSpec":
        """A copy with additional (or replaced) config overrides."""
        merged = self.overrides_dict()
        merged.update(overrides)
        return replace(self, overrides=tuple(sorted(merged.items())))

    def run(self, jobs: Optional[int] = 1):
        """Run this experiment (thin sugar over :func:`repro.api.run_experiment`)."""
        from repro import api

        return api.run_experiment(spec=self, jobs=jobs)

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.protocol}/{self.network}@{self.scale:g}"


def _validate_workload(name: str) -> str:
    try:
        return get_profile(name).name
    except ValueError:
        raise ExperimentSpecError(
            f"unknown workload {name!r}; valid choices: "
            f"{', '.join(workload_names())} (see repro.workloads.profiles)"
        ) from None


def _normalise_overrides(overrides: Any) -> Tuple[Tuple[str, Any], ...]:
    if isinstance(overrides, Mapping):
        items = overrides.items()
    else:
        items = list(overrides)
        for pair in items:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ExperimentSpecError(
                    "overrides must be a mapping or an iterable of "
                    f"(name, value) pairs, got {pair!r}"
                )
    valid = _override_field_names()
    cleaned = {}
    for name, value in items:
        if name in _RESERVED_OVERRIDES:
            raise ExperimentSpecError(
                f"override {name!r} conflicts with the spec field of the same "
                f"name; set ExperimentSpec.{name} instead"
            )
        if name not in valid:
            raise ExperimentSpecError(
                f"unknown SystemConfig override {name!r}; valid names: "
                f"{', '.join(valid)}"
            )
        cleaned[name] = value
    return tuple(sorted(cleaned.items()))


# --------------------------------------------------------------- canonical
def canonical_config(config: SystemConfig) -> Dict[str, Any]:
    """The result-relevant fields of ``config`` as a plain dictionary.

    Nested frozen dataclasses (network/protocol timing) are flattened to
    dictionaries; the :data:`RESULT_NEUTRAL_CONFIG_FIELDS` are dropped, so
    two configs that differ only in how the run is checked (never in the
    result itself) canonicalise identically.
    """
    out: Dict[str, Any] = {}
    for field in fields(config):
        if field.name in RESULT_NEUTRAL_CONFIG_FIELDS:
            continue
        out[field.name] = _plain(getattr(config, field.name))
    return out


def canonical_profile(profile: WorkloadProfile) -> Dict[str, Any]:
    """Every field of the (already scaled) workload profile."""
    return {
        field.name: _plain(getattr(profile, field.name)) for field in fields(profile)
    }


def canonical_experiment(
    config: SystemConfig, profile: WorkloadProfile
) -> Dict[str, Any]:
    """The canonical form hashed by the service result cache.

    Stable under override order, alias spelling, restated defaults and
    the result-neutral checking knobs; any change that *can* alter a simulated
    result (topology, timing, protocol, stream shape, seed, replica count)
    changes the canonical form.
    """
    return {
        "config": canonical_config(config),
        "profile": canonical_profile(profile),
    }


def _plain(value: Any) -> Any:
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if hasattr(value, "__dataclass_fields__"):
        return {
            field.name: _plain(getattr(value, field.name)) for field in fields(value)
        }
    raise TypeError(
        f"cannot canonicalise config value of type {type(value).__name__}: "
        f"{value!r}"
    )


#: Names accepted by :func:`ExperimentSpec.make` as config overrides.
OVERRIDE_FIELD_NAMES = _override_field_names()

#: Workloads in paper order (re-exported for CLI help texts).
WORKLOAD_NAMES = tuple(workload_names())

__all__ = [
    "ExperimentSpec",
    "ExperimentSpecError",
    "PROTOCOL_NAMES",
    "NETWORK_NAMES",
    "WORKLOAD_NAMES",
    "OVERRIDE_FIELD_NAMES",
    "RESULT_NEUTRAL_CONFIG_FIELDS",
    "canonical_protocol_name",
    "canonical_network_name",
    "canonical_config",
    "canonical_profile",
    "canonical_experiment",
]
