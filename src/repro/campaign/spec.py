"""Canonical run descriptions: :class:`RunSpec` and the code fingerprint.

A :class:`RunSpec` is the *normalized* identity of one measurement: the
workload name, its **fully resolved** constructor kwargs (defaults filled
in, enums collapsed to their values), the cluster shape
(system/nodes/network/ranks-per-node) with ignored dimensions
canonicalized away, the traced flag, and a fingerprint of the package
source.  Two calls that would produce bit-identical simulations normalize
to the same spec — this is what makes the result cache sound:

* ``run_workload("hpl")`` and the same call with every default passed
  explicitly produce **one** key, not two;
* ``system="thunderx"`` ignores ``nodes`` (the Cavium box is one server)
  and ``gtx980``/``thunderx`` ignore ``network``, so those dimensions are
  pinned to their effective values before keying;
* workload seeds are ordinary constructor kwargs (e.g. the CNN decode
  seed), so they participate in the key like any other parameter;
* a ``hardware`` override of a catalog component field equal to the
  catalog value is dropped, so a study's baseline point is the plain spec.

The digest deliberately excludes the code fingerprint — the persistent
store keeps one file per spec and *invalidates* it when the fingerprint
moves, rather than accumulating stale entries per source revision.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Any

from repro.cluster.cluster import (
    Cluster,
    ClusterSpec,
    gtx980_cluster_spec,
    thunderx_cluster_spec,
    tx1_cluster_spec,
)
from repro.errors import ConfigurationError

#: Networks the cluster catalog knows how to build.
KNOWN_NETWORKS = ("1G", "10G")
#: Systems the cluster catalog knows how to build.
KNOWN_SYSTEMS = ("tx1", "gtx980", "thunderx")
#: The paper's §IV-A rank count on the Cavium ThunderX.
THUNDERX_RANKS = 64
#: Catalog components a ``hardware`` override may name (``"part.field"``).
HARDWARE_PARTS = ("cpu", "gpu", "dram", "nic")

_fingerprint: str | None = None


def code_fingerprint() -> str:
    """A short stable hash of the repro package source (plus its version).

    Any edit to any module under ``repro`` changes the fingerprint, which
    invalidates every persistent cache entry — the simulator is the
    "binary" whose outputs are being memoized.  Computed once per process.
    """
    global _fingerprint
    if _fingerprint is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        digest.update(getattr(repro, "__version__", "0").encode("utf-8"))
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _fingerprint = digest.hexdigest()[:16]
    return _fingerprint


def _override(cluster: ClusterSpec, key: str, value: float) -> ClusterSpec:
    """*cluster* with catalog field *key* (``"part.field"``) replaced and re-validated."""
    part, _, name = key.partition(".")
    holder = cluster if part == "nic" else cluster.node_spec
    component = getattr(holder, part, None) if part in HARDWARE_PARTS else None
    if component is None or name not in {f.name for f in fields(component)}:
        raise ConfigurationError(
            f"unknown hardware override {key!r} for {cluster.name}; use "
            f"'part.field' with part one of {', '.join(HARDWARE_PARTS)}"
        )
    changed = replace(holder, **{part: replace(component, **{name: value})})
    return changed if part == "nic" else replace(cluster, node_spec=changed)


def build_cluster_spec(
    system: str, nodes: int, network: str, hardware: tuple[tuple[str, float], ...] = ()
) -> ClusterSpec:
    """The :class:`ClusterSpec` a normalized spec describes."""
    if system == "tx1":
        cluster = tx1_cluster_spec(nodes, network)
    elif system == "gtx980":
        cluster = gtx980_cluster_spec(nodes)
    elif system == "thunderx":
        cluster = thunderx_cluster_spec()
    else:
        raise ConfigurationError(
            f"unknown system {system!r}; known systems: {', '.join(KNOWN_SYSTEMS)}"
        )
    for key, value in hardware:
        cluster = _override(cluster, key, value)
    return cluster


def _resolve_hardware(system: str, nodes: int, network: str, hardware: Any) -> tuple:
    """*hardware* as sorted floats, overrides equal to the catalog dropped."""
    base = build_cluster_spec(system, nodes, network)
    overrides = []
    for key, value in sorted(dict(hardware).items()):
        if type(value) not in (int, float) or not math.isfinite(value):
            raise ConfigurationError(f"hardware override {key!r} must be a finite number")
        if _override(base, key, value) != base:
            overrides.append((key, float(value)))
    build_cluster_spec(system, nodes, network, tuple(overrides))  # jointly valid
    return tuple(overrides)


def build_cluster(spec: "RunSpec") -> Cluster:
    """A fresh (un-simulated) cluster matching *spec*'s shape and hardware."""
    return Cluster(build_cluster_spec(
        spec.system, spec.nodes, spec.network, spec.hardware
    ))


@functools.cache
def _constructor_parameters(cls: type) -> Mapping[str, Any]:
    """Every named constructor parameter over *cls*'s MRO, with defaults.

    Base-class defaults first, subclass overrides win — this resolves the
    ``**kwargs``-forwarding chains the workload hierarchy uses (a concrete
    solver forwards ``memory_model``/``gpudirect`` to its base).  Required
    parameters map to :data:`inspect.Parameter.empty`.  Signatures are
    walked once per class (the walk costs more than the constructor), and
    the shared result is read-only.
    """
    params: dict[str, Any] = {}
    for klass in reversed(cls.__mro__):
        init = klass.__dict__.get("__init__")
        if init is None:
            continue
        try:
            signature = inspect.signature(init)
        except (TypeError, ValueError):  # builtins without signatures
            continue
        for parameter in signature.parameters.values():
            if parameter.name == "self" or parameter.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                continue
            params[parameter.name] = parameter.default
    return MappingProxyType(params)


def _canonical_value(name: str, key: str, value: Any) -> Any:
    """*value* reduced to a hashable, JSON-stable form (or a taxonomy error).

    Accepts None, bools, ints, floats, strings, enums (collapsed to their
    ``.value``), and sequences of those (collapsed to tuples).  Everything
    else — sets, dicts, ndarrays, ad-hoc objects — is rejected with a
    :class:`ConfigurationError` instead of the bare ``TypeError`` the old
    tuple-of-items cache key raised on unhashable values.
    """
    if isinstance(value, Enum):
        return _canonical_value(name, key, value.value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_canonical_value(name, key, item) for item in value)
    raise ConfigurationError(
        f"workload {name!r}: parameter {key}={value!r} has uncacheable type "
        f"{type(value).__name__} (use None, bool, int, float, str, or "
        f"sequences of those)"
    )


def _resolve_workload_kwargs(
    name: str, kwargs: dict[str, Any]
) -> tuple[tuple[str, Any], ...]:
    """The canonical resolved kwargs for workload *name*.

    Resolution fills in every constructor default so omitted-vs-explicit
    defaults key identically; unknown parameter names raise the taxonomy
    error with the known choices.  Every canonical value feeds back to the
    constructor (an enum collapses to the string its constructor coerces),
    so every spec revives.
    """
    from repro.workloads import GPGPU_FACTORIES, NPB_SPECS

    if name in NPB_SPECS:
        # The NPB codes take no constructor parameters; silently dropping
        # kwargs (the old factory behaviour) aliased distinct-looking keys
        # onto identical runs.
        if kwargs:
            raise ConfigurationError(
                f"workload {name!r} accepts no parameters; "
                f"got {', '.join(sorted(kwargs))}"
            )
        return ()
    cls, preset = GPGPU_FACTORIES[name]
    parameters = _constructor_parameters(cls)
    fixed = sorted(set(kwargs) & set(preset))
    if fixed:
        raise ConfigurationError(
            f"workload {name!r} fixes parameter(s) {', '.join(fixed)}; "
            f"they cannot be overridden"
        )
    unknown = sorted(set(kwargs) - set(parameters))
    if unknown:
        known = sorted(set(parameters) - set(preset))
        raise ConfigurationError(
            f"unknown parameter(s) {', '.join(unknown)} for workload "
            f"{name!r}; known parameters: {', '.join(known)}"
        )
    resolved: dict[str, Any] = {}
    for key in sorted(parameters):
        value = kwargs.get(key, preset.get(key, parameters[key]))
        if value is inspect.Parameter.empty:
            raise ConfigurationError(
                f"workload {name!r} requires parameter {key!r}"
            )
        resolved[key] = _canonical_value(name, key, value)
    return tuple(sorted(resolved.items()))


def build_workload(name: str, kwargs: dict[str, Any]):
    """``make_workload`` with constructor failures mapped to the taxonomy.

    A mixed-type value that survives canonicalization (say ``n=[1, 2]``)
    can still blow up inside a constructor comparison; surface that as a
    :class:`ConfigurationError` rather than a bare ``TypeError``.
    """
    from repro.workloads import make_workload

    try:
        return make_workload(name, **kwargs)
    except TypeError as exc:
        raise ConfigurationError(
            f"invalid parameters for workload {name!r}: {exc}"
        ) from exc


@functools.cache
def _default_ranks_per_node(
    name: str, resolved: tuple[tuple[str, Any], ...], exact: str
) -> int:
    """The ranks per node workload *name* runs by default with *resolved*.

    Building the workload from its canonical kwargs (as every run builds
    it) is what validates them, so each distinct workload is built once
    per process.  *exact* is ``repr(resolved)``: it only keys the cache,
    keeping ``2`` apart from ``2.0`` and ``True`` from ``1``, which compare
    equal.  A build that raises is not cached, so invalid kwargs raise on
    every call.
    """
    return build_workload(name, dict(resolved)).default_ranks_per_node


@dataclass(frozen=True)
class RunSpec:
    """The canonical, hashable description of one measurement run."""

    name: str
    nodes: int
    network: str
    system: str
    ranks_per_node: int
    traced: bool
    #: Fully resolved constructor kwargs, sorted, canonical values.
    workload_kwargs: tuple[tuple[str, Any], ...]
    #: Catalog overrides ``("part.field", float)``, sorted, none a no-op.
    hardware: tuple[tuple[str, float], ...] = ()
    #: Source fingerprint the persistent store validates against.
    fingerprint: str = field(default="", compare=False)

    @classmethod
    def normalize(
        cls,
        name: str,
        nodes: int = 16,
        network: str = "10G",
        system: str = "tx1",
        ranks_per_node: int | None = None,
        traced: bool = False,
        hardware: Any = (),
        **workload_kwargs: Any,
    ) -> "RunSpec":
        """Validate and canonicalize one ``run_workload``-shaped request."""
        from repro.workloads import ALL_NAMES

        if name not in ALL_NAMES:
            raise ConfigurationError(
                f"unknown workload {name!r}; known workloads: "
                f"{', '.join(sorted(ALL_NAMES))}"
            )
        if system not in KNOWN_SYSTEMS:
            raise ConfigurationError(
                f"unknown system {system!r}; known systems: "
                f"{', '.join(KNOWN_SYSTEMS)}"
            )
        if network not in KNOWN_NETWORKS:
            raise ConfigurationError(
                f"unknown network {network!r}; known networks: "
                f"{', '.join(KNOWN_NETWORKS)}"
            )
        if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 1:
            raise ConfigurationError(
                f"nodes must be a positive integer, got {nodes!r}"
            )
        if ranks_per_node is not None and (
            not isinstance(ranks_per_node, int)
            or isinstance(ranks_per_node, bool)
            or ranks_per_node < 1
        ):
            raise ConfigurationError(
                f"ranks_per_node must be a positive integer or None, "
                f"got {ranks_per_node!r}"
            )
        resolved = _resolve_workload_kwargs(name, workload_kwargs)
        default_rpn = _default_ranks_per_node(name, resolved, repr(resolved))
        if system == "thunderx":
            # The Cavium box is one server: `nodes` never reaches the
            # cluster builder, and the switch is fixed at 10 GbE.  Pinning
            # both stops one identical run caching under many keys.
            nodes = 1
            network = "10G"
            rpn = ranks_per_node or THUNDERX_RANKS
        else:
            if system == "gtx980":
                network = "10G"  # the discrete-GPU hosts are always 10 GbE
            rpn = ranks_per_node or default_rpn
        return cls(
            name=name,
            nodes=nodes,
            network=network,
            system=system,
            ranks_per_node=rpn,
            traced=bool(traced),
            workload_kwargs=resolved,
            hardware=_resolve_hardware(system, nodes, network, hardware)
            if hardware else (),
            fingerprint=code_fingerprint(),
        )

    # -- identity --------------------------------------------------------------

    @property
    def key(self) -> tuple:
        """The in-process cache key (fingerprint-free: same process, same code)."""
        return (
            self.name, self.nodes, self.network, self.system,
            self.ranks_per_node, self.traced, self.workload_kwargs,
            self.hardware,
        )

    @property
    def sort_key(self) -> tuple:
        """Deterministic campaign ordering (never completion order)."""
        return (
            self.name, self.system, self.nodes, self.network,
            self.ranks_per_node, self.traced,
            tuple((k, repr(v)) for k, v in self.workload_kwargs),
            self.hardware,
        )

    def canonical_dict(self) -> dict[str, Any]:
        """The JSON-stable form the digest is computed over."""
        return {
            "name": self.name,
            "nodes": self.nodes,
            "network": self.network,
            "system": self.system,
            "ranks_per_node": self.ranks_per_node,
            "traced": self.traced,
            "workload_kwargs": {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in self.workload_kwargs
            },
            "hardware": dict(self.hardware),
        }

    @property
    def digest(self) -> str:
        """Content address of this spec in the persistent store."""
        canonical = json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]

    @property
    def label(self) -> str:
        """Short human-readable identity for tables and logs."""
        return f"{self.name}/{self.system}x{self.nodes}/{self.network}"

    def constructor_kwargs(self) -> dict[str, Any]:
        """Kwargs that rebuild the workload from the canonical form."""
        return {key: value for key, value in self.workload_kwargs}

    # -- wire form (campaign workers) ------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe form that round-trips through :meth:`from_dict`."""
        document = self.canonical_dict()
        document["fingerprint"] = self.fingerprint
        return document

    @classmethod
    def from_dict(cls, document: dict[str, Any]) -> "RunSpec":
        """Rebuild a spec shipped by :meth:`to_dict` (digest-preserving)."""
        kwargs = document.get("workload_kwargs", {})
        try:
            return cls._from_dict_checked(document, kwargs)
        except KeyError as exc:
            raise ConfigurationError(
                f"run spec document is missing required key {exc.args[0]!r}"
            ) from exc

    @classmethod
    def _from_dict_checked(
        cls, document: dict[str, Any], kwargs: dict[str, Any]
    ) -> "RunSpec":
        return cls(
            name=document["name"],
            nodes=document["nodes"],
            network=document["network"],
            system=document["system"],
            ranks_per_node=document["ranks_per_node"],
            traced=document["traced"],
            workload_kwargs=tuple(sorted(
                (key, tuple(value) if isinstance(value, list) else value)
                for key, value in kwargs.items()
            )),
            hardware=tuple(sorted(document.get("hardware", {}).items())),
            fingerprint=document.get("fingerprint", ""),
        )
