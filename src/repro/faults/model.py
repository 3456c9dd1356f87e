"""The fault model: typed fault specs and the validated, seeded schedule.

A :class:`FaultSchedule` is a declarative description of everything that
goes wrong during a run — node crashes, NIC bandwidth degradation windows,
link flaps, per-rank straggler jitter, and probabilistic message loss.  The
schedule itself is pure data: deterministic queries over simulated time,
with all randomness deferred to the :class:`repro.faults.FaultInjector`'s
explicitly seeded streams.

An empty schedule is a provable no-op: every query returns the neutral
element (multiplier 1.0, loss probability 0.0, no crash), so a run wired
through the fault layer with no faults reproduces the baseline bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.errors import ConfigurationError


def _check_window(name: str, start: float, end: float) -> None:
    if start < 0:
        raise ConfigurationError(f"{name}: start must be non-negative, got {start}")
    if end <= start:
        raise ConfigurationError(f"{name}: end {end} must be after start {start}")


@dataclass(frozen=True)
class NodeCrash:
    """Compute node *node_id* dies (permanently) at simulated time *at*."""

    node_id: int
    at: float

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ConfigurationError(f"NodeCrash: bad node id {self.node_id}")
        if self.at < 0:
            raise ConfigurationError(f"NodeCrash: crash time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class NicDegradation:
    """Node *node_id*'s NIC runs at ``multiplier`` x its rate in [start, end).

    Models the paper's flaky PCIe 10 GbE cards: the link stays up but the
    achievable rate collapses.  Overlapping windows on one node compound
    multiplicatively.
    """

    node_id: int
    start: float
    end: float
    multiplier: float

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ConfigurationError(f"NicDegradation: bad node id {self.node_id}")
        _check_window("NicDegradation", self.start, self.end)
        if not 0.0 < self.multiplier <= 1.0:
            raise ConfigurationError(
                f"NicDegradation: multiplier must be in (0, 1], got {self.multiplier}"
            )

    def active(self, t: float) -> bool:
        """Whether the window covers time *t*."""
        return self.start <= t < self.end


@dataclass(frozen=True)
class LinkFlap:
    """Node *node_id*'s link drops every payload in [start, end).

    The NIC still serializes bytes (senders burn wire time) but nothing
    arrives — the observable behaviour of a flapping switch port.
    """

    node_id: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ConfigurationError(f"LinkFlap: bad node id {self.node_id}")
        _check_window("LinkFlap", self.start, self.end)

    def active(self, t: float) -> bool:
        """Whether the window covers time *t*."""
        return self.start <= t < self.end


@dataclass(frozen=True)
class StragglerJitter:
    """Rank *rank* computes slower by a persistent multiplier.

    The multiplier is ``1 + |N(mean, std)|`` drawn once per run from the
    schedule's seeded straggler stream — a thermally throttled SoC stays
    slow, it does not oscillate per block.
    """

    rank: int
    mean: float
    std: float = 0.0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(f"StragglerJitter: bad rank {self.rank}")
        if self.mean < 0 or self.std < 0:
            raise ConfigurationError(
                f"StragglerJitter: mean/std must be >= 0, got {self.mean}/{self.std}"
            )


@dataclass(frozen=True)
class MessageLoss:
    """Each transfer touching *node_id* (or any link when ``None``) is lost
    with ``probability`` during [start, end)."""

    probability: float
    start: float = 0.0
    end: float = math.inf
    node_id: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability < 1.0:
            raise ConfigurationError(
                f"MessageLoss: probability must be in [0, 1), got {self.probability}"
            )
        _check_window("MessageLoss", self.start, self.end)
        if self.node_id is not None and self.node_id < 0:
            raise ConfigurationError(f"MessageLoss: bad node id {self.node_id}")

    def applies(self, src_id: int, dst_id: int, t: float) -> bool:
        """Whether this loss term covers a src->dst transfer at time *t*."""
        if not self.start <= t < self.end:
            return False
        return self.node_id is None or self.node_id in (src_id, dst_id)


FaultSpec = NodeCrash | NicDegradation | LinkFlap | StragglerJitter | MessageLoss

_SPEC_KINDS: dict[str, type] = {
    "crash": NodeCrash,
    "nic-degradation": NicDegradation,
    "link-flap": LinkFlap,
    "straggler": StragglerJitter,
    "message-loss": MessageLoss,
}
_KIND_NAMES: dict[type, str] = {cls: kind for kind, cls in _SPEC_KINDS.items()}


class FaultSchedule:
    """A validated, immutable collection of fault specs plus the RNG seed.

    All stochastic faults (loss draws, straggler magnitudes, retry backoff
    jitter) derive their streams from ``seed``, so a schedule fully
    determines a degraded run.
    """

    def __init__(self, faults: Iterable[FaultSpec] = (), seed: int = 0) -> None:
        faults = tuple(faults)
        for fault in faults:
            if not isinstance(fault, _SPEC_KINDS_TUPLE):
                raise ConfigurationError(
                    f"not a fault spec: {fault!r} (expected one of "
                    f"{', '.join(sorted(_SPEC_KINDS))})"
                )
        self.faults = faults
        self.seed = int(seed)
        # Indexed once: the fabric asks for degradations, flaps and losses
        # on every wire transfer, and the schedule never changes.
        self._crashes = _of(faults, NodeCrash)
        self._degradations = _of(faults, NicDegradation)
        self._flaps = _of(faults, LinkFlap)
        self._stragglers = _of(faults, StragglerJitter)
        self._losses = _of(faults, MessageLoss)

    # -- structure ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the schedule injects nothing."""
        return not self.faults

    def __len__(self) -> int:
        return len(self.faults)

    def __repr__(self) -> str:
        return f"<FaultSchedule {len(self.faults)} faults seed={self.seed}>"

    @property
    def crashes(self) -> tuple[NodeCrash, ...]:
        """Node-crash specs in schedule order."""
        return self._crashes

    @property
    def degradations(self) -> tuple[NicDegradation, ...]:
        """NIC-degradation windows in schedule order."""
        return self._degradations

    @property
    def flaps(self) -> tuple[LinkFlap, ...]:
        """Link-flap windows in schedule order."""
        return self._flaps

    @property
    def stragglers(self) -> tuple[StragglerJitter, ...]:
        """Straggler specs in schedule order."""
        return self._stragglers

    @property
    def losses(self) -> tuple[MessageLoss, ...]:
        """Message-loss terms in schedule order."""
        return self._losses

    # -- deterministic queries ----------------------------------------------

    def crash_time(self, node_id: int) -> float | None:
        """Earliest scheduled crash of *node_id*, or None."""
        times = [c.at for c in self.crashes if c.node_id == node_id]
        return min(times) if times else None

    def rate_multiplier(self, node_id: int, t: float) -> float:
        """Product of NIC-degradation multipliers active on *node_id* at *t*."""
        multiplier = 1.0
        for window in self._degradations:
            if window.node_id == node_id and window.active(t):
                multiplier *= window.multiplier
        return multiplier

    def loss_probability(self, src_id: int, dst_id: int, t: float) -> float:
        """Combined drop probability for a src->dst transfer at time *t*.

        Independent loss terms compound as ``1 - prod(1 - p_i)``; an active
        link flap on either endpoint forces certain loss.
        """
        for flap in self._flaps:
            if flap.node_id in (src_id, dst_id) and flap.active(t):
                return 1.0
        survive = 1.0
        for loss in self._losses:
            if loss.applies(src_id, dst_id, t):
                survive *= 1.0 - loss.probability
        return 1.0 - survive

    def mean_rate_multiplier(self, node_id: int, t0: float, t1: float) -> float:
        """Time-averaged link rate multiplier over [t0, t1].

        Link-flap windows count as zero bandwidth (nothing useful arrives),
        so this is the input to the *effective* network roofline ceiling.
        """
        if t1 <= t0:
            return self.rate_multiplier(node_id, t0)
        cuts = {t0, t1}
        for window in self.degradations + self.flaps:
            if window.node_id != node_id:
                continue
            for edge in (window.start, window.end):
                if t0 < edge < t1 and math.isfinite(edge):
                    cuts.add(edge)
        edges = sorted(cuts)
        area = 0.0
        for left, right in zip(edges, edges[1:]):
            mid = 0.5 * (left + right)
            rate = self.rate_multiplier(node_id, mid)
            if any(f.node_id == node_id and f.active(mid) for f in self.flaps):
                rate = 0.0
            area += rate * (right - left)
        return area / (t1 - t0)

    # -- transformation ------------------------------------------------------

    def without_crashes(self) -> "FaultSchedule":
        """A copy with every :class:`NodeCrash` removed (restart semantics)."""
        return FaultSchedule(
            tuple(f for f in self.faults if not isinstance(f, NodeCrash)),
            seed=self.seed,
        )

    def remap_nodes(self, mapping: Mapping[int, int]) -> "FaultSchedule":
        """Re-target node-addressed faults through *mapping*.

        Faults whose node id is absent from the mapping are dropped — the
        restart path uses this when crashed nodes are excluded and survivors
        are renumbered on the smaller cluster.
        """
        kept: list[FaultSpec] = []
        for fault in self.faults:
            node_id = getattr(fault, "node_id", None)
            if node_id is None:
                kept.append(fault)
            elif node_id in mapping:
                kept.append(_replace_node(fault, mapping[node_id]))
        return FaultSchedule(tuple(kept), seed=self.seed)

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-friendly dict (see :meth:`from_dict`)."""
        entries = []
        for fault in self.faults:
            entry: dict[str, Any] = {"kind": _KIND_NAMES[type(fault)]}
            entry.update(
                {
                    k: v
                    for k, v in vars(fault).items()
                    if not (k == "end" and v == math.inf)
                }
            )
            entries.append(entry)
        return {"seed": self.seed, "faults": entries}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSchedule":
        """Build a schedule from :meth:`to_dict` output (e.g. a JSON file)."""
        if not isinstance(data, Mapping):
            raise ConfigurationError("fault schedule must be a mapping")
        entries = data.get("faults", [])
        if not isinstance(entries, (list, tuple)):
            raise ConfigurationError("'faults' must be a list of fault entries")
        faults: list[FaultSpec] = []
        for entry in entries:
            if not isinstance(entry, Mapping) or "kind" not in entry:
                raise ConfigurationError(f"bad fault entry: {entry!r}")
            kind = entry["kind"]
            spec_cls = _SPEC_KINDS.get(kind)
            if spec_cls is None:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r} (expected one of "
                    f"{', '.join(sorted(_SPEC_KINDS))})"
                )
            kwargs = {k: v for k, v in entry.items() if k != "kind"}
            try:
                faults.append(spec_cls(**kwargs))
            except TypeError as exc:
                raise ConfigurationError(f"bad {kind} entry: {exc}") from None
        return cls(tuple(faults), seed=int(data.get("seed", 0)))


_SPEC_KINDS_TUPLE = tuple(_SPEC_KINDS.values())


def _of(faults: tuple[FaultSpec, ...], kind: type) -> tuple:
    return tuple(f for f in faults if isinstance(f, kind))


def _replace_node(fault: FaultSpec, node_id: int):
    kwargs = dict(vars(fault))
    kwargs["node_id"] = node_id
    return type(fault)(**kwargs)
