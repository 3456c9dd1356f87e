"""A compact discrete-event simulation kernel (SimPy-flavoured).

Every substrate in this reproduction — network links, DRAM channels, GPU
engines, MPI ranks — is a generator-based :class:`Process` scheduled by an
:class:`Environment`.  The kernel supports timeouts, one-shot events,
``AllOf``/``AnyOf`` conditions, ``Environment.first_of`` timed waits
(:class:`FirstOf`, timed by a per-delay deadline chain rather than a queued
``Timeout``), process interrupts, the three classic shared-resource
primitives (:class:`Resource`, :class:`Container`,
:class:`Store`), and a NIC's FIFO :class:`Slot`, whose claims are
:class:`Join` events (an ``AllOf`` that pops as one re-armed event).
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    FirstOf,
    Interrupt,
    Join,
    Process,
    Timeout,
)
from repro.sim.resources import Container, PriorityResource, Resource, Slot, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Environment",
    "Event",
    "FirstOf",
    "Interrupt",
    "Join",
    "PriorityResource",
    "Process",
    "Resource",
    "Slot",
    "Store",
    "Timeout",
]
