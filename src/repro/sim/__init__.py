"""A compact discrete-event simulation kernel (SimPy-flavoured).

Every substrate in this reproduction — network links, DRAM channels, GPU
engines, MPI ranks — is a generator-based :class:`Process` scheduled by an
:class:`Environment`.  The kernel supports timeouts, one-shot events,
``AllOf``/``AnyOf`` conditions, ``Environment.first_of`` timed waits
(:class:`FirstOf`, timed by a per-delay deadline chain rather than a queued
``Timeout``), process interrupts, and the three classic shared-resource
primitives (:class:`Resource`, :class:`Container`,
:class:`Store`).
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    FirstOf,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.resources import Container, PriorityResource, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Environment",
    "Event",
    "FirstOf",
    "Interrupt",
    "PriorityResource",
    "Process",
    "Resource",
    "Store",
    "Timeout",
]
