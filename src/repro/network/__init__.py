"""Network fabric: links, switches, and end-to-end transfers.

The fabric connects :class:`~repro.hardware.node.Node` objects through a
switch.  Each transfer is one :class:`Flow` event.  It holds the sender's TX
slot and the receiver's RX slot for the serialization time at the *slower*
endpoint NIC (a store-and-forward first-order model), plus the one-way
latency (NIC + switch).  The bisection bandwidth of the switch throttles
aggregate throughput when the cluster oversubscribes it.
"""

from repro.network.fabric import Fabric, Flow
from repro.network.switch import SwitchSpec
from repro.network.microbench import iperf, ping_pong

__all__ = ["Fabric", "Flow", "SwitchSpec", "iperf", "ping_pong"]
