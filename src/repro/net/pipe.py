"""Fixed-delay pass-through elements.

The wide-area path between the content server and the 5G core is modelled as
a :class:`DelayPipe` whose one-way delay is half the uncongested ping time
reported in the paper (38 ms or 106 ms RTT to the Azure instances).
"""

from __future__ import annotations

from typing import Optional

from repro.net.base import PacketSink
from repro.net.packet import Packet
from repro.sim.engine import Simulator


class DelayPipe:
    """Deliver each packet to ``sink`` after a constant delay.

    The pipe has infinite capacity: it models propagation, not queueing.

    Two fixed-delay hops in a row cost one scheduled event, not two, where
    that is exact:

    * an upstream hop whose own delay ends at this pipe hands the packet
      over early with the remaining ``lead`` (``receive(packet, lead)``);
      delivery is then at ``(now + lead) + delay``, the same float the two
      hops would have produced;
    * a sink that offers ``accept_ahead(packet, arrival)`` (the 5G core)
      may take the packet at pipe entry and schedule its own processing
      from the known ``arrival`` time; when it declines, the packet is
      delivered hop by hop.
    """

    def __init__(self, sim: Simulator, delay: float,
                 sink: Optional[PacketSink] = None,
                 name: str = "pipe") -> None:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self._sim = sim
        self.delay = delay
        self.sink = sink
        self.name = name
        self.forwarded_packets = 0
        self.forwarded_bytes = 0

    @property
    def sink(self) -> Optional[PacketSink]:
        return self._sink

    @sink.setter
    def sink(self, sink: Optional[PacketSink]) -> None:
        self._sink = sink
        self._accept_ahead = getattr(sink, "accept_ahead", None)

    def receive(self, packet: Packet, lead: float = 0.0) -> None:
        """Accept ``packet``; it entered the pipe ``lead`` seconds from now."""
        self.forwarded_packets += 1
        self.forwarded_bytes += packet.size
        if lead == 0 and self.delay == 0:
            self._deliver(packet)
            return
        arrival = (self._sim.now + lead) + self.delay
        accept_ahead = self._accept_ahead
        if accept_ahead is None or not accept_ahead(packet, arrival):
            self._sim.schedule_at(arrival, self._deliver, packet)

    def _deliver(self, packet: Packet) -> None:
        if self._sink is not None:
            self._sink.receive(packet)


class VariableDelayPipe(DelayPipe):
    """A delay pipe whose latency can be changed while the simulation runs.

    Packets in flight keep the delay that was current when they entered, so
    reordering cannot be introduced by lowering the delay mid-run unless the
    caller wants exactly that behaviour (``allow_reorder=True``).
    """

    def __init__(self, sim: Simulator, delay: float,
                 sink: Optional[PacketSink] = None,
                 name: str = "vpipe", allow_reorder: bool = False) -> None:
        super().__init__(sim, delay, sink, name)
        self._allow_reorder = allow_reorder
        self._last_delivery = 0.0

    def receive(self, packet: Packet) -> None:
        self.forwarded_packets += 1
        self.forwarded_bytes += packet.size
        delivery = self._sim.now + self.delay
        if not self._allow_reorder:
            delivery = max(delivery, self._last_delivery)
        self._last_delivery = delivery
        self._sim.schedule_at(delivery, self._deliver, packet)
