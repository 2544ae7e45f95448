"""The 5G core / UPF: routing between the WAN and the RAN.

The core forwards downlink datagrams to the gNB serving their destination UE
and uplink datagrams back onto the wide-area path of their flow.  A small GTP-U
encapsulation/processing latency is modelled; the core performs no queueing of
its own (the paper's bottleneck is always the RAN or an explicit wired
middlebox).

When a scenario is sharded across processes the core additionally acts as the
*shard boundary*: packets whose destination is not registered locally are
handed to :attr:`FiveGCore.remote_sink` (the sharded runtime's outbound
batch buffer) instead of raising, so one core instance per shard collectively
behaves like the single shared core of the unsharded run.
"""

from __future__ import annotations

from typing import Optional

from repro.net.base import PacketSink
from repro.net.packet import Packet
from repro.net.pipe import DelayPipe
from repro.ran.identifiers import UeId
from repro.sim.engine import Simulator
from repro.units import us

#: GTP-U encapsulation/processing latency of the core, shared with the
#: sharded runtime (the conservative window bound of a shared middlebox's
#: egress→remote-core hop is exactly this constant).
CORE_PROCESSING_DELAY = us(150)


class FiveGCore:
    """UPF-style router between the WAN and one or more gNBs."""

    def __init__(self, sim: Simulator,
                 processing_delay: float = CORE_PROCESSING_DELAY,
                 name: str = "5gc") -> None:
        self._sim = sim
        self.name = name
        self.processing_delay = processing_delay
        self._downlink_routes: dict[str, tuple[object, UeId]] = {}
        self._uplink_routes: dict[int, PacketSink] = {}
        self._default_uplink: Optional[PacketSink] = None
        #: Where packets with no local route go.  ``None`` (the default)
        #: keeps the historical behaviour: unroutable downlink raises,
        #: unroutable uplink is dropped.  The sharded runtime installs its
        #: boundary buffer here so cross-shard traffic is batched instead.
        self.remote_sink: Optional[PacketSink] = None
        #: True while no downlink route can be re-pointed mid-run; mobility
        #: clears it (handover re-registers routes).  Only then may a WAN
        #: pipe hand packets over at entry (see :meth:`accept_ahead`).
        self.static_routes = True
        self.downlink_packets = 0
        self.uplink_packets = 0
        self.remote_packets = 0

    # ------------------------------------------------------------------ #
    # Routing table management
    # ------------------------------------------------------------------ #
    def register_ue_address(self, ip_address: str, gnb, ue_id: UeId) -> None:
        """Route downlink packets destined to ``ip_address`` to ``gnb``/``ue_id``."""
        self._downlink_routes[ip_address] = (gnb, ue_id)

    def unregister_ue_address(self, ip_address: str) -> None:
        """Drop the downlink route for ``ip_address`` (no-op when absent).

        The sharded runtime's alias routing uses this on shards hosting a
        *losing* UE of a wrapped (>250-UE) address space: the single shared
        core resolves the collision last-registration-wins, so a shard that
        does not host the winning UE must treat the address as remote.
        """
        self._downlink_routes.pop(ip_address, None)

    def register_uplink_route(self, flow_id: int, sink: PacketSink) -> None:
        """Route uplink packets of ``flow_id`` (ACKs) onto their WAN return path."""
        self._uplink_routes[flow_id] = sink

    def set_default_uplink(self, sink: PacketSink) -> None:
        """Fallback WAN sink for uplink packets of unregistered flows."""
        self._default_uplink = sink

    def knows_ue_address(self, ip_address: str) -> bool:
        """True when a downlink route for ``ip_address`` is registered here."""
        return ip_address in self._downlink_routes

    # ------------------------------------------------------------------ #
    # Data plane
    # ------------------------------------------------------------------ #
    def accept_ahead(self, packet: Packet, arrival: float) -> bool:
        """Take a downlink packet at WAN-pipe entry, due here at ``arrival``.

        Schedules the packet's one core event at ``arrival +
        processing_delay`` -- the time the pipe-then-core hop pair would
        reach -- and returns True.  That is exact only when the route the
        packet finds at ``arrival`` is known now: the destination must be
        routed locally and the route table static (no mobility, no shard
        boundary).  Otherwise returns False and the pipe delivers the
        packet hop by hop.
        """
        if (not self.static_routes or self.remote_sink is not None
                or packet.five_tuple.dst_ip not in self._downlink_routes):
            return False
        self._sim.schedule_at(arrival + self.processing_delay, self.receive,
                              packet, arrival)
        return True

    def receive(self, packet: Packet,
                ingress: Optional[float] = None) -> None:
        """Downlink entry point (the WAN path's sink).

        ``ingress`` is set when a WAN pipe handed the packet over early
        (:meth:`accept_ahead`): it reached the core at ``ingress`` and its
        processing delay has already elapsed.
        """
        route = self._downlink_routes.get(packet.five_tuple.dst_ip)
        if route is None:
            if self.remote_sink is not None:
                self.remote_packets += 1
                self.remote_sink.receive(packet)
                return
            raise KeyError(
                f"no UE registered for {packet.five_tuple.dst_ip}")
        gnb, ue_id = route
        self.downlink_packets += 1
        if ingress is not None:
            packet.stamp("core_ingress", ingress)
            gnb.receive_downlink(packet, ue_id)
            return
        packet.stamp("core_ingress", self._sim.now)
        self._sim.schedule(self.processing_delay, gnb.receive_downlink,
                           packet, ue_id)

    def deliver_downlink(self, packet: Packet) -> None:
        """Hand an already-processed downlink packet to its serving gNB.

        The sharded runtime's shared-middlebox path uses this for packets
        that crossed the shard boundary *after* core ingress: the packet is
        pre-stamped (``core_ingress`` at the middlebox egress time) and the
        boundary delivery already accounts for :attr:`processing_delay`, so
        this routes and forwards immediately instead of re-delaying.
        """
        route = self._downlink_routes.get(packet.five_tuple.dst_ip)
        if route is None:
            raise KeyError(
                f"no UE registered for {packet.five_tuple.dst_ip}")
        gnb, ue_id = route
        self.downlink_packets += 1
        gnb.receive_downlink(packet, ue_id)

    def receive_uplink(self, packet: Packet) -> None:
        """Uplink entry point (the gNB's CU feeds packets here)."""
        self.uplink_packets += 1
        sink = self._uplink_routes.get(packet.flow_id, self._default_uplink)
        if sink is None:
            if self.remote_sink is not None:
                self.remote_packets += 1
                self.remote_sink.receive(packet)
            return
        if type(sink) is DelayPipe:
            # Core processing then the WAN leg, as one scheduled delivery.
            sink.receive(packet, self.processing_delay)
        else:
            self._sim.schedule(self.processing_delay, sink.receive, packet)
