"""Flow identification: the classic five-tuple.

L4Span keeps a mapping from the downlink five-tuple to the (UE, DRB) pair so
that an uplink ACK can be reverse-mapped to the DRB whose marking state it
should carry (paper §4.1, Fig. 22/23 pseudocode).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FiveTuple:
    """Source/destination addresses and ports plus the transport protocol.

    Instances are hashable so they can key the five-tuple -> DRB map.
    """

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: str = "tcp"

    def reversed(self) -> "FiveTuple":
        """The five-tuple of traffic flowing in the opposite direction.

        Cached per instance, outside the dataclass fields (so equality and
        hashing ignore it), and linked both ways: every ACK asks for it
        twice, and ``t.reversed().reversed() is t``.
        """
        cached = self.__dict__.get("_reversed")
        if cached is None:
            cached = FiveTuple(src_ip=self.dst_ip, src_port=self.dst_port,
                               dst_ip=self.src_ip, dst_port=self.src_port,
                               protocol=self.protocol)
            # Frozen: bypass the generated __setattr__.
            object.__setattr__(cached, "_reversed", self)
            object.__setattr__(self, "_reversed", cached)
        return cached

    def __str__(self) -> str:
        return (f"{self.protocol}:{self.src_ip}:{self.src_port}->"
                f"{self.dst_ip}:{self.dst_port}")


def make_flow_tuple(flow_id: int, protocol: str = "tcp",
                    server_ip: str = "10.0.0.1",
                    ue_subnet: str = "10.45.0") -> FiveTuple:
    """Build a deterministic downlink five-tuple for a synthetic flow.

    The server always uses port 443; each flow gets its own UE address and
    client port derived from ``flow_id`` so tuples never collide.
    """
    return FiveTuple(src_ip=server_ip, src_port=443,
                     dst_ip=f"{ue_subnet}.{(flow_id % 250) + 2}",
                     dst_port=50_000 + flow_id, protocol=protocol)
