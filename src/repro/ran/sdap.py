"""SDAP entity: QoS-flow to DRB mapping.

The SDAP layer in the CU-UP maps each downlink packet, by its QoS flow
identifier, to one of the UE's data radio bearers.  In this reproduction the
mapping is driven by the packet's ECN codepoint when the UE is provisioned
with separate L4S and classic bearers (the paper's recommended configuration,
§4.2), and falls back to the UE's single default bearer otherwise (the
"shared DRB" scenario of §4.2.3 and Fig. 16).
"""

from __future__ import annotations

from typing import Optional

from repro.net.ecn import FlowClass
from repro.net.packet import Packet
from repro.ran.identifiers import DrbConfig, DrbId, DrbServiceClass, QosFlowId, UeId


class SdapEntity:
    """Per-UE QFI -> DRB mapping."""

    def __init__(self, ue_id: UeId, drb_configs: list[DrbConfig]) -> None:
        if not drb_configs:
            raise ValueError("a UE needs at least one DRB")
        self.ue_id = ue_id
        self.drb_configs = {cfg.drb_id: cfg for cfg in drb_configs}
        self._qfi_map: dict[QosFlowId, DrbId] = {}
        # The class -> bearer choice, resolved once: the per-packet path
        # compares flow classes by identity instead of hashing enums.
        by_class: dict[DrbServiceClass, DrbId] = {}
        for cfg in drb_configs:
            by_class.setdefault(cfg.service_class, cfg.drb_id)
        fallback = by_class.get(DrbServiceClass.MIXED, drb_configs[0].drb_id)
        self._fallback_drb = fallback
        self._l4s_drb = by_class.get(DrbServiceClass.L4S, fallback)
        self._classic_drb = by_class.get(DrbServiceClass.CLASSIC, fallback)

    # ------------------------------------------------------------------ #
    def map_qfi(self, qfi: QosFlowId, drb_id: DrbId) -> None:
        """Pin a QoS flow to a specific bearer (administrative configuration)."""
        if drb_id not in self.drb_configs:
            raise KeyError(f"UE {self.ue_id} has no DRB {drb_id}")
        self._qfi_map[qfi] = drb_id

    def drb_for_packet(self, packet: Packet,
                       qfi: Optional[QosFlowId] = None) -> DrbId:
        """Choose the bearer for a downlink packet.

        Preference order: an explicit QFI pin, then a bearer provisioned for
        the packet's traffic class, then the default bearer.
        """
        if qfi is not None and qfi in self._qfi_map:
            return self._qfi_map[qfi]
        flow_class = packet.flow_class
        if flow_class is FlowClass.L4S:
            return self._l4s_drb
        if flow_class is FlowClass.CLASSIC:
            return self._classic_drb
        return self._fallback_drb

    @property
    def drb_ids(self) -> list[DrbId]:
        """All bearers configured for this UE."""
        return list(self.drb_configs)
