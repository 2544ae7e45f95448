"""The per-packet fast path changes host cost, never simulated outcomes.

Pins result-document digests and marker counters captured before the fast
path existed (two-event WAN/core hops, frozen-dataclass value objects,
unconditional checksum upkeep), checks that checksum upkeep still holds
whenever processing cost is measured, and that the value types kept their
contracts.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

import repro.api as api
from repro.core.config import L4SpanConfig
from repro.core.egress import RateEstimate
from repro.core.l4span import L4SpanLayer
from repro.core.sojourn import SojournPrediction
from repro.experiments.scenario import build_scenario
from repro.experiments.spec import ScenarioSpec
from repro.net.addresses import FiveTuple
from repro.net.checksum import checksums_valid
from repro.net.ecn import ECN
from repro.net.packet import make_data_packet
from repro.ran.f1u import DeliveryStatus
from repro.ran.identifiers import DrbKey
from repro.sim.engine import Simulator
from repro.workloads.flows import FlowSpec


def _document_digest(document: dict) -> str:
    """Digest of a result document minus the event count, the sharding
    block and the delay breakdown (the benchmark driver's semantics)."""
    stripped = {key: value for key, value in document.items()
                if key not in ("events_processed", "sharding",
                               "delay_breakdown")}
    stripped["spec"] = {key: value for key, value in document["spec"].items()
                        if key != "sharding"}
    stripped["summary"] = {key: value
                           for key, value in document["summary"].items()
                           if key != "events"}
    return hashlib.sha256(
        api.dump_document(stripped).encode("utf-8")).hexdigest()


def _static_spec(**overrides) -> ScenarioSpec:
    """Two UEs on a static channel, Prague and CUBIC, under L4Span."""
    fields = dict(name="fast-path-static", num_ues=2,
                  channel_profile="static", marker="l4span", duration_s=2.0,
                  seed=7,
                  flows=[FlowSpec(flow_id=0, ue_id=0, cc_name="prague"),
                         FlowSpec(flow_id=1, ue_id=1, cc_name="cubic")])
    fields.update(overrides)
    return ScenarioSpec(**fields)


# ---------------------------------------------------------------------- #
# Behaviour pinned from before the fast path
# ---------------------------------------------------------------------- #
STATIC_DIGEST = (
    "3bc1c408120b950a5b4258e52f0d3e293643213dc46ea46e37bfc8c23a076d59")
STATIC_MARKER_SUMMARY = {
    "background_arrival_bytes": 0.0, "background_served_bytes": 0.0,
    "downlink_packets": 5222, "drbs": 2, "feedback_messages": 5266,
    "flows": 2, "marked_packets": 76, "shortcircuited_acks": 3375,
    "uplink_packets": 5186}
HANDOVER_DIGEST = (
    "0d318710e76c7ef9090b9542d64b2b9d122f3cc03c056471321f824b4ccead31")
HANDOVER_MARKER_SUMMARY = {
    "background_arrival_bytes": 0.0, "background_served_bytes": 0.0,
    "downlink_packets": 30787, "drbs": 4, "feedback_messages": 23925,
    "flows": 4, "marked_packets": 2152, "shortcircuited_acks": 30684,
    "uplink_packets": 30684}


@pytest.fixture(scope="module")
def static_run():
    result = api.run(_static_spec())
    return result, api.result_document(result)


class TestPinnedOutcomes:
    def test_static_scenario_digest(self, static_run):
        _, document = static_run
        assert _document_digest(document) == STATIC_DIGEST

    def test_static_scenario_marker_counts(self, static_run):
        _, document = static_run
        assert document["marker_summary"] == STATIC_MARKER_SUMMARY

    def test_handover_preset_digest_and_marker_counts(self):
        spec = api.load_spec("handover")
        # Handovers re-point routes: the downlink pair stays two events.
        assert not build_scenario(spec).core.static_routes
        document = api.result_document(api.run(spec))
        assert document["marker_summary"] == HANDOVER_MARKER_SUMMARY
        assert _document_digest(document) == HANDOVER_DIGEST

    def test_events_per_delivered_packet(self, static_run):
        # Two fixed-delay hop pairs share one event each; 12.2 events per
        # delivered packet before, 9.7 with the fast path.
        result, document = static_run
        delivered = sum(len(flow.owd_samples) for flow in result.flows)
        assert delivered > 0
        assert document["events_processed"] / delivered <= 11


# ---------------------------------------------------------------------- #
# Checksum upkeep follows measure_processing
# ---------------------------------------------------------------------- #
def _run_observed(spec: ScenarioSpec):
    """Run ``spec``; return the layer, every packet decision it made, and
    the CE-marked downlink packets and short-circuited ACKs it produced."""
    scenario = build_scenario(spec)
    layer = scenario.marker
    decisions, marked, rewritten = [], [], []
    on_downlink, on_uplink = layer.on_downlink_packet, layer.on_uplink_packet

    def downlink(packet, ue_id, drb_id, now):
        before = layer.marked_packets
        on_downlink(packet, ue_id, drb_id, now)
        was_marked = layer.marked_packets != before
        decisions.append(("dl", packet.flow_id, packet.seq, was_marked,
                          packet.ecn))
        if was_marked and packet.ecn == ECN.CE:
            marked.append(packet)

    def uplink(packet, now):
        before = layer.shortcircuited_acks
        on_uplink(packet, now)
        counters = (None if packet.accecn is None else
                    dataclasses.astuple(packet.accecn))
        decisions.append(("ul", packet.flow_id, packet.ack_seq, packet.ece,
                          counters))
        if layer.shortcircuited_acks != before:
            rewritten.append(packet)

    layer.on_downlink_packet = downlink
    layer.on_uplink_packet = uplink
    scenario.run()
    return layer, decisions, marked, rewritten


def _measured_spec(measure: bool) -> ScenarioSpec:
    return _static_spec(duration_s=1.5, l4span_config=L4SpanConfig(
        measure_processing=measure))


def _udp_marks(measure: bool):
    """Drive a layer with a UDP L4S flow whose queue keeps growing, so
    marks land on the downlink; return the layer and its packets."""
    sim = Simulator(seed=3)
    layer = L4SpanLayer(sim, config=L4SpanConfig(measure_processing=measure))
    five_tuple = FiveTuple("10.0.0.1", 443, "10.45.0.2", 50_000, "udp")
    packets = []
    for i in range(300):
        now = i * 0.001
        packet = make_data_packet(0, five_tuple, i * 1400, 1400, ECN.ECT1,
                                  now, protocol="udp")
        layer.on_downlink_packet(packet, 0, 1, now)
        packets.append(packet)
        if i >= 40 and i % 2 == 0:  # the RLC drains half the arrivals
            layer.on_ran_feedback(DeliveryStatus(0, 1, (i - 40) // 2, None,
                                                 now), now)
    return layer, packets


class TestChecksumUpkeep:
    def test_measured_ack_rewrites_keep_checksums_valid(self):
        _, _, _, rewritten = _run_observed(_measured_spec(True))
        assert rewritten
        for packet in rewritten:
            assert checksums_valid(packet)

    def test_measured_downlink_marks_keep_checksums_valid(self):
        layer, packets = _udp_marks(True)
        marked = [packet for packet in packets if packet.ecn == ECN.CE]
        assert marked and len(marked) == layer.marked_packets
        for packet in marked:
            assert checksums_valid(packet)

    def test_upkeep_changes_no_decision(self):
        on, on_decisions, _, _ = _run_observed(_measured_spec(True))
        off, off_decisions, _, off_rewritten = _run_observed(
            _measured_spec(False))
        assert on_decisions == off_decisions
        assert on.marked_packets == off.marked_packets > 0
        assert on.shortcircuited_acks == off.shortcircuited_acks > 0
        (udp_on, on_packets), (udp_off, off_packets) = (_udp_marks(True),
                                                       _udp_marks(False))
        assert ([packet.ecn for packet in on_packets]
                == [packet.ecn for packet in off_packets])
        assert udp_on.marked_packets == udp_off.marked_packets > 0
        # Unmeasured rewrites skip the checksum work entirely.
        assert not any(packet.payload_info.keys()
                       & {"ip_checksum", "tcp_checksum"}
                       for packet in off_rewritten + off_packets)


# ---------------------------------------------------------------------- #
# Value types
# ---------------------------------------------------------------------- #
VALUE_TYPES = [
    (DeliveryStatus, dict(ue_id=1, drb_id=2, highest_txed_sn=5,
                          highest_delivered_sn=None, timestamp=0.25)),
    (RateEstimate, dict(timestamp=0.5, smoothed_rate=1e6,
                        instantaneous_rate=9e5, error_std=1e4,
                        samples_in_window=3)),
    (SojournPrediction, dict(sojourn=0.01, queued_bytes=1500, rate=1.5e5,
                             error_std=0.0)),
    (DrbKey, dict(ue_id=3, drb_id=1)),
]


class TestValueTypes:
    @pytest.mark.parametrize("cls,kwargs", VALUE_TYPES,
                             ids=[cls.__name__ for cls, _ in VALUE_TYPES])
    def test_contract(self, cls, kwargs):
        value = cls(**kwargs)
        for name, expected in kwargs.items():
            assert getattr(value, name) == expected
        twin = cls(**kwargs)
        assert value == twin and hash(value) == hash(twin)
        assert len({value, twin}) == 1
        name = next(iter(kwargs))
        with pytest.raises(AttributeError):
            setattr(value, name, 0)

    def test_defaults_and_properties(self):
        assert DeliveryStatus(0, 1, None, None, 0.0).desired_buffer_size == 0
        assert RateEstimate(0.0, 1.0, 1.0, 0.0, 1).is_valid
        assert not RateEstimate(0.0, 0.0, 0.0, 0.0, 0).is_valid
        assert SojournPrediction(0.0, 0, 100.0, 1.0).is_confident
        assert not SojournPrediction(0.0, 0, 0.0, 0.0).is_confident

    def test_drb_key_label_and_pair_lookup(self):
        key = DrbKey(4, 2)
        assert str(key) == "ue4/drb2"
        assert f"l4span-mark-{key}" == "l4span-mark-ue4/drb2"
        # Per-packet lookups index DrbKey-keyed tables by the plain pair.
        assert {key: "state"}[(4, 2)] == "state"

    def test_five_tuple_reversed_is_cached(self):
        forward = FiveTuple("10.0.0.1", 443, "10.45.0.2", 50_000)
        backward = forward.reversed()
        assert backward == FiveTuple("10.45.0.2", 50_000, "10.0.0.1", 443)
        assert forward.reversed() is backward
        assert backward.reversed() is forward
        assert backward.reversed() == forward
        # The cache is invisible to equality, hashing and repr.
        fresh = FiveTuple("10.0.0.1", 443, "10.45.0.2", 50_000)
        assert fresh == forward and hash(fresh) == hash(forward)
        assert repr(fresh) == repr(forward)
        assert dataclasses.astuple(forward) == dataclasses.astuple(fresh)
