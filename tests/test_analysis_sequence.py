"""Tests for transmission tracing and sequence-diagram rendering."""

import pytest

from repro.analysis import render_sequence
from repro.net import Network, Node, Packet
from repro.obs import TraceCollector, TraceEvent, TraceFilter
from repro.sim import Simulator

TRANSMISSIONS = {"net.send", "net.backbone_send"}


def build_pair():
    sim = Simulator(seed=1)
    net = Network(sim)
    a = Node(sim, "a", position=(0, 0))
    b = Node(sim, "b", position=(500, 0))
    net.attach(a)
    net.attach(b)
    return sim, net, a, b


def sent(time, src, dst, packet_kind, kind="net.send"):
    return TraceEvent(time, src, kind, packet_kind, 0, src, dst)


def test_tracer_records_radio_and_wire():
    sim, net, a, b = build_pair()
    net.connect_backbone(a, b)
    trace = sim.obs.enable_trace(trace_filter=TraceFilter(kinds=TRANSMISSIONS))
    a.send(Packet(src="a", dst="b"))
    net.transmit_backbone(a, Packet(src="a", dst="b"))
    sim.run()
    assert [event.kind for event in trace.events] == [
        "net.send", "net.backbone_send"
    ]
    diagram = render_sequence(trace.events, ["a", "b"]).splitlines()
    assert "-->" in diagram[1] and "==>" in diagram[2]


def test_tracer_kind_filter():
    from repro.routing.packets import HelloBeacon

    sim, net, a, b = build_pair()
    trace = sim.obs.enable_trace(
        trace_filter=TraceFilter(
            kinds=TRANSMISSIONS,
            predicate=lambda event: event.packet_kind == "HelloBeacon",
        )
    )
    a.send(Packet(src="a", dst="b"))
    a.send(HelloBeacon(src="a", dst="*", originator="a"))
    sim.run()
    assert [event.packet_kind for event in trace.events] == ["HelloBeacon"]


def test_tracer_predicate_and_capacity():
    sim, net, a, b = build_pair()
    trace = TraceCollector(
        sim,
        capacity=2,
        trace_filter=TraceFilter(
            kinds=TRANSMISSIONS, predicate=lambda event: event.dst == "b"
        ),
    )
    sim.obs.trace = trace
    for _ in range(5):
        a.send(Packet(src="a", dst="b"))
    a.send(Packet(src="a", dst="ghost"))
    sim.run()
    assert len(trace.events) == 2  # capacity-capped
    assert trace.dropped == 3  # admitted past capacity; "ghost" never admitted
    assert all(event.dst == "b" for event in trace.events)


def test_render_draws_arrows_and_labels():
    events = [
        sent(1.0, "a", "b", "RouteRequest"),
        sent(2.0, "b", "a", "RouteReply"),
        sent(3.0, "a", "c", "DetectionForward", kind="net.backbone_send"),
    ]
    diagram = render_sequence(events, ["a", "b", "c"])
    lines = diagram.splitlines()
    assert lines[0].split() == ["t(s)", "a", "b", "c"]
    assert "RREQ" in lines[1] and ">" in lines[1]
    assert "RREP" in lines[2] and "<" in lines[2]
    assert "fwd" in lines[3] and "=" in lines[3]


def test_render_broadcast_and_unknown_endpoints():
    events = [
        sent(1.0, "a", "*", "MemberWarning"),
        sent(2.0, "stranger", "b", "RouteReply"),  # skipped
        sent(3.0, "a", "stranger", "RouteReply"),  # skipped
    ]
    diagram = render_sequence(events, ["a", "b"])
    lines = diagram.splitlines()
    assert len(lines) == 2  # header + the broadcast only
    assert "warn*" in lines[1]


def test_render_custom_labels():
    events = [sent(1.0, "pid-x", "pid-y", "SecureHello")]
    diagram = render_sequence(
        events, ["pid-x", "pid-y"], labels={"pid-x": "src", "pid-y": "dst"}
    )
    header = diagram.splitlines()[0]
    assert "src" in header and "dst" in header
    assert "pid-x" not in header


def test_render_validation():
    with pytest.raises(ValueError):
        render_sequence([], [])
