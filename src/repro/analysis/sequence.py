"""ASCII sequence diagrams from the structured trace.

:func:`render_sequence` takes the ``net.send``/``net.backbone_send``
events of the obs trace, lays chosen participants out as lifelines and
draws each message as an arrow between them, producing diagrams like::

    t(s)        v1            rsu-1          rsu-2            bh
    0.512    DetectionRequest--->|              |              |
    0.514       |              forward=========>|              |
    0.517       |                |            RouteRequest---->|

(``--->`` radio, ``===>`` backbone.)  Meant for debugging protocol
changes and for generating walkthrough artefacts from live runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.trace import TraceEvent

#: default short names so labels fit inside one-column arrow spans
KIND_ABBREVIATIONS = {
    "DetectionRequest": "d_req",
    "DetectionForward": "fwd",
    "DetectionResult": "result",
    "RouteRequest": "RREQ",
    "RouteReply": "RREP",
    "RevocationNoticePacket": "revoke",
    "MemberWarning": "warn",
    "SecureHello": "hello",
    "HelloReply": "hello-re",
    "JoinRequest": "JREQ",
    "JoinReply": "JREP",
    "LeaveNotice": "leave",
}


def render_sequence(
    events: list["TraceEvent"],
    participants: list[str],
    *,
    labels: dict[str, str] | None = None,
    kind_labels: dict[str, str] | None = None,
    column_width: int = 16,
) -> str:
    """Draw transmission events between ``participants`` as an ASCII
    sequence diagram.

    Each event is a ``net.send`` (drawn ``--->``) or
    ``net.backbone_send`` (drawn ``===>``) trace record.  Events with
    endpoints outside ``participants`` are skipped;
    broadcasts are drawn as a message to every other participant column
    collapsed to a single ``*``-terminated arrow to the right margin.
    ``labels`` maps raw addresses to display names (pseudonyms are
    unwieldy).
    """
    if not participants:
        raise ValueError("need at least one participant")
    labels = labels or {}
    kind_labels = {**KIND_ABBREVIATIONS, **(kind_labels or {})}
    index_of = {address: i for i, address in enumerate(participants)}
    width = column_width
    header = "t(s)".ljust(9) + "".join(
        labels.get(address, address)[: width - 2].center(width)
        for address in participants
    )
    lines = [header]
    idle = "".join("|".center(width) for _ in participants)
    for event in events:
        if event.src not in index_of:
            continue
        src_index = index_of[event.src]
        if event.dst == "*":
            dst_index = len(participants) - 1
            if dst_index == src_index:
                dst_index = 0
        elif event.dst in index_of:
            dst_index = index_of[event.dst]
        else:
            continue
        if src_index == dst_index:
            continue
        row = [c for c in idle]
        lo, hi = sorted((src_index, dst_index))
        start = lo * width + width // 2
        end = hi * width + width // 2
        stroke = "=" if event.kind == "net.backbone_send" else "-"
        for position in range(start + 1, end):
            row[position] = stroke
        if dst_index > src_index:
            row[end - 1] = ">"
        else:
            row[start + 1] = "<"
        short = kind_labels.get(event.packet_kind, event.packet_kind)
        label = short if event.dst != "*" else f"{short}*"
        span = end - start - 1
        if len(label) < span:
            offset = start + 1 + (span - len(label)) // 2
            row[offset : offset + len(label)] = label
        lines.append(f"{event.time:8.3f} " + "".join(row))
    return "\n".join(lines)
