"""Infrastructure-assisted data routing (the paper's V2I role).

"An RSU can connect two nodes that are not in the same communication
range."  When the ad hoc fabric cannot reach a destination (sparse
traffic, long distances), a vehicle hands its data to the cluster head,
which looks the destination up in a backbone-maintained *member
directory* and tunnels the packet over the wired RSU chain to the
destination's CH, which delivers it by radio.

Three pieces:

- :class:`MemberAnnouncement` — CHs push join/leave deltas to every
  other CH, so each maintains a directory mapping pseudonym → cluster.
- :class:`TunnelledData` — the wrapped payload travelling CH-to-CH.
- :class:`InfrastructureRouting` — the per-RSU service: directory
  upkeep, gateway handling and final radio delivery.

Vehicles opt in per packet with :func:`send_via_infrastructure`; the ad
hoc path (AODV) is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.clusters.rsu import RsuNode
from repro.net.packets import Packet
from repro.routing.packets import DataPacket

if TYPE_CHECKING:  # pragma: no cover - circular-import guard
    from repro.vehicles.vehicle import VehicleNode


@dataclass(slots=True)
class MemberAnnouncement(Packet):
    """Join/leave delta pushed to the other cluster heads."""

    cluster_index: int = 0
    joined: list[str] = field(default_factory=list)
    left: list[str] = field(default_factory=list)


@dataclass(slots=True)
class TunnelledData(Packet):
    """A data payload in transit over the wired backbone."""

    originator: str = ""
    final_destination: str = ""
    payload: object = None
    entry_cluster: int = 0


@dataclass
class InfraStats:
    announcements_sent: int = 0
    announcements_received: int = 0
    tunnelled_out: int = 0
    tunnelled_in: int = 0
    delivered: int = 0
    unknown_destination: int = 0
    stale_entry: int = 0


class InfrastructureRouting:
    """V2I gateway service on one RSU."""

    def __init__(self, rsu: RsuNode) -> None:
        self.rsu = rsu
        #: pseudonym -> cluster index, across the whole deployment
        self.directory: dict[str, int] = {}
        self.stats = InfraStats()
        self._aodv_data_handler = rsu.handler_for(DataPacket)
        rsu.register_handler(DataPacket, self._on_data)
        rsu.register_handler(MemberAnnouncement, self._on_announcement)
        rsu.register_handler(TunnelledData, self._on_tunnelled)
        rsu.on_member_join.append(self._announce_join)
        rsu.on_member_leave.append(self._announce_leave)

    # ------------------------------------------------------------------
    # Directory upkeep
    # ------------------------------------------------------------------
    def _peer_addresses(self) -> list[str]:
        # Backbone addresses iterate in the order they were added, which
        # fixes the announcement order and so the event sequence numbers.
        network = self.rsu.network
        if network is None:
            return []
        return [address for address in network.backbone if address != self.rsu.address]

    def _broadcast_delta(self, joined: list[str], left: list[str]) -> None:
        for peer in self._peer_addresses():
            self.stats.announcements_sent += 1
            self.rsu.send_backbone(
                MemberAnnouncement(
                    src=self.rsu.address,
                    dst=peer,
                    cluster_index=self.rsu.cluster_index,
                    joined=list(joined),
                    left=list(left),
                )
            )

    def _announce_join(self, address: str) -> None:
        self.directory[address] = self.rsu.cluster_index
        self._broadcast_delta([address], [])

    def _announce_leave(self, address: str) -> None:
        if self.directory.get(address) == self.rsu.cluster_index:
            del self.directory[address]
        self._broadcast_delta([], [address])

    def _on_announcement(self, packet: MemberAnnouncement, sender: str) -> None:
        self.stats.announcements_received += 1
        for address in packet.joined:
            self.directory[address] = packet.cluster_index
        for address in packet.left:
            if self.directory.get(address) == packet.cluster_index:
                del self.directory[address]

    # ------------------------------------------------------------------
    # Gateway path
    # ------------------------------------------------------------------
    def _on_data(self, packet: DataPacket, sender: str) -> None:
        if packet.dst == self.rsu.address and packet.final_destination != self.rsu.address:
            self._gateway(packet)
            return
        if self._aodv_data_handler is not None:
            self._aodv_data_handler(packet, sender)

    def _gateway(self, packet: DataPacket) -> None:
        """A vehicle handed us data explicitly: deliver or tunnel."""
        destination = packet.final_destination
        if self.rsu.membership.is_member(destination):
            self._deliver(packet.originator, destination, packet.payload)
            return
        cluster = self.directory.get(destination)
        if cluster is None:
            self.stats.unknown_destination += 1
            return
        self.stats.tunnelled_out += 1
        self.rsu.send_backbone(
            TunnelledData(
                src=self.rsu.address,
                dst=f"rsu-{cluster}",
                originator=packet.originator,
                final_destination=destination,
                payload=packet.payload,
                entry_cluster=self.rsu.cluster_index,
            )
        )

    def _on_tunnelled(self, packet: TunnelledData, sender: str) -> None:
        self.stats.tunnelled_in += 1
        if not self.rsu.membership.is_member(packet.final_destination):
            # The member moved between directory update and delivery.
            self.stats.stale_entry += 1
            return
        self._deliver(packet.originator, packet.final_destination, packet.payload)

    def _deliver(self, originator: str, destination: str, payload) -> None:
        self.stats.delivered += 1
        self.rsu.send(
            DataPacket(
                src=self.rsu.address,
                dst=destination,
                originator=originator,
                final_destination=destination,
                payload=payload,
            )
        )


def install_infrastructure_routing(
    rsus: list[RsuNode],
) -> list[InfrastructureRouting]:
    """Equip every cluster head with the V2I gateway service."""
    return [InfrastructureRouting(rsu) for rsu in rsus]


def send_via_infrastructure(
    vehicle: "VehicleNode", destination: str, payload
) -> bool:
    """Hand one data packet to the vehicle's cluster head for delivery.

    Returns False when the vehicle has no cluster head to hand to.
    """
    if vehicle.current_ch is None:
        return False
    vehicle.send(
        DataPacket(
            src=vehicle.address,
            dst=vehicle.current_ch,
            originator=vehicle.address,
            final_destination=destination,
            payload=payload,
        )
    )
    return True
