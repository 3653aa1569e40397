"""Sybil pseudonym-abuse attacker.

A black hole whose single radio interface speaks with several voices.
Besides its enrolled pseudonym, the attacker registers a handful of
fabricated receive aliases on the medium and, after every fake route
reply, follows up with *corroborating* replies issued under those
aliases — each claiming a somewhat-lower sequence number for the same
destination.

The point of the chorus is to defeat relative-comparison defences: the
first-reply-outlier test (Jaiswal et al.) flags a reply only when its
sequence number dwarfs every *other* reply's, so sybil corroboration at
roughly half the fake sequence number keeps the ratio below the
trigger.  Absolute defences are unimpressed — the primary reply still
crosses peak/static thresholds, the probe examiner still convicts the
enrolled pseudonym, and the corroborating replies are unsigned (the TA
never issued the aliases a certificate), so BlackDP's authentication
step discards them outright.

Sybil aliases are recorded in ``addresses_used`` so trial accounting
counts a conviction of any voice as detecting the attacker.
"""

from __future__ import annotations

from repro.attacks.blackhole import BlackHoleAodv, BlackHoleVehicle
from repro.attacks.policy import AttackerPolicy
from repro.mobility.highway import Highway
from repro.net.node import Node
from repro.routing.packets import RouteRequest, RouteReply
from repro.routing.protocol import AodvConfig
from repro.sim.simulator import Simulator

#: Spacing between the primary fake reply and successive corroborations
#: (seconds).  Short enough to land inside every discovery window, long
#: enough that the primary reply arrives first at the source.
CORROBORATION_DELAY = 0.003


class SybilAodv(BlackHoleAodv):
    """Black hole AODV that corroborates its own lies under aliases."""

    def __init__(
        self,
        node: Node,
        config: AodvConfig | None = None,
        *,
        policy: AttackerPolicy | None = None,
        teammate: str | None = None,
        identity=None,
    ) -> None:
        super().__init__(
            node, config, policy=policy, teammate=teammate, identity=identity
        )
        self.corroborations_sent = 0

    def _answer_rreq(self, packet: RouteRequest, sender: str) -> None:
        before = self.fake_replies_sent
        super()._answer_rreq(packet, sender)
        if self.fake_replies_sent == before:
            return  # acted legitimately; no chorus to orchestrate
        aliases = getattr(self.node, "sybil_aliases", ())
        if not aliases:
            return
        # Corroborate at about half the primary sequence number: high
        # enough to look like independent fresh routes, low enough that
        # the primary no longer *dwarfs* the field.
        corroborating_seq = max(1, self._last_fake_seq // 2)
        for index, alias in enumerate(aliases):
            self.sim.schedule(
                (index + 1) * CORROBORATION_DELAY,
                self._send_corroboration,
                args=(alias, sender, packet.originator, packet.destination,
                      corroborating_seq, 2 + index),
                label="sybil corroboration",
            )

    def _send_corroboration(
        self,
        alias: str,
        to: str,
        originator: str,
        destination: str,
        destination_seq: int,
        hop_count: int,
    ) -> None:
        if self.node.exited or self.node.network is None:
            return
        # Hand-rolled rather than _send_rrep: the reply must claim the
        # alias as its source and replier, and it cannot be signed — the
        # alias holds no TA credential.
        self.corroborations_sent += 1
        self.stats.rrep_generated += 1
        reply = RouteReply(
            src=alias,
            dst=to,
            originator=originator,
            destination=destination,
            destination_seq=destination_seq,
            hop_count=hop_count,
            lifetime=self.config.route_lifetime,
            replied_by=alias,
            cluster_of_replier=self.cluster_info() if self.cluster_info else 0,
        )
        trace = self.sim.obs.trace
        if trace is not None:
            trace.emit(self.node.node_id, "aodv.rrep_tx", reply,
                       detail=f"sybil={alias}")
        self.node.send(reply)


class SybilVehicle(BlackHoleVehicle):
    """A black hole vehicle with fabricated corroborating pseudonyms."""

    def __init__(
        self,
        simulator: Simulator,
        highway: Highway,
        node_id: str,
        motion,
        *,
        num_pseudonyms: int = 2,
        policy: AttackerPolicy | None = None,
        enrolment=None,
        authority=None,
        transmission_range: float = 1000.0,
        aodv_config: AodvConfig | None = None,
    ) -> None:
        if num_pseudonyms < 1:
            raise ValueError("num_pseudonyms must be at least 1")
        self._num_pseudonyms = num_pseudonyms
        super().__init__(
            simulator,
            highway,
            node_id,
            motion,
            policy=policy,
            enrolment=enrolment,
            authority=authority,
            transmission_range=transmission_range,
            aodv_config=aodv_config,
        )
        #: fabricated alias addresses (registered on activate)
        self.sybil_aliases: tuple[str, ...] = ()
        #: every voice this attacker speaks with, for trial accounting
        self.addresses_used = [self.address]

    def _make_aodv(self, config: AodvConfig | None) -> SybilAodv:
        aodv = SybilAodv(
            self, config, policy=self._policy, identity=self.identity
        )
        if self._policy.fake_hello_reply:
            from repro.core.packets import SecureHello

            self.register_handler(SecureHello, self._fake_hello_reply)
        return aodv

    def activate(self) -> None:
        super().activate()
        if self.network is None or self.sybil_aliases:
            return
        aliases = []
        for index in range(self._num_pseudonyms):
            # Deterministic naming, no RNG: the aliases are fabrications,
            # not TA-issued pseudonyms, so nothing requires unlinkability.
            alias = f"{self.node_id}-syb{index + 1}"
            self.network.add_alias(alias, self)
            aliases.append(alias)
        self.sybil_aliases = tuple(aliases)
        self.addresses_used.extend(aliases)
