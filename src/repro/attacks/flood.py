"""RREQ-flood / route-disruption attacker family.

The control-plane counterpart of the black hole: instead of luring
traffic, the flooder exhausts it.  Every fabricated RREQ names a
destination that does not exist, so no node can answer and every
honest neighbour rebroadcasts the request across the fleet — a small
origination rate amplifies into network-wide control traffic (the
DDoS family DPRAODV's dynamic RREQ-rate threshold was built against).

Three variants share one engine:

``constant``
    Fixed-rate origination — the textbook flooder, easiest to spot.
``bursty``
    Bursts at the line rate separated by quiet pauses; epoch counters
    see a lower average but each burst still crosses the threshold.
``rotating``
    Rotates its pseudonym every N requests so no single origin
    accumulates a damning count — defeated by conviction-triggered
    revocation, which pauses renewals and pins the current pseudonym.

The flooder is otherwise a perfectly honest vehicle: it joins
clusters, answers probes truthfully, and forwards transit data — the
probe protocol has nothing to convict, which is exactly why the
aggregate monitor (``repro.sketch``) exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mobility.highway import Highway
from repro.net.network import BROADCAST
from repro.routing.packets import UNKNOWN_SEQ, RouteRequest
from repro.routing.protocol import AodvConfig
from repro.sim.simulator import Simulator
from repro.vehicles.vehicle import VehicleNode

FLOOD_VARIANTS = ("constant", "bursty", "rotating")

#: Flood rreq_ids start far above the honest AODV counter so a
#: flooder's genuine discoveries never collide with fabricated ones.
_FLOOD_RREQ_BASE = 1_000_000


@dataclass(frozen=True)
class FloodPolicy:
    """Tunable flood behaviour.

    Attributes
    ----------
    rate:
        RREQ originations per second while actively sending.
    variant:
        One of :data:`FLOOD_VARIANTS`.
    burst_size, burst_pause:
        ``bursty`` only: requests per burst, seconds between bursts.
    rotate_every:
        ``rotating`` only: pseudonym renewals are attempted after every
        N fabricated requests (a refused renewal keeps the current one).
    start_delay:
        Seconds after activation before the first fabricated RREQ.
    duration:
        Seconds of flooding before stopping, or None to never stop.
    """

    rate: float = 50.0
    variant: str = "constant"
    burst_size: int = 25
    burst_pause: float = 0.5
    rotate_every: int = 40
    start_delay: float = 0.5
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in FLOOD_VARIANTS:
            raise ValueError(f"variant must be one of {FLOOD_VARIANTS}")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.burst_size < 1:
            raise ValueError("burst_size must be at least 1")
        if self.burst_pause < 0:
            raise ValueError("burst_pause must be non-negative")
        if self.rotate_every < 1:
            raise ValueError("rotate_every must be at least 1")
        if self.start_delay < 0:
            raise ValueError("start_delay must be non-negative")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("duration must be positive when set")


class FloodingVehicle(VehicleNode):
    """A vehicle that fabricates RREQs for non-existent destinations."""

    def __init__(
        self,
        simulator: Simulator,
        highway: Highway,
        node_id: str,
        motion,
        *,
        policy: FloodPolicy | None = None,
        enrolment=None,
        authority=None,
        transmission_range: float = 1000.0,
        aodv_config: AodvConfig | None = None,
    ) -> None:
        super().__init__(
            simulator,
            highway,
            node_id,
            motion,
            enrolment=enrolment,
            authority=authority,
            transmission_range=transmission_range,
            aodv_config=aodv_config,
        )
        self.policy = policy or FloodPolicy()
        self.rreqs_flooded = 0
        self.pseudonyms_used = 1
        #: every pseudonym this flooder has originated under (rotating
        #: variant): conviction of any of them counts as detection
        self.addresses_used = [self.address]
        self._burst_position = 0
        self._flood_started_at: float | None = None

    def activate(self) -> None:
        super().activate()
        self.sim.schedule(
            self.policy.start_delay,
            self._start_flood,
            label="flood start",
        )

    def _start_flood(self) -> None:
        self._flood_started_at = self.sim.now
        self._flood_tick()

    def _flood_tick(self) -> None:
        if self.exited or self.network is None:
            return
        policy = self.policy
        if (
            policy.duration is not None
            and self._flood_started_at is not None
            and self.sim.now - self._flood_started_at >= policy.duration
        ):
            return
        self._send_fake_rreq()
        if policy.variant == "rotating" and self.rreqs_flooded % policy.rotate_every == 0:
            # A fresh pseudonym resets the per-origin counters any
            # monitor keeps.  After a revocation the TA refuses and the
            # attacker is stuck with its convicted identity.
            if self.renew_identity():
                self.pseudonyms_used += 1
                self.addresses_used.append(self.address)
        delay = 1.0 / policy.rate
        if policy.variant == "bursty":
            self._burst_position += 1
            if self._burst_position >= policy.burst_size:
                self._burst_position = 0
                delay = policy.burst_pause
        self.sim.schedule(delay, self._flood_tick, label="flood rreq")

    def _send_fake_rreq(self) -> None:
        self.rreqs_flooded += 1
        self.send(
            RouteRequest(
                src=self.address,
                dst=BROADCAST,
                originator=self.address,
                originator_seq=self.rreqs_flooded,
                destination=f"phantom-{self.node_id}-{self.rreqs_flooded}",
                destination_seq=UNKNOWN_SEQ,
                hop_count=0,
                rreq_id=_FLOOD_RREQ_BASE + self.rreqs_flooded,
            )
        )
