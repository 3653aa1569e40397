"""The sequence-number baseline: one threshold rule, three settings.

Jaiswal et al., Jhaveri et al. and Tan & Kim all flag a route reply
whose destination sequence number sits above a ceiling; they differ
only in where the ceiling comes from (:data:`SEQUENCE_PRESETS`):

- Jhaveri's PEAK is an absolute ceiling that grows with every
  discovery (``peak = max(peak, seen) * growth``);
- Tan & Kim's static threshold is the same ceiling at growth 1.0;
- Jaiswal's first-reply comparison judges the *first* reply against
  ``ratio × max(seq of the other replies)``, so with a single replier
  there is no ceiling at all.

The rule sees only the RREPs a source collects during one discovery,
which is exactly the information the papers it reproduces assumed —
and the root of their structural weaknesses in CV highway networks
(single-replier topologies, no cooperative detection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.routing.packets import RouteReply

#: The published settings by arena detector name; Ablation A runs the
#: same three.  ``static`` is Tan & Kim's medium-network threshold.
SEQUENCE_PRESETS: dict[str, dict[str, float]] = {
    "sequence": {"ratio": 2.0},
    "peak": {"ceiling": 50, "growth": 1.2},
    "static": {"ceiling": 100},
}


@dataclass
class BaselineVerdict:
    """What a source-side baseline decides for one discovery."""

    #: the reply the source should act on (None: discard everything)
    chosen: RouteReply | None
    #: repliers flagged as malicious
    flagged: list[str] = field(default_factory=list)

    @property
    def detected_attack(self) -> bool:
        return bool(self.flagged)


class SequenceThresholdDetector:
    """Flag every RREP whose destination sequence number exceeds its
    ceiling; act on the best of the rest.

    Give exactly one of ``ceiling`` (absolute: every reply is judged
    against it, and each :meth:`evaluate` multiplies it by ``growth``
    after folding in the accepted replies) or ``ratio`` (relative: only
    the first reply is judged, against ``ratio`` times the largest
    sequence number among the others).
    """

    def __init__(
        self,
        ceiling: float | None = None,
        growth: float = 1.0,
        ratio: float | None = None,
    ) -> None:
        if (ceiling is None) == (ratio is None):
            raise ValueError("give exactly one of ceiling and ratio")
        if ceiling is not None and ceiling <= 0:
            raise ValueError(f"ceiling must be positive, got {ceiling}")
        if growth < 1.0:
            raise ValueError(f"growth must be at least 1.0, got {growth}")
        if ratio is not None and ratio <= 1.0:
            raise ValueError(f"ratio must exceed 1.0, got {ratio}")
        #: the absolute ceiling (Jhaveri's PEAK); None for a ratio rule
        self.ceiling = None if ceiling is None else float(ceiling)
        self.growth = growth
        self.ratio = ratio

    def _ceilings(self, replies: list[RouteReply]) -> list[float]:
        """The ceiling each reply is judged against."""
        if self.ceiling is not None:
            return [self.ceiling] * len(replies)
        ceilings = [math.inf] * len(replies)
        if len(replies) >= 2:
            rest_max = max(r.destination_seq for r in replies[1:])
            if rest_max > 0:
                ceilings[0] = self.ratio * rest_max
        return ceilings

    def evaluate(self, replies: list[RouteReply]) -> BaselineVerdict:
        """Replies must be in arrival order (first element = first RREP)."""
        flagged: list[str] = []
        accepted: list[RouteReply] = []
        for reply, ceiling in zip(replies, self._ceilings(replies)):
            if reply.destination_seq > ceiling:
                flagged.append(reply.replied_by)
            else:
                accepted.append(reply)
        if self.ceiling is not None:
            if accepted:
                seen = max(r.destination_seq for r in accepted)
                self.ceiling = max(self.ceiling, float(seen))
            self.ceiling *= self.growth
        chosen = max(
            accepted,
            key=lambda r: (r.destination_seq, -r.hop_count),
            default=None,
        )
        return BaselineVerdict(chosen=chosen, flagged=flagged)
