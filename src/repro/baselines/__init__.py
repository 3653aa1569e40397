"""Baseline black hole defences from the paper's related work.

Implemented to support the comparison benchmarks (who wins, and where
each baseline structurally fails):

- :class:`SequenceThresholdDetector` — the sequence-number methods:
  flag an RREP whose destination sequence number is above a ceiling.
  :data:`SEQUENCE_PRESETS` holds the three published ceilings: Jaiswal
  et al.'s first reply against twice the other replies (fails when the
  attacker is the only replier), Jhaveri et al.'s running PEAK, and
  Tan & Kim's fixed threshold (the PEAK at growth 1.0).
- :class:`WatchdogTrustDetector` — opinion/trust methods (Dangore, Kaur):
  rate next hops by observed forwarding; unreliable under churn and
  attacker-polluted votes.
"""

from repro.baselines.sequence import (
    SEQUENCE_PRESETS,
    BaselineVerdict,
    SequenceThresholdDetector,
)
from repro.baselines.trust import WatchdogTrustDetector

__all__ = [
    "SEQUENCE_PRESETS",
    "BaselineVerdict",
    "SequenceThresholdDetector",
    "WatchdogTrustDetector",
]
