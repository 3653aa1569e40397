"""Analysis helpers.

- :func:`~repro.analysis.sequence.render_sequence` turns the
  ``net.send``/``net.backbone_send`` events of the obs trace into an
  ASCII sequence diagram (the message ladders in
  docs/protocol-walkthrough.md, generated from a live run).
"""

from repro.analysis.sequence import render_sequence

__all__ = ["render_sequence"]
