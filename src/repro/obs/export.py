"""OpenMetrics rendering and a stdlib-only live metrics endpoint.

Two halves:

- :func:`render_openmetrics` turns a :class:`~repro.obs.metrics.
  MetricsRegistry` into OpenMetrics text (the Prometheus exposition
  format): counters as ``<name>_total``, gauges as-is, histograms as
  summaries with reservoir quantiles, label values escaped per the spec,
  terminated by ``# EOF``.
- :class:`MetricsServer` serves that text from a background thread over
  plain ``http.server`` (no third-party dependency): ``GET /metrics``
  for scrapers, ``/healthz`` for liveness probes, ``/status`` for a
  JSON view of whatever run-level status the owner publishes.

The server only *reads* simulation state — its sync writes only the
registry's own counters, idempotently — so exposing it during a live run
cannot perturb a seeded trial.  Stats fields are plain attributes
(atomic loads under the GIL) and a dictionary that grows mid-render is
retried, so a scrape sees a consistent-enough point-in-time view
without any locking on the hot path.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.obs.metrics import Labels, MetricsRegistry

#: Quantiles rendered for each histogram summary.
SUMMARY_QUANTILES = (0.5, 0.9, 0.95, 0.99)

#: How many times a render is retried when the registry's instrument
#: dictionaries grow mid-iteration (new instruments appearing during a
#: scrape); each retry re-reads a fresh item list.
_RENDER_RETRIES = 4


def sanitize_metric_name(name: str) -> str:
    """Map a dotted registry name onto the OpenMetrics grammar.

    ``[a-zA-Z_:][a-zA-Z0-9_:]*``: dots and dashes become underscores,
    any other illegal character does too, and a leading digit gains an
    underscore prefix.
    """
    out = []
    for ch in name:
        if ch.isalnum() or ch in "_:":
            out.append(ch)
        else:
            out.append("_")
    if out and out[0].isdigit():
        out.insert(0, "_")
    return "".join(out)


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: backslash,
    double-quote and newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Labels, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [
        f'{sanitize_metric_name(k)}="{escape_label_value(v)}"'
        for k, v in (*labels, *extra)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_openmetrics(registry: MetricsRegistry) -> str:
    """Render every instrument as OpenMetrics text (ending ``# EOF``)."""
    for _ in range(_RENDER_RETRIES):
        try:
            return _render_once(registry)
        except RuntimeError:
            # An instrument dict grew while we iterated (a live run being
            # scraped); re-read from a fresh item view.
            continue
    return _render_once(registry)


def _render_once(registry: MetricsRegistry) -> str:
    registry.sync()
    lines: list[str] = []

    # Group instruments by sanitized family name so each family gets
    # exactly one TYPE line, as the format requires.
    counters: dict[str, list[tuple[Labels, float]]] = {}
    for (name, labels), counter in sorted(registry._counters.items()):
        counters.setdefault(sanitize_metric_name(name), []).append(
            (labels, counter.value)
        )
    for family, rows in counters.items():
        lines.append(f"# TYPE {family} counter")
        for labels, value in rows:
            lines.append(
                f"{family}_total{_render_labels(labels)} {_format_value(value)}"
            )

    gauges: dict[str, list[tuple[Labels, float, float]]] = {}
    for (name, labels), gauge in sorted(registry._gauges.items()):
        gauges.setdefault(sanitize_metric_name(name), []).append(
            (labels, gauge.value, gauge.high_water)
        )
    for family, rows in gauges.items():
        lines.append(f"# TYPE {family} gauge")
        for labels, value, _ in rows:
            lines.append(f"{family}{_render_labels(labels)} {_format_value(value)}")
        lines.append(f"# TYPE {family}_high_water gauge")
        for labels, _, high_water in rows:
            lines.append(
                f"{family}_high_water{_render_labels(labels)} "
                f"{_format_value(high_water)}"
            )

    histograms: dict[str, list[tuple[Labels, object]]] = {}
    for (name, labels), histogram in sorted(registry._histograms.items()):
        histograms.setdefault(sanitize_metric_name(name), []).append(
            (labels, histogram)
        )
    for family, hrows in histograms.items():
        lines.append(f"# TYPE {family} summary")
        for labels, histogram in hrows:
            for q in SUMMARY_QUANTILES:
                quantile = (("quantile", f"{q}"),)
                lines.append(
                    f"{family}{_render_labels(labels, quantile)} "
                    f"{_format_value(histogram.percentile(q))}"
                )
            lines.append(
                f"{family}_count{_render_labels(labels)} "
                f"{_format_value(histogram.count)}"
            )
            lines.append(
                f"{family}_sum{_render_labels(labels)} "
                f"{_format_value(histogram.total)}"
            )

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class _Handler(BaseHTTPRequestHandler):
    """Routes /metrics, /healthz and /status; everything else is 404."""

    server: "MetricsServer"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_openmetrics(self.server.registry).encode()
            ctype = (
                "application/openmetrics-text; version=1.0.0; charset=utf-8"
            )
        elif path == "/healthz":
            body = b"ok\n"
            ctype = "text/plain; charset=utf-8"
        elif path == "/status":
            body = (
                json.dumps(self.server.status(), sort_keys=True) + "\n"
            ).encode()
            ctype = "application/json"
        else:
            body = b"not found\n"
            self.send_response(404)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # scrapers poll; stderr chatter would drown the run output


class MetricsServer(ThreadingHTTPServer):
    """A background OpenMetrics endpoint over a live registry.

    >>> registry = MetricsRegistry()
    >>> registry.counter("demo.requests").inc()
    >>> server = serve_metrics(registry, port=0)   # 0 = ephemeral port
    >>> server.port > 0
    True
    >>> server.close()
    """

    daemon_threads = True

    def __init__(
        self,
        registry: MetricsRegistry,
        address: tuple[str, int],
        *,
        status_fn: Callable[[], dict] | None = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.registry = registry
        self._status_fn = status_fn
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0] or "127.0.0.1"
        return f"http://{host}:{self.port}"

    def status(self) -> dict:
        base: dict = {"serving": True, "instruments": len(self.registry)}
        if self._status_fn is not None:
            try:
                base.update(self._status_fn())
            except Exception as error:  # surfaced, not fatal to the scrape
                base["status_error"] = repr(error)
        return base

    def start(self) -> "MetricsServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever,
                name="obs-metrics-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def serve_metrics(
    registry: MetricsRegistry,
    port: int,
    *,
    host: str = "127.0.0.1",
    status_fn: Callable[[], dict] | None = None,
) -> MetricsServer:
    """Start a background ``/metrics`` endpoint; returns the server.

    ``port=0`` binds an ephemeral port (read it back from ``.port``).
    The caller owns shutdown: ``server.close()``.
    """
    server = MetricsServer(registry, (host, port), status_fn=status_fn)
    return server.start()
