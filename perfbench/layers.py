"""The program's layers as the traced run sees them.

``SPANS`` names the functions whose calls open a span, grouped by layer
(the package they live in); ``install_spans`` patches them all.
``WorldProbe`` reads the protocol and engine counters each trial's world
keeps anyway, by capturing the world ``build_world`` returns: one extra
call per trial, cheap enough for the untraced run too.
``layer_metrics`` turns spans, counters and import times into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import importlib

from tracer import SpanRecorder

#: (layer, "module:attribute[.method]", count name or None).  A method
#: target also covers every subclass's own override.
SPANS: tuple[tuple[str, str, str | None], ...] = (
    # experiments.world, clusters, vehicles: world build and placement
    ("world", "repro.experiments.world:build_world", None),
    ("world", "repro.experiments.world:World.populate", None),
    ("world", "repro.experiments.world:World.add_vehicle", None),
    ("world", "repro.experiments.world:World.add_attacker", None),
    ("world", "repro.experiments.world:World.add_cooperative_pair", None),
    ("world", "repro.experiments.world:World.add_flooder", None),
    ("world", "repro.experiments.world:World.install_arena", None),
    ("world", "repro.experiments.world:World.install_sketch_monitors", None),
    # clusters and vehicles at run time: membership and boundary crossing
    ("clusters", "repro.clusters.rsu:RsuNode._on_join_request", None),
    ("clusters", "repro.clusters.rsu:RsuNode._on_leave_notice", None),
    ("clusters", "repro.vehicles.vehicle:VehicleNode._on_join_reply", None),
    ("clusters", "repro.vehicles.vehicle:VehicleNode._cross_boundary", None),
    ("clusters", "repro.clusters.infrastructure_routing:InfrastructureRouting._on_data", None),
    ("clusters", "repro.clusters.infrastructure_routing:InfrastructureRouting._on_announcement", None),
    ("clusters", "repro.clusters.infrastructure_routing:InfrastructureRouting._on_tunnelled", None),
    ("attacks", "repro.attacks.flood:FloodingVehicle._flood_tick", None),
    # crypto: enrolment, signing, signature checks
    ("crypto", "repro.crypto.authority:TrustedAuthority.enroll", "crypto.enrolments"),
    ("crypto", "repro.crypto.authority:TrustedAuthority.renew", "crypto.enrolments"),
    ("crypto", "repro.crypto.authority:TrustedAuthority.enroll_infrastructure", "crypto.enrolments"),
    ("crypto", "repro.crypto.authority:TrustedAuthority.revoke", None),
    ("crypto", "repro.crypto.keys:sign", None),
    ("crypto", "repro.crypto.keys:verify", "crypto.verifies"),
    ("crypto", "repro.crypto.sigcache:SignatureCache.verify", "crypto.verifies"),
    # sim: the event loop (handler code outside every other span stays here)
    ("sim", "repro.sim.simulator:Simulator.run", None),
    # net: the radio medium and the wired backbone
    ("net", "repro.net.network:Network.transmit", None),
    ("net", "repro.net.network:Network._arrive_batch", None),
    ("net", "repro.net.network:Network._arrive", None),
    ("net", "repro.net.network:Network.transmit_backbone", None),
    ("net.spatial", "repro.net.spatial:SpatialIndex.ensure_current", None),
    ("net.spatial", "repro.net.spatial:SpatialIndex.neighbors", None),
    ("net.spatial", "repro.net.spatial:SpatialIndex.candidates", None),
    ("net.spatial", "repro.net.spatial:SpatialIndex.maybe_in_range", None),
    ("net.codec", "repro.net.codec:encode", "codec.encodes"),
    # routing: AODV handlers and entry points
    ("routing", "repro.routing.protocol:AodvProtocol.discover", None),
    ("routing", "repro.routing.protocol:AodvProtocol.send_data", None),
    ("routing", "repro.routing.protocol:AodvProtocol._on_rreq", "routing.rreqs"),
    ("routing", "repro.routing.protocol:AodvProtocol._on_rrep", None),
    ("routing", "repro.routing.protocol:AodvProtocol._on_data", None),
    ("routing", "repro.routing.protocol:AodvProtocol._on_rerr", None),
    ("routing", "repro.routing.protocol:AodvProtocol._on_hello", None),
    ("routing", "repro.routing.protocol:AodvProtocol._hello_tick", None),
    ("routing", "repro.routing.protocol:AodvProtocol._discovery_window_closed", None),
    # core: BlackDP verifier, examiner (detection service), watchdog
    ("core", "repro.core.verifier:RouteVerifier.establish_route", "core.verifications"),
    ("core", "repro.core.verifier:RouteVerifier._on_hello_reply", None),
    ("core", "repro.core.verifier:RouteVerifier._on_detection_result", None),
    ("core", "repro.core.verifier:RouteVerifier._on_secure_hello", None),
    ("core", "repro.core.verifier:RouteVerifier._on_member_warning", None),
    ("core", "repro.core.verifier:RouteVerifier._hello_timeout", None),
    ("core", "repro.core.verifier:RouteVerifier._result_timeout", None),
    ("core", "repro.core.examiner:DetectionService._on_detection_request", None),
    ("core", "repro.core.examiner:DetectionService._on_detection_forward", None),
    ("core", "repro.core.examiner:DetectionService._on_rrep", None),
    ("core", "repro.core.examiner:DetectionService._send_probe1", "core.probes"),
    ("core", "repro.core.examiner:DetectionService._send_probe2", "core.probes"),
    ("core", "repro.core.examiner:DetectionService._send_teammate_probe", "core.probes"),
    ("core", "repro.core.examiner:DetectionService._probe1_timeout", None),
    ("core", "repro.core.examiner:DetectionService._probe2_timeout", None),
    ("core", "repro.core.examiner:DetectionService._teammate_timeout", None),
    ("core", "repro.core.examiner:DetectionService._on_revocation_notice", None),
    ("core", "repro.core.examiner:DetectionService._on_result_relay", None),
    ("core", "repro.core.examiner:DetectionService.convict_suspect", None),
    ("core", "repro.core.watchdog:InfrastructureWatchdog._on_overhear", None),
    # sketch monitors and arena detectors: per-RSU radio taps
    ("sketch", "repro.sketch.monitor:AggregateMonitor._on_overhear", "sketch.observations"),
    ("sketch", "repro.sketch.monitor:AggregateMonitor._epoch_tick", None),
    ("arena", "repro.arena.adapters:_OverhearingDetector._on_overhear", "arena.observations"),
    ("arena", "repro.arena.adapters:TrustWatchdogAdapter._epoch_tick", None),
    ("arena", "repro.arena.adapters:NaiveProbeAdapter._send_probe", None),
    # obs: registry lookups, sampler ticks, trace emission, timelines
    ("obs.metrics", "repro.obs.metrics:MetricsRegistry.counter", "obs.metric_lookups"),
    ("obs.metrics", "repro.obs.metrics:MetricsRegistry.gauge", "obs.metric_lookups"),
    ("obs.metrics", "repro.obs.metrics:MetricsRegistry.histogram", "obs.metric_lookups"),
    ("obs.metrics", "repro.obs.metrics:MetricsRegistry.snapshot", None),
    ("obs.timeseries", "repro.obs.timeseries:TimeSeriesRecorder.sample", "obs.samples"),
    ("obs.trace", "repro.obs.trace:TraceCollector.emit", "obs.trace_events"),
    ("obs.timeline", "repro.obs.timeline:reconstruct_timelines", None),
    # experiments harness: summaries, executor, campaign ledger, cache
    ("harness.summarize", "repro.experiments.executor:summarize_trial", None),
    ("harness.ledger", "repro.experiments.campaign:Campaign.create", None),
    ("harness.ledger", "repro.experiments.campaign:Campaign.open", None),
    ("harness.ledger", "repro.experiments.campaign:Campaign._journal_unit", None),
    ("harness.ledger", "repro.experiments.campaign:Campaign._write_checkpoint", None),
    ("harness.ledger", "repro.experiments.campaign:Campaign.results", None),
    ("harness.ledger", "repro.experiments.executor:ResultCache.get", None),
    ("harness.ledger", "repro.experiments.executor:ResultCache.put", None),
)

#: Layer self time -> reported metric name.
SELF_TIME_METRICS = {
    "world": "world.build_s",
    "clusters": "clusters.self_s",
    "attacks": "attacks.self_s",
    "crypto": "crypto.self_s",
    "sim": "sim.self_s",
    "net": "net.transmit_s",
    "net.spatial": "net.spatial_s",
    "net.codec": "codec.encode_s",
    "routing": "routing.self_s",
    "core": "core.self_s",
    "sketch": "sketch.self_s",
    "arena": "arena.self_s",
    "obs.metrics": "obs.metrics_s",
    "obs.timeseries": "obs.sample_s",
    "obs.trace": "obs.trace_s",
    "obs.timeline": "obs.timeline_s",
    "harness.summarize": "harness.summarize_s",
    "harness.ledger": "harness.ledger_s",
}

#: Span call counts -> reported metric name (same names).
COUNT_METRICS = (
    "crypto.enrolments",
    "crypto.verifies",
    "codec.encodes",
    "routing.rreqs",
    "core.verifications",
    "core.probes",
    "sketch.observations",
    "arena.observations",
    "obs.metric_lookups",
    "obs.samples",
    "obs.trace_events",
)


def _resolve(target: str):
    module_name, _, attribute = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, method = attribute.partition(".")
    return module_name, getattr(module, owner_name), owner_name, method


def install_spans(recorder: SpanRecorder) -> None:
    """Patch every ``SPANS`` target into ``recorder``.

    Raises ``LookupError`` if a target no longer exists, so a renamed
    function cannot silently drop out of the trace.
    """
    for layer, target, count in SPANS:
        module_name, owner, owner_name, method = _resolve(target)
        if method:
            replaced = recorder.patch_method(owner, method, layer, count)
        else:
            replaced = recorder.patch_function(module_name, owner_name, layer, count)
        if not replaced:
            raise LookupError(f"span target {target} not found")


class WorldProbe:
    """Totals of the counters every trial world keeps.

    ``install`` wraps ``build_world`` wherever it is bound; ``collect``
    folds the worlds built since its last call into ``totals`` and
    forgets them.
    """

    FIELDS = (
        "net.transmissions",
        "net.deliveries",
        "net.bytes",
        "obs.trace_recorded",
        "world.nodes",
        "sim.events",
        "sim.queue_high_water",
        "sim.pool_reused",
        "net.spatial_rebuilds",
        "routing.rreq_rebroadcasts",
    )

    def __init__(self) -> None:
        self.totals = {name: 0 for name in self.FIELDS}
        self._worlds: list = []

    def install(self, recorder: SpanRecorder) -> None:
        worlds = self._worlds

        def capture(original):
            def build_world(*args, **kwargs):
                world = original(*args, **kwargs)
                worlds.append(world)
                return world

            return build_world

        recorder.rebind("repro.experiments.world", "build_world", capture)

    def collect(self) -> None:
        """Fold the worlds built since the last call into the totals."""
        totals = self.totals
        for world in self._worlds:
            stats = world.net.stats
            queue = world.sim.queue
            trace = world.sim.obs.trace
            totals["net.transmissions"] += stats.sent + stats.backbone_sent
            totals["net.deliveries"] += stats.delivered + stats.backbone_delivered
            totals["net.bytes"] += stats.bytes_sent
            if trace is not None:
                totals["obs.trace_recorded"] += len(trace.events) + trace.dropped
            totals["world.nodes"] += len(world.net.nodes)
            totals["sim.events"] += world.sim.events_executed
            totals["sim.queue_high_water"] = max(
                totals["sim.queue_high_water"], queue.high_water
            )
            totals["sim.pool_reused"] += queue.pool_reused
            if world.net.spatial is not None:
                totals["net.spatial_rebuilds"] += world.net.spatial.rebuilds
            totals["routing.rreq_rebroadcasts"] += sum(
                node.aodv.stats.rreq_rebroadcast
                for node in world.net.nodes
                if getattr(node, "aodv", None) is not None
            )
        self._worlds.clear()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    probe_totals: dict[str, int],
    sigcache: dict[str, int],
    convictions: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``{name: (value, unit)}``."""
    metrics: dict[str, tuple[float, str]] = {}
    for layer, name in SELF_TIME_METRICS.items():
        metrics[name] = (recorder.self_s.get(layer, 0.0), "s")
    for name in COUNT_METRICS:
        metrics[name] = (float(recorder.counts.get(name, 0)), "count")
    events = probe_totals["sim.events"]
    lookups = sigcache["hits"] + sigcache["misses"]
    rreqs = recorder.counts.get("routing.rreqs", 0)
    metrics.update(
        {
            "world.nodes": (float(probe_totals["world.nodes"]), "count"),
            "crypto.sigcache_hit_ratio": (_ratio(sigcache["hits"], lookups), "ratio"),
            "sim.events": (float(events), "count"),
            "sim.us_per_event": (
                _ratio(recorder.self_s.get("sim", 0.0) * 1e6, events), "us"
            ),
            "sim.queue_high_water": (float(probe_totals["sim.queue_high_water"]), "count"),
            "sim.pool_reused": (float(probe_totals["sim.pool_reused"]), "count"),
            "net.transmissions": (float(probe_totals["net.transmissions"]), "count"),
            "net.deliveries": (float(probe_totals["net.deliveries"]), "count"),
            "net.spatial_rebuilds": (float(probe_totals["net.spatial_rebuilds"]), "count"),
            "routing.rreq_forward_ratio": (
                _ratio(probe_totals["routing.rreq_rebroadcasts"], rreqs), "ratio"
            ),
            "core.convictions": (float(convictions), "count"),
        }
    )
    return metrics


def layer_metrics_template() -> dict[str, tuple[float, str]]:
    """``layer_metrics`` over an empty run: every name with its unit."""
    return layer_metrics(
        SpanRecorder(),
        {name: 0 for name in WorldProbe.FIELDS},
        {"hits": 0, "misses": 0},
        0,
    )
