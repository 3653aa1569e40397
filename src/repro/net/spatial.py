"""Uniform-grid spatial index over the radio medium.

Every broadcast fan-out, every ``Network.neighbors`` call and every
monitor overhear check needs "who is within radio range of this node?".
The brute-force answer scans every attached node and computes a pairwise
distance — O(N) per broadcast, O(N²) per flood round — which caps the
topology sizes the medium can serve.  This module replaces the scan with
a uniform grid of square cells whose side equals the largest attached
transmission range: any node in range of a query point lives in one of
the ≤ 3×3 cells around it, so a query inspects O(candidates-in-nearby-
cells) nodes instead of all N.

Epoch-based invalidation
------------------------
Vehicle positions are *lazy kinematics* (``motion.position(t)``) — they
change continuously with simulated time without any event firing.  The
index therefore snapshots every position at build time (the *epoch*) and
derives a validity window from the top speed ``v_max``: a vehicle can
drift at most ``v_max · (now − built_at)`` metres from its snapshot, so
the snapshot stays usable while that drift is below the *guard band*
``g``::

    valid_until = built_at + g / v_max

Queries widen their search radius by ``g`` to cover the drift; once
``sim.now`` passes ``valid_until`` the next query rebuilds the whole
index (an O(N) pass, amortised over every query inside the window).
``v_max`` is the larger of the configured ``ChannelConfig.
spatial_max_speed`` floor and the fastest speed observed at build time —
the configured floor is the correctness contract: simulated objects must
not exceed it (see ``docs/performance.md``).

Discrete position changes — :meth:`~repro.net.node.Node.set_position`
teleports, attach, detach — update the index incrementally; pseudonym
readdressing and disposable-identity aliases only touch the address
table, never node positions, so they require no index work at all.

Determinism
-----------
A brute-force scan (``Network._pair_in_range`` over ``Network.nodes``)
returns neighbours in attach order, and delivery event ordering (hence
RNG draw order) depends on it.  The grid preserves this: every node
carries a monotone attach sequence number and query results are sorted
by it, so grid and brute force return *identical lists*; the tests keep
the scan as the oracle the grid is checked against.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.net.node import Node

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network

#: Integer grid coordinates of one square cell.
Cell = tuple[int, int]

#: SpatialIndex counter -> metric name.
SPATIAL_METRICS = {"rebuilds": "net.spatial.rebuilds"}


class SpatialIndex:
    """Epoch-snapshotted uniform grid over the nodes of one network.

    Parameters
    ----------
    network:
        The owning :class:`~repro.net.network.Network`; the index reads
        ``network.nodes`` on rebuild and ``network.sim`` for the clock
        and observability hub.
    guard_band:
        Extra metres added to every query radius to absorb kinematic
        drift since the last rebuild.
    max_speed:
        Correctness floor for the top speed (m/s) used to derive the
        validity window.  Must bound every simulated object's speed.
    """

    def __init__(
        self,
        network: "Network",
        *,
        guard_band: float = 50.0,
        max_speed: float = 75.0,
    ) -> None:
        self.net = network
        self.guard_band = float(guard_band)
        self.max_speed = float(max_speed)
        self._cells: dict[Cell, list[Node]] = {}
        self._cell_of: dict[Node, Cell] = {}
        #: snapshot position per indexed node, taken at (re)build or
        #: incremental insert; lets queries classify most candidates
        #: without evaluating their lazy kinematics (see neighbors())
        self._snap: dict[Node, tuple[float, float]] = {}
        #: the v_max the current epoch's validity window was derived
        #: from; bounds any indexed node's drift since ``built_at``
        self._top_speed = float(max_speed)
        #: attach sequence numbers; query results sort by these so the
        #: grid returns neighbours in exactly brute-force (attach) order
        self._order: dict[Node, int] = {}
        self._next_order = 0
        #: True while every cell bucket is ascending in attach order
        #: (rebuilds guarantee it; an incremental move() can break it by
        #: re-filing an old node into a new bucket).  Lets single-bucket
        #: queries skip their result sort.
        self._buckets_ordered = True
        self._cell_size = 0.0
        self._built_at = -math.inf
        self._valid_until = -math.inf
        self._dirty = True
        self.rebuilds = 0
        network.sim.obs.register(SPATIAL_METRICS, self)

    # ------------------------------------------------------------------
    # Incremental membership updates (called by the Network)
    # ------------------------------------------------------------------
    def add(self, node: Node) -> None:
        """Index a freshly attached node at its current position."""
        self._order[node] = self._next_order
        self._next_order += 1
        if node.transmission_range > self._cell_size:
            # a longer radio grows the cell size; regridding everything
            # is a full rebuild
            self._cell_size = node.transmission_range
            self._dirty = True
        if self._dirty:
            return  # the pending rebuild will pick it up
        self._insert(node)

    def remove(self, node: Node) -> None:
        """Drop a detached node from the index."""
        self._order.pop(node, None)
        self._evict(node)

    def move(self, node: Node) -> None:
        """Re-snapshot one node after an explicit position change."""
        if self._dirty or node not in self._cell_of:
            return
        self._evict(node)
        self._insert(node)

    def _insert(self, node: Node) -> None:
        position = node.position
        cell = self._cell_at(position)
        bucket = self._cells.get(cell)
        if bucket is None:
            bucket = self._cells[cell] = []
        elif bucket and self._buckets_ordered:
            order = self._order
            if order.get(bucket[-1], -1) > order.get(node, -1):
                # re-filed mover lands behind a younger node
                self._buckets_ordered = False
        bucket.append(node)
        self._cell_of[node] = cell
        # Snapshotted at insert time (>= built_at), so the epoch drift
        # bound v_max * (now - built_at) still covers this node.
        self._snap[node] = position

    def _evict(self, node: Node) -> None:
        self._snap.pop(node, None)
        cell = self._cell_of.pop(node, None)
        if cell is None:
            return
        bucket = self._cells.get(cell)
        if bucket is not None:
            try:
                bucket.remove(node)
            except ValueError:  # pragma: no cover - defensive
                pass
            if not bucket:
                del self._cells[cell]

    # ------------------------------------------------------------------
    # Epoch management
    # ------------------------------------------------------------------
    def _cell_at(self, position: tuple[float, float]) -> Cell:
        size = self._cell_size
        return (math.floor(position[0] / size), math.floor(position[1] / size))

    def ensure_current(self) -> None:
        """Rebuild when the snapshot epoch has expired (or never built)."""
        if not self._dirty and self.net.sim.now <= self._valid_until:
            return
        self._rebuild()

    def _rebuild(self) -> None:
        sim = self.net.sim
        profiler = sim.obs.profiler
        started = profiler.clock() if profiler is not None else 0.0
        size = self._cell_size
        for node in self.net.nodes:
            if node.transmission_range > size:
                size = node.transmission_range
        size = self._cell_size = size if size > 0 else 1.0
        cells: dict[Cell, list[Node]] = {}
        cell_of: dict[Node, Cell] = {}
        snap: dict[Node, tuple[float, float]] = {}
        top_speed = self.max_speed
        floor = math.floor
        # One flat pass: _cell_at is inlined (identical floor/divide
        # arithmetic) and speed reads the Node attribute directly — this
        # loop touches every node on every epoch expiry.
        for node in self.net.nodes:
            speed = node.speed
            if speed < 0.0:
                speed = -speed
            if speed > top_speed:
                top_speed = speed
            position = node.position
            x, y = position
            cell = (floor(x / size), floor(y / size))
            bucket = cells.get(cell)
            if bucket is None:
                bucket = cells[cell] = []
            bucket.append(node)
            cell_of[node] = cell
            snap[node] = position
        self._cells = cells
        self._cell_of = cell_of
        self._snap = snap
        self._top_speed = top_speed
        self._built_at = sim.now
        self._valid_until = sim.now + (
            self.guard_band / top_speed if top_speed > 0 else math.inf
        )
        self._buckets_ordered = True
        self._dirty = False
        self.rebuilds += 1
        metrics = sim.obs.metrics
        if metrics is not None:
            metrics.gauge("net.spatial.cells").set(len(cells))
        if profiler is not None:
            profiler.record("spatial rebuild", profiler.clock() - started)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def candidates(self, position: tuple[float, float], radius: float) -> list[Node]:
        """Every indexed node whose *snapshot* lies within ``radius`` + one
        cell of ``position``, in attach order (a superset of the nodes
        currently within ``radius - guard_band``)."""
        size = self._cell_size
        x, y = position
        x0 = math.floor((x - radius) / size)
        x1 = math.floor((x + radius) / size)
        y0 = math.floor((y - radius) / size)
        y1 = math.floor((y + radius) / size)
        cells = self._cells
        found: list[Node] = []
        for cx in range(x0, x1 + 1):
            for cy in range(y0, y1 + 1):
                bucket = cells.get((cx, cy))
                if bucket:
                    found.extend(bucket)
        found.sort(key=self._order.__getitem__)
        return found

    def neighbors(self, node: Node) -> list[Node]:
        """Attached nodes in bidirectional range of ``node``, attach-ordered.

        Exactly equal (same objects, same order) to the brute-force scan
        ``[o for o in net.nodes if net.in_range(node, o)]``.
        """
        self.ensure_current()
        # in_range limits by min(pair ranges) <= node's own range, so a
        # guard-band-widened disk around the querier covers every
        # candidate snapshot.
        reach = node.transmission_range + self.guard_band
        # Inlined candidates() + _pair_in_range.  Filtering candidates
        # cell-by-cell and sorting only the survivors is equivalent to
        # sort-then-filter — the attach-order sort key is position-
        # independent — but skips materialising the superset list.
        #
        # Drift-bound classification: a candidate's *current* position
        # lies within ``slack = v_max * (now - built_at)`` metres of its
        # snapshot (the same bound the epoch validity window enforces),
        # so a snapshot distance at most ``limit - slack`` is provably
        # in range and one beyond ``limit + slack`` provably out — only
        # candidates inside that boundary band pay the exact kinematic
        # position evaluation, through the *identical* oracle
        # expression, so the result list matches the brute-force scan
        # bit-for-bit.  The extra millimetre widens the band to absorb
        # the rounding of the squared-compare fast path; it can only
        # send borderline candidates to the exact check, never decide
        # them.
        nx, ny = node.position
        node_range = node.transmission_range
        size = self._cell_size
        floor = math.floor
        x0 = floor((nx - reach) / size)
        x1 = floor((nx + reach) / size)
        y0 = floor((ny - reach) / size)
        y1 = floor((ny + reach) / size)
        cells = self._cells
        snap = self._snap
        slack = (
            self._top_speed * (self.net.sim.now - self._built_at) + 1e-3
        )
        result: list[Node] = []
        append = result.append
        contributors = 0
        for cx in range(x0, x1 + 1):
            for cy in range(y0, y1 + 1):
                bucket = cells.get((cx, cy))
                if not bucket:
                    continue
                before = len(result)
                for other in bucket:
                    if other is node:
                        continue
                    other_range = other.transmission_range
                    limit = (
                        node_range if node_range <= other_range else other_range
                    )
                    sx, sy = snap[other]
                    sdx = nx - sx
                    sdy = ny - sy
                    d2 = sdx * sdx + sdy * sdy
                    inner = limit - slack
                    if inner > 0.0 and d2 <= inner * inner:
                        append(other)  # in range even at maximal drift
                        continue
                    outer = limit + slack
                    if d2 > outer * outer:
                        continue  # out of range even at maximal drift
                    ox, oy = other.position
                    if ((nx - ox) ** 2 + (ny - oy) ** 2) ** 0.5 <= limit:
                        append(other)
                if len(result) != before:
                    contributors += 1
        # A single contributing bucket is already in attach order (the
        # rebuild files nodes in net.nodes order) unless an incremental
        # move broke bucket ordering; everything else merges via sort.
        if contributors > 1 or not self._buckets_ordered:
            result.sort(key=self._order.__getitem__)
        return result

    def maybe_in_range(self, a: Node, b: Node) -> bool:
        """Cheap necessary condition for ``in_range(a, b)``.

        ``False`` means *provably* out of range from snapshot cells alone
        (cell gap distance exceeds the pair limit plus both drifts);
        ``True`` means the exact distance check must decide.
        """
        self.ensure_current()
        cell_a = self._cell_of.get(a)
        cell_b = self._cell_of.get(b)
        if cell_a is None or cell_b is None:
            return True  # unindexed node: no snapshot to reason from
        span = max(abs(cell_a[0] - cell_b[0]), abs(cell_a[1] - cell_b[1]))
        if span <= 1:
            return True
        # Snapshots at least (span-1) whole cells apart; each position
        # has drifted at most guard_band since the epoch.
        limit = min(a.transmission_range, b.transmission_range)
        return (span - 1) * self._cell_size <= limit + 2.0 * self.guard_band

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cell_size(self) -> float:
        return self._cell_size

    @property
    def built_at(self) -> float:
        return self._built_at

    @property
    def valid_until(self) -> float:
        return self._valid_until

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SpatialIndex cells={len(self._cells)} nodes={len(self._cell_of)} "
            f"cell_size={self._cell_size:.0f}m rebuilds={self.rebuilds}>"
        )
