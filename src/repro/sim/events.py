"""Event objects and the priority queue that orders them.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
is assigned on insertion, which makes the execution order of same-time,
same-priority events identical to their scheduling order.  Determinism of
this ordering is what makes every experiment in the reproduction
repeatable from a seed.

Two implementation choices keep the hot path fast without changing
that contract:

- the heap stores plain ``(time, priority, sequence, event)`` tuples, so
  ``heapq`` sift comparisons resolve on the first differing number at C
  speed and never call back into :class:`Event` (sequence numbers are
  unique, so the trailing event object is never compared);
- :class:`Event` is a ``__slots__`` class carrying an ``args`` tuple, so
  callers can schedule bound methods with arguments instead of
  allocating a capture-closure per packet.

Cancellation stays lazy (a flag checked when an entry surfaces), but the
queue tracks its :attr:`~EventQueue.cancelled_fraction` and compacts
itself once more than half of the stored entries are corpses, so
restart-heavy timers no longer grow the heap without bound.

Event pooling
-------------
Fire-and-forget events — packet deliveries, overhear fan-out, anything
scheduled with ``pooled=True`` whose handle the caller drops — are
recycled through a bounded freelist instead of being allocated fresh for
every transmission.  Dispatch hands the fired event back via
:meth:`EventQueue.recycle`, which clears its action/args references (so
packets are not kept alive by dead events) and tombstones it; the next
``pooled`` push reinitialises it in place under a bumped
:attr:`Event.generation`.  Late cancellations cannot resurrect a
recycled event: a tombstoned event ignores ``cancel()``, and callers
that must hold a handle across a dispatch can pass the generation they
captured at scheduling time to :meth:`Event.cancel` — a stale
generation is a no-op.  Pooling changes no ordering: sequence numbers
are drawn from the same counter whether an event comes from the
freelist or the allocator.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Any, Callable

#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Runs before normal events scheduled for the same instant (e.g. mobility
#: updates should land before packet deliveries at the same timestamp).
PRIORITY_HIGH = -10
#: Runs after normal events at the same instant (e.g. bookkeeping).
PRIORITY_LOW = 10

#: Queues smaller than this never compact — the win would not cover the
#: rebuild cost.
_COMPACT_MIN_STORED = 64

#: Most recycled events the freelist holds on to (pool tuning knob; see
#: docs/performance.md "Packet memory model").  Bursts beyond this fall
#: back to the allocator, so the cap only bounds retained memory.
POOL_MAX_FREE = 4096


def _discarded() -> None:  # pragma: no cover - tombstone action
    """Placeholder action carried by recycled events (module-level so
    parked freelist events never pin a callback, and stay picklable)."""


class Event:
    """A single scheduled callback.

    Attributes
    ----------
    time:
        Absolute virtual time (seconds) at which the event fires.
    priority:
        Tie-breaker for events at the same time; lower runs first.
    sequence:
        Insertion counter, the final tie-breaker.
    action:
        Callable executed as ``action(*args)`` when the event fires.
    args:
        Positional arguments for ``action``; lets callers schedule bound
        methods directly instead of wrapping them in closures.
    label:
        Human-readable description used in error messages and traces.
    cancelled:
        Cancelled events stay filed but are skipped when they surface.
    generation:
        Incarnation counter for pooled events.  Bumped every time the
        freelist reissues this object; a handle captured under an older
        generation can no longer cancel it.
    pooled:
        True when dispatch should hand this event back to the freelist.
    """

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "action",
        "args",
        "label",
        "cancelled",
        "generation",
        "pooled",
        "_queue",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        action: Callable[..., Any],
        args: tuple = (),
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.action = action
        self.args = args
        self.label = label
        self.cancelled = False
        self.generation = 0
        self.pooled = False
        self._queue: EventQueue | None = None

    def cancel(self, generation: int | None = None) -> None:
        """Mark this event so the queue skips it when it surfaces.

        Safe after the event fired: dispatch detaches the event from its
        queue, so a late cancel no longer perturbs the live-event
        accounting.  ``generation`` (optional) guards pooled handles:
        pass the value captured at scheduling time and the cancel
        becomes a no-op if the freelist has since reissued the object to
        a different logical event.
        """
        if generation is not None and generation != self.generation:
            return
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return (
            f"<Event t={self.time!r} p={self.priority} "
            f"#{self.sequence} {self.label!r}{state}>"
        )


class EventQueue:
    """A tuple-keyed heap of :class:`Event` objects with lazy cancellation.

    >>> q = EventQueue()
    >>> e = q.push(1.0, lambda: None, label="hello")
    >>> q.peek_time()
    1.0
    >>> e.cancel()
    >>> q.pop() is None  # drained: the only event was cancelled
    True
    """

    def __init__(self, *, pool_max_free: int = POOL_MAX_FREE) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0
        #: number of times the queue rebuilt itself to shed corpses
        self.compactions = 0
        #: most live events ever pending at once; tracked on push so the
        #: published peak does not depend on when metrics are sampled
        self.high_water = 0
        #: worst corpse fraction observed at a cancellation instant
        self.peak_cancelled_fraction = 0.0
        #: recycled fire-and-forget events awaiting reuse
        self._free: list[Event] = []
        #: freelist retention cap (pool tuning knob)
        self.pool_max_free = pool_max_free
        #: events handed back to the freelist over the queue's lifetime
        self.pool_recycled = 0
        #: pushes served from the freelist instead of the allocator
        self.pool_reused = 0
        #: most events ever parked in the freelist at once
        self.pool_high_water = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def push(
        self,
        time: float,
        action: Callable[..., Any],
        *,
        args: tuple = (),
        priority: int = PRIORITY_NORMAL,
        label: str = "",
        pooled: bool = False,
    ) -> Event:
        """Insert an event and return a handle that can be cancelled.

        ``pooled=True`` marks fire-and-forget work whose handle the
        caller will not retain: the event is drawn from the freelist
        when one is parked there and handed back to it after dispatch.
        A caller that *does* keep the handle must cancel through the
        generation captured at scheduling time (``event.generation``).
        """
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time!r}")
        if pooled and self._free:
            event = self._free.pop()
            self.pool_reused += 1
            event.time = time
            event.priority = priority
            event.sequence = sequence = next(self._counter)
            event.action = action
            event.args = args
            event.label = label
            event.cancelled = False
            event.generation += 1
        else:
            event = Event(time, priority, next(self._counter), action, args, label)
            event.pooled = pooled
            sequence = event.sequence
        event._queue = self
        heappush(self._heap, (time, priority, sequence, event))
        self._live += 1
        if self._live > self.high_water:
            self.high_water = self._live
        return event

    def push_delivery(
        self,
        time: float,
        action: Callable[..., Any],
        args: tuple,
        label: str,
    ) -> Event:
        """Positional fast path of :meth:`push` for delivery fan-out.

        Semantically ``push(time, action, args=args, label=label,
        pooled=True)`` — same shared sequence counter, same heap entry,
        same freelist — minus the keyword-argument plumbing and the
        validity branch the radio fan-out never needs.  The
        network schedules thousands of these per flood round; shaving
        the call overhead here is worth the duplication.  ``time`` must
        be non-negative (callers derive it as ``now + delay`` with
        validated non-negative delays).
        """
        if self._free:
            event = self._free.pop()
            self.pool_reused += 1
            event.time = time
            event.priority = PRIORITY_NORMAL
            event.sequence = sequence = next(self._counter)
            event.action = action
            event.args = args
            event.label = label
            event.cancelled = False
            event.generation += 1
        else:
            event = Event(time, PRIORITY_NORMAL, next(self._counter), action, args, label)
            event.pooled = True
            sequence = event.sequence
        event._queue = self
        heappush(self._heap, (time, PRIORITY_NORMAL, sequence, event))
        live = self._live = self._live + 1
        if live > self.high_water:
            self.high_water = live
        return event

    def recycle(self, event: Event) -> None:
        """Hand a dispatched pooled event back to the freelist.

        Clears the action/args references so a dead event never keeps a
        packet (or a receiver batch) alive, and tombstones the object —
        ``cancelled`` stays True until the freelist reissues it, so a
        stale handle's ``cancel()`` is a no-op.  Called by the simulator
        after the event's action returned; never call it for an event
        that is still filed.
        """
        event.action = _discarded
        event.args = ()
        event.cancelled = True
        free = self._free
        if len(free) < self.pool_max_free:
            free.append(event)
            self.pool_recycled += 1
            if len(free) > self.pool_high_water:
                self.pool_high_water = len(free)

    # ------------------------------------------------------------------
    # Corpse accounting
    # ------------------------------------------------------------------
    @property
    def stored(self) -> int:
        """Entries physically held: live plus lazily-cancelled corpses."""
        return len(self._heap)

    @property
    def cancelled_fraction(self) -> float:
        """Fraction of stored entries that are cancelled corpses."""
        stored = self.stored
        return (stored - self._live) / stored if stored else 0.0

    def _note_cancelled(self) -> None:
        self._live -= 1
        stored = self.stored
        if stored:
            fraction = (stored - self._live) / stored
            if fraction > self.peak_cancelled_fraction:
                self.peak_cancelled_fraction = fraction
        if stored >= _COMPACT_MIN_STORED and (stored - self._live) * 2 > stored:
            self.compact()

    def compact(self) -> None:
        """Rebuild the heap without corpses.

        Mutates the heap list in place so aliases held by an in-flight
        ``pop`` loop stay valid.
        """
        self._heap[:] = [entry for entry in self._heap if not entry[3].cancelled]
        heapify(self._heap)
        self.compactions += 1

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or ``None`` if empty.

        Cancelled events encountered on the way are discarded silently.
        """
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            if event.cancelled:
                continue
            self._live -= 1
            # Detach: a cancel() arriving after the event fired must not
            # decrement the live count a second time.
            event._queue = None
            return event
        return None

    def pop_due(self, until: float | None = None) -> Event | None:
        """Pop the earliest live event due at or before ``until``.

        Returns ``None`` when the queue is empty or the next live event
        fires after ``until`` (that event is left in place).  It fuses the
        peek/pop pair into one heap access per iteration.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if event.cancelled:
                heappop(heap)
                continue
            if until is not None and entry[0] > until:
                return None
            heappop(heap)
            self._live -= 1
            event._queue = None
            return event
        return None

    def peek_time(self) -> float | None:
        """Return the fire time of the next live event without removing it."""
        heap = self._heap
        while heap:
            if heap[0][3].cancelled:
                heappop(heap)
                continue
            return heap[0][0]
        return None

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._live = 0

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle the freelist as a *count*, not as objects.

        Parked events are interchangeable blanks; recording how many are
        parked (and rebuilding that many on restore) keeps the pool's
        occupancy — and therefore ``pool_reused``/``pool_high_water`` —
        byte-identical between a restored run and one that never paused.
        """
        state = self.__dict__.copy()
        state["_free"] = len(self._free)
        return state

    def __setstate__(self, state: dict) -> None:
        parked = state.pop("_free", 0)
        self.__dict__.update(state)
        free: list[Event] = []
        for _ in range(int(parked)):
            blank = Event(0.0, 0, 0, _discarded)
            blank.pooled = True
            blank.cancelled = True
            free.append(blank)
        self._free = free
