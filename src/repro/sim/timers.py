"""Cancellable one-shot and periodic timers built on the event queue.

AODV and BlackDP are full of timeouts (RREP wait, Hello intervals, route
lifetimes, verification-table expiry); these helpers wrap the raw event
handles with restart/cancel semantics so protocol code stays readable.

Restarting a timer cancels its pending event lazily; the queue compacts
itself once corpses dominate (see :mod:`repro.sim.events`).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.events import Event
from repro.sim.simulator import Simulator


class Timer:
    """A restartable one-shot timer.

    >>> sim = Simulator()
    >>> hits = []
    >>> t = Timer(sim, 5.0, lambda: hits.append(sim.now))
    >>> t.start(); sim.run()
    >>> hits
    [5.0]
    """

    def __init__(
        self,
        simulator: Simulator,
        delay: float,
        action: Callable[[], Any],
        *,
        label: str = "timer",
    ) -> None:
        if delay < 0:
            raise ValueError(f"timer delay must be non-negative, got {delay!r}")
        self._simulator = simulator
        self.delay = delay
        self._action = action
        self.label = label
        self._event: Event | None = None
        self.fired = 0

    @property
    def running(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float | None = None) -> None:
        """(Re)arm the timer.  An already running timer is restarted."""
        self.cancel()
        use_delay = self.delay if delay is None else delay
        self._event = self._simulator.schedule(use_delay, self._fire, label=self.label)

    def cancel(self) -> None:
        """Disarm the timer if it is pending; safe to call when idle."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self.fired += 1
        self._action()


class PeriodicTimer:
    """Fires ``action`` every ``interval`` seconds until cancelled.

    The first firing happens after ``first_delay`` (defaults to the
    interval), mirroring how AODV Hello beacons start one interval after
    a node boots.
    """

    def __init__(
        self,
        simulator: Simulator,
        interval: float,
        action: Callable[[], Any],
        *,
        first_delay: float | None = None,
        label: str = "periodic",
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self._simulator = simulator
        self.interval = interval
        self._action = action
        self.label = label
        self._first_delay = interval if first_delay is None else first_delay
        self._event: Event | None = None
        self.fired = 0

    @property
    def running(self) -> bool:
        return self._event is not None and not self._event.cancelled

    def start(self) -> None:
        """Begin the periodic schedule; restarting resets the phase."""
        self.cancel()
        self._event = self._simulator.schedule(
            self._first_delay, self._fire, label=self.label
        )

    def cancel(self) -> None:
        """Stop future firings; safe to call when idle."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self.fired += 1
        self._event = self._simulator.schedule(
            self.interval, self._fire, label=self.label
        )
        self._action()
