"""Event pooling: snapshot safety and freelist mechanics.

Event pooling recycles delivery events through a freelist; that must be
invisible to every seeded experiment (``tests/test_golden_traces.py``
pins the traces).  A snapshot/restore mid-trial with pooling live must
match the never-paused run, pool counters included, and a steady-state
beacon mesh must allocate a flat amount of memory once the pool is warm.

The pool unit tests pin the safety story: generation counters make late
cancellations of recycled events no-ops, tombstoned freelist events
ignore ``cancel()``, and cancelling an event *after* it fired no longer
perturbs the live-event accounting.
"""

import gc
import pickle
import tracemalloc

from repro.experiments.config import ATTACK_SINGLE, TrialConfig
from repro.experiments.trial import TrialSession, begin_trial, run_trial
from repro.net import ChannelConfig, Network, Node
from repro.routing.protocol import AodvConfig, AodvProtocol
from repro.sim import Simulator
from repro.sim.events import EventQueue

#: Steady-state allocation ceiling for the hello mesh (bytes).  Pooled
#: per-event allocations are reused, so growth after warm-up is bounded
#: by bookkeeping noise, not by event count.
FLAT_MEMORY_BUDGET = 512 * 1024


def _result_bytes(result) -> bytes:
    payload = {
        name: value
        for name, value in vars(result).items()
        if name != "profile"
    }
    return pickle.dumps(payload, protocol=4)


def test_snapshot_restore_mid_trial_with_pooling_live():
    """Pause/snapshot/restore/finish with the pool engaged equals the
    never-paused run — freelist occupancy and pool counters included
    (the queue pickles its freelist as a count and rebuilds blanks)."""
    config = TrialConfig(
        seed=42, attack=ATTACK_SINGLE, attacker_cluster=5, metrics=True
    )
    straight = run_trial(config)

    session = begin_trial(config)
    session.run_to(4.0)
    blob = session.snapshot()
    resumed = TrialSession.restore(blob).finish()

    assert _result_bytes(resumed) == _result_bytes(straight)
    assert resumed.metrics == straight.metrics
    # the guarantee is meaningful only if pooling actually engaged
    assert straight.metrics["sim.pool.reused"]["value"] > 0


def test_hello_mesh_steady_state_memory_is_flat():
    """100 vehicles beaconing once a second on a 10 km strip for 9
    virtual seconds: after the first third has filled the freelist and
    warmed every cache, the remainder may grow by at most 512 KiB."""
    sim = Simulator(seed=42)
    net = Network(sim, ChannelConfig(jitter=0.0))
    placement = sim.rng("bench-placement")
    for i in range(100):
        node = Node(
            sim, f"veh-{i}",
            position=(placement.uniform(0.0, 10_000.0), 0.0),
            transmission_range=500.0,
        )
        net.attach(node)
        AodvProtocol(node, AodvConfig(enable_hello=True, hello_interval=1.0))
    tracemalloc.start()
    try:
        sim.run(until=3.0)
        gc.collect()
        at_warmup, _ = tracemalloc.get_traced_memory()
        sim.run(until=9.0)
        gc.collect()
        at_end, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sim.queue.pool_reused > 0
    assert at_end - at_warmup <= FLAT_MEMORY_BUDGET


# ----------------------------------------------------------------------
# Pool mechanics
# ----------------------------------------------------------------------
def test_pooled_deliveries_actually_recycle():
    sim = Simulator(seed=1)
    fired = [0]

    def tick() -> None:
        fired[0] += 1
        if fired[0] < 50:
            sim.schedule(0.001, tick, pooled=True)

    sim.schedule(0.001, tick, pooled=True)
    sim.run()
    assert fired[0] == 50
    assert sim.queue.pool_recycled > 0
    assert sim.queue.pool_reused > 0  # later pushes reused earlier corpses
    assert sim.queue.pool_high_water >= 1


def test_recycled_event_is_reissued_under_new_generation():
    queue = EventQueue()
    event = queue.push(1.0, (lambda: None), pooled=True)
    first_generation = event.generation
    assert queue.pop() is event
    queue.recycle(event)
    assert event.cancelled  # tombstoned while parked
    reissued = queue.push(2.0, (lambda: None), pooled=True)
    assert reissued is event  # same object, recycled
    assert reissued.generation == first_generation + 1
    assert not reissued.cancelled


def test_stale_generation_cannot_cancel_recycled_event():
    queue = EventQueue()
    event = queue.push(1.0, (lambda: None), pooled=True)
    stale = event.generation
    queue.pop()
    queue.recycle(event)
    queue.push(2.0, (lambda: None), pooled=True)  # reissues the object
    event.cancel(stale)  # late cancel through a stale handle: no-op
    assert not event.cancelled
    assert queue.pop() is event  # the new incarnation still fires
    event.cancel(event.generation)  # matching generation still works
    assert event.cancelled


def test_tombstoned_freelist_event_ignores_cancel():
    queue = EventQueue()
    event = queue.push(1.0, (lambda: None), pooled=True)
    queue.pop()
    queue.recycle(event)
    live_before = len(queue)
    event.cancel()  # already tombstoned: must not touch accounting
    assert len(queue) == live_before == 0


def test_cancel_after_fire_does_not_corrupt_live_count():
    queue = EventQueue()
    fired = queue.push(1.0, (lambda: None))
    queue.push(2.0, (lambda: None))
    assert queue.pop() is fired
    fired.cancel()  # late cancel of an already-fired event
    assert len(queue) == 1  # the pending event is still accounted live
    assert queue.pop() is not None


def test_freelist_retention_is_bounded():
    queue = EventQueue(pool_max_free=4)
    events = [queue.push(float(i), (lambda: None), pooled=True) for i in range(10)]
    for event in events:
        assert queue.pop() is not None
    for event in events:
        queue.recycle(event)
    assert len(queue._free) == 4
    assert queue.pool_high_water == 4


def test_queue_pickles_freelist_as_interchangeable_blanks():
    queue = EventQueue()
    events = [queue.push(float(i), (lambda: None), pooled=True) for i in range(3)]
    for _ in events:
        queue.pop()
    for event in events:
        queue.recycle(event)
    clone = pickle.loads(pickle.dumps(queue))
    assert len(clone._free) == len(queue._free) == 3
    assert clone.pool_recycled == queue.pool_recycled
    # parked blanks are immediately reusable and tombstoned
    reissued = clone.push(1.0, (lambda: None), pooled=True)
    assert clone.pool_reused == queue.pool_reused + 1
    assert reissued.pooled and not reissued.cancelled
