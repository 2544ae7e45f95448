"""The simulation engine: a clock plus an event queue.

Every component in the library receives a :class:`Simulator` and schedules
work on it.  The engine is deliberately small -- the interesting behaviour
lives in the network, RAN and congestion-control components.
"""

from __future__ import annotations

from heapq import heappop as _heappop
from heapq import heappush as _heappush
from typing import Callable, Optional

from repro.sim.events import Event, EventQueue
from repro.sim.randomness import RandomStreams


_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised when the engine is used inconsistently (e.g. scheduling in the past)."""


class SlotTimer:
    """A recurring timer on the simulator's timer wheel.

    The wheel exists for the *dominant periodic* event classes -- above all
    the MAC slot clock, which fires every 0.5 ms for every cell and would
    otherwise account for the majority of heap pushes/pops in slot-bound
    scenarios.  A wheel timer never touches the heap: the run loop compares
    its ``(time, seq)`` key directly against the heap head.

    Determinism contract: a wheel timer consumes sequence numbers from the
    same :class:`~repro.sim.events.EventQueue` counter a heap push would, at
    the same logical points -- one at creation (where the heap slot clock
    pushes its first tick) and one after each firing (where it
    re-schedules itself).  Same-instant ordering against heap
    events is therefore bit-identical to the heap-based implementation.

    The callback is invoked as ``callback(barrier_time, barrier_seq)`` with
    ``sim.now == timer.time``.  It must fire at least the current tick and
    call :meth:`advance` after every tick it processes; it *may* process
    further ticks (batching) while its next ``(time, seq)`` key stays below
    both the barrier key and the heap head.
    """

    __slots__ = ("time", "seq", "period", "callback", "stopped")

    def __init__(self, time: float, seq: int, period: float,
                 callback) -> None:
        self.time = time
        self.seq = seq
        self.period = period
        self.callback = callback
        self.stopped = False

    def advance(self, queue) -> None:
        """Move to the next tick, consuming one tie-break sequence number."""
        seq = queue._next_seq
        queue._next_seq = seq + 1
        self.seq = seq
        self.time += self.period

    def stop(self) -> None:
        """Stop firing; the run loop drops stopped timers lazily."""
        self.stopped = True


class Simulator:
    """Discrete-event simulator with a float-seconds clock.

    Args:
        seed: master seed for all random streams drawn via :attr:`random`.

    Example::

        sim = Simulator(seed=1)
        fired = []
        sim.schedule(0.5, lambda: fired.append(sim.now))
        sim.run(until=1.0)
        assert fired == [0.5]
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.events = EventQueue()
        self.random = RandomStreams(seed)
        self._running = False
        self._processed = 0
        #: Recurring timers living off-heap; empty unless a vectorized
        #: backend installed slot clocks (see :class:`SlotTimer`).
        self._wheel: list[SlotTimer] = []
        #: Bumped when a timer is added mid-run; tells the merged run loop
        #: its cached earliest-timer key may be stale.
        self._wheel_version = 0
        #: The latest time a heap callback may advance the clock to by
        #: doing the work of several of its own ticks in one firing (see
        #: ``MacScheduler._quiet_bulk``): the classic :meth:`run` loop's
        #: ``until`` (inclusive; +inf without one).  -inf -- no batching --
        #: outside :meth:`run`, under a ``max_events`` budget and on the
        #: wheel loop, whose timers get their barrier as arguments.
        self._batch_until = -_INF

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, delay: float, callback: Callable[..., None],
                 *args) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        Pushes onto the queue's heap directly (the body of
        :meth:`EventQueue.push`, inlined): every scheduled packet hop pays
        this call.  ``not delay >= 0`` also rejects NaN, which would
        otherwise compare false both ways and silently break heap order.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule {delay} s from now: "
                                  f"delays must be non-negative numbers")
        queue = self.events
        seq = queue._next_seq
        queue._next_seq = seq + 1
        time = self.now + delay
        event = Event(time, seq, callback, args)
        _heappush(queue.heap, (time, seq, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation time.

        Inlined like :meth:`schedule`; NaN is rejected the same way.
        """
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule at {time:.6f} s, current time is {self.now:.6f} s")
        queue = self.events
        seq = queue._next_seq
        queue._next_seq = seq + 1
        event = Event(time, seq, callback, args)
        _heappush(queue.heap, (time, seq, event))
        return event

    def call_soon(self, callback: Callable[..., None], *args) -> Event:
        """Schedule a callback for the current instant (after pending same-time events)."""
        return self.events.push(self.now, callback, args)

    def add_slot_timer(self, period: float, callback,
                       start_at: Optional[float] = None) -> SlotTimer:
        """Install a recurring off-heap timer (see :class:`SlotTimer`).

        ``callback(barrier_time, barrier_seq)`` fires at ``start_at``
        (default: now) and then every ``period`` seconds, interleaved with
        heap events in exact ``(time, sequence)`` order.  Only honoured by
        :meth:`run`; :meth:`step` processes heap events exclusively.
        """
        if period <= 0:
            raise SimulationError("slot timer period must be positive")
        first = self.now if start_at is None else max(start_at, self.now)
        # Consume the tie-break sequence number exactly where a heap-based
        # slot clock would push its first tick.
        queue = self.events
        seq = queue._next_seq
        queue._next_seq = seq + 1
        timer = SlotTimer(first, seq, period, callback)
        self._wheel.append(timer)
        self._wheel_version += 1
        return timer

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Process one event.  Returns ``False`` when the queue is empty."""
        event = self.events.pop_pending()
        if event is None:
            return False
        if event.time < self.now:
            raise SimulationError("event queue returned an event in the past")
        self.now = event.time
        event.callback(*event.args)
        self._processed += 1
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        Returns the number of events processed by this call.

        The loop body is inlined over the queue's tuple heap -- one
        lazy-cancellation scan per iteration, locals bound outside the loop --
        because this is the hottest code in the library: every simulated
        packet, timer and channel update funnels through here.

        When wheel timers are installed (the ``numpy`` backend's slot
        clocks), the loop runs in a variant that merges the wheel with the
        heap.

        A callback may batch: do the work of its own next ticks in one
        firing and advance ``now`` to the last of them, as long as it stops
        before the heap head's ``(time, seq)`` key and at ``_batch_until``.
        The run publishes ``until`` there; a ``max_events`` budget counts
        single events, so it forbids batching.  ``until`` must not lie
        before ``now`` (the clock never moves backwards).
        """
        if until is not None and not until >= self.now:
            raise SimulationError(
                f"cannot run until {until} s, current time is "
                f"{self.now:.6f} s")
        if self._wheel:
            return self._run_with_wheel(until, max_events)
        self._running = True
        if max_events is None:
            self._batch_until = _INF if until is None else until
        processed_before = self._processed
        # Hot-path local bindings (attribute loads hoisted out of the loop).
        heap = self.events.heap
        heappop = _heappop
        budget = max_events
        try:
            while self._running:
                if (budget is not None
                        and self._processed - processed_before >= budget):
                    break
                # Single combined scan: drop cancelled heads, then pop.
                while heap:
                    head_time = heap[0][0]
                    if heap[0][2].cancelled:
                        heappop(heap)
                        continue
                    break
                else:
                    break
                if until is not None and head_time > until:
                    self.now = until
                    break
                event = heappop(heap)[2]
                self.now = head_time
                event.callback(*event.args)
                # Per-event update keeps processed_events live for callbacks
                # (watchdog patterns read it mid-run).
                self._processed += 1
        finally:
            self._running = False
            self._batch_until = -_INF
        return self._processed - processed_before

    def _run_with_wheel(self, until: Optional[float],
                        max_events: Optional[int]) -> int:
        """The run loop merged with the timer wheel.

        Events fire in exact ``(time, sequence)`` order across the heap and
        the wheel -- the key the heap itself orders by -- so firing order is
        bit-identical to scheduling every tick through the heap.  The wheel
        bookkeeping (compacting stopped timers, finding the earliest one)
        runs once per timer *firing*, not per event: heap events ahead of
        the cached earliest-timer key drain in an inner loop whose per-event
        cost matches the classic loop.  The cache can only go stale in one
        direction -- ``add_slot_timer`` may introduce an earlier key, which
        bumps ``_wheel_version`` and re-enters the bookkeeping; a timer
        *stopped* by a heap callback merely ends the inner drain early and
        is skipped on re-entry.  A firing wheel callback receives the
        barrier key (the next other wheel timer, capped by ``until``) and
        may batch multiple ticks up to that barrier and the heap head.
        """
        self._running = True
        processed_before = self._processed
        heap = self.events.heap
        heappop = _heappop
        budget = max_events
        try:
            while self._running:
                if (budget is not None
                        and self._processed - processed_before >= budget):
                    break
                wheel = self._wheel
                if any(timer.stopped for timer in wheel):
                    wheel = [t for t in wheel if not t.stopped]
                    self._wheel = wheel
                timer = None
                for candidate in wheel:
                    if (timer is None or candidate.time < timer.time
                            or (candidate.time == timer.time
                                and candidate.seq < timer.seq)):
                        timer = candidate
                if timer is None:
                    timer_time = timer_seq = _INF
                else:
                    timer_time = timer.time
                    timer_seq = timer.seq
                version = self._wheel_version
                finished = False
                fire = False
                while True:
                    # Drop cancelled heads, then read the live head key.
                    while heap:
                        head = heap[0]
                        if head[2].cancelled:
                            heappop(heap)
                            continue
                        break
                    else:
                        head = None
                    if head is None or head[0] > timer_time or (
                            head[0] == timer_time and head[1] > timer_seq):
                        # The timer is next (sequence numbers are unique, so
                        # exact key ties cannot happen).
                        fire = timer is not None
                        finished = head is None and timer is None
                        break
                    # Heap event first: same body as the classic loop.
                    head_time = head[0]
                    if until is not None and head_time > until:
                        self.now = until
                        finished = True
                        break
                    event = heappop(heap)[2]
                    self.now = head_time
                    event.callback(*event.args)
                    self._processed += 1
                    if not self._running:
                        finished = True
                        break
                    if (budget is not None
                            and self._processed - processed_before >= budget):
                        finished = True
                        break
                    if self._wheel_version != version:
                        break  # a new timer may now be the earliest
                if finished:
                    break
                if not fire or timer.stopped:
                    continue
                if until is not None and timer_time > until:
                    self.now = until
                    break
                # Barrier for batching: the next other live timer, capped by
                # ``until`` (ticks exactly at ``until`` still fire, hence the
                # +inf sequence).  A max_events budget forbids batching.
                barrier_time = until if until is not None else _INF
                barrier_seq: float = _INF
                for other in wheel:
                    if other is timer or other.stopped:
                        continue
                    if (other.time < barrier_time
                            or (other.time == barrier_time
                                and other.seq < barrier_seq)):
                        barrier_time = other.time
                        barrier_seq = other.seq
                if budget is not None:
                    barrier_time = timer_time
                    barrier_seq = timer_seq
                self.now = timer_time
                timer.callback(barrier_time, barrier_seq)
        finally:
            self._running = False
        return self._processed - processed_before

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._running = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def peek_time(self) -> Optional[float]:
        """Firing time of the earliest live event, or ``None`` when idle.

        Lets windowed callers (``run(until=t)`` invoked repeatedly) observe
        how far ahead this loop could safely run and whether it has work
        left at all: the sharded runtime reads it for every shard at each
        window barrier (``ShardHost.peek``) to widen adaptive windows.

        Live wheel timers count as work: a shard whose only future activity
        is its slot clock must not look idle to the barrier synchronizer.
        """
        heap_time = self.events.peek_time()
        wheel_time: Optional[float] = None
        for timer in self._wheel:
            if not timer.stopped and (wheel_time is None
                                      or timer.time < wheel_time):
                wheel_time = timer.time
        if wheel_time is None:
            return heap_time
        if heap_time is None:
            return wheel_time
        return heap_time if heap_time < wheel_time else wheel_time

    @property
    def pending_events(self) -> int:
        """Number of heap entries still queued (including cancelled ones)."""
        return len(self.events)

    @property
    def processed_events(self) -> int:
        """Total number of events processed since construction."""
        return self._processed
