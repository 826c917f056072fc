"""The virtual-time event queue.

Events are the simulator's asynchrony: interval-timer expirations,
signals sent from outside the process, and I/O completions.  Each event
carries an absolute virtual time (in cycles) and an action callback.
Events with equal timestamps fire in scheduling order (a stable sequence
number breaks ties), which keeps every run deterministic.

Host-speed notes: this queue sits on the executor's hottest path (every
``World.spend`` asks "is anything due?"), so it caches the earliest
pending event time (the *horizon*).  ``next_time``/``fire_due`` answer
in O(1) while the horizon is ahead of the clock, and ``__len__`` is a
pure counter read — no query mutates the heap.  Cancelled events stay
in the heap as tombstones until they reach the top; the live count and
horizon are maintained incrementally by :meth:`Event.cancel` telling
its queue.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

Action = Callable[[], None]

#: Sentinel horizon value: "stale, recompute from the heap on demand".
#: Event times are >= 0, so -1 can never collide with a real time.
_STALE = -1


class Event:
    """A scheduled action; cancellable until it fires."""

    __slots__ = ("time", "seq", "action", "name", "cancelled", "fired", "queue")

    def __init__(self, time: int, seq: int, action: Action, name: str) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.name = name
        self.cancelled = False
        self.fired = False
        self.queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue._cancelled(self)

    def __repr__(self) -> str:
        state = "fired" if self.fired else (
            "cancelled" if self.cancelled else "pending"
        )
        return "Event(%s @%d, %s)" % (self.name, self.time, state)


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    Invariants:

    - ``_live`` counts scheduled, unfired, uncancelled events;
    - ``_horizon`` is the earliest live event time, ``None`` when the
      queue is empty, or :data:`_STALE` when it must be recomputed by
      popping tombstones off the heap top.
    """

    __slots__ = (
        "_heap", "_seq", "_live", "_horizon",
        "batch_pops", "batched_events", "max_batch",
    )

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = 0
        self._live = 0
        self._horizon: Optional[int] = None
        #: Batched-pop telemetry (see :meth:`fire_due`): number of
        #: multi-event same-timestamp batches, events fired through
        #: them, and the largest batch seen.  Pure counters -- they
        #: never influence behaviour.
        self.batch_pops = 0
        self.batched_events = 0
        self.max_batch = 0

    def __len__(self) -> int:
        return self._live

    def schedule(self, time: int, action: Action, name: str = "event") -> Event:
        """Schedule ``action`` at absolute cycle ``time``."""
        if time < 0:
            raise ValueError("event time must be >= 0: %r" % time)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, action, name)
        event.queue = self
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        horizon = self._horizon
        if horizon is None or (horizon != _STALE and time < horizon):
            self._horizon = time
        return event

    def next_time(self) -> Optional[int]:
        """Virtual time of the earliest pending event, or None."""
        horizon = self._horizon
        if horizon != _STALE:
            return horizon
        self._drop_cancelled()
        heap = self._heap
        horizon = heap[0][0] if heap else None
        self._horizon = horizon
        return horizon

    def due_before(self, now: int) -> bool:
        """O(1) in the common case: could anything be due at ``now``?

        May return True conservatively when the horizon is stale; the
        caller's :meth:`fire_due` then resolves it exactly.
        """
        horizon = self._horizon
        if horizon == _STALE:
            return self.next_time() is not None and self._horizon <= now
        return horizon is not None and horizon <= now

    def fire_due(self, now: int) -> int:
        """Fire every event due at or before ``now``; returns the count.

        Actions may schedule further events; those fire too if they are
        also due (a timer rearming itself in the past would otherwise
        stall time).

        Completions that share a timestamp (the common case under mass
        I/O at scale) are swept off the heap as one *batch*: a single
        run of heap pops and one horizon recompute amortize the
        per-event queue overhead.  Batching is observably equivalent to
        one-at-a-time pops: every event scheduled by a batch member's
        action carries a later time -- or the same time with a higher
        sequence number -- than every unprocessed member, so it cannot
        overtake them (the world clamps ``schedule_at`` to the current
        instant).  The one exception is a cross-clock queue (SMP IPIs
        land on per-CPU queues at the *source* clock's arrival time,
        possibly behind this queue's batch); if an action schedules
        before the batch timestamp, the unprocessed members are pushed
        back and the sweep restarts, reproducing the one-at-a-time
        order exactly.  Cancellation by a sibling is honoured at
        process time: a member cancelled after the sweep already did
        its live/horizon bookkeeping and is simply skipped.

        A *lone* head -- neither heap child shares its timestamp, so by
        the heap order no other entry does -- fires directly, without a
        batch list: exactly what a batch of one would do.
        """
        horizon = self._horizon
        if horizon != _STALE and (horizon is None or horizon > now):
            return 0
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        fired = 0
        while True:
            while heap and heap[0][2].cancelled:
                pop(heap)  # tombstone
            if not heap:
                break
            t0 = heap[0][0]
            if t0 > now:
                break
            size = len(heap)
            if (size < 2 or heap[1][0] != t0) and (size < 3 or heap[2][0] != t0):
                event = pop(heap)[2]
                self._horizon = _STALE
                event.fired = True
                self._live -= 1
                event.action()
                fired += 1
                continue
            batch: List[Event] = []
            while heap and heap[0][0] == t0:
                batch.append(pop(heap)[2])
            self._horizon = _STALE
            n = len(batch)
            if n > 1:
                self.batch_pops += 1
                self.batched_events += n
                if n > self.max_batch:
                    self.max_batch = n
            i = 0
            try:
                while i < n:
                    event = batch[i]
                    i += 1
                    if event.cancelled:
                        continue
                    event.fired = True
                    self._live -= 1
                    event.action()
                    fired += 1
                    if i < n and heap and heap[0][0] < t0:
                        # A cross-clock schedule landed before this
                        # batch; fall back to heap order for the rest.
                        break
            finally:
                if i < n:
                    for later in batch[i:]:
                        push(heap, (later.time, later.seq, later))
        self._horizon = heap[0][0] if heap else None
        return fired

    def _cancelled(self, event: Event) -> None:
        """Bookkeeping for :meth:`Event.cancel` (tombstone stays heaped)."""
        self._live -= 1
        if self._live == 0:
            # Every heap entry is a tombstone: drop them all at once.
            self._heap.clear()
            self._horizon = None
        elif self._horizon == event.time:
            # The cancelled event may have defined the horizon; another
            # live event could share its timestamp, so recompute lazily.
            self._horizon = _STALE

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)

    def signature(self) -> Tuple[Tuple[int, int, str], ...]:
        """The live events as a sorted ``(time, seq, name)`` tuple.

        Tombstones are excluded, so two queues that went through
        different cancel histories but hold the same pending work have
        the same signature.  Used by the snapshot-integrity digests in
        :mod:`repro.fleet`.
        """
        return tuple(
            sorted(
                (event.time, event.seq, event.name)
                for (__, __, event) in self._heap
                if not event.cancelled
            )
        )
