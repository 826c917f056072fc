"""The virtual-time event queue: a callout table.

Events are the simulator's asynchrony: interval-timer expirations,
signals sent from outside the process, link messages and I/O
completions.  Like the 4.3BSD kernel's ``timeout(fn, arg, ticks)``
table, each queue entry is a *callout*: an absolute virtual time (in
cycles), a function and its one argument, fired as ``fn(arg)``.  Entries
with equal timestamps fire in posting order (a stable sequence number
breaks ties), which keeps every run deterministic.

Two ways in, one insertion path:

- :meth:`EventQueue.post` queues a callout and returns nothing.  The
  hot callers (link messages, client think timers, arrivals, connection
  set-up and EOF, disk completions, IPIs) never cancel what they post,
  so they pass a function they already hold and the object it acts on
  -- no handle, closure or bound method is built per event.
- :meth:`EventQueue.schedule` is for the few callers that keep a
  cancellation handle (the interval timers, tests, examples).  It
  builds an :class:`Event` and posts ``_fire_event(event)``.  A
  cancelled handle stays queued as a *tombstone* -- an entry whose
  ``fn`` is :func:`_fire_event` and whose ``arg`` is cancelled -- until
  it reaches the front; the live count and horizon are maintained
  incrementally by :meth:`Event.cancel` telling its queue.

Host-speed notes: this queue sits on the executor's hottest path (every
kernel crossing asks "is anything due?"), so it caches the earliest
pending event time (the *horizon*).  ``next_time``/``fire_due`` answer
in O(1) while the horizon is ahead of the clock, and ``__len__`` is a
pure counter read -- no query mutates the queue.

Lanes: almost every event is posted in time order *within its own
kind* -- a fixed link delay, a constant think time, monotone client
arrivals.  So each kind (the ``name`` a caller passes) gets a FIFO
*lane*, and only the head of each non-empty lane sits on the binary
heap.  An entry whose time is at or after its lane's tail joins the
lane; one that would land before the tail (a random-latency device, an
SMP IPI posted behind a per-CPU queue's clock) goes on the heap as a
lane-less entry and is counted in ``heap_schedules``.  Sequence numbers
rise strictly, so every lane stays sorted by ``(time, seq)``; the heap
minimum is therefore the global ``(time, seq)`` minimum and events fire
in exactly the order a single heap of every event would give.  The heap
holds a handful of lane heads instead of every pending event, so
posting and firing cost O(1) in the number of pending events, up to
the log of the number of kinds.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

Action = Callable[[], None]

#: One queue entry, a callout: ``(time, seq, fn, arg, lane, name)``,
#: fired as ``fn(arg)``.  ``lane`` is the kind's FIFO lane the entry
#: sits in, or None for a lane-less heap entry.  Lanes and the heap hold
#: the same tuple, so promoting a lane head to the heap allocates
#: nothing; ``(time, seq)`` is unique, so heap order never compares
#: further fields.
Entry = Tuple[int, int, Callable[[Any], None], Any, Optional[Deque], str]

#: Sentinel horizon value: "stale, recompute from the heap on demand".
#: Event times are >= 0, so -1 can never collide with a real time.
_STALE = -1


class Event:
    """A cancellation handle for one scheduled action."""

    __slots__ = (
        "time", "seq", "action", "name", "cancelled", "fired", "queue",
    )

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


def _fire_event(event: Event) -> None:
    """The callout of a :meth:`EventQueue.schedule` handle."""
    event.fired = True
    event.action()


class EventQueue:
    """A deterministic priority queue of callouts.

    Invariants:

    - every non-empty lane has exactly its head entry on ``_heap``;
      every other heap entry is lane-less;
    - ``_live`` counts posted entries that have neither fired nor been
      cancelled;
    - ``_horizon`` is the earliest live entry time, ``None`` when the
      queue is empty, or :data:`_STALE` when it must be recomputed by
      popping tombstones off the heap top.
    """

    __slots__ = (
        "_heap", "_lanes", "_seq", "_live", "_horizon", "heap_schedules",
        "batch_pops", "batched_events", "max_batch",
    )

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._lanes: Dict[str, Deque[Entry]] = {}
        self._seq = 0
        self._live = 0
        self._horizon: Optional[int] = None
        #: Posts that landed before their lane's tail and went on the
        #: heap instead (see the module docstring).
        self.heap_schedules = 0
        #: Same-timestamp run telemetry (see :meth:`fire_due`): runs of
        #: more than one pop, pops inside them, and the longest run.
        #: Pure counters -- they never influence behaviour.
        self.batch_pops = 0
        self.batched_events = 0
        self.max_batch = 0

    def __len__(self) -> int:
        return self._live

    def post(self, time: int, fn: Callable[[Any], None], arg: Any,
             name: str = "event") -> None:
        """Queue the callout ``fn(arg)`` at absolute cycle ``time``.

        The only code that puts an entry on a lane or on the heap.
        ``name`` is the entry's *kind*: it picks the FIFO lane the entry
        joins, so it must come from a small fixed set (``"net-deliver"``,
        ``"client-think"``, ...), never carry a per-event id.  Kinds
        posted in time order cost O(1); an entry that lands before its
        lane's tail still fires in order, through the heap.
        """
        if time < 0:
            raise ValueError("event time must be >= 0: %r" % time)
        seq = self._seq
        self._seq = seq + 1
        lane = self._lanes.get(name)
        if lane is None:
            lane = self._lanes[name] = deque()
        if not lane:
            entry = (time, seq, fn, arg, lane, name)
            lane.append(entry)
            heapq.heappush(self._heap, entry)
        elif time >= lane[-1][0]:
            lane.append((time, seq, fn, arg, lane, name))
        else:
            self.heap_schedules += 1
            heapq.heappush(self._heap, (time, seq, fn, arg, None, name))
        self._live += 1
        horizon = self._horizon
        if horizon is None or (horizon != _STALE and time < horizon):
            self._horizon = time

    def schedule(self, time: int, action: Action, name: str = "event") -> Event:
        """Schedule ``action`` at absolute cycle ``time``; returns its
        cancellation handle.  Same lane rule as :meth:`post`."""
        event = Event(time, self._seq, action, name)
        event.queue = self
        self.post(time, _fire_event, event, name)
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

        Callouts may post further events; those fire too if they are
        also due (a timer rearming itself in the past would otherwise
        stall time).  Events fire one at a time in ``(time, seq)`` order:
        each pop takes the heap minimum and, when it is a lane head,
        replaces it with the lane's next entry in the same sift.  A
        callout that posts into the past (an SMP IPI on a per-CPU queue)
        lands on the heap and simply fires next.  Cancelled tombstones
        are dropped as they reach the top.

        The batch counters record *runs*: consecutive pops within one
        call that share a timestamp.  A tombstone counts when it falls
        inside a run; tombstones dropped before a run's first live
        event do not.
        """
        horizon = self._horizon
        if horizon != _STALE and (horizon is None or horizon > now):
            return 0
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        run_time = -1
        run = 0
        while heap:
            entry = heap[0]
            time, __, fn, arg, lane, __ = entry
            if fn is _fire_event and arg.cancelled:
                if time == run_time:
                    run += 1
                else:
                    if run > 1:
                        self._count_run(run)
                    run_time = -1
                    run = 0
                self._pop_top(entry)
                continue
            if time > now:
                break
            if time == run_time:
                run += 1
            else:
                if run > 1:
                    self._count_run(run)
                run_time = time
                run = 1
            # _pop_top, inlined: this is the per-event hot path.
            if lane is None:
                pop(heap)
            else:
                lane.popleft()
                if lane:
                    heapq.heapreplace(heap, lane[0])
                else:
                    pop(heap)
            self._horizon = _STALE
            self._live -= 1
            fn(arg)
            fired += 1
        if run > 1:
            self._count_run(run)
        self._horizon = heap[0][0] if heap else None
        return fired

    def _count_run(self, run: int) -> None:
        self.batch_pops += 1
        self.batched_events += run
        if run > self.max_batch:
            self.max_batch = run

    def _cancelled(self, event: Event) -> None:
        """Bookkeeping for :meth:`Event.cancel` (the tombstone stays queued)."""
        self._live -= 1
        if self._live == 0:
            # Every queued entry is a tombstone: drop them all at once.
            self._heap.clear()
            for lane in self._lanes.values():
                lane.clear()
            self._horizon = None
        elif self._horizon == event.time:
            # The cancelled event may have defined the horizon; another
            # live event could share its timestamp, so recompute lazily.
            self._horizon = _STALE

    def _pop_top(self, entry: Entry) -> None:
        """Pop the heap top ``entry``, promoting its lane's next head."""
        heap = self._heap
        lane = entry[4]
        if lane is None:
            heapq.heappop(heap)
        else:
            lane.popleft()
            if lane:
                heapq.heapreplace(heap, lane[0])
            else:
                heapq.heappop(heap)

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2] is _fire_event and heap[0][3].cancelled:
            self._pop_top(heap[0])

    def signature(self) -> Tuple[Tuple[int, int, str], ...]:
        """The live entries as a sorted ``(time, seq, name)`` tuple.

        Tombstones are excluded, so two queues that went through
        different cancel histories but hold the same pending work have
        the same signature.  Each pending entry is listed once: the
        heap's lane-less entries plus every lane entry (a lane head is
        in both).  Used by the snapshot-integrity digests in
        :mod:`repro.fleet`.
        """
        entries = [entry for entry in self._heap if entry[4] is None]
        for lane in self._lanes.values():
            entries.extend(lane)
        return tuple(
            sorted(
                (time, seq, name)
                for (time, seq, fn, arg, __, name) in entries
                if not (fn is _fire_event and arg.cancelled)
            )
        )
