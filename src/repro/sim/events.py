"""The virtual-time event queue: a callout table.

Events are the simulator's asynchrony: interval-timer expirations,
signals sent from outside the process, link messages and I/O
completions.  Like the 4.3BSD kernel's ``timeout(fn, arg, ticks)``
table, each queue entry is a *callout*: an absolute virtual time (in
cycles), a function and its one argument, fired as ``fn(arg)``.  Entries
with equal timestamps fire in posting order (a stable sequence number
breaks ties), which keeps every run deterministic.

Two ways in, one insertion path:

- :meth:`EventQueue.post` queues a callout.  The hot callers (link
  messages, client think timers, arrivals, connection set-up and EOF,
  disk completions, IPIs) never cancel what they post, so they pass a
  function they already hold and the object it acts on -- no handle,
  closure or bound method is built per event.
- :meth:`EventQueue.schedule` is for the few callers that keep a
  cancellation handle (the interval timers, tests, examples).  It
  builds an :class:`Event` and posts ``_fire_event(event)``.  Like
  4.3BSD's ``untimeout``, :meth:`Event.cancel` unlinks the handle's
  entry at once (through :meth:`EventQueue.cancel`), so every queued
  entry is live.

:meth:`EventQueue.cancel` takes the entry :meth:`EventQueue.post`
returned, so a caller that keeps the entry needs no handle at all: the
library timer queue (:mod:`repro.core.timerq`) is an ``EventQueue`` of
its own whose entries are their own cancellation handles.

Host-speed notes: this queue sits on the executor's hottest path (every
kernel crossing asks "is anything due?"), so it caches the earliest
pending event time (the *horizon*), kept exact by every post, pop and
cancel.  ``next_time``/``fire_due`` answer in O(1) while the horizon is
ahead of the clock, and ``__len__`` is a pure counter read -- no query
mutates the queue.

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


class Event:
    """A cancellation handle for one scheduled action.

    ``entry`` is the queued callout while the event is pending.  The
    entry holds the handle as its argument, so firing or cancelling
    drops it: a spent handle is no reference cycle and is freed as soon
    as its holder lets go.
    """

    __slots__ = (
        "time", "seq", "action", "name", "cancelled", "fired", "queue",
        "entry",
    )

    def __init__(self, time: int, seq: int, action: Action, name: str) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.name = name
        self.cancelled = False
        self.fired = False
        self.queue: Optional["EventQueue"] = None
        self.entry: Optional[Entry] = None

    def cancel(self) -> None:
        """Unlink the event from its queue (no-op if already fired)."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue.cancel(self.entry)
            self.entry = None

    def __repr__(self) -> str:
        state = "fired" if self.fired else (
            "cancelled" if self.cancelled else "pending"
        )
        return "Event(%s @%d, %s)" % (self.name, self.time, state)


def _fire_event(event: Event) -> None:
    """The callout of a :meth:`EventQueue.schedule` handle."""
    event.fired = True
    event.entry = None
    event.action()


class EventQueue:
    """A deterministic priority queue of callouts.

    Invariants:

    - every non-empty lane has exactly its head entry on ``_heap``;
      every other heap entry is lane-less;
    - every queued entry is live: firing pops it and cancelling
      unlinks it, and ``_live`` counts the queued entries;
    - ``_horizon`` is the earliest queued entry time (the heap
      minimum's), or ``None`` when the queue is empty.
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
             name: str = "event") -> Entry:
        """Queue the callout ``fn(arg)`` at absolute cycle ``time``;
        returns the queued entry (hot callers ignore it).

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
            entry = (time, seq, fn, arg, lane, name)
            lane.append(entry)
        else:
            self.heap_schedules += 1
            entry = (time, seq, fn, arg, None, name)
            heapq.heappush(self._heap, entry)
        self._live += 1
        horizon = self._horizon
        if horizon is None or time < horizon:
            self._horizon = time
        return entry

    def schedule(self, time: int, action: Action, name: str = "event") -> Event:
        """Schedule ``action`` at absolute cycle ``time``; returns its
        cancellation handle.  Same lane rule as :meth:`post`."""
        event = Event(time, self._seq, action, name)
        event.queue = self
        event.entry = self.post(time, _fire_event, event, name)
        return event

    def next_time(self) -> Optional[int]:
        """Virtual time of the earliest pending event, or None."""
        return self._horizon

    def due_before(self, now: int) -> bool:
        """O(1): is anything due at ``now``?"""
        horizon = self._horizon
        return horizon is not None and horizon <= now

    def fire_due(self, now: int) -> int:
        """Fire every event due at or before ``now``; returns the count.

        Callouts may post further events; those fire too if they are
        also due (a timer rearming itself in the past would otherwise
        stall time).  Events fire one at a time in ``(time, seq)`` order:
        each pop takes the heap minimum and, when it is a lane head,
        replaces it with the lane's next entry in the same sift.  A
        callout that posts into the past (an SMP IPI on a per-CPU queue)
        lands on the heap and simply fires next.

        The batch counters record *runs*: consecutive pops within one
        call that share a timestamp.
        """
        horizon = self._horizon
        if horizon is None or horizon > now:
            return 0
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        run_time = -1
        run = 0
        while heap:
            time, __, fn, arg, lane, __ = heap[0]
            if time > now:
                break
            if time == run_time:
                run += 1
            else:
                if run > 1:
                    self._count_run(run)
                run_time = time
                run = 1
            if lane is None:
                pop(heap)
            else:
                lane.popleft()
                if lane:
                    heapq.heapreplace(heap, lane[0])
                else:
                    pop(heap)
            self._horizon = heap[0][0] if heap else None
            self._live -= 1
            fn(arg)
            fired += 1
        if run > 1:
            self._count_run(run)
        return fired

    def _count_run(self, run: int) -> None:
        self.batch_pops += 1
        self.batched_events += run
        if run > self.max_batch:
            self.max_batch = run

    def cancel(self, entry: Entry) -> bool:
        """Unlink a queued ``entry``; False, with nothing changed, when
        it is no longer queued (it fired or was cancelled before).

        An entry behind its lane's head is not on the heap, so only its
        lane changes; a lane head or lane-less entry leaves the heap,
        and a lane head's successor takes its place there.  Only
        interval timers and the library timer queue cancel, and each
        cancelling kind has its own lane, so lanes and heap are short
        where this runs.  ``(time, seq)`` is unique, so membership
        tests never compare further fields.
        """
        heap = self._heap
        lane = entry[4]
        off_heap = lane is not None and not (lane and lane[0] is entry)
        try:
            (lane if off_heap else heap).remove(entry)
        except ValueError:
            return False  # fired, or cancelled before
        if not off_heap:
            if lane is not None:
                lane.popleft()
                if lane:
                    heap.append(lane[0])
            heapq.heapify(heap)
        self._live -= 1
        self._horizon = heap[0][0] if heap else None
        return True

    def signature(self) -> Tuple[Tuple[int, int, str], ...]:
        """The queued entries as a sorted ``(time, seq, name)`` tuple.

        Each entry is listed once: the heap's lane-less entries plus
        every lane entry (a lane head is in both).  Used by the
        snapshot-integrity digests in :mod:`repro.fleet`.
        """
        entries = [entry for entry in self._heap if entry[4] is None]
        for lane in self._lanes.values():
            entries.extend(lane)
        return tuple(
            sorted((time, seq, name) for (time, seq, __, __, __, name) in entries)
        )
