"""The executor's segment compiler: straight-line replay cache.

The paper's performance argument is that the common path of every
thread primitive is a short, predictable instruction sequence.  The
executor exploits the same property at the *host* level: a straight-
line run of ops between two interruption points is deterministic given
a small entry state (mutex ownership, empty waiter queues, no event
due inside the window), so after interpreting it once the executor can
*replay* it -- one closure per segment reading the segment's plan (one
entry per op: its cycles, the value it sends back, the op expected
next, its site), one clock store per op -- instead of re-dispatching
every op through the interpreter loop.  Every segment is a loop: a run
that closes back on its own first op, replayed while the bounds allow.

Keying
------

A segment is keyed by where its generator stopped and the op it
yielded there: (generator code object, ``f_lasti``, op).  The executor
resumes a frame first and then hands the op in hand to
:meth:`SegmentSpace.try_step`, which replays the segment keyed by that
location and op.  Every segment starts from an op in hand and ends with
the next op in hand (its last resume happens inside the replay), so
after a mismatch -- an op the segment does not expect -- the lookup
simply repeats at the location and op the generator stopped on.  One
code location may run against different library objects (each pipeline
stage signals its own condvar); each canonical op there keys its own
segment.

The executor resolves a frame's per-code location table once
(:meth:`SegmentSpace.table_for`, cached on ``Frame.seg_table``), so the
per-step guard is one int-keyed lookup and no step hashes a code
object.  A location's entry is either ``_BLACKLISTED`` or a dict from
op to a segment's replay closure, plus one visit counter under a
private key.  Only ``Work`` and ``LibCall`` ops are looked up
(anything else, a bad op included, only counts a visit and goes on to
the executor's dispatch), and only an op that can certify -- the
shared instance ``core/api.py`` hands out for ``Work``,
``mutex_lock``, ``mutex_unlock`` and ``cond_signal`` -- is ever
recorded, so a location fed a fresh op on every visit ends as one
blacklisted slot.

Correctness model
-----------------

A segment is recorded by performing each op with the executor's own
step (``PthreadsRuntime._step_current``, always with the op in hand,
so the cache is never re-entered; a recording stops before an op that
cannot certify and hands it back) while a *certifier* checks, after
each op, that it took its fast path -- a ``Work`` burst, or the
uncontended, protocol-free ``mutex_lock`` (Figure 4's sequence, no
interrupt hook), ``mutex_unlock`` or waiterless ``cond_signal``:

- the op object is the canonical cached instance (so replay can match
  it with a single ``is``);
- the virtual-clock delta equals that path's constant;
- no event was scheduled, cancelled, or fired;
- the library kernel was not left in a flagged state, it was entered
  only by a signal, and no dispatch happened;
- the op returned 0 (a burst, None) and left its mutex owned by the
  thread or free, as that path does.

A certified step is ``(op, cycles, kind, obj)``: ``kind`` is None for
``Work`` or the call's name, ``obj`` its mutex or condvar.  The
generator body that runs between two ops (replay runs it too) must
leave the clock, the event horizon, the library kernel and the
dispatcher untouched, or the recording fails.

Replay re-applies those paths' own effects (a lock sets the cell and
the owner and counts a run and an acquisition, an unlock clears cell
and owner, a signal counts a kernel entry and a signal sent) once the
loop's entry state holds (:func:`_entry_holds`).  A *limit* derived
from the event horizon guarantees no event becomes due inside the
replayed window -- any rule that would fire mid-segment (timer
expiry, watcher) either splits the segment at record time (the event
fired while recording, so certification stopped there) or forces
interpretation at replay time (the horizon bound fails, the step
budget fails, or a clock watcher is attached).  Replay hands back to the interpreter
through the same executor step: ``try_step`` returns the op in hand
for the executor to perform (or :data:`SERVED`), and a resume that
raised goes to the runtime's ``_resume_ended``.

The replay contract: ``world.now`` is exact at every resume of a
generator body (replay publishes the clock before each send).
Simulated time, ``Runtime.steps``, per-thread ``cpu_cycles`` and every
library field (owners, lock cells, held lists, counters) are exact at
every op where replay hands back to the interpreter, and at run end.
Between two replayed ops they are not: every segment defers its state
effects to segment exit, so a generator body that reads a library
object mid-segment sees its segment-entry values.  The property tests
in ``tests/properties/test_prop_segment_equivalence.py`` assert
equality against forced interpretation
(``RuntimeConfig(segments=False)``).

Bypass rules.  A runtime built with a scheduling policy or a check
context (the explorer attaches both) has no cache at all: either one
is fixed for the runtime's life and would bypass every step, so
``PthreadsRuntime`` builds no :class:`SegmentSpace` and its executor
skips the segment guard.  Everything else is checked before each
replay or recording, because it can come and go mid-run:

- the clock has a watcher (the cycle profiler, the only one, needs
  every charge with its cost key -- the cache is bypassed rather than
  distributing breakdowns, so attribution stays exact, and
  ``python -m repro.obs report`` still lists the all-zero
  ``exec.segment.*`` counters);
- a trace sink is attached;
- the kernel/dispatcher flags are set or signals are deferred.

Charges inside a recorded op never fire events: ``World.spend`` only
charges, and due events fire at kernel enter/leave and in compute
bursts, which the certifier sees as a fired event (``events._seq`` /
``_live`` moved) and refuses.  So no library charge can hide an event
inside a certified op; this is structural, not an audit of call sites.
"""

from __future__ import annotations

from itertools import cycle, islice
from typing import Any, Dict, List, Optional, Tuple

from repro.core import config as cfg
from repro.hw import costs
from repro.sim.ops import LibCall, Work

#: A location (or, as its visit count, a location's recording) given up.
_BLACKLISTED = object()
#: The key of a location's visit count.
_VISITS = object()
#: What :meth:`SegmentSpace.try_step` returns when it performed every
#: op it took from the generator (None is an op: a bare ``yield``).
SERVED = object()

#: Visits without a segment between two recordings at a location.
_RECORD_AFTER = 8
#: Failed recordings in a row before a location stops recording: one
#: with no segment is blacklisted, one with segments keeps them.
_MAX_FAILS = 3
#: Maximum ops recorded into one segment.
_MAX_OPS = 16
#: Minimum certified ops worth compiling.
_MIN_OPS = 2
#: Global cap on compiled segments per runtime, and on the failed
#: recordings it does not hold against their locations.
_MAX_SEGMENTS = 512

#: Step budget / until sentinel: effectively unbounded.
_NO_BOUND = 1 << 62

#: The library calls that can certify, by the attribute of their first
#: argument that holds the call's shared op (``core/api.py``).
_CANONICAL = {
    "mutex_lock": "_seg_lock_op",
    "mutex_unlock": "_seg_unlock_op",
    "cond_signal": "_seg_signal_op",
}


class SegmentSpace:
    """Per-runtime segment cache: lookup, recording, replay."""

    def __init__(self, runtime) -> None:
        from repro.core.api import _WORK_CACHE

        self.rt = runtime
        self._work_cache = _WORK_CACHE
        self._by_code: Dict[Any, Dict[int, Any]] = {}
        table = runtime.world._costs
        insn = table[costs.INSN]
        self._c_lock = (
            table[costs.PROTOCOL_CHECK] + table[costs.MUTEX_FAST_LOCK]
            + 7 * insn
        )
        self._c_unlock = (
            table[costs.PROTOCOL_CHECK] + table[costs.MUTEX_FAST_UNLOCK]
        )
        self._c_signal = (
            table[costs.ENTER_KERNEL] + table[costs.COND_SIGNAL_WORK]
            + table[costs.LEAVE_KERNEL]
        )
        # exec.segment.* counters (harvested into the host bench records
        # and ``python -m repro.obs report``).
        self.segments_compiled = 0
        self.hits = 0
        self.misses = 0
        self.steps_replayed = 0
        self.cycles_replayed = 0
        self.invalidations = 0
        self.recordings = 0
        self.record_failures = 0

    # -- introspection -----------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """The ``exec.segment.*`` counter block."""
        return {
            "exec.segment.compiled": self.segments_compiled,
            "exec.segment.hits": self.hits,
            "exec.segment.misses": self.misses,
            "exec.segment.steps_replayed": self.steps_replayed,
            "exec.segment.cycles_replayed": self.cycles_replayed,
            "exec.segment.invalidations": self.invalidations,
            "exec.segment.recordings": self.recordings,
            "exec.segment.record_failures": self.record_failures,
        }

    # -- the executor hook -------------------------------------------------

    def table_for(self, code) -> Dict[int, Any]:
        """The location table (``f_lasti`` -> state) for ``code``.

        The executor resolves it once per frame and keeps it on
        :attr:`Frame.seg_table`, so no step hashes a code object.
        """
        by_code = self._by_code
        table = by_code.get(code)
        if table is None:
            by_code[code] = table = {}
        return table

    def try_step(self, tcb, frame, op) -> Any:
        """Serve the op in hand, and the ops after it, from the cache.

        ``frame``'s generator has just yielded ``op`` (the executor
        counted the step but has not performed the op).  Returns the op
        the executor must still perform -- ``op`` itself, or the op a
        replay or recording stopped on, its step counted likewise -- or
        :data:`SERVED` when every op taken from the generator was
        performed, bookkeeping included.
        """
        rt = self.rt
        world = rt.world
        clock = world.clock
        if clock._watcher is not None or world.trace is not None:
            return op
        kern = rt.kern
        if (
            kern.kernel_flag
            or kern.dispatcher_flag
            or kern.deferred_signals
            or kern.deferred_upcalls
            or tcb.pending_interrupt_frames
        ):
            return op
        table = frame.seg_table
        gen = frame.gen
        budget = None
        total = 0
        while True:
            lasti = gen.gi_frame.f_lasti
            slots = table.get(lasti)
            if slots is _BLACKLISTED:
                break
            if slots is None:
                table[lasti] = slots = {_VISITS: 0}
            op_class = op.__class__
            # Only these are keys: a bad op may be None or unhashable.
            if op_class is Work or op_class is LibCall:
                fn = slots.get(op)
            else:
                fn = None
            if fn is None:
                visits = slots[_VISITS]
                if visits is _BLACKLISTED:
                    break
                slots[_VISITS] = visits = visits + 1
                if visits % _RECORD_AFTER:
                    break
                if (
                    not self._canonical(op)
                    or self.segments_compiled >= _MAX_SEGMENTS
                ):
                    self._failed(table, lasti, slots)
                    break
                op = self._record(tcb, frame, op, table, lasti, slots)
                if op is SERVED:
                    break
                budget = None  # the recording moved the clock and steps
                continue
            if budget is None:
                limit, until, budget = self._bounds()
            t_before = clock.cycles
            code, n, t, op = fn(rt, tcb, frame, limit, until, budget, op)
            if not n:
                self.misses += 1
                break
            clock.cycles = t
            rt.steps += n
            tcb.cpu_cycles += t - t_before
            self.cycles_replayed += t - t_before
            total += n
            budget -= n
            if code:
                # The resume raised (``op`` holds the exception): the
                # interpreter's own handler takes it.  Then drop it: its
                # traceback holds the replay's frame, whose ``f_back``
                # is this one, and the cycle would keep the thread alive.
                self.hits += 1
                self.steps_replayed += total
                rt._resume_ended(tcb, frame, op, t)
                op = None
                return SERVED
        if total:
            self.hits += 1
            self.steps_replayed += total
        return op

    def _canonical(self, op) -> bool:
        """Whether ``op`` is the one shared instance its builder hands
        out (``core/api.py``): replay matches ops by identity."""
        op_class = op.__class__
        if op_class is Work:
            return self._work_cache.get(op.cycles) is op
        if op_class is LibCall:
            attr = _CANONICAL.get(op.name)
            return (
                attr is not None and getattr(op.args[0], attr, None) is op
            )
        return False

    def _failed(self, table, lasti, slots) -> None:
        """Count a failed recording attempt at ``lasti``."""
        if slots[_VISITS] >= _RECORD_AFTER * _MAX_FAILS:
            if len(slots) == 1:
                table[lasti] = _BLACKLISTED
            else:
                slots[_VISITS] = _BLACKLISTED

    def _bounds(self) -> Tuple[Optional[int], int, int]:
        rt = self.rt
        limit = rt.world.events.next_time()
        until = rt._until_cycles
        if until is None:
            until = _NO_BOUND
        max_steps = rt._max_steps
        budget = _NO_BOUND if max_steps is None else max_steps - rt.steps
        return limit, until, budget

    # -- recording ---------------------------------------------------------

    def _mark(self) -> Tuple[int, int, int, int, int]:
        """What no generator body may move, and what each op is
        certified against."""
        rt = self.rt
        events = rt.world.events
        return (
            rt.world.clock.cycles, events._seq, events._live,
            rt.kern.enters, rt.dispatcher.dispatch_calls,
        )

    def _record(self, tcb, frame, op, table, lasti, slots) -> Any:
        """Perform ops from the one in hand through the executor's own
        step, certifying each, until the generator yields that first op
        at ``lasti`` again; compile the closed run into the segment keyed
        by both.

        Returns the op in hand -- the first op again when the run closed,
        or an op that cannot certify, not yet performed either way -- or
        :data:`SERVED`: every op taken from the generator was performed.
        """
        rt = self.rt
        kern = rt.kern
        gen = frame.gen
        frames = tcb.frames._frames
        self.recordings += 1
        first = op
        steps: List[tuple] = []
        closed = False
        next_op = SERVED
        pre = self._mark()
        while True:
            rt._step_current(op)
            if (
                rt.current is not tcb
                or not frames
                or frames[-1] is not frame
                or frame.pending_exc is not None
                or frame.remaining_work
                or kern.kernel_flag
                or kern.dispatcher_flag
            ):
                break
            step = self._certify(tcb, frame, op, pre)
            if step is None:
                break
            steps.append(step)
            if len(steps) == _MAX_OPS:
                break
            # Take the next op as the executor would.
            pre = self._mark()
            rt.steps += 1
            value = frame.pending_value
            frame.pending_value = None
            try:
                op = gen.send(value)
            except BaseException as ended:  # noqa: BLE001
                rt._resume_ended(tcb, frame, ended, pre[0])
                op = None
                break
            # No local holds the frame object across the next step
            # (see PthreadsRuntime._step_current).
            if op is first and gen.gi_frame.f_lasti == lasti:
                # Every replayed iteration runs the body that led back
                # here, so it must have left the world as is.
                closed = self._mark() == pre
                next_op = op
                break
            if not self._canonical(op):
                next_op = op  # the executor performs (or rejects) it
                break
        if closed and len(steps) >= _MIN_OPS:
            fn = self._plan(steps)
            if fn is not None:
                slots[first] = fn
                slots[_VISITS] = 0
                self.segments_compiled += 1
                return next_op
        self.record_failures += 1
        events = rt.world.events
        if (
            op.__class__ is Work
            and next_op is SERVED
            and (events._seq, events._live) != pre[1:3]
            and self.record_failures <= _MAX_SEGMENTS
        ):
            # An event fired inside a compute burst that could certify:
            # the timing stopped this run, not its path, so the attempt
            # is not held against the location.  (A replay cut short by
            # the event horizon hands its location exactly such visits.)
            # Past the cap every failure counts, so a burst that always
            # straddles an event (longer than a timeslice, say) still
            # ends its location's recordings.
            slots[_VISITS] -= _RECORD_AFTER
        else:
            self._failed(table, lasti, slots)
        return next_op

    # -- certification -----------------------------------------------------

    def _certify(self, tcb, frame, op, pre) -> Optional[tuple]:
        """``op``'s step ``(op, cycles, kind, obj)`` if it took its fast
        path, else None."""
        rt = self.rt
        world = rt.world
        events = world.events
        pre_clock, pre_seq, pre_live, pre_enters, pre_dispatch = pre
        if events._seq != pre_seq or events._live != pre_live:
            return None  # an event was scheduled, cancelled, or fired
        delta = world.clock.cycles - pre_clock
        if op.__class__ is Work:
            if delta != op.cycles or frame.pending_value is not None:
                return None
            if rt.kern.enters != pre_enters:
                return None
            return op, delta, None, None
        name = op.name
        obj = op.args[0]
        result = frame.pending_value
        if name == "mutex_lock":
            if (
                result != 0
                or obj.protocol != cfg.PRIO_NONE
                or obj.destroyed
                or obj.owner is not tcb
                or obj.cell.value != 0xFF
                or obj.lock_sequence.interrupt_hook is not None
                or rt.kern.enters != pre_enters
                or delta != self._c_lock
            ):
                return None
        elif name == "mutex_unlock":
            if (
                result != 0
                or obj.protocol != cfg.PRIO_NONE
                or obj.destroyed
                or obj.owner is not None
                or obj.cell.value != 0
                or obj.waiters
                or rt.kern.enters != pre_enters
                or delta != self._c_unlock
            ):
                return None
        elif (  # cond_signal
            result != 0
            or obj.destroyed
            or obj.waiters
            or rt.kern.enters != pre_enters + 1
            or rt.dispatcher.dispatch_calls != pre_dispatch
            or delta != self._c_signal
        ):
            return None
        return op, delta, name, obj

    # -- the replay plan ---------------------------------------------------

    def _plan(self, steps):
        """The replay closure of a closed run, or None if its loop
        cannot replay.

        Each iteration takes the run's first op in hand and resumes the
        generator after its last op, so replay always ends with the next
        op in hand, and iterates while that op is the first one and the
        step budget, the event horizon and the run's end allow.  A run
        compiles only if each mutex's locks and unlocks alternate and
        one iteration leaves every mutex as it found it, free or held:
        then every op's fast path holds throughout once the loop's entry
        state holds, so that is checked once, before the first op, and
        the state effects are deferred to the exit.
        """
        if not sum(step[1] for step in steps):
            return None  # the horizon cannot bound a zero-cycle run
        # Per mutex: whether the loop holds it at entry (its first op is
        # an unlock), and whether it holds it after the ops so far.
        entry: Dict[Any, bool] = {}
        holds: Dict[Any, bool] = {}
        conds: Dict[Any, None] = {}
        for _op, _cycles, kind, obj in steps:
            if kind == "cond_signal":
                conds[obj] = None
            elif kind is not None:
                lock = kind == "mutex_lock"
                if holds.setdefault(obj, not lock) == lock:
                    return None  # two locks or two unlocks in a row
                entry.setdefault(obj, not lock)
                holds[obj] = lock
        if holds != entry:
            return None
        return _replayer(steps, tuple(entry.items()), tuple(conds))


def _entry_holds(mutexes, conds, tcb) -> bool:
    """Whether the loop's ops take their fast paths from here: no object
    is destroyed, none has waiters, no mutex has an interrupt hook, and
    each mutex is owned by ``tcb`` or free, as the loop expects."""
    for m, held in mutexes:
        if (
            m.destroyed
            or m.waiters
            or m.lock_sequence.interrupt_hook is not None
        ):
            return False
        if held:
            if m.owner is not tcb:
                return False
        elif m.owner is not None or m.cell.value != 0:
            return False
    for c in conds:
        if c.destroyed or c.waiters:
            return False
    return True


def _apply(steps, done, it, tcb, kern) -> None:
    """Apply the effects of the first ``done`` ops, in order, then each
    counter's per-iteration total times the iterations ``it``."""
    held = tcb.held_mutexes
    for _op, _cycles, kind, obj in steps[:done]:
        if kind == "mutex_lock":
            obj.lock_sequence.runs += 1
            obj.cell.value = 0xFF
            obj.owner = tcb
            obj.acquisitions += 1
            held.append(obj)
        elif kind == "mutex_unlock":
            obj.cell.value = 0
            obj.owner = None
            held.remove(obj)
        elif kind == "cond_signal":
            kern.enters += 1
            obj.signals_sent += 1
    for _op, _cycles, kind, obj in steps:
        if kind == "mutex_lock":
            obj.lock_sequence.runs += it
            obj.acquisitions += it
        elif kind == "cond_signal":
            kern.enters += it
            obj.signals_sent += it


def _replayer(steps, mutexes, conds):
    """The replay closure of a certified loop.

    Its plan holds one entry per op: the op's cycles, the value it sends
    back, the op expected next (the first op, after the last) and the
    site that entry's resume starts, counted as the ops of the
    iteration completed before it.  Replay walks the plan round and
    round, as many ops as the bounds allow, doing one clock add and
    store, one send and one identity test per op; the iterations
    completed follow from the clock at exit, and the site, which the
    clock cannot give (``work(0)`` certifies, so two sites can share a
    clock offset), comes from the entry the walk stopped at.
    """
    n_ops = len(steps)
    offsets = [0]
    for step in steps:
        offsets.append(offsets[-1] + step[1])
    total = offsets[-1]
    plan = tuple(
        (cycles, None if kind is None else 0, steps[(i + 1) % n_ops][0], i + 1)
        for i, (_op, cycles, kind, _obj) in enumerate(steps)
    )

    def leave(code, rt, tcb, done, t, now, op):
        """Exit at site ``done`` with the clock at ``now``."""
        it = (now - t - offsets[done]) // total
        if done == n_ops and not code:
            done = 0  # the iteration is complete, and so is the step
            it += 1
        _apply(steps, done, it, tcb, rt.kern)
        return code, n_ops * it + done, now, op

    def replay(rt, tcb, frame, limit, until, budget, op):
        ck = rt.world.clock
        t = ck.cycles
        if not _entry_holds(mutexes, conds, tcb):
            return 0, 0, t, op
        k = budget // n_ops
        if limit is not None:
            k = min(k, (limit - t - 1) // total)
        if until != _NO_BOUND:
            k = min(k, (until - t - 1) // total)
        if k <= 0:
            return 0, 0, t, op
        send = frame.gen.send
        now = t
        try:
            for cycles, value, nxt, done in islice(cycle(plan), k * n_ops):
                # The generator body runs inside each send and may read
                # ``world.now``: publish the exact interpreted clock
                # (the charge of every completed op) before resuming it.
                now += cycles
                ck.cycles = now
                op = send(value)
                if op is not nxt:
                    break
        except BaseException as exc:
            # The resume raised: the runtime's _resume_ended takes it.
            return leave(1, rt, tcb, done, t, now, exc)
        return leave(0, rt, tcb, done, t, now, op)

    return replay
