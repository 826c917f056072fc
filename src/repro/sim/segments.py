"""The executor's segment compiler: straight-line replay cache.

The paper's performance argument is that the common path of every
thread primitive is a short, predictable instruction sequence.  The
executor exploits the same property at the *host* level: a straight-
line run of ops between two interruption points is deterministic given
a small set of guards (mutex ownership, empty waiter queues, no event
due inside the window), so after interpreting it once the executor can
*replay* it -- one compiled Python function per segment, one clock
store per batch -- instead of re-dispatching every op through the
interpreter loop.  Every segment is a loop: a run that closes back on
its own first op, replayed while the bounds allow.

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
op to compiled segment, plus one visit counter under a private key.
Only ``Work`` and ``LibCall`` ops are looked up (anything else, a bad
op included, only counts a visit and goes on to the executor's
dispatch), and only an op that can certify -- the shared instance
``core/api.py`` hands out for ``Work``, ``mutex_lock``,
``mutex_unlock`` and ``cond_signal`` -- is ever recorded, so a
location fed a fresh op on every visit ends as one blacklisted slot.

Correctness model
-----------------

A segment is recorded by performing each op with the executor's own
step (``PthreadsRuntime._step_current``, always with the op in hand,
so the cache is never re-entered; a recording stops before an op that
cannot certify and hands it back) while a *certifier* checks, after
each op, that the op's entire observable effect is captured by a
closed-form template:

- the op object is the canonical cached instance (so replay can match
  it with a single ``is``);
- the virtual-clock delta equals the template's constant;
- no event was scheduled, cancelled, or fired;
- the library kernel was not left in a flagged state and no dispatch
  happened;
- every mutated field (owner/cell/counters/held list) matches the
  template's effect list.

The generator body that runs between two ops (replay runs it too) must
leave the clock, the event horizon, the library kernel and the
dispatcher untouched, or the recording fails.

Replay then re-applies exactly those effects, under guard checks that
re-establish the recorded preconditions, while a *limit* derived from
the event horizon guarantees no event becomes due inside the replayed
window -- any rule that would fire mid-segment (timer expiry, watcher)
either splits the segment at record time (the event fired while
recording, so certification stopped there) or forces interpretation at
replay time (the horizon bound fails, the step budget fails, or a
clock watcher is attached).  Replay hands back to the interpreter
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
#: Maximum ops recorded into one segment (also bounds generated-code
#: size, and with it the one-time host cost of compiling a segment).
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

#: Process-wide generated-source -> code-object cache.  Generated
#: source carries no object identities (those go through the closure
#: env), so it is safe to share across runtimes.  Bounded as a leak
#: guard; overflow simply recompiles.
_SOURCE_CACHE: Dict[str, Any] = {}
_SOURCE_CACHE_MAX = 4096


class _SegStep:
    """One certified op: identity, result, cycle constant, IR."""

    __slots__ = ("op", "result", "cycles", "guards", "effects")

    def __init__(self, op, result, cycles, guards, effects) -> None:
        self.op = op
        self.result = result  # "none" | "zero"
        self.cycles = cycles
        self.guards = guards  # tuple of guard IR tuples
        self.effects = effects  # tuple of effect IR tuples


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
        steps: List[_SegStep] = []
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
            fn = self._compile(steps)
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

    def _certify(self, tcb, frame, op, pre) -> Optional[_SegStep]:
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
            return _SegStep(op, "none", delta, (), ())
        name = op.name
        result = frame.pending_value
        if name == "mutex_lock":
            m = op.args[0]
            seq = m.lock_sequence
            if (
                result != 0
                or m.protocol != cfg.PRIO_NONE
                or m.destroyed
                or m.owner is not tcb
                or m.cell.value != 0xFF
                or seq.interrupt_hook is not None
                or rt.kern.enters != pre_enters
                or delta != self._c_lock
            ):
                return None
            return _SegStep(
                op, "zero", delta,
                (
                    ("not_attr", m, "destroyed"),
                    ("attr_is_none", m, "owner"),
                    ("attr_eq", m.cell, "value", 0),
                    ("attr_is_none", seq, "interrupt_hook"),
                ),
                (
                    ("inc", seq, "runs", 1),
                    ("set_const", m.cell, "value", 0xFF),
                    ("set_tcb", m, "owner"),
                    ("inc", m, "acquisitions", 1),
                    ("held_append", m, None),
                ),
            )
        if name == "mutex_unlock":
            m = op.args[0]
            if (
                result != 0
                or m.protocol != cfg.PRIO_NONE
                or m.destroyed
                or m.owner is not None
                or m.cell.value != 0
                or m.waiters
                or rt.kern.enters != pre_enters
                or delta != self._c_unlock
            ):
                return None
            return _SegStep(
                op, "zero", delta,
                (
                    ("not_attr", m, "destroyed"),
                    ("attr_is_tcb", m, "owner"),
                    ("empty", m.waiters, None),
                ),
                (
                    ("set_const", m.cell, "value", 0),
                    ("set_none", m, "owner"),
                    ("held_remove", m, None),
                ),
            )
        c = op.args[0]  # cond_signal
        if (
            result != 0
            or c.destroyed
            or c.waiters
            or rt.kern.enters != pre_enters + 1
            or rt.dispatcher.dispatch_calls != pre_dispatch
            or delta != self._c_signal
        ):
            return None
        return _SegStep(
            op, "zero", delta,
            (
                ("not_attr", c, "destroyed"),
                ("empty", c.waiters, None),
            ),
            (
                ("inc", rt.kern, "enters", 1),
                ("inc", c, "signals_sent", 1),
            ),
        )

    # -- compilation -------------------------------------------------------

    def _compile(self, steps: List[_SegStep]):
        """Generate and exec the replay function for a closed run.

        Every segment is one emitted form, a ``while it < k`` loop that
        takes its first op in hand and resumes the generator after its
        last op, so it always ends with the next op in hand.  It
        iterates while that next op is its first one and the step
        budget, the event horizon and the run's end allow.  A run
        compiles only if one iteration net-restores every guarded
        field, so the guards hoist out of the loop.  The generated code
        keeps no per-op bookkeeping: every exit site (op mismatch,
        exception, clean stop) statically knows how many ops completed
        and how many cycles they cost, so the hot loop is just sends,
        identity checks and one add per iteration.  Effects are
        deferred: counters are applied once at exit (``delta *
        iterations``), and mid-iteration exits carry statically-known
        fix-up assignments.
        """
        env_names: Dict[int, str] = {}
        env_objs: List[Any] = []

        def ref(obj) -> str:
            name = env_names.get(id(obj))
            if name is None:
                name = "v%d" % len(env_objs)
                env_names[id(obj)] = name
                env_objs.append(obj)
            return name

        n_ops = len(steps)
        total = sum(s.cycles for s in steps)
        if not total:
            return None  # the horizon cannot bound a zero-cycle run
        lit = {"none": "None", "zero": "0"}

        # Pass 1: entry guards, symbolic state, aggregated effects, and
        # a per-site snapshot of the prefix state (for exit fix-ups).
        # Site i is the resume after op i - 1; site n_ops is the resume
        # that ends the iteration.
        entry_guards: List[str] = []
        guard_expect: Dict[Tuple[str, str], Any] = {}
        sym: Dict[Tuple[str, str], Any] = {}
        state_now: Dict[Tuple[str, str], Any] = {}
        counter_now: Dict[Tuple[str, str], int] = {}
        held_now: List[Tuple[str, str]] = []
        held_balance: Dict[str, int] = {}
        uses_held = False
        prefix_cycles: List[int] = []
        snapshots = []
        op_refs: List[str] = []
        cycles_so_far = 0

        for step in steps:
            op_refs.append(ref(step.op))
            prefix_cycles.append(cycles_so_far)
            snapshots.append(
                (dict(state_now), dict(counter_now), list(held_now))
            )
            for g in step.guards:
                kind, obj, attr = g[0], g[1], g[2]
                nm = ref(obj)
                var = (nm, attr if attr is not None else "__bool__")
                if kind == "not_attr":
                    expr, expect = "not %s.%s" % (nm, attr), False
                elif kind == "attr_is_none":
                    expr, expect = "%s.%s is None" % (nm, attr), "none"
                elif kind == "attr_is_tcb":
                    expr, expect = "%s.%s is tcb" % (nm, attr), "tcb"
                elif kind == "attr_eq":
                    expr, expect = "%s.%s == %r" % (nm, attr, g[3]), g[3]
                elif kind == "empty":
                    expr, expect = "not %s" % nm, False
                else:  # pragma: no cover - unknown guard kind
                    return None
                if var in sym:
                    if sym[var] != expect:
                        return None  # guard cannot hold mid-segment
                elif var not in guard_expect:
                    guard_expect[var] = expect
                    entry_guards.append(expr)
            for e in step.effects:
                kind, obj = e[0], e[1]
                nm = ref(obj)
                if kind == "held_append":
                    uses_held = True
                    held_now.append(("append", nm))
                    held_balance[nm] = held_balance.get(nm, 0) + 1
                    continue
                if kind == "held_remove":
                    uses_held = True
                    held_now.append(("remove", nm))
                    held_balance[nm] = held_balance.get(nm, 0) - 1
                    continue
                attr = e[2]
                var = (nm, attr)
                if kind == "inc":
                    counter_now[var] = counter_now.get(var, 0) + e[3]
                    sym[var] = "opaque"
                elif kind == "set_const":
                    state_now[var] = e[3]
                    sym[var] = e[3]
                elif kind == "set_tcb":
                    state_now[var] = "tcb"
                    sym[var] = "tcb"
                elif kind == "set_none":
                    state_now[var] = "none"
                    sym[var] = "none"
                else:  # pragma: no cover - unknown effect kind
                    return None
            cycles_so_far += step.cycles
        prefix_cycles.append(total)
        snapshots.append((state_now, counter_now, held_now))

        # One full iteration must restore every guarded field.
        for var, expect in guard_expect.items():
            final = sym.get(var)
            if final is not None and final != expect:
                return None
        if any(held_balance.values()) or set(counter_now) & set(state_now):
            return None

        out: List[Tuple[int, str]] = []

        def emit(indent: int, text: str) -> None:
            out.append((indent, text))

        def render_tok(tok) -> str:
            if tok == "tcb":
                return "tcb"
            if tok == "none":
                return "None"
            return repr(tok)

        def fixup(indent: int, i: int) -> None:
            """State/counter/held repair for 'i ops completed'."""
            state, cnt, held_ops = snapshots[i]
            for (nm, attr), tok in state.items():
                emit(indent, "%s.%s = %s" % (nm, attr, render_tok(tok)))
            for verb, nm in held_ops:
                emit(indent, "held.%s(%s)" % (verb, nm))
            for (nm, attr), prefix in cnt.items():
                full = counter_now.get((nm, attr), 0)
                if full and prefix:
                    emit(
                        indent,
                        "%s.%s += %d * it + %d" % (nm, attr, full, prefix),
                    )
                elif full:
                    emit(indent, "%s.%s += %d * it" % (nm, attr, full))
                elif prefix:
                    emit(indent, "%s.%s += %d" % (nm, attr, prefix))
            # Counters whose first touch is after site i still owe the
            # completed-iterations part.
            for (nm, attr), full in counter_now.items():
                if (nm, attr) not in cnt and full:
                    emit(indent, "%s.%s += %d * it" % (nm, attr, full))

        def t_expr(i: int) -> str:
            p = prefix_cycles[i]
            return "t + %d" % p if p else "t"

        def exit_at(indent: int, i: int, code: int, value: str) -> None:
            """Leave at site i (1 <= i <= n_ops): i ops of this
            iteration done, as many resumes made."""
            fixup(indent, i)
            emit(
                indent,
                "return (%d, %d * it + %d, %s, %s)"
                % (code, n_ops, i, t_expr(i), value),
            )

        emit(0, "def _make(env):")
        if env_objs:
            emit(
                1,
                "(%s,) = env"
                % ", ".join("v%d" % j for j in range(len(env_objs))),
            )
        emit(1, "def _replay(rt, tcb, frame, limit, until, budget, op):")
        emit(2, "ck = rt.world.clock")
        emit(2, "t = ck.cycles")
        if entry_guards:
            emit(2, "if not (%s):" % " and ".join(entry_guards))
            emit(3, "return (0, 0, t, op)")
        emit(2, "k = budget // %d" % n_ops)
        emit(2, "if limit is not None:")
        emit(3, "k2 = (limit - t - 1) // %d" % total)
        emit(3, "if k2 < k:")
        emit(4, "k = k2")
        emit(2, "if until != %d:" % _NO_BOUND)
        emit(3, "k2 = (until - t - 1) // %d" % total)
        emit(3, "if k2 < k:")
        emit(4, "k = k2")
        emit(2, "if k <= 0:")
        emit(3, "return (0, 0, t, op)")
        emit(2, "send = frame.gen.send")
        if uses_held:
            emit(2, "held = tcb.held_mutexes")
        emit(2, "it = 0")
        emit(2, "while it < k:")
        for i in range(1, n_ops + 1):
            # The generator body runs inside each send and may read
            # ``world.now``: publish the exact interpreted clock (the
            # charge of every completed op) before resuming it, or
            # mid-segment time observations would see a stale clock.
            emit(3, "ck.cycles = %s" % t_expr(i))
            emit(3, "try:")
            emit(4, "op = send(%s)" % lit[steps[i - 1].result])
            emit(3, "except BaseException as exc:")
            # The resume raised: the runtime's _resume_ended takes it.
            exit_at(4, i, 1, "exc")
            if i < n_ops:
                emit(3, "if op is not %s:" % op_refs[i])
                exit_at(4, i, 0, "op")
        emit(3, "t += %d" % total)
        emit(3, "it += 1")
        emit(3, "if op is not %s:" % op_refs[0])
        emit(4, "break")
        for (nm, attr), full in counter_now.items():
            if full:
                emit(2, "%s.%s += %d * it" % (nm, attr, full))
        emit(2, "return (0, %d * it, t, op)" % n_ops)
        emit(1, "return _replay")

        code = "\n".join("    " * ind + text for ind, text in out) + "\n"
        namespace: Dict[str, Any] = {}
        # The generated source depends only on segment *structure*
        # (op kinds, costs, guard constants) -- captured objects enter
        # through the _make(env) closure.  Identical workloads therefore
        # regenerate identical source across runtimes and repeats, so a
        # process-wide source->code-object cache turns the ~1ms
        # compile() into a dict hit.
        code_obj = _SOURCE_CACHE.get(code)
        if code_obj is None:
            try:
                code_obj = compile(code, "<segment>", "exec")
            except SyntaxError:  # pragma: no cover - codegen bug guard
                import sys

                print(code, file=sys.stderr)
                raise
            if len(_SOURCE_CACHE) < _SOURCE_CACHE_MAX:
                _SOURCE_CACHE[code] = code_obj
        exec(code_obj, namespace)  # noqa: S102
        return namespace["_make"](tuple(env_objs))
