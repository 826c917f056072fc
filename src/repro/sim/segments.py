"""The executor's segment compiler: straight-line replay cache.

The paper's performance argument is that the common path of every
thread primitive is a short, predictable instruction sequence.  The
executor exploits the same property at the *host* level: a straight-
line run of ops between two interruption points is deterministic given
a small set of guards (mutex ownership, empty waiter queues, no event
due inside the window), so after interpreting it once the executor can
*replay* it -- one compiled Python function per segment, one clock
store per batch -- instead of re-dispatching every op through the
interpreter loop.

Correctness model
-----------------

A segment is recorded by interpreting ops normally (through the exact
same runtime entry points the plain executor uses) while a *certifier*
checks, after each op, that the op's entire observable effect is
captured by a closed-form template:

- the op object is the canonical cached instance (so replay can match
  it with a single ``is``);
- the virtual-clock delta equals the template's constant;
- no event was scheduled, cancelled, or fired;
- the library kernel was not left in a flagged state and no dispatch
  happened;
- every mutated field (owner/cell/counters/held list) matches the
  template's effect list.

Replay then re-applies exactly those effects, under guard checks that
re-establish the recorded preconditions, while a *limit* derived from
the event horizon guarantees no event becomes due inside the replayed
window -- any rule that would fire mid-segment (timer expiry, watcher)
either splits the segment at record time (the event fired while
recording, so certification stopped there) or forces interpretation at
replay time (the horizon bound fails, the step budget fails, or a
clock watcher is attached).  Simulated time, ``Runtime.steps``,
per-thread ``cpu_cycles`` and every library counter advance
bit-identically to interpretation; the property tests in
``tests/properties/test_prop_segment_equivalence.py`` assert digest
equality against forced interpretation (``REPRO_SEGMENTS=0``).

Bypass rules (checked before any replay or recording):

- a clock watcher is attached (obs profiler / tracer demand per-spend
  granularity -- the cache is bypassed rather than distributing
  breakdowns, so attribution stays exact);
- a choice source is attached (``repro.check``): segments would hide
  ``choose()`` points from the explorer, so the cache is bypassed and
  DFS reports are byte-identical with the cache on or off;
- a scheduling policy, trace sink, or check context is attached;
- the kernel/dispatcher flags are set or signals are deferred.

Keying: segments are keyed by (generator code object, ``f_lasti``)
with a small list of *variants* per location, because one code
location may run against different library objects (each pipeline
stage locks its own queue mutex).  Variants are matched by the first
op's identity and kept in MRU order.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core import config as cfg
from repro.hw import costs
from repro.sim.frames import ProgramCrash, SimException
from repro.sim.ops import Invoke, LibCall, SysCall, Work

#: Location states (``table[lasti]``) besides a variant list.
_BLACKLISTED = object()

#: Visits to a location before a recording is attempted.
_RECORD_AFTER = 8
#: Recording attempts per location before it is blacklisted.
_MAX_FAILS = 3
#: Maximum ops recorded into one segment (also bounds generated-code
#: size, and with it the one-time host cost of compiling a segment).
_MAX_OPS = 16
#: Minimum certified ops worth compiling.
_MIN_OPS = 2
#: Maximum compiled variants per location.
_MAX_VARIANTS = 6
#: Global cap on compiled segments per runtime.
_MAX_SEGMENTS = 512
#: First-op mismatches at a compiled location before a new variant is
#: recorded from the in-hand op.
_VARIANT_AFTER = 8

#: Step budget / until sentinel: effectively unbounded.
_NO_BOUND = 1 << 62

#: Process-wide generated-source -> code-object cache.  Generated
#: source carries no object identities (those go through the closure
#: env), so it is safe to share across runtimes.  Bounded as a leak
#: guard; overflow simply recompiles.
_SOURCE_CACHE: Dict[str, Any] = {}
_SOURCE_CACHE_MAX = 4096


class _LocState:
    """Visit/fail counters for a not-yet-compiled location."""

    __slots__ = ("visits", "fails")

    def __init__(self) -> None:
        self.visits = 0
        self.fails = 0


class _Variants(list):
    """Compiled segments at one location, MRU first."""

    __slots__ = ("mismatches",)

    def __init__(self, items) -> None:
        super().__init__(items)
        self.mismatches = 0


class _SegStep:
    """One certified op: identity, result, cycle constant, IR."""

    __slots__ = ("op", "result", "cycles", "guards", "effects")

    def __init__(self, op, result, cycles, guards, effects) -> None:
        self.op = op
        self.result = result  # "none" | "zero" | "tcb"
        self.cycles = cycles
        self.guards = guards  # tuple of guard IR tuples
        self.effects = effects  # tuple of effect IR tuples


class _Segment:
    """A compiled segment: replay function plus metadata."""

    __slots__ = ("fn", "first_op", "n_ops", "total_cycles", "loops")

    def __init__(self, fn, first_op, n_ops, total_cycles, loops) -> None:
        self.fn = fn
        self.first_op = first_op
        self.n_ops = n_ops
        self.total_cycles = total_cycles
        self.loops = loops


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
        self._c_self = 2 * insn
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

    def try_step(self, tcb, frame) -> bool:
        """Attempt to serve the current executor step from the cache.

        Returns True when the step (and possibly many following steps)
        was fully performed -- bookkeeping included -- and False when
        the caller must interpret normally.
        """
        gen = frame.gen
        gi = gen.gi_frame
        if gi is None:
            return False
        by_code = self._by_code
        table = by_code.get(gen.gi_code)
        if table is None:
            by_code[gen.gi_code] = table = {}
        lasti = gi.f_lasti
        entry = table.get(lasti)
        if entry is _BLACKLISTED:
            return False
        rt = self.rt
        if frame.pending_exc is not None:
            return False
        world = rt.world
        if (
            world.clock._watchers
            or world.choices is not None
            or world.trace is not None
            or rt.policy is not None
            or rt.check is not None
        ):
            return False
        kern = rt.kern
        if (
            kern.kernel_flag
            or kern.dispatcher_flag
            or kern.deferred_signals
            or kern.deferred_upcalls
            or tcb.pending_interrupt_frames
        ):
            return False
        if type(entry) is _Variants:
            return self._replay(tcb, frame, entry, table, lasti)
        if entry is None:
            table[lasti] = entry = _LocState()
        entry.visits += 1
        if entry.visits >= _RECORD_AFTER:
            entry.visits = 0
            if (
                entry.fails >= _MAX_FAILS
                or self.segments_compiled >= _MAX_SEGMENTS
            ):
                table[lasti] = _BLACKLISTED
                return False
            return self._record(tcb, frame, table, lasti, None)
        return False

    # -- replay ------------------------------------------------------------

    def _bounds(self) -> Tuple[Optional[int], int, int]:
        rt = self.rt
        limit = rt.world.events.next_time()
        until = rt._until_cycles
        if until is None:
            until = _NO_BOUND
        max_steps = rt._max_steps
        budget = _NO_BOUND if max_steps is None else max_steps - rt.steps
        return limit, until, budget

    def _replay(self, tcb, frame, variants, table, lasti) -> bool:
        rt = self.rt
        clock = rt.world.clock
        limit, until, budget = self._bounds()
        value = frame.pending_value
        frame.pending_value = None
        op = None
        total = 0
        scan = 0
        while True:
            seg = None
            i = scan
            n_var = len(variants)
            while i < n_var:
                cand = variants[i]
                if op is None or cand.first_op is op:
                    seg = cand
                    break
                i += 1
            if seg is None:
                break
            t_before = clock.cycles
            code, n, t, val, op = seg.fn(
                rt, tcb, frame, value, limit, until, budget, op
            )
            if n:
                clock.cycles = t
                rt.steps += n
                tcb.cpu_cycles += t - t_before
                self.cycles_replayed += t - t_before
                total += n
                if budget is not _NO_BOUND:
                    budget -= n
                if i:
                    variants.insert(0, variants.pop(i))
                scan = 0
            else:
                scan = i + 1
            if code == 0:
                if op is None:
                    frame.pending_value = val
                    if total:
                        self.hits += 1
                        self.steps_replayed += total
                        return True
                    return False
                value = None
                continue
            # Terminal resume outcomes: mirror _step_current exactly.
            if total:
                self.hits += 1
                self.steps_replayed += total
            rt.steps += 1
            started = clock.cycles
            if code == 2:
                rt._frame_returned(tcb, frame, val)
                tcb.cpu_cycles += clock.cycles - started
                return True
            if code == 3:
                rt._frame_raised(tcb, frame, val)
                tcb.cpu_cycles += clock.cycles - started
                return True
            if code == 4:
                raise val
            raise ProgramCrash(frame.name, val) from val
        if op is not None:
            # No variant takes the in-hand op: interpret it here (the
            # send already happened).  Repeated mismatches grow a new
            # variant recorded from the in-hand op.
            self.misses += 1
            if total:
                self.hits += 1
                self.steps_replayed += total
            variants.mismatches += 1
            if (
                variants.mismatches >= _VARIANT_AFTER
                and len(variants) < _MAX_VARIANTS
                and self.segments_compiled < _MAX_SEGMENTS
            ):
                variants.mismatches = 0
                return self._record(tcb, frame, table, lasti, op)
            rt._dispatch_op(tcb, frame, op)
            return True
        frame.pending_value = value
        if total:
            self.hits += 1
            self.steps_replayed += total
            return True
        self.misses += 1
        return False

    # -- recording ---------------------------------------------------------

    def _record(self, tcb, frame, table, lasti, inhand) -> bool:
        """Interpret ops (through the normal runtime entry points),
        certifying each; compile the certified run into a segment.

        The steps are *performed* regardless of whether certification
        succeeds, so this is always a complete executor step (or
        several) from the caller's point of view.
        """
        rt = self.rt
        self.recordings += 1
        world = rt.world
        clock = world.clock
        events = world.events
        kern = rt.kern
        frames = tcb.frames._frames
        steps: List[_SegStep] = []
        closed = False
        op = inhand
        while len(steps) < _MAX_OPS:
            pre_clock = clock.cycles
            pre_seq = events._seq
            pre_live = events._live
            pre_enters = kern.enters
            pre_dispatch = rt.dispatcher.dispatch_calls
            rt.steps += 1
            if op is None:
                try:
                    value = frame.pending_value
                    frame.pending_value = None
                    op = frame.gen.send(value)
                except StopIteration as stop:
                    rt._frame_returned(tcb, frame, stop.value)
                    tcb.cpu_cycles += clock.cycles - pre_clock
                    break
                except SimException as exc:
                    rt._frame_raised(tcb, frame, exc)
                    tcb.cpu_cycles += clock.cycles - pre_clock
                    break
                except ProgramCrash:
                    raise
                except BaseException as crash:  # noqa: BLE001
                    raise ProgramCrash(frame.name, crash) from crash
            op_class = op.__class__
            if op_class is Work:
                frame.remaining_work = op.cycles
                rt._do_work(tcb, frame)
            elif op_class is LibCall:
                rt._libcall(tcb, frame, op)
                tcb.cpu_cycles += clock.cycles - pre_clock
            elif op_class is SysCall:
                rt._unix_syscall(tcb, frame, op)
                tcb.cpu_cycles += clock.cycles - pre_clock
            elif op_class is Invoke:
                rt._push_invoke(tcb, op)
                tcb.cpu_cycles += clock.cycles - pre_clock
            elif isinstance(op, (Work, LibCall, SysCall, Invoke)):
                rt._step_op_subclass(tcb, frame, op, pre_clock)
                break  # subclassed ops are never certified
            else:
                raise ProgramCrash(
                    frame.name, TypeError("bad op yielded: %r" % (op,))
                )
            done = op
            op = None
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
            step = self._certify(
                tcb, frame, done,
                pre_clock, pre_seq, pre_live, pre_enters, pre_dispatch,
            )
            if step is None:
                break
            steps.append(step)
            gi = frame.gen.gi_frame
            if gi is not None and gi.f_lasti == lasti:
                closed = True
                break
        if len(steps) >= _MIN_OPS:
            seg = self._compile(steps, closed)
            if seg is not None:
                entry = table.get(lasti)
                if type(entry) is _Variants:
                    entry.insert(0, seg)
                else:
                    table[lasti] = _Variants([seg])
                self.segments_compiled += 1
                return True
        entry = table.get(lasti)
        if type(entry) is _LocState:
            entry.fails += 1
            if entry.fails >= _MAX_FAILS:
                table[lasti] = _BLACKLISTED
        self.record_failures += 1
        return True

    # -- certification -----------------------------------------------------

    def _certify(
        self, tcb, frame, op,
        pre_clock, pre_seq, pre_live, pre_enters, pre_dispatch,
    ) -> Optional[_SegStep]:
        rt = self.rt
        world = rt.world
        events = world.events
        if events._seq != pre_seq or events._live != pre_live:
            return None  # an event was scheduled, cancelled, or fired
        delta = world.clock.cycles - pre_clock
        op_class = op.__class__
        if op_class is Work:
            if self._work_cache.get(op.cycles) is not op:
                return None
            if delta != op.cycles or frame.pending_value is not None:
                return None
            if rt.kern.enters != pre_enters:
                return None
            return _SegStep(op, "none", delta, (), ())
        if op_class is not LibCall:
            return None
        name = op.name
        result = frame.pending_value
        if name == "mutex_lock":
            m = op.args[0]
            if getattr(m, "_seg_lock_op", None) is not op:
                return None
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
            if getattr(m, "_seg_unlock_op", None) is not op:
                return None
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
        if name == "cond_signal":
            c = op.args[0]
            if getattr(c, "_seg_signal_op", None) is not op:
                return None
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
        if name == "self":
            if getattr(rt._pt, "_seg_self_op", None) is not op:
                return None
            if (
                result is not tcb
                or rt.kern.enters != pre_enters
                or delta != self._c_self
            ):
                return None
            return _SegStep(op, "tcb", delta, (), ())
        return None

    # -- compilation -------------------------------------------------------

    def _compile(self, steps: List[_SegStep], closed: bool):
        """Generate and exec the replay function for a certified run.

        The generated code keeps no per-op bookkeeping: every exit site
        (op mismatch, exception, clean stop) statically knows how many
        ops completed and how many cycles they cost, so the hot loop is
        just sends, identity checks, and -- for loop segments -- one
        add per iteration.  Loop segments whose per-iteration effects
        net-restore every guarded field defer all effect application:
        counters are applied once at exit (``delta * iterations``) and
        mid-iteration exits carry statically-known fix-up assignments.
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
        lit = {"none": "None", "zero": "0", "tcb": "tcb"}

        # Pass 1: entry guards, symbolic state, aggregated effects, and
        # a per-site snapshot of the prefix state (for loop fix-ups).
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
        effect_lines: List[List[str]] = []
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
            lines: List[str] = []
            for e in step.effects:
                kind, obj = e[0], e[1]
                nm = ref(obj)
                if kind == "held_append":
                    uses_held = True
                    held_now.append(("append", nm))
                    held_balance[nm] = held_balance.get(nm, 0) + 1
                    lines.append("held.append(%s)" % nm)
                    continue
                if kind == "held_remove":
                    uses_held = True
                    held_now.append(("remove", nm))
                    held_balance[nm] = held_balance.get(nm, 0) - 1
                    lines.append("held.remove(%s)" % nm)
                    continue
                attr = e[2]
                var = (nm, attr)
                if kind == "inc":
                    counter_now[var] = counter_now.get(var, 0) + e[3]
                    sym[var] = "opaque"
                    lines.append("%s.%s += %r" % (nm, attr, e[3]))
                elif kind == "set_const":
                    state_now[var] = e[3]
                    sym[var] = e[3]
                    lines.append("%s.%s = %r" % (nm, attr, e[3]))
                elif kind == "set_tcb":
                    state_now[var] = "tcb"
                    sym[var] = "tcb"
                    lines.append("%s.%s = tcb" % (nm, attr))
                elif kind == "set_none":
                    state_now[var] = "none"
                    sym[var] = "none"
                    lines.append("%s.%s = None" % (nm, attr))
                else:  # pragma: no cover - unknown effect kind
                    return None
            effect_lines.append(lines)
            cycles_so_far += step.cycles

        # A closed run compiles to a loop only when every guarded field
        # is provably restored by one full iteration (then guards hoist
        # out of the loop and effects defer to the exits).
        loops = closed
        if loops:
            for var, expect in guard_expect.items():
                final = sym.get(var)
                if final is not None and final != expect:
                    loops = False
                    break
            if any(held_balance.values()):
                loops = False
            if set(counter_now) & set(state_now):
                loops = False

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
            if not loops:
                return  # linear mode applies effects inline
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

        def n_expr(i: int) -> str:
            if loops:
                if i:
                    return "%d * it + %d" % (n_ops, i)
                return "%d * it" % n_ops
            return "%d" % i

        def t_expr(i: int) -> str:
            p = prefix_cycles[i]
            if loops:
                return "t + %d" % p if p else "t"
            return "t + %d" % p if p else "t"

        def classify(indent: int, i: int) -> None:
            fixup(indent, i)
            n_s, t_s = n_expr(i), t_expr(i)
            emit(indent, "if isinstance(exc, StopIteration):")
            emit(indent + 1, "return (2, %s, %s, exc.value, None)" % (n_s, t_s))
            emit(indent, "if isinstance(exc, SimException):")
            emit(indent + 1, "return (3, %s, %s, exc, None)" % (n_s, t_s))
            emit(indent, "if isinstance(exc, ProgramCrash):")
            emit(indent + 1, "return (4, %s, %s, exc, None)" % (n_s, t_s))
            emit(indent, "return (5, %s, %s, exc, None)" % (n_s, t_s))

        def op_block(indent: int, i: int) -> None:
            # The generator body runs inside each send and may read
            # ``world.now``: publish the exact interpreted clock (the
            # charge of every completed op) before resuming it, or
            # mid-segment time observations would see a stale clock.
            if i == 0:
                emit(indent, "if op is None:")
                emit(indent + 1, "ck.cycles = t")
                emit(indent + 1, "try:")
                emit(indent + 2, "op = send(value)")
                emit(indent + 1, "except BaseException as exc:")
                classify(indent + 2, 0)
            else:
                p = prefix_cycles[i]
                emit(indent, "ck.cycles = t + %d" % p if p else "ck.cycles = t")
                emit(indent, "try:")
                emit(indent + 1, "op = send(%s)" % lit[steps[i - 1].result])
                emit(indent, "except BaseException as exc:")
                classify(indent + 1, i)
            emit(indent, "if op is not %s:" % op_refs[i])
            fixup(indent + 1, i)
            emit(
                indent + 1,
                "return (0, %s, %s, None, op)" % (n_expr(i), t_expr(i)),
            )
            if not loops:
                for line in effect_lines[i]:
                    emit(indent, line)

        emit(0, "def _make(env):")
        if env_objs:
            emit(
                1,
                "(%s,) = env"
                % ", ".join("v%d" % j for j in range(len(env_objs))),
            )
        emit(
            1,
            "def _replay(rt, tcb, frame, value, limit, until, budget, op):",
        )
        emit(2, "ck = rt.world.clock")
        emit(2, "t = ck.cycles")
        if entry_guards:
            emit(2, "if not (%s):" % " and ".join(entry_guards))
            emit(3, "return (0, 0, t, value, op)")
        if loops:
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
            emit(3, "return (0, 0, t, value, op)")
        else:
            emit(
                2,
                "if %d > budget or (limit is not None and t + %d >= limit)"
                " or (until != %d and t + %d >= until):"
                % (n_ops, total, _NO_BOUND, total),
            )
            emit(3, "return (0, 0, t, value, op)")
        emit(2, "send = frame.gen.send")
        if uses_held:
            emit(2, "held = tcb.held_mutexes")
        if loops:
            emit(2, "it = 0")
            emit(2, "while it < k:")
            for i in range(n_ops):
                op_block(3, i)
            emit(3, "value = %s" % lit[steps[-1].result])
            emit(3, "op = None")
            emit(3, "t += %d" % total)
            emit(3, "it += 1")
            for (nm, attr), full in counter_now.items():
                if full:
                    emit(2, "%s.%s += %d * it" % (nm, attr, full))
            emit(2, "return (0, %d * it, t, value, None)" % n_ops)
        else:
            for i in range(n_ops):
                op_block(2, i)
            emit(
                2,
                "return (0, %d, t + %d, %s, None)"
                % (n_ops, total, lit[steps[-1].result]),
            )
        emit(1, "return _replay")

        code = "\n".join("    " * ind + text for ind, text in out) + "\n"
        namespace = {
            "SimException": SimException,
            "ProgramCrash": ProgramCrash,
        }
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
        fn = namespace["_make"](tuple(env_objs))
        return _Segment(fn, steps[0].op, n_ops, total, loops)
