"""The Pthreads runtime: executor loop, universal handler, host process.

One :class:`PthreadsRuntime` is one UNIX process running the Pthreads
library.  It owns the library kernel (monolithic monitor), the
scheduler and dispatcher, the thread table, and the executor that runs
thread programs op by op against the virtual clock.

The control-flow trick that makes a pure-Python reproduction possible:
thread bodies are generators, so "context switching" is just choosing
which generator the executor resumes next.  All library code runs as
plain Python inside the executor's call, charging virtual time; when a
library call blocks the calling thread, it parks a wait record and
returns the :data:`~repro.core.libbase.BLOCKED` sentinel, and the
Python stack unwinds naturally back to the executor loop, which then
resumes whatever thread the dispatcher chose.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core import config as cfg
from repro.core.attr import ThreadAttr
from repro.core.dispatcher import Dispatcher
from repro.core.errors import PthreadsInternalError
from repro.core.fdtable import FdTable
from repro.core.kernel import LibKernel
from repro.core.libbase import BLOCKED
from repro.core.pool import ThreadPool
from repro.core.scheduler import Scheduler
from repro.core.tcb import Tcb, ThreadState, WaitRecord
from repro.hw.memory import StackOverflow
from repro.sim.frames import Frame, ProgramCrash, SimException
from repro.sim.ops import Invoke, LibCall, SysCall, Work
from repro.sim.segments import (
    SERVED as _SEG_SERVED,
    _BLACKLISTED as _SEG_BLACKLISTED,
)
from repro.sim.world import DeadlockError, World
from repro.unix.io import IoDevice
from repro.unix.kernel import UnixKernel
from repro.unix.net import NetStack
from repro.unix.signals import (
    InterruptFrame,
    ProcessSignals,
    SigAction,
    SigCause,
)
from repro.unix.sigset import NSIG, SIGCANCEL, SIGSEGV, UNMASKABLE, SigSet
from repro.unix.timers import IntervalTimer


#: ``(attribute, class, entries)`` per subsystem (see :func:`_library`).
_Layout = Tuple[Tuple[str, type, Tuple[Tuple[str, str], ...]], ...]
#: The library's layout, built by the first :func:`_library` call.
_LIBRARY: Optional[_Layout] = None


def _library() -> _Layout:
    """The library's layout, the same for every runtime of the process.

    One ``(attribute, class, entries)`` per subsystem, in construction
    order; ``entries`` are the ``(public name, method name)`` pairs of
    an ``*Ops`` class (``LibraryOps.ENTRIES``), checked once for
    duplicate public names across the library.
    """
    global _LIBRARY
    if _LIBRARY is not None:
        return _LIBRARY
    # Imported here to keep module import order acyclic.
    from repro.core.barrier import BarrierOps
    from repro.core.cancel import CancelOps
    from repro.core.cleanup import CleanupOps
    from repro.core.cond import CondOps
    from repro.core.fakecall import FakeCalls
    from repro.core.iolib import IoOps
    from repro.core.jmp import JmpOps
    from repro.core.netlib import NetOps
    from repro.core.mutex import MutexOps
    from repro.core.once import OnceOps
    from repro.core.protocols import ProtocolManager
    from repro.core.rwlock import RwLockOps
    from repro.core.stdio import StdioOps
    from repro.core.semaphore import SemOps
    from repro.core.sigdeliver import SignalDelivery
    from repro.core.signals import SignalOps
    from repro.core.threads import ThreadOps
    from repro.core.timerq import TimerOps
    from repro.core.tsd import TsdOps

    ops = (
        ("thread_ops", ThreadOps),
        ("mutex_ops", MutexOps),
        ("cond_ops", CondOps),
        ("sem_ops", SemOps),
        ("signal_ops", SignalOps),
        ("cancel_ops", CancelOps),
        ("cleanup_ops", CleanupOps),
        ("tsd_ops", TsdOps),
        ("once_ops", OnceOps),
        ("jmp_ops", JmpOps),
        ("timer_ops", TimerOps),
        ("io_ops", IoOps),
        ("net_ops", NetOps),
        ("rwlock_ops", RwLockOps),
        ("barrier_ops", BarrierOps),
        ("stdio_ops", StdioOps),
    )
    seen = set()
    for __, cls in ops:
        for public in cls.ENTRIES:
            if public in seen:
                raise ValueError("duplicate library entry point: %r" % public)
            seen.add(public)
    _LIBRARY = (
        ("fakecalls", FakeCalls, ()),
        ("sigdeliver", SignalDelivery, ()),
        ("protocols", ProtocolManager, ()),
    ) + tuple((attr, cls, tuple(cls.ENTRIES.items())) for attr, cls in ops)
    return _LIBRARY


class HostProcess:
    """The UNIX process hosting the Pthreads library."""

    def __init__(self, kernel: UnixKernel, name: str = "pthreads-proc") -> None:
        self.name = name
        self.signals = ProcessSignals()
        # Signals posted to this process deliver immediately: from the
        # UNIX kernel's viewpoint it is always the running process.
        self.auto_deliver = True
        self.pid = kernel.register(self)


class PthreadsRuntime:
    """One process's Pthreads library instance plus its executor."""

    def __init__(
        self,
        model: Union[str, object] = "sparc-ipx",
        seed: int = 0,
        config: Optional[cfg.RuntimeConfig] = None,
        policy: Optional[object] = None,
        trace: Optional[object] = None,
        world: Optional[World] = None,
        obs: Optional[object] = None,
        check: Optional[object] = None,
        ncpus: int = 1,
    ) -> None:
        self.config = config or cfg.RuntimeConfig()
        # ncpus > 1 attaches the SMP extension: the library still runs
        # on CPU 0, but asynchronous signals cross from the interrupt
        # CPU via IPI events (see repro.sim.smp).
        self.world = (
            world if world is not None else World(model, seed=seed, ncpus=ncpus)
        )
        if trace is not None:
            trace.attach(self.world.clock)
            self.world.trace = trace
        #: Invariant-checking context (:class:`repro.check.CheckContext`)
        #: or None (the default -- hot paths guard on ``check is None``,
        #: the same pattern as ``obs`` below).  Set before the
        #: subsystems are built so objects they create get registered.
        self.check = check
        if check is not None:
            check.attach(self)
        #: Observability facade (:class:`repro.obs.Observability`) or
        #: None (the default -- hot paths guard on ``obs is None``).
        #: World-level wiring happens *now*, before the subsystems below
        #: spend their first cycle, so cycle attribution covers the
        #: whole run and sums to the final clock exactly.
        self.obs = obs
        if obs is not None:
            obs.attach_world(self.world)
        self.unix = UnixKernel(self.world)
        self.proc = HostProcess(self.unix)
        self.heap = self.unix.make_heap(self.proc)
        self.kern = LibKernel(self)
        self.sched = Scheduler(self)
        self.dispatcher = Dispatcher(self)
        self.policy = policy  # perverted/debug scheduling policy or None
        self.pool = ThreadPool(
            self.world,
            self.heap,
            size=self.config.pool_size,
            stack_size=cfg.DEFAULT_STACK_SIZE,
        )

        #: The simulated UNIX global errno (switched by the dispatcher).
        self.unix_errno = 0
        self.current: Optional[Tcb] = None
        #: The thread whose register windows physically occupy the CPU
        #: (stays set across idle periods; flushed on the next switch).
        self.on_cpu: Optional[Tcb] = None
        #: tid -> every thread the library can still name: live threads
        #: and zombies (terminated, not yet joined, still holding their
        #: stack).  A thread enters at :meth:`register_thread` and
        #: leaves when it is reclaimed (``ThreadOps._reclaim``).
        self.threads: Dict[int, Tcb] = {}
        self._next_tid = 1
        #: Process-wide user signal actions (signal actions are shared
        #: by all threads; only masks are per-thread).
        self.user_actions: Dict[int, Any] = {}
        #: Signals no thread could take yet (delivery-model rule 6).
        self.process_pending: List[Any] = []
        self.terminated_by: Optional[int] = None  # default-action signal
        self.steps = 0

        # Subsystems (registered entry points).
        self._build_subsystems()

        # The PT facade is stateless apart from the runtime reference;
        # one shared instance serves every frame (push_frame would
        # otherwise allocate one per simulated call).
        from repro.core.api import PT

        self._pt = PT(self)

        # Segment compiler (see repro.sim.segments): replays recorded
        # straight-line op runs.  A scheduling policy or a check context
        # is fixed for the runtime's life and bypasses every replay, so
        # a runtime built with either carries no cache at all; clock
        # watchers and traces come and go, and the cache re-checks them
        # on every step.
        self._max_steps: Optional[int] = None
        self._until_cycles: Optional[int] = None
        if self.config.segments and policy is None and check is None:
            from repro.sim.segments import SegmentSpace

            self._segments: Optional[SegmentSpace] = SegmentSpace(self)
        else:
            self._segments = None

        # Devices, descriptors, networking, and timers.
        self.io_devices: Dict[str, IoDevice] = {}
        #: The per-process descriptor table (fd -> device/socket).
        #: Construction and resolution are free, so runtimes that
        #: never install an entry behave exactly as before it existed.
        self.fds = FdTable()
        #: The simulated socket layer, or None until
        #: :meth:`add_net_stack` attaches one.
        self.net: Optional[NetStack] = None
        self._install_universal_handler()
        self.timer = IntervalTimer(self.world, self.unix, self.proc)
        self._slicer: Optional[IntervalTimer] = None
        if self.config.timeslice_us is not None:
            self._start_slicer()
        if obs is not None:
            obs.attach(self)

    # -- construction helpers ----------------------------------------------------

    def _build_subsystems(self) -> None:
        registry: Dict[str, Callable] = {}
        for attr, cls, entries in _library():
            subsystem = cls(self)
            setattr(self, attr, subsystem)
            # Bound per runtime, by name: a method patched on its class
            # (a tracer's span) is the one registered.
            for public, method in entries:
                registry[public] = getattr(subsystem, method)
        self.registry = registry

    def _install_universal_handler(self) -> None:
        """Install the universal handler for every maskable UNIX signal
        (library initialisation, as in the paper)."""
        action = SigAction(
            handler=self._universal_handler, manual_return=True
        )
        for sig in range(1, NSIG):
            if sig in UNMASKABLE or sig == SIGCANCEL:
                continue
            self.unix.sigaction(self.proc, sig, action)

    def _start_slicer(self) -> None:
        from repro.unix.sigset import SIGVTALRM

        quantum = self.world.cycles_for_us(self.config.timeslice_us)
        self._slicer = IntervalTimer(
            self.world, self.unix, self.proc, which=1, sig=SIGVTALRM
        )
        self._slicer.arm(
            quantum, interval_cycles=quantum, tag="timeslice"
        )

    # -- thread table ---------------------------------------------------------------

    def new_tid(self) -> int:
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def register_thread(self, tcb: Tcb) -> None:
        """Enter a freshly created thread into the table."""
        self.threads[tcb.tid] = tcb

    def live_threads(self) -> List[Tcb]:
        return [t for t in self.threads.values() if t.alive]

    # -- snapshot integrity -------------------------------------------------

    def state_digest(self) -> str:
        """A stable hash of the runtime's observable state.

        Combines the world digest with the executor's own bookkeeping,
        the signal state (as signal numbers and mask bits) and a
        per-thread summary.  Used by :mod:`repro.fleet` to verify that
        resuming a forked prefix snapshot lands in exactly the state a
        replay-from-scratch reaches at the same choice point.
        """
        import hashlib

        def sigs(numbers) -> str:
            return ",".join(map(str, numbers))

        threads = sorted(
            "%d:%s:%s:%d:%s:%d:%d:%d:%x:%s:%d"
            % (
                tcb.tid,
                tcb.name,
                tcb.state.value,
                len(tcb.frames),
                tcb.wait.kind if tcb.wait is not None else "-",
                tcb.errno,
                tcb.cpu_cycles,
                tcb.context_switches_in,
                tcb.sigmask.bits,
                sigs(tcb.pending.order),
                len(tcb.pending_interrupt_frames),
            )
            for tcb in self.threads.values()
        )
        signals = self.proc.signals
        parts = [
            self.world.state_digest(),
            str(self.steps),
            str(self.unix_errno),
            str(self.terminated_by),
            self.current.name if self.current is not None else "-",
            "%x:%s" % (signals.mask.bits, sigs(signals.pending.order)),
            sigs(sig for sig, _ in self.process_pending),
            sigs(sig for sig, _ in self.kern.deferred_signals),
            sigs(sorted(self.user_actions)),
        ]
        parts.extend(threads)
        return hashlib.sha1("|".join(parts).encode("utf-8")).hexdigest()

    # -- starting programs -------------------------------------------------------------

    def main(
        self,
        fn: Callable,
        *args: Any,
        name: str = "main",
        priority: int = cfg.PTHREAD_DEFAULT_PRIORITY,
        policy: str = cfg.SCHED_FIFO,
    ) -> Tcb:
        """Create the initial thread running ``fn(pt, *args)``."""
        attr = ThreadAttr(priority=priority, policy=policy, name=name)
        return self.thread_ops.create_thread(fn, args, attr, creator=None)

    def add_io_device(
        self,
        name: str = "disk0",
        first_class: bool = False,
        **kwargs: Any,
    ) -> IoDevice:
        """Attach a device.  ``first_class=True`` routes completions
        through the Marsh & Scott kernel/user channel (the paper's
        Open Problems proposal) instead of SIGIO demultiplexing."""
        channel = None
        if first_class:
            channel = self._ensure_first_class()
        device = IoDevice(
            self.world, self.unix, self.proc, name=name,
            channel=channel, **kwargs,
        )
        self.io_devices[name] = device
        return device

    def add_net_stack(
        self, first_class: bool = False, **kwargs: Any
    ) -> NetStack:
        """Attach the simulated socket layer (idle until used).

        ``first_class=True`` routes completions through the Marsh &
        Scott kernel/user channel instead of SIGIO demultiplexing --
        the same switch :meth:`add_io_device` offers for disks.
        Construction spends no cycles: a runtime with networking
        attached but idle is bit-identical to one without it.
        """
        channel = None
        if first_class:
            channel = self._ensure_first_class()
        self.net = NetStack(
            self.world, self.unix, self.proc, channel=channel, **kwargs
        )
        return self.net

    def _ensure_first_class(self):
        from repro.unix.firstclass import FirstClassInterface

        if getattr(self, "first_class", None) is None:
            self.first_class = FirstClassInterface(self.world, self.unix)
            self.first_class.register_scheduler(self.io_ops.fc_upcall)
        return self.first_class

    # -- blocking helper (used by every subsystem) ------------------------------------------

    def block_current(
        self,
        kind: str,
        obj: Any = None,
        teardown: Optional[Callable[[], None]] = None,
        interruptible: bool = True,
        mutex: Any = None,
        request: Any = None,
        sigset: Any = None,
    ) -> WaitRecord:
        """Park the current thread; must run with the kernel flag set.

        ``mutex``, ``request`` and ``sigset`` fill the wait record's
        typed slots (see :class:`~repro.core.tcb.WaitRecord`).  The
        wait ends through :meth:`end_wait` or :meth:`abandon_wait`.
        Returns the wait record.
        """
        tcb = self.current
        if tcb is None:
            raise PthreadsInternalError("block_current with no current thread")
        world = self.world
        record = WaitRecord(
            kind, obj, tcb.frames._frames[-1], world.clock.cycles,
            interruptible, teardown, mutex, request, sigset,
        )
        tcb.wait = record
        tcb.state = ThreadState.BLOCKED
        self.current = None
        self.kern.dispatcher_flag = True
        if world.trace is not None:
            world.emit("block", thread=tcb.name, wait=kind)
        return record

    def end_wait(self, tcb: Tcb, value: Any) -> None:
        """The normal end of a wait (kernel flag held): drop the wait's
        deadline, return ``value`` from the blocked call and ready the
        thread.  A thread with no wait is only readied."""
        wait = tcb.wait
        if wait is not None:
            if wait.timeout is not None:
                self.drop_deadline(wait)
            wait.frame.pending_value = value
        self.sched.make_ready(tcb)

    def abandon_wait(self, tcb: Tcb) -> Any:
        """The early end of a wait (kernel flag held), when a handler
        or cancellation interrupts it: take the thread off whatever it
        waits on, drop the wait's deadline and clear the wait.  Returns
        the mutex a conditional wait must reacquire, else None."""
        wait = tcb.wait
        if wait.teardown is not None:
            wait.teardown()
        self.drop_deadline(wait)
        tcb.wait = None
        return wait.mutex

    def drop_deadline(self, wait: WaitRecord) -> None:
        """Cancel ``wait``'s timer-queue entry, if it still has one."""
        entry = wait.timeout
        if entry is not None:
            wait.timeout = None
            self.timer_ops.cancel_timeout(entry)

    # -- the executor ------------------------------------------------------------------

    def run(
        self,
        until_us: Optional[float] = None,
        max_steps: Optional[int] = None,
    ) -> None:
        """Run the world until every thread terminates (or a bound hits).

        Raises :class:`~repro.sim.world.DeadlockError` when live threads
        remain but nothing can ever wake them.
        """
        until_cycles = (
            self.world.cycles_for_us(until_us) if until_us is not None else None
        )
        # Published for the segment cache: replayed batches must stop
        # at exactly the op boundary where the interpreted executor
        # would notice one of these bounds.
        self._until_cycles = until_cycles
        self._max_steps = max_steps
        clock = self.world.clock
        step = self._step_current
        idle_streak = 0
        while self.terminated_by is None:
            if until_cycles is not None and clock.cycles >= until_cycles:
                return
            if max_steps is not None and self.steps >= max_steps:
                return
            if self.current is None:
                if not self._find_work():
                    return
                idle_streak += 1
                if self.current is None and idle_streak > 100_000:
                    # Recurring events (a time slicer, a periodic
                    # timer) keep time moving while every thread stays
                    # blocked forever: a livelocked deadlock.
                    raise DeadlockError(
                        "no thread became runnable across %d idle "
                        "wakeups (all threads blocked; only recurring "
                        "events keep firing)" % idle_streak
                    )
                continue
            idle_streak = 0
            step()

    def _find_work(self) -> bool:
        """Dispatch a ready thread or idle to the next event.

        Returns False when the run is complete (no live threads, or
        only never-activated lazy threads remain).
        """
        if self.sched.ready:
            kern = self.kern
            kern.enter()
            kern.request_dispatch()
            kern.leave()
            return self.current is not None or bool(self.sched.ready)
        blocked_state = ThreadState.BLOCKED
        threads = self.threads.values()
        if any(t.state is blocked_state for t in threads):
            if self.world.next_event_time() is None:
                blocked = [t for t in threads if t.state is blocked_state]
                raise DeadlockError(
                    "all threads blocked with no pending events: %s"
                    % ", ".join(
                        "%s(%s)" % (t.name, t.wait.kind if t.wait else "?")
                        for t in blocked
                    )
                )
            self.world.advance_to_next_event()
            return True
        return False  # only terminated / embryonic threads remain

    def _step_current(self, op: Any = None) -> Any:
        """Perform one executor step for the current thread.

        With ``op`` None this is the whole step: continue a compute
        burst, or resume the top frame and perform the op it yields,
        unless the segment cache serves that op (and possibly many
        after it).  A segment recording passes an op it already took
        from the generator, its step counted; only the dispatch half
        then remains.  Returns the op performed, or None when the frame
        returned, raised or was served by replay.
        """
        tcb = self.current
        assert tcb is not None
        frame = tcb.frames._frames[-1]
        if op is None:
            if frame.remaining_work > 0:
                self.steps += 1
                self._do_work(tcb, frame)
                return None
            self.steps += 1
            clock = self.world.clock
            started = clock.cycles
            # Frame.resume inlined: one generator step per executor step
            # makes the extra call (and tuple) measurable.
            try:
                exc = frame.pending_exc
                if exc is not None:
                    frame.pending_exc = None
                    op = frame.gen.throw(exc)
                else:
                    value = frame.pending_value
                    frame.pending_value = None
                    op = frame.gen.send(value)
            except BaseException as ended:  # noqa: BLE001 - see _resume_ended
                self._resume_ended(tcb, frame, ended, started)
                return None
            segments = self._segments
            if segments is not None:
                # Segment guard: the frame keeps its code object's
                # location table, so the common answer -- a blacklisted
                # location, as at every location of a stream that never
                # certifies -- costs one int-keyed dict hit and no
                # try_step call.  No local holds the generator's frame
                # object: were a returning generator's frame object
                # still held, it would link back to this frame (CPython
                # 3.12 on), and the cycle would keep the thread alive.
                table = frame.seg_table
                if table is None:
                    table = frame.seg_table = segments.table_for(
                        frame.gen.gi_code
                    )
                lasti = frame.gen.gi_frame.f_lasti
                if table.get(lasti) is not _SEG_BLACKLISTED:
                    op = segments.try_step(tcb, frame, op)
                    if op is _SEG_SERVED:
                        return None  # served by replay, bookkeeping included
                    started = clock.cycles  # replay charged what it ran
        else:
            clock = self.world.clock
            started = clock.cycles
        # Dispatch by exact class, LibCall first: most steps of a server
        # are library calls.  The registry is read per call, since an
        # entry may be replaced after construction.
        op_class = op.__class__
        if op_class is LibCall:
            try:
                entry = self.registry[op.name]
            except KeyError:
                raise ProgramCrash(
                    frame.name, NameError("unknown library call: %r" % op.name)
                ) from None
            if op.kwargs:
                result = entry(tcb, *op.args, **op.kwargs)
            else:
                result = entry(tcb, *op.args)
            if result is not BLOCKED:
                frame.pending_value = result
            tcb.cpu_cycles += clock.cycles - started
        elif op_class is Work:
            frame.remaining_work = op.cycles
            self._do_work(tcb, frame)
        elif op_class is SysCall:
            self._unix_syscall(tcb, frame, op)
            tcb.cpu_cycles += clock.cycles - started
        elif op_class is Invoke:
            self._push_invoke(tcb, op)
            tcb.cpu_cycles += clock.cycles - started
        else:
            raise ProgramCrash(
                frame.name, TypeError("bad op yielded: %r" % (op,))
            )
        return op

    def _resume_ended(
        self, tcb: Tcb, frame: Frame, exc: BaseException, started: int
    ) -> None:
        """Resuming ``frame`` raised ``exc`` instead of yielding an op.

        A return pops the frame and a :class:`SimException` unwinds into
        the caller, charging the thread for the step; anything else is
        a fault in the simulated program and ends the run.
        """
        if isinstance(exc, StopIteration):
            self._frame_returned(tcb, frame, exc.value)
        elif isinstance(exc, SimException):
            self._frame_raised(tcb, frame, exc)
        elif isinstance(exc, ProgramCrash):
            raise exc
        else:
            raise ProgramCrash(frame.name, exc) from exc
        tcb.cpu_cycles += self.world.clock.cycles - started

    def _do_work(self, tcb: Tcb, frame: Frame) -> None:
        """Burn a compute burst, splitting it at asynchronous events."""
        world = self.world
        events = world.events
        clock = world.clock
        frames = tcb.frames._frames
        while frame.remaining_work > 0:
            if self.current is not tcb or frames[-1] is not frame:
                return  # preempted, or a fake call landed on top
            chunk = frame.remaining_work
            next_event = events.next_time()
            if next_event is not None:
                now = clock.cycles
                if next_event <= now:
                    world.fire_due()
                    continue
                if next_event - now < chunk:
                    chunk = next_event - now
            clock.advance(chunk)
            frame.remaining_work -= chunk
            tcb.cpu_cycles += chunk
            # fire_due's own early-exit gate, checked inline: the
            # common burst ends with no event due.
            horizon = events._horizon
            if horizon is not None and horizon <= clock.cycles:
                world.fire_due()
        if self.current is tcb and frames[-1] is frame:
            frame.pending_value = None

    def _unix_syscall(self, tcb: Tcb, frame: Frame, op: SysCall) -> None:
        if op.name == "getpid":
            frame.pending_value = self.unix.getpid(self.proc)
        elif op.name == "sigsetmask":
            frame.pending_value = self.unix.sigsetmask(self.proc, *op.args)
        elif op.name == "sigpending":
            frame.pending_value = self.unix.sigpending(self.proc)
        elif op.name == "raise":
            # A synchronous fault caused by the running thread.
            sig = op.args[0]
            cause = SigCause(kind="synchronous", thread=tcb)
            self.unix.kill(self.proc, sig, cause)
            frame.pending_value = 0
        else:
            raise ProgramCrash(
                frame.name, NameError("unknown syscall: %r" % op.name)
            )

    def _push_invoke(self, tcb: Tcb, op: Invoke) -> None:
        # Frames called from a signal wrapper (the user handler and
        # anything it calls) may keep using the redzone/signal stack.
        in_handler = tcb.frames._special > 0
        try:
            self.push_frame(
                tcb,
                op.fn,
                op.args,
                op.kwargs,
                kind="handler-call" if in_handler else "user",
                frame_bytes=op.frame_bytes,
            )
        except StackOverflow:
            # The save/probe faulted: a synchronous SIGSEGV at the call
            # site.  With a user action installed (the Ada runtime maps
            # it to STORAGE_ERROR via the redirect feature) the thread
            # recovers; otherwise the default action kills the process.
            cause = SigCause(kind="synchronous", thread=tcb)
            self.unix.kill(self.proc, SIGSEGV, cause)

    def push_frame(
        self,
        tcb: Tcb,
        fn: Callable,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        kind: str = "user",
        frame_bytes: int = 96,
        on_pop: Optional[Callable[[Any], Any]] = None,
        deliver_to_caller: bool = True,
    ) -> Frame:
        """Push a simulated call frame onto a thread's stack.

        Wrapper/redirect frames (fake calls) may borrow the stack's
        redzone -- the stand-in for a signal stack -- so signal
        handling still works at the brink of stack exhaustion.
        """
        if kwargs:
            gen = fn(self._pt, *args, **kwargs)
        else:
            gen = fn(self._pt, *args)
        if type(gen) is not GeneratorType and not hasattr(gen, "send"):
            raise ProgramCrash(
                getattr(fn, "__name__", str(fn)),
                TypeError(
                    "thread code must be a generator function (it must "
                    "yield ops); %r returned %r" % (fn, gen)
                ),
            )
        frame = Frame(
            gen,
            name=getattr(fn, "__name__", "frame"),
            kind=kind,
            frame_bytes=frame_bytes,
            on_pop=on_pop,
            deliver_to_caller=deliver_to_caller,
        )
        if tcb.stack is not None:
            # May raise StackOverflow: do it before any state changes.
            tcb.stack.push(
                frame_bytes,
                redzone_ok=kind in ("wrapper", "redirect", "handler-call"),
            )
        if tcb is self.current:
            self.world.windows.save()
        tcb.frames.push(frame)
        return frame

    def _frame_returned(self, tcb: Tcb, frame: Frame, value: Any) -> None:
        popped = tcb.frames.pop()
        if popped is not frame:
            raise PthreadsInternalError("frame stack corruption")
        if tcb.stack is not None:
            tcb.stack.pop(frame.frame_bytes)
        self.world.windows.restore()
        if frame.on_pop is not None:
            frame.on_pop(value)
        if not tcb.frames:
            # The start routine returned: implicit pthread_exit(value).
            self.thread_ops.finish_thread(tcb, value)
            return
        if frame.deliver_to_caller:
            tcb.frames.top.pending_value = value

    def _frame_raised(self, tcb: Tcb, frame: Frame, exc: BaseException) -> None:
        """A frame let a SimException escape: unwind into the caller."""
        popped = tcb.frames.pop()
        if popped is not frame:
            raise PthreadsInternalError("frame stack corruption")
        if tcb.stack is not None:
            tcb.stack.pop(frame.frame_bytes)
        self.world.windows.restore()
        if self.world.trace is not None:
            self.world.emit(
                "sim-exception",
                thread=tcb.name,
                frame=frame.name,
                exc=repr(exc),
            )
        if not tcb.frames:
            # Unhandled at the bottom: the thread terminates abnormally
            # (Ada: an unhandled exception completes the task).
            tcb.crashed_with = exc
            self.thread_ops.finish_thread(tcb, exc)
            return
        tcb.frames.top.pending_exc = exc

    # -- the universal signal handler -----------------------------------------------------

    def _universal_handler(
        self, sig: int, cause: SigCause, frame: InterruptFrame
    ) -> None:
        """Entry point for every UNIX signal delivered to the process;
        ``frame`` is the interrupt frame UNIX pushed for it."""
        if self.kern.kernel_flag:
            # Caught inside the library kernel: log it, request the
            # dispatcher, and return to the interruption point at once.
            self.kern.log_deferred(sig, cause)
            self.unix.sigreturn(self.proc, frame)
            self.world.emit("signal-deferred", sig=sig)
            return
        interrupted = self.current
        if interrupted is not None:
            # The handler frame stays pending on the interrupted
            # thread's stack until it is redispatched.
            interrupted.pending_interrupt_frames.append(frame)
        else:
            self.unix.sigreturn(self.proc, frame)
        self.kern.enter()
        # First of the two sigsetmask calls per received signal:
        # re-enable all signals now that the kernel flag protects us.
        self.unix.sigsetmask(self.proc, SigSet())
        self.sigdeliver.direct_signal(sig, cause)
        self.kern.request_dispatch()
        self.kern.leave()

    # -- shutdown ------------------------------------------------------------------------

    def process_default_action(self, sig: int) -> None:
        """A default-action signal terminates the whole process."""
        self.terminated_by = sig
        self.world.emit("process-terminated", sig=sig)

    def __repr__(self) -> str:
        return "PthreadsRuntime(model=%s, threads=%d, t=%.1fus)" % (
            self.world.model.name,
            len(self.threads),
            self.world.now_us,
        )
