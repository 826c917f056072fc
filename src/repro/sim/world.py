"""The simulated world: one machine's clock, CPU model, and event queue.

Every run of the reproduction happens inside a :class:`World`.  The
world owns the virtual clock, the CPU cost model (which SPARC we are
pretending to be), the register-window file, the asynchronous event
queue, the deterministic RNG, and a trace sink.  The UNIX kernel and the
Pthreads library are built on top of one world.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

from repro.hw.clock import IDLE, VirtualClock
from repro.hw.costs import SPARC_IPX, CostModel, cost_model
from repro.hw.registers import RegisterWindows
from repro.sim.events import Event, EventQueue
from repro.sim.rng import DeterministicRng


class DeadlockError(Exception):
    """No runnable activity and no pending events: time cannot advance."""


class World:
    """A single simulated machine.

    Parameters
    ----------
    model:
        CPU cost model or its name ("sparc-1+" / "sparc-ipx").
        Defaults to the SPARC IPX, the faster machine of Table 2.
    seed:
        Seed for the world's deterministic RNG.
    trace:
        Optional trace sink with an ``emit(kind, **fields)`` method
        (see :class:`repro.debug.trace.Tracer`).
    ncpus:
        Number of simulated processors.  1 (the default) is the
        paper's machine: no SMP extension is attached and the world is
        bit-identical to the single-CPU simulator.  Higher values grow
        a :class:`repro.sim.smp.SmpExtension` on ``self.smp`` -- per-
        CPU clocks/run queues, a shared cache directory, and IPI-based
        cross-CPU signal delivery.
    cpus_per_chip:
        Coherence topology: CPUs on the same chip transfer cache lines
        at the near rate, cross-chip at the far rate (see docs/SMP.md).
    """

    def __init__(
        self,
        model: Union[str, CostModel] = SPARC_IPX,
        seed: int = 0,
        trace: Optional[object] = None,
        ncpus: int = 1,
        cpus_per_chip: int = 16,
    ) -> None:
        if isinstance(model, str):
            model = cost_model(model)
        if ncpus < 1:
            raise ValueError("need at least one CPU: %r" % ncpus)
        self.model = model
        self.clock = VirtualClock()
        self.events = EventQueue()
        self.rng = DeterministicRng(seed)
        self.windows = RegisterWindows(self.clock, model)
        self.trace = trace
        #: Schedule-exploration choice source (see ``repro.check``).
        #: None in ordinary runs; when set, interruption sources ask it
        #: which of several legal behaviours to take via :meth:`choose`.
        self.choices = None
        self._defer_depth = 0
        self._firing = False
        #: Flat cost table (defaults + model overrides), indexed without
        #: the two-stage :meth:`CostModel.cost` lookup on the hot path.
        self._costs = model.table()
        #: SMP extension; None on the (default) uniprocessor, where
        #: every hot path must stay byte-for-byte what it always was.
        self.smp = None
        if ncpus > 1:
            from repro.sim.smp import SmpExtension

            self.smp = SmpExtension(self, ncpus, cpus_per_chip=cpus_per_chip)

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current virtual time in cycles."""
        return self.clock.cycles

    @property
    def now_us(self) -> float:
        """Current virtual time in microseconds."""
        return self.model.us(self.clock.cycles)

    def us(self, cycles: int) -> float:
        return self.model.us(cycles)

    def cycles_for_us(self, us: float) -> int:
        return self.model.cycles_for_us(us)

    # -- schedule exploration ----------------------------------------------

    def choose(self, options: int, tag: str = "") -> int:
        """Pick one of ``options`` legal behaviours at a choice point.

        Returns 0 (the default behaviour) in ordinary runs; under the
        ``repro.check`` explorer, the attached choice source scripts or
        enumerates the decision.  Costs nothing in virtual time.
        """
        if options <= 1 or self.choices is None:
            return 0
        return self.choices.choose(options, tag)

    # -- spending cycles ---------------------------------------------------

    def spend(self, key: str, times: int = 1) -> None:
        """Charge primitive or cost path ``key`` (``times`` occurrences).

        Only charges: no event fires here, even one the charge makes
        due.  Due events fire where the library decides an interruption
        may land -- at kernel enter/leave (``UnixKernel._enter``,
        ``LibKernel``), inside compute bursts (``_do_work``) and at the
        explicit :meth:`fire_due` calls -- so a charge never runs
        asynchronous code in the middle of a library code path.

        The clock advance is inlined (identically to
        :meth:`VirtualClock.advance`, ``key`` handed to the watcher):
        this method runs several times per executor step.  Library
        code charges every keyed cost here, watched clock or not, so a
        profiled run executes the same library code as an unprofiled
        one.
        """
        cycles = self._costs[key] * times
        if cycles > 0:
            clock = self.clock
            before = clock.cycles
            clock.cycles = after = before + cycles
            if clock._watcher is not None:
                clock._watcher(before, after, key)
        elif cycles < 0:
            raise ValueError("cannot advance clock backwards: %r" % (cycles,))

    def spend_cycles(self, cycles: int, fire: bool = True) -> None:
        """Charge a raw cycle amount (no cost key)."""
        clock = self.clock
        if cycles > 0:
            before = clock.cycles
            clock.cycles = after = before + cycles
            if clock._watcher is not None:
                clock._watcher(before, after, None)
        elif cycles < 0:
            raise ValueError("cannot advance clock backwards: %r" % (cycles,))
        if fire:
            horizon = self.events._horizon
            if horizon is not None and horizon <= clock.cycles:
                self.fire_due()

    # -- events ------------------------------------------------------------

    def schedule_at(self, time: int, action, name: str = "event") -> Event:
        """Schedule ``action`` at absolute cycle ``time``."""
        return self.events.schedule(max(time, self.clock.cycles), action, name)

    def schedule_in(self, cycles: int, action, name: str = "event") -> Event:
        """Schedule ``action`` ``cycles`` from now."""
        if cycles < 0:
            raise ValueError("cannot schedule in the past: %r" % cycles)
        return self.events.schedule(self.clock.cycles + cycles, action, name)

    def post_in(self, cycles: int, fn, arg, name: str = "event") -> None:
        """Post the callout ``fn(arg)`` ``cycles`` from now (no handle;
        see :meth:`EventQueue.post`)."""
        if cycles < 0:
            raise ValueError("cannot schedule in the past: %r" % cycles)
        self.events.post(self.clock.cycles + cycles, fn, arg, name)

    def fire_due(self) -> int:
        """Fire every event due at the current instant.

        A no-op inside an :meth:`atomic` section; the events fire at
        the first ``fire_due`` after the section ends.  Also
        non-reentrant: an event action whose work makes further events
        due does not recurse -- the enclosing drain loop picks them up
        (otherwise a timer with a period shorter than its handler would
        recurse without bound).
        """
        now = self.clock.cycles
        horizon = self.events._horizon
        if horizon is None or horizon > now:
            return 0  # nothing can be due (the horizon is exact)
        if self._defer_depth or self._firing:
            return 0
        self._firing = True
        try:
            return self.events.fire_due(now)
        finally:
            self._firing = False

    @contextmanager
    def atomic(self) -> Iterator[None]:
        """Suppress event firing for the duration (context-switch code).

        Models the short uninterruptible stretch of a real context
        switch: time still advances, but deliveries land after the
        switch completes -- interrupting the *new* thread, as on the
        real machine.
        """
        self._defer_depth += 1
        try:
            yield
        finally:
            self._defer_depth -= 1

    def next_event_time(self) -> Optional[int]:
        return self.events.next_time()

    def advance_to_next_event(self) -> None:
        """Idle the CPU until the next event, then fire it.

        Raises :class:`DeadlockError` when nothing is pending -- the
        simulated machine would sit idle forever.
        """
        when = self.events.next_time()
        if when is None:
            raise DeadlockError(
                "system is idle with no pending events at t=%d cycles"
                % self.now
            )
        self.clock.advance_to(max(when, self.now), IDLE)
        self.fire_due()

    # -- snapshot integrity --------------------------------------------------

    def state_digest(self) -> str:
        """A stable hash of the world's observable state.

        Two worlds that would behave identically from here on (same
        clock, same RNG stream position, same pending events, same
        register-window wear) produce the same digest.  The fleet layer
        (:mod:`repro.fleet`) compares digests between a resumed
        snapshot and a replay-from-scratch run to prove the snapshot
        path is exact.
        """
        import hashlib

        parts = (
            self.model.name,
            str(self.clock.cycles),
            repr(self.rng.getstate()),
            repr(self.events.signature()),
            "%d/%d/%d"
            % (
                self.windows.flush_traps,
                self.windows.underflow_traps,
                self.windows.overflow_traps,
            ),
        )
        if self.smp is not None:
            parts = parts + (repr(self.smp.signature()),)
        return hashlib.sha1("|".join(parts).encode("utf-8")).hexdigest()

    # -- tracing -------------------------------------------------------------

    def emit(self, kind: str, **fields) -> None:
        """Emit a trace record if tracing is enabled."""
        if self.trace is not None:
            self.trace.emit(kind, **fields)

    def __repr__(self) -> str:
        return "World(model=%s, t=%d cycles)" % (self.model.name, self.now)
