"""A miniature UNIX multi-process world.

Table 2 compares thread context switches against *process* context
switches, measured by "timing the execution of two alternating
processes which activate each other by exchanging signals".  This
module provides just enough process machinery to run that experiment
honestly: processes with generator bodies, a round-robin kernel
scheduler charging the full process-switch cost, ``pause``/``kill``
syscalls, and ordinary (auto-return) signal handlers.

It is deliberately independent of the Pthreads library: the library's
host process lives in :mod:`repro.core.runtime` instead.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Deque, Generator, Optional

from repro.hw import costs
from repro.sim.frames import Frame, ProgramCrash
from repro.sim.ops import SysCall, Work
from repro.sim.world import World
from repro.unix.kernel import UnixKernel
from repro.unix.signals import ProcessSignals


class ProcState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    SLEEPING = "sleeping"  # blocked in pause()
    ZOMBIE = "zombie"


# -- ops available to process bodies ------------------------------------------


def work(cycles: int) -> Work:
    """Compute for ``cycles``."""
    return Work(cycles)


def pause() -> SysCall:
    """Block until a signal is delivered (``pause(2)``)."""
    return SysCall("pause")


def kill(pid: int, sig: int) -> SysCall:
    """Send ``sig`` to process ``pid``."""
    return SysCall("kill", (pid, sig))


def getpid() -> SysCall:
    return SysCall("getpid")


def exit_(code: int = 0) -> SysCall:
    """Terminate the process."""
    return SysCall("exit", (code,))


ProcBody = Callable[..., Generator[Any, Any, Any]]


class UnixProcess:
    """One simulated UNIX process."""

    def __init__(
        self,
        kernel: UnixKernel,
        body: Optional[ProcBody] = None,
        name: str = "proc",
        args: tuple = (),
    ) -> None:
        self.kernel = kernel
        self.name = name
        self.signals = ProcessSignals()
        self.auto_deliver = False
        self.state = ProcState.READY
        self.exit_code: Optional[int] = None
        self.frame: Optional[Frame] = None
        if body is not None:
            self.frame = Frame(body(*args), name=name, kind="user")
        self.pid = kernel.register(self)
        #: cycles this process has held the CPU (for the benchmarks)
        self.cpu_cycles = 0

    @property
    def alive(self) -> bool:
        return self.state is not ProcState.ZOMBIE

    def __repr__(self) -> str:
        return "UnixProcess(pid=%d, %s, %s)" % (
            self.pid,
            self.name,
            self.state.value,
        )


class UnixScheduler:
    """Round-robin kernel scheduler over :class:`UnixProcess` bodies.

    Runs each process until it blocks (``pause``) or exits; a context
    switch between two distinct processes charges the full
    ``proc_switch`` cost.  Signals posted to a non-current process are
    delivered when it is next dispatched, as the real kernel does on the
    return-to-user path.
    """

    def __init__(self, world: World, kernel: UnixKernel) -> None:
        self.world = world
        self.kernel = kernel
        self._ready: Deque[UnixProcess] = deque()
        self._last_running: Optional[UnixProcess] = None
        self.process_switches = 0

    def add(self, proc: UnixProcess) -> None:
        if proc.state is not ProcState.READY:
            raise ValueError("cannot enqueue %r" % proc)
        self._ready.append(proc)

    def wake(self, proc: UnixProcess) -> None:
        if proc.state is ProcState.SLEEPING:
            proc.state = ProcState.READY
            self._ready.append(proc)

    # -- main loop -----------------------------------------------------------

    def run(self, max_switches: Optional[int] = None) -> None:
        """Run until every process exits or blocks forever.

        ``max_switches`` bounds context switches (benchmark use).
        """
        while True:
            proc = self._pick()
            if proc is None:
                if self._any_sleeper():
                    # Idle until an event (e.g. a timer) wakes someone.
                    self.world.advance_to_next_event()
                    self._wake_signalled()
                    continue
                return
            if max_switches is not None and (
                self.process_switches >= max_switches
            ):
                self._ready.appendleft(proc)
                return
            self._dispatch(proc)

    def _pick(self) -> Optional[UnixProcess]:
        while self._ready:
            proc = self._ready.popleft()
            if proc.alive:
                return proc
        return None

    def _any_sleeper(self) -> bool:
        return any(
            p.state is ProcState.SLEEPING
            for p in self.kernel.processes.values()
            if isinstance(p, UnixProcess)
        )

    def _wake_signalled(self) -> None:
        for p in self.kernel.processes.values():
            if (
                isinstance(p, UnixProcess)
                and p.state is ProcState.SLEEPING
                and p.signals.has_deliverable()
            ):
                self.wake(p)

    def _dispatch(self, proc: UnixProcess) -> None:
        if self._last_running is not None and self._last_running is not proc:
            self.process_switches += 1
            self.world.spend(costs.PROC_SWITCH)
        self._last_running = proc
        proc.state = ProcState.RUNNING
        self.kernel.current_proc = proc
        self.kernel.deliver_signals(proc)  # return-to-user delivery point
        self._run_until_block(proc)
        self.kernel.current_proc = None

    def _run_until_block(self, proc: UnixProcess) -> None:
        frame = proc.frame
        if frame is None:
            proc.state = ProcState.ZOMBIE
            return
        while proc.state is ProcState.RUNNING:
            start = self.world.now
            kind, payload = frame.resume()
            if kind == "return":
                proc.state = ProcState.ZOMBIE
                proc.exit_code = 0
                return
            op = payload
            if isinstance(op, Work):
                self.world.spend_cycles(op.cycles)
                frame.pending_value = None
            elif isinstance(op, SysCall):
                self._do_syscall(proc, frame, op)
            else:
                raise ProgramCrash(
                    proc.name, TypeError("bad process op: %r" % (op,))
                )
            proc.cpu_cycles += self.world.now - start

    def _do_syscall(self, proc: UnixProcess, frame: Frame, op: SysCall) -> None:
        if op.name == "pause":
            self.kernel._enter("pause")
            if proc.signals.has_deliverable():
                # A signal is already waiting: pause returns immediately
                # after its delivery.
                self.kernel.deliver_signals(proc)
                frame.pending_value = None
                return
            proc.state = ProcState.SLEEPING
            frame.pending_value = None
        elif op.name == "kill":
            pid, sig = op.args
            target = self.kernel.find(pid)
            self.kernel.kill(target, sig)
            if isinstance(target, UnixProcess):
                self.wake(target)
            frame.pending_value = 0
        elif op.name == "getpid":
            frame.pending_value = self.kernel.getpid(proc)
        elif op.name == "exit":
            proc.state = ProcState.ZOMBIE
            proc.exit_code = op.args[0] if op.args else 0
        else:
            raise ValueError("unknown process syscall: %r" % (op.name,))
