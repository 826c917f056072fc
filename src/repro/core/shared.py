"""Cross-process shared mutexes (the paper's Future Work, sketched).

"The current status of the implementation still lacks shared mutexes
and condition variables which can be used across processes.  Such
objects could either be implemented on top of existing interprocess
communication primitives or by allocating a mutex object in a shared
data space.  The latter approach should achieve better performance."

This module implements the *shared data space* variant over the mini
UNIX process world: a :class:`SharedArena` models a segment mapped by
several processes; a :class:`SharedMutex` keeps its ``ldstub`` byte
there, so the uncontended path costs the same Figure 4 sequence with
no kernel involvement.  Contention falls back to the IPC primitives
the paper names: the waiter ``pause()``s and the unlocker ``kill()``s
it awake.  Exactly as the paper predicts, *protocols* (priority
inheritance across processes) are not attempted -- the two libraries
would have to communicate -- and this limitation is documented rather
than papered over.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.hw import costs
from repro.hw.atomic import AtomicCell
from repro.sim.world import World
from repro.unix import process as uproc
from repro.unix.sigset import SIGUSR2

_arena_ids = itertools.count(1)
_shared_ids = itertools.count(1)

#: The signal shared mutexes use to wake a paused waiter.
WAKE_SIGNAL = SIGUSR2


class SharedArena:
    """A shared memory segment mapped into several processes."""

    def __init__(self, world: World, size: int = 4096) -> None:
        self.arena_id = next(_arena_ids)
        self.world = world
        self.size = size
        self.used = 0
        self.attached_pids: List[int] = []

    def attach(self, proc: uproc.UnixProcess) -> None:
        """Map the segment into ``proc`` (mmap-ish; one syscall)."""
        proc.kernel._enter("shmat")
        if proc.pid not in self.attached_pids:
            self.attached_pids.append(proc.pid)

    def allocate(self, nbytes: int) -> int:
        if self.used + nbytes > self.size:
            raise MemoryError("shared arena exhausted")
        offset = self.used
        self.used += nbytes
        return offset


class SharedMutex:
    """A mutex living in a shared data space.

    The lock byte and waiter list are "in" the arena; ownership is a
    pid (there is no cross-process notion of a thread here, matching
    the paper's process-level framing).
    """

    def __init__(self, arena: SharedArena, name: Optional[str] = None):
        self.sid = next(_shared_ids)
        self.name = name or "shared-mutex-%d" % self.sid
        self.arena = arena
        self.offset = arena.allocate(16)
        self.cell = AtomicCell(0)
        self.owner_pid: Optional[int] = None
        self.waiter_pids: List[int] = []
        self.acquisitions = 0
        self.contentions = 0

    @property
    def locked(self) -> bool:
        return self.cell.value != 0

    def __repr__(self) -> str:
        return "SharedMutex(%s, owner_pid=%s, waiters=%d)" % (
            self.name, self.owner_pid, len(self.waiter_pids),
        )


def shared_mutex_lock(mutex: SharedMutex, proc: uproc.UnixProcess):
    """Process-body generator: acquire a shared mutex.

    Uncontended: the Figure 4 atomic sequence against shared memory,
    zero syscalls.  Contended: register as a waiter and ``pause()``
    until the unlocker's ``kill()`` (the IPC fallback).
    """
    if proc.pid not in mutex.arena.attached_pids:
        raise RuntimeError(
            "process %d has not attached %s's arena"
            % (proc.pid, mutex.name)
        )
    world = mutex.arena.world
    while True:
        world.spend(costs.MUTEX_FAST_LOCK)
        old = mutex.cell.value
        mutex.cell.value = 0xFF  # ldstub on the shared byte
        if old == 0:
            mutex.owner_pid = proc.pid
            mutex.acquisitions += 1
            return
        mutex.contentions += 1
        mutex.waiter_pids.append(proc.pid)
        yield uproc.pause()


def shared_mutex_unlock(mutex: SharedMutex, proc: uproc.UnixProcess):
    """Process-body generator: release a shared mutex.

    Clears the shared byte, then wakes the oldest waiter through
    ``kill`` -- the only kernel involvement, and only under contention.
    """
    if mutex.owner_pid != proc.pid:
        raise RuntimeError(
            "process %d unlocking %s owned by %s"
            % (proc.pid, mutex.name, mutex.owner_pid)
        )
    world = mutex.arena.world
    world.spend(costs.MUTEX_FAST_UNLOCK)
    mutex.owner_pid = None
    mutex.cell.value = 0
    if mutex.waiter_pids:
        waiter = mutex.waiter_pids.pop(0)
        yield uproc.kill(waiter, WAKE_SIGNAL)
    return
