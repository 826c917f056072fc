"""The public thread-code API: the ``pt`` facade.

Every simulated thread body receives a :class:`PT` as its first
argument and drives the library by yielding the ops it builds::

    def worker(pt, m, results):
        yield pt.work(1_000)                 # compute 1000 cycles
        err = yield pt.mutex_lock(m)
        results.append((yield pt.self_id()).name)
        yield pt.mutex_unlock(m)
        return 42                            # becomes the exit value

Methods mirror the Pthreads interface; each returns an *op descriptor*
-- nothing happens until the op is yielded.  Names drop the
``pthread_`` prefix (``pt.create``, ``pt.mutex_lock``, ...).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core import semaphore as _sem
from repro.sim.ops import Invoke, LibCall, SysCall, Work
from repro.unix.sigset import SigSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import PthreadsRuntime


#: Work ops are immutable and keyed only by their cycle count, so the
#: handful of distinct values a program uses are shared rather than
#: re-allocated on every yield (bounded in case a program generates
#: unboundedly many distinct burst lengths).
_WORK_CACHE: dict = {}
_WORK_CACHE_MAX = 1024


def _work_op(cycles: int) -> Work:
    op = _WORK_CACHE.get(cycles)
    if op is None:
        op = Work(cycles)
        if len(_WORK_CACHE) < _WORK_CACHE_MAX:
            _WORK_CACHE[cycles] = op
    return op


class PT:
    """Op builder handed to every simulated thread body."""

    __slots__ = ("runtime", "_self_op")

    def __init__(self, runtime: "PthreadsRuntime") -> None:
        self.runtime = runtime
        self._self_op = LibCall("self")

    # -- computation and structure ---------------------------------------------

    def work(self, cycles: int) -> Work:
        """Burn ``cycles`` of CPU (preemptible)."""
        return _work_op(cycles)

    def work_us(self, us: float) -> Work:
        """Burn ``us`` microseconds of CPU on this machine."""
        return _work_op(self.runtime.world.cycles_for_us(us))

    def charge(self, cost_key: str) -> Work:
        """Burn the model cost of a named primitive (library bodies)."""
        return _work_op(self.runtime.world.model.cost(cost_key))

    def call(self, fn: Callable, *args: Any, **kwargs: Any) -> Invoke:
        """Call ``fn(pt, *args)`` as a nested simulated frame."""
        return Invoke(fn, args, kwargs)

    def lib_raw(self, name: str, *args: Any, **kwargs: Any) -> LibCall:
        """Invoke a library entry point by name (escape hatch)."""
        return LibCall(name, args, kwargs)

    # -- thread management -----------------------------------------------------------

    def create(self, fn: Callable, *args: Any, **kwargs: Any) -> LibCall:
        """``pthread_create(fn, *args, attr=..., name=...)`` -> Tcb."""
        return LibCall("create", (fn,) + args, kwargs)

    def join(self, thread: Any) -> LibCall:
        """``pthread_join`` -> ``(err, exit_value)``."""
        return LibCall("join", (thread,))

    def detach(self, thread: Any) -> LibCall:
        return LibCall("detach", (thread,))

    def exit(self, value: Any = None) -> LibCall:
        return LibCall("exit", (value,))

    def self_id(self) -> LibCall:
        return self._self_op

    def equal(self, a: Any, b: Any) -> LibCall:
        return LibCall("equal", (a, b))

    def yield_(self) -> LibCall:
        return LibCall("yield")

    def setprio(self, thread: Any, priority: int) -> LibCall:
        return LibCall("setprio", (thread, priority))

    def getprio(self, thread: Any) -> LibCall:
        return LibCall("getprio", (thread,))

    def setschedparam(
        self, thread: Any, policy: Optional[str], priority: int
    ) -> LibCall:
        return LibCall("setschedparam", (thread, policy, priority))

    def getschedparam(self, thread: Any) -> LibCall:
        return LibCall("getschedparam", (thread,))

    def activate(self, thread: Any) -> LibCall:
        """Activate a lazily created thread (extension)."""
        return LibCall("activate", (thread,))

    def set_errno(self, value: int) -> LibCall:
        """Write the calling thread's errno (the UNIX global while
        running; saved/restored by the dispatcher)."""
        return LibCall("set_errno", (value,))

    def get_errno(self) -> LibCall:
        return LibCall("get_errno")

    # -- mutexes ------------------------------------------------------------------------

    def mutex_init(self, attr: Any = None) -> LibCall:
        return LibCall("mutex_init", (attr,))

    def mutex_destroy(self, mutex: Any) -> LibCall:
        return LibCall("mutex_destroy", (mutex,))

    def mutex_lock(self, mutex: Any) -> LibCall:
        # Ops are immutable, so one per mutex is shared across calls;
        # the segment cache additionally relies on the identity to
        # match replayed ops with a single ``is``.
        try:
            return mutex._seg_lock_op
        except AttributeError:
            op = LibCall("mutex_lock", (mutex,))
            try:
                mutex._seg_lock_op = op
            except (AttributeError, TypeError):
                pass
            return op

    def mutex_trylock(self, mutex: Any) -> LibCall:
        return LibCall("mutex_trylock", (mutex,))

    def mutex_unlock(self, mutex: Any) -> LibCall:
        try:
            return mutex._seg_unlock_op
        except AttributeError:
            op = LibCall("mutex_unlock", (mutex,))
            try:
                mutex._seg_unlock_op = op
            except (AttributeError, TypeError):
                pass
            return op

    def mutex_setprioceiling(self, mutex: Any, ceiling: int) -> LibCall:
        return LibCall("mutex_setprioceiling", (mutex, ceiling))

    def mutex_getprioceiling(self, mutex: Any) -> LibCall:
        return LibCall("mutex_getprioceiling", (mutex,))

    # -- condition variables ---------------------------------------------------------------

    def cond_init(self, attr: Any = None) -> LibCall:
        return LibCall("cond_init", (attr,))

    def cond_destroy(self, cond: Any) -> LibCall:
        return LibCall("cond_destroy", (cond,))

    def cond_wait(self, cond: Any, mutex: Any) -> LibCall:
        return LibCall("cond_wait", (cond, mutex))

    def cond_timedwait(self, cond: Any, mutex: Any, timeout_us: float) -> LibCall:
        return LibCall("cond_timedwait", (cond, mutex, timeout_us))

    def cond_signal(self, cond: Any) -> LibCall:
        try:
            return cond._seg_signal_op
        except AttributeError:
            op = LibCall("cond_signal", (cond,))
            try:
                cond._seg_signal_op = op
            except (AttributeError, TypeError):
                pass
            return op

    def cond_broadcast(self, cond: Any) -> LibCall:
        return LibCall("cond_broadcast", (cond,))

    # -- semaphores (built on mutex + cond, paper ref [17]) -------------------------------------

    def sem_init(self, value: int = 0, name: Optional[str] = None) -> LibCall:
        return LibCall("sem_init", (value, name))

    def sem_destroy(self, sem: Any) -> LibCall:
        return LibCall("sem_destroy", (sem,))

    def sem_wait(self, sem: Any) -> Invoke:
        """Dijkstra P (may suspend)."""
        return Invoke(_sem.sem_wait_body, (sem,))

    def sem_post(self, sem: Any) -> Invoke:
        """Dijkstra V."""
        return Invoke(_sem.sem_post_body, (sem,))

    def sem_trywait(self, sem: Any) -> LibCall:
        return LibCall("sem_trywait", (sem,))

    def sem_getvalue(self, sem: Any) -> LibCall:
        return LibCall("sem_getvalue", (sem,))

    # -- reader-writer locks and barriers (compositions, like semaphores) ------------------------

    def rwlock_init(self, name: Optional[str] = None) -> LibCall:
        return LibCall("rwlock_init", (name,))

    def rwlock_rdlock(self, rwlock: Any) -> Invoke:
        from repro.core import rwlock as _rw

        return Invoke(_rw.rdlock_body, (rwlock,))

    def rwlock_wrlock(self, rwlock: Any) -> Invoke:
        from repro.core import rwlock as _rw

        return Invoke(_rw.wrlock_body, (rwlock,))

    def rwlock_unlock(self, rwlock: Any) -> Invoke:
        from repro.core import rwlock as _rw

        return Invoke(_rw.unlock_body, (rwlock,))

    def barrier_init(self, count: int, name: Optional[str] = None) -> LibCall:
        return LibCall("barrier_init", (count, name))

    def barrier_wait(self, barrier: Any) -> Invoke:
        from repro.core import barrier as _barrier

        return Invoke(_barrier.barrier_wait_body, (barrier,))

    # -- signals --------------------------------------------------------------------------------

    def sigaction(
        self, sig: int, handler: Any, mask: Optional[SigSet] = None
    ) -> LibCall:
        return LibCall("sigaction", (sig, handler, mask))

    def sigmask(self, how: str, signals: Optional[SigSet] = None) -> LibCall:
        return LibCall("sigmask", (how, signals))

    def kill(self, thread: Any, sig: int) -> LibCall:
        """``pthread_kill``: library-internal signal to a thread."""
        return LibCall("kill", (thread, sig))

    def sigwait(self, signals: SigSet) -> LibCall:
        return LibCall("sigwait", (signals,))

    def thread_sigpending(self) -> LibCall:
        return LibCall("thread_sigpending")

    def sig_redirect(self, fn: Callable, *args: Any) -> LibCall:
        """From a handler: divert control to ``fn`` after it returns."""
        return LibCall("sig_redirect", (fn,) + args)

    # -- cancellation -----------------------------------------------------------------------------

    def cancel(self, thread: Any) -> LibCall:
        return LibCall("cancel", (thread,))

    def setintr(self, state: str) -> LibCall:
        return LibCall("setintr", (state,))

    def setintrtype(self, intr_type: str) -> LibCall:
        return LibCall("setintrtype", (intr_type,))

    def testintr(self) -> LibCall:
        return LibCall("testintr")

    # -- cleanup, TSD, once ----------------------------------------------------------------------------

    def cleanup_push(self, handler: Callable, arg: Any = None) -> LibCall:
        return LibCall("cleanup_push", (handler, arg))

    def cleanup_pop(self, execute: bool = False) -> LibCall:
        return LibCall("cleanup_pop", (execute,))

    def key_create(self, destructor: Optional[Callable] = None) -> LibCall:
        return LibCall("key_create", (destructor,))

    def key_delete(self, key: int) -> LibCall:
        return LibCall("key_delete", (key,))

    def setspecific(self, key: int, value: Any) -> LibCall:
        return LibCall("setspecific", (key, value))

    def getspecific(self, key: int) -> LibCall:
        return LibCall("getspecific", (key,))

    def once(self, once_control: Any, init_routine: Callable) -> LibCall:
        return LibCall("once", (once_control, init_routine))

    # -- time and I/O ------------------------------------------------------------------------------------

    def delay_us(self, us: float) -> LibCall:
        """Suspend the calling thread for ``us`` microseconds."""
        return LibCall("delay_us", (us,))

    def read(self, fd: int, nbytes: int, device: str = "disk0") -> LibCall:
        return LibCall("read", (fd, nbytes), {"device": device})

    def write(self, fd: int, nbytes: int, device: str = "disk0") -> LibCall:
        return LibCall("write", (fd, nbytes), {"device": device})

    # -- sockets (the simulated network stack; see repro.core.netlib) -------------------------------------

    def socket(self) -> LibCall:
        """A new socket fd (-1 when no network stack is attached)."""
        return LibCall("socket")

    def bind(self, fd: int, port: int) -> LibCall:
        """Bind a socket to a port -> err."""
        return LibCall("bind", (fd, port))

    def listen(self, fd: int, backlog: int = 8) -> LibCall:
        """Start listening -> err."""
        return LibCall("listen", (fd, backlog))

    def accept(self, fd: int) -> LibCall:
        """Block for a connection -> ``(err, conn_fd)``."""
        return LibCall("accept", (fd,))

    def connect(self, fd: int, port: int) -> LibCall:
        """Connect to a listening port -> ``(err, fd)``."""
        return LibCall("connect", (fd, port))

    def send(self, fd: int, nbytes: int) -> LibCall:
        """Send a message -> ``(err, nbytes)``; blocks on backpressure."""
        return LibCall("send", (fd, nbytes))

    def recv(self, fd: int) -> LibCall:
        """Receive one message -> ``(err, msg_or_None)`` (None = EOF)."""
        return LibCall("recv", (fd,))

    def select(
        self, fds: Any, timeout_us: Optional[float] = None
    ) -> LibCall:
        """Wait for readiness on any of ``fds`` -> ``(err, ready_fds)``."""
        return LibCall("select", (list(fds),), {"timeout_us": timeout_us})

    def close(self, fd: int) -> LibCall:
        """Close a descriptor (socket, epoll, or device mapping) -> err."""
        return LibCall("net_close", (fd,))

    def epoll_create(self) -> LibCall:
        """A new epoll interest-list fd (-1 when no network stack)."""
        return LibCall("epoll_create")

    def epoll_ctl(self, epfd: int, op: str, fd: int) -> LibCall:
        """Register (``"add"``) / deregister (``"del"``) ``fd`` -> err."""
        return LibCall("epoll_ctl", (epfd, op, fd))

    def epoll_wait(
        self,
        epfd: int,
        maxevents: Optional[int] = None,
        timeout_us: Optional[float] = None,
    ) -> LibCall:
        """Wait for readiness on the interest list -> ``(err, ready_fds)``.

        O(ready), not O(registered): the kernel pushes readiness edges
        to the interest list, so a wakeup never probes idle fds."""
        return LibCall(
            "epoll_wait", (epfd,),
            {"maxevents": maxevents, "timeout_us": timeout_us},
        )

    # -- jumps ----------------------------------------------------------------------------------------------

    def jmp_buf(self) -> LibCall:
        return LibCall("jmp_buf_new")

    def setjmp_block(self, buf: Any, fn: Callable, *args: Any) -> LibCall:
        """Run ``fn`` under ``buf``; returns ``(jumped, value)``."""
        return LibCall("setjmp_block", (buf, fn) + args)

    def longjmp(self, buf: Any, value: Any = 1) -> LibCall:
        return LibCall("longjmp", (buf, value))

    # -- raw UNIX access (benchmarks, comparisons) ----------------------------------------------------------------

    def unix_getpid(self) -> SysCall:
        """A raw ``getpid`` -- Table 2's UNIX-kernel yardstick."""
        return SysCall("getpid")

    def raise_fault(self, sig: int) -> SysCall:
        """Cause a synchronous fault (SIGSEGV, SIGFPE, ...) right here."""
        return SysCall("raise", (sig,))

    def __repr__(self) -> str:
        return "PT(%r)" % (self.runtime,)
