"""Cycle cost models for the simulated CPUs.

The paper evaluates its library on two machines: a Sun SPARC 1+
(25 MHz) and a Sun SPARC IPX (40 MHz).  This module is the *only*
calibration surface of the reproduction: every primitive operation in
the simulator charges one of the named costs below, and the two model
tables are tuned so that the code paths of the library reproduce the
paper's Table 2 "Ours" columns.  The structure of each metric (which
primitives execute, how many times) is fixed by the library code itself
-- only the primitive magnitudes live here.

Cost keys are module-level string constants so that typos fail loudly:
:meth:`CostModel.cost` raises ``KeyError`` for unknown keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Mapping, Tuple

# ---------------------------------------------------------------------------
# Cost keys.  Grouped by subsystem; each is charged by exactly the code
# path named in the comment.
# ---------------------------------------------------------------------------

# Raw instruction-level primitives.
INSN = "insn"  # one ordinary instruction
CALL = "call"  # call + register-window save
RET = "ret"  # ret + restore
LDSTUB = "ldstub"  # atomic load-store-unsigned-byte (test-and-set)
CAS = "cas"  # hypothetical compare-and-swap (paper's proposal)

# Register-window traps (dominate context-switch time on SPARC).
# The heavy pair is what a context switch pays: ST_FLUSH_WINDOWS spills
# *all* active windows, and the incoming thread's working set must be
# refilled (charged once at switch-in).  The light pair is the ordinary
# call-path single-window spill/fill.
FLUSH_WINDOWS_TRAP = "flush_windows_trap"  # ST_FLUSH_WINDOWS kernel trap
WINDOW_UNDERFLOW_TRAP = "window_underflow_trap"  # bulk refill at switch-in
WINDOW_OVERFLOW_TRAP = "window_overflow_trap"  # single-window spill (save)
WINDOW_FILL_TRAP = "window_fill_trap"  # single-window fill (restore)
WINDOW_REGS = "window_regs"  # moving ins/outs/locals on a switch

# UNIX kernel interface.
SYSCALL = "syscall"  # enter + exit the UNIX kernel
GETPID_WORK = "getpid_work"  # in-kernel work of getpid
SIGSETMASK_WORK = "sigsetmask_work"  # in-kernel work of sigsetmask
SIGACTION_WORK = "sigaction_work"
SETITIMER_WORK = "setitimer_work"
KILL_WORK = "kill_work"  # in-kernel signal generation
SBRK_WORK = "sbrk_work"  # in-kernel heap extension
UNIX_SIGNAL_DELIVER = "unix_signal_deliver"  # push interrupt frame, run handler
UNIX_SIGRETURN = "unix_sigreturn"  # pop interrupt frame, restore global state
PROC_SWITCH = "proc_switch"  # full UNIX process context switch

# Simulated networking (charged by the unix/net.py socket services).
SOCKET_WORK = "socket_work"  # in-kernel work of socket()
BIND_WORK = "bind_work"  # bind/listen bookkeeping
ACCEPT_WORK = "accept_work"  # dequeue one connection from the accept queue
CONNECT_WORK = "connect_work"  # connection setup bookkeeping
SEND_WORK = "send_work"  # copy into the socket tx path
RECV_WORK = "recv_work"  # copy out of the socket rx buffer
SELECT_WORK = "select_work"  # select/poll fixed entry cost
SELECT_PER_FD = "select_per_fd"  # per-descriptor readiness probe
NET_DELIVER = "net_deliver"  # in-kernel packet arrival bookkeeping
# Epoll-style interest lists: the kernel keeps the registration, so a
# wait scans only the ready set (O(ready)) instead of probing every
# watched descriptor (select's O(n) SELECT_PER_FD loop).
EPOLL_WORK = "epoll_work"  # epoll_create: allocate the interest list
EPOLL_CTL_WORK = "epoll_ctl_work"  # add/remove one registration
EPOLL_WAIT_WORK = "epoll_wait_work"  # epoll_wait fixed entry cost
EPOLL_PER_READY = "epoll_per_ready"  # per *ready* descriptor reported

# Memory allocation.
HEAP_ALLOC = "heap_alloc"  # malloc-level allocation (no sbrk)
HEAP_FREE = "heap_free"
POOL_POP = "pool_pop"  # take a pre-cached TCB/stack from the pool
POOL_PUSH = "pool_push"
# A cache-missed stack is cold memory: the first pushes onto it take
# zero-fill page faults (~50-90us each on SunOS 4.x SPARCstations, per
# contemporary lmbench-style measurements), a handful of pages for a
# 64KB stack's initial working set.  Cached stacks are resident -- not
# re-faulting them is exactly why the library keeps the TCB/stack
# cache -- so this is charged only on the miss path.
STACK_FAULT_IN = "stack_fault_in"
TCB_INIT = "tcb_init"  # initialise a thread control block
STACK_SETUP = "stack_setup"  # prepare a fresh thread stack

# Pthreads library kernel (the monolithic monitor).
ENTER_KERNEL = "enter_kernel"  # set the kernel flag, bookkeeping
LEAVE_KERNEL = "leave_kernel"  # clear flag / check dispatcher flag
DISPATCH_SELECT = "dispatch_select"  # pick the next ready thread
DISPATCH_OVERHEAD = "dispatch_overhead"  # flag clears, deferred-signal check
READY_ENQUEUE = "ready_enqueue"
READY_DEQUEUE = "ready_dequeue"
ERRNO_SWITCH = "errno_switch"  # save/restore UNIX errno across a switch

# Synchronization.
MUTEX_FAST_LOCK = "mutex_fast_lock"  # Figure 4 atomic sequence + checks
MUTEX_FAST_UNLOCK = "mutex_fast_unlock"
MUTEX_SLOW_EXTRA = "mutex_slow_extra"  # blocking path bookkeeping
MUTEX_TRANSFER = "mutex_transfer"  # hand mutex to highest-prio waiter
PROTOCOL_CHECK = "protocol_check"  # mutex attribute / protocol dispatch
PRIO_ADJUST = "prio_adjust"  # inheritance/ceiling priority move
COND_WAIT_SETUP = "cond_wait_setup"  # enqueue on condvar, atomic unlock
COND_SIGNAL_WORK = "cond_signal_work"  # pick highest-prio waiter, ready it
SEM_OVERHEAD = "sem_overhead"  # semaphore layer on mutex+cond

# Signals at the Pthreads level.
SIG_RECIPIENT_RULES = "sig_recipient_rules"  # 6-rule delivery-model walk
SIG_ACTION_RULES = "sig_action_rules"  # 7-rule action selection
FAKE_CALL_SETUP = "fake_call_setup"  # push wrapper frame, fix pc/sp
WRAPPER_OVERHEAD = "wrapper_overhead"  # errno save, mutex reacquire checks
SIG_LOG_IN_KERNEL = "sig_log_in_kernel"  # record a deferred signal
SIG_MASK_OP = "sig_mask_op"  # per-thread mask manipulation

# setjmp / longjmp (SunOS setjmp flushes register windows).
SETJMP_SAVE = "setjmp_save"  # saving the jump buffer (minus the trap)
LONGJMP_RESTORE = "longjmp_restore"

# Multiprocessor coherence and cross-CPU signalling (see docs/SMP.md).
# Calibrated against the SPARC T3-4 characterization: on-chip
# cache-to-cache transfers are an order of magnitude cheaper than
# cross-chip ones, and interprocessor interrupts cost microseconds
# end to end.  Charged by repro.hw.memory.CacheDirectory and
# repro.sim.smp.
LINE_TRANSFER_NEAR = "line_transfer_near"  # cache line moves, same chip
LINE_TRANSFER_FAR = "line_transfer_far"  # cache line moves, cross chip
LINE_SHARED_JOIN = "line_shared_join"  # join an existing sharer set (read)
SPIN_READ = "spin_read"  # one spin-loop load + compare on a cached line
IPI_SEND = "ipi_send"  # trap into the kernel, write the mondo/cross-call
IPI_RECEIVE = "ipi_receive"  # interrupt entry + handler on the target CPU
IPI_LATENCY = "ipi_latency"  # wire time: send to interrupt assertion
SMP_MIGRATE = "smp_migrate"  # pull a task from another CPU's run queue
SMP_DISPATCH = "smp_dispatch"  # per-CPU scheduler picks its next task

# Misc library operations.
CREATE_MISC = "create_misc"  # pthread_create bookkeeping
JOIN_WORK = "join_work"
EXIT_WORK = "exit_work"
DETACH_WORK = "detach_work"
CANCEL_WORK = "cancel_work"
TSD_OP = "tsd_op"  # thread-specific data get/set
ONCE_OP = "once_op"
CLEANUP_OP = "cleanup_op"
ATTR_OP = "attr_op"
TIMER_TICK = "timer_tick"  # library-side timer bookkeeping

# ---------------------------------------------------------------------------
# Cost paths: one key for a fixed run of primitives charged with no clock
# read between them.  A path is priced as the sum of its parts on every
# model (overrides of a part carry through), so charging it once is
# exactly charging each part in turn.
# ---------------------------------------------------------------------------

#: path key -> the primitive keys it sums.
PATHS: Dict[str, Tuple[str, ...]] = {}


def _path(*parts: str) -> str:
    key = "+".join(parts)
    PATHS[key] = parts
    return key


# One UNIX kernel crossing: enter + exit plus the service's in-kernel
# work (``UnixKernel._enter`` charges exactly one of these per call).
SYS_GETPID = _path(SYSCALL, GETPID_WORK)
SYS_SIGSETMASK = _path(SYSCALL, SIGSETMASK_WORK)
SYS_SIGACTION = _path(SYSCALL, SIGACTION_WORK)
SYS_SETITIMER = _path(SYSCALL, SETITIMER_WORK)
SYS_KILL = _path(SYSCALL, KILL_WORK)
SYS_SBRK = _path(SYSCALL, SBRK_WORK)
SYS_SOCKET = _path(SYSCALL, SOCKET_WORK)
SYS_BIND = _path(SYSCALL, BIND_WORK)
SYS_ACCEPT = _path(SYSCALL, ACCEPT_WORK)
SYS_CONNECT = _path(SYSCALL, CONNECT_WORK)
SYS_SEND = _path(SYSCALL, SEND_WORK)
SYS_RECV = _path(SYSCALL, RECV_WORK)
SYS_SELECT = _path(SYSCALL, SELECT_WORK)
SYS_EPOLL_CREATE = _path(SYSCALL, EPOLL_WORK)
SYS_EPOLL_CTL = _path(SYSCALL, EPOLL_CTL_WORK)
SYS_EPOLL_WAIT = _path(SYSCALL, EPOLL_WAIT_WORK)


#: Baseline cycle costs.  Individual CPU models override entries.
_DEFAULT_CYCLES: Dict[str, int] = {
    INSN: 1,
    CALL: 2,
    RET: 2,
    LDSTUB: 3,
    CAS: 5,
    FLUSH_WINDOWS_TRAP: 560,
    WINDOW_UNDERFLOW_TRAP: 500,
    WINDOW_OVERFLOW_TRAP: 120,
    WINDOW_FILL_TRAP: 120,
    WINDOW_REGS: 40,
    SYSCALL: 700,
    GETPID_WORK: 20,
    SIGSETMASK_WORK: 24,
    SIGACTION_WORK: 60,
    SETITIMER_WORK: 80,
    KILL_WORK: 120,
    SBRK_WORK: 400,
    SOCKET_WORK: 180,
    BIND_WORK: 60,
    ACCEPT_WORK: 90,
    CONNECT_WORK: 140,
    SEND_WORK: 80,
    RECV_WORK: 80,
    SELECT_WORK: 120,
    SELECT_PER_FD: 12,
    NET_DELIVER: 40,
    EPOLL_WORK: 150,
    EPOLL_CTL_WORK: 70,
    EPOLL_WAIT_WORK: 110,
    EPOLL_PER_READY: 8,
    UNIX_SIGNAL_DELIVER: 6160,
    UNIX_SIGRETURN: 1100,
    PROC_SWITCH: 4900,
    HEAP_ALLOC: 500,
    HEAP_FREE: 180,
    POOL_POP: 20,
    POOL_PUSH: 16,
    STACK_FAULT_IN: 8000,  # ~4 zero-fill faults at ~50us on the IPX
    TCB_INIT: 180,
    STACK_SETUP: 90,
    ENTER_KERNEL: 8,
    LEAVE_KERNEL: 8,
    DISPATCH_SELECT: 80,
    DISPATCH_OVERHEAD: 300,
    READY_ENQUEUE: 30,
    READY_DEQUEUE: 30,
    ERRNO_SWITCH: 12,
    MUTEX_FAST_LOCK: 14,
    MUTEX_FAST_UNLOCK: 10,
    MUTEX_SLOW_EXTRA: 220,
    MUTEX_TRANSFER: 500,
    PROTOCOL_CHECK: 3,
    PRIO_ADJUST: 60,
    COND_WAIT_SETUP: 60,
    COND_SIGNAL_WORK: 60,
    SEM_OVERHEAD: 12,
    SIG_RECIPIENT_RULES: 80,
    SIG_ACTION_RULES: 80,
    FAKE_CALL_SETUP: 200,
    WRAPPER_OVERHEAD: 120,
    SIG_LOG_IN_KERNEL: 20,
    SIG_MASK_OP: 14,
    # SMP defaults follow the T3-4 shape: ~40ns for an on-chip
    # cache-to-cache transfer, ~290ns cross-chip, and a few
    # microseconds for an IPI round trip (send trap + wire latency +
    # interrupt entry).  Expressed in cycles of the modelled clock.
    LINE_TRANSFER_NEAR: 70,
    LINE_TRANSFER_FAR: 480,
    LINE_SHARED_JOIN: 30,
    SPIN_READ: 4,
    IPI_SEND: 350,
    IPI_RECEIVE: 800,
    IPI_LATENCY: 3000,
    SMP_MIGRATE: 600,
    SMP_DISPATCH: 40,
    SETJMP_SAVE: 40,
    LONGJMP_RESTORE: 120,
    CREATE_MISC: 120,
    JOIN_WORK: 90,
    EXIT_WORK: 140,
    DETACH_WORK: 50,
    CANCEL_WORK: 90,
    TSD_OP: 18,
    ONCE_OP: 14,
    CLEANUP_OP: 20,
    ATTR_OP: 10,
    TIMER_TICK: 60,
}


@dataclass(frozen=True)
class CostModel:
    """A named CPU model: clock rate plus a cycle cost table."""

    name: str
    mhz: float
    overrides: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        priced = set(self.overrides) & set(PATHS)
        if priced:
            raise ValueError(
                "a path is priced by its parts, not overridden: %s"
                % ", ".join(sorted(priced))
            )

    def cost(self, key: str) -> int:
        """Cycle cost of the primitive or path ``key`` on this model."""
        parts = PATHS.get(key)
        if parts is not None:
            return sum(self.cost(part) for part in parts)
        if key in self.overrides:
            return self.overrides[key]
        return _DEFAULT_CYCLES[key]

    def table(self) -> Dict[str, int]:
        """The full key->cycles table with overrides applied, paths
        included (each the sum of its parts).

        Hot paths (``World.spend``) use this flat dict instead of
        paying the two-stage ``cost`` lookup per charge.  Each call
        returns a fresh copy of a table merged once per model.
        """
        return dict(self._merged)

    @cached_property
    def _merged(self) -> Dict[str, int]:
        merged = dict(_DEFAULT_CYCLES)
        merged.update(self.overrides)
        for key, parts in PATHS.items():
            merged[key] = sum(merged[part] for part in parts)
        return merged

    def us(self, cycles: int) -> float:
        """Convert a cycle count to microseconds on this model."""
        return cycles / self.mhz

    def cycles_for_us(self, us: float) -> int:
        """Cycles that elapse in ``us`` microseconds on this model."""
        return int(round(us * self.mhz))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


#: Sun SPARC 1+ at 25 MHz.  Slower memory system: traps, allocation and
#: TCB initialisation are relatively more expensive than on the IPX.
SPARC_1PLUS = CostModel(
    name="sparc-1+",
    mhz=25.0,
    overrides={
        FLUSH_WINDOWS_TRAP: 560,
        WINDOW_UNDERFLOW_TRAP: 500,
        SETJMP_SAVE: 44,
        LONGJMP_RESTORE: 130,
        TCB_INIT: 300,
        STACK_SETUP: 130,
        STACK_FAULT_IN: 9000,  # slower memory system: pricier faults
        HEAP_ALLOC: 640,
        CREATE_MISC: 140,
        COND_WAIT_SETUP: 120,
        COND_SIGNAL_WORK: 110,
        SEM_OVERHEAD: 30,
        DISPATCH_OVERHEAD: 340,
    },
)

#: Sun SPARC IPX at 40 MHz.
SPARC_IPX = CostModel(
    name="sparc-ipx",
    mhz=40.0,
    overrides={
        FLUSH_WINDOWS_TRAP: 520,
        WINDOW_UNDERFLOW_TRAP: 460,
    },
)

#: A many-core SPARC in the T3-4 mould, used by the SMP lock-zoo
#: benchmarks.  Atomics are pricier than on the scalar SPARCs (deeper
#: pipeline, the op must reach the L2 coherence point) and cross-chip
#: coherence is far slower than on-chip, per the T3-4 characterization.
NIAGARA_T3 = CostModel(
    name="niagara-t3",
    mhz=1650.0,
    overrides={
        LDSTUB: 6,
        CAS: 8,
        LINE_TRANSFER_NEAR: 70,
        LINE_TRANSFER_FAR: 480,
        IPI_LATENCY: 3300,  # ~2us of wire + queueing at 1.65 GHz
    },
)

_MODELS: Dict[str, CostModel] = {
    SPARC_1PLUS.name: SPARC_1PLUS,
    SPARC_IPX.name: SPARC_IPX,
    NIAGARA_T3.name: NIAGARA_T3,
    # Convenience aliases.
    "sparc1+": SPARC_1PLUS,
    "ipx": SPARC_IPX,
    "t3": NIAGARA_T3,
}


def cost_model(name: str) -> CostModel:
    """Look up a CPU model by name (``"sparc-1+"`` or ``"sparc-ipx"``)."""
    try:
        return _MODELS[name.lower()]
    except KeyError:
        raise KeyError(
            "unknown CPU model %r (have: %s)"
            % (name, ", ".join(sorted(_MODELS)))
        ) from None


def all_cost_keys() -> Dict[str, int]:
    """The full default cost table, paths included (for introspection
    and tests)."""
    return CostModel("defaults", 1.0).table()
