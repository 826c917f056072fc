"""Library-wide constants and tunables.

Priorities follow the draft's convention: larger number = more urgent.
The scheduling policy names cover POSIX (`SCHED_FIFO`, `SCHED_RR`,
`SCHED_OTHER`) plus the paper's three *perverted* debugging policies.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Priority range (inclusive).
PTHREAD_MIN_PRIORITY = 0
PTHREAD_MAX_PRIORITY = 127

#: Default priority of threads created with default attributes.
PTHREAD_DEFAULT_PRIORITY = 64

# Scheduling policies.
SCHED_FIFO = "fifo"
SCHED_RR = "rr"
SCHED_OTHER = "other"  # alias of FIFO in this implementation
# Perverted debugging policies (paper, "Perverted Scheduling").
SCHED_MUTEX_SWITCH = "mutex-switch"
SCHED_RR_ORDERED = "rr-ordered-switch"
SCHED_RANDOM = "random-switch"

ALL_POLICIES = frozenset(
    {
        SCHED_FIFO,
        SCHED_RR,
        SCHED_OTHER,
        SCHED_MUTEX_SWITCH,
        SCHED_RR_ORDERED,
        SCHED_RANDOM,
    }
)

# Mutex protocols (attribute values).
PRIO_NONE = "none"
PRIO_INHERIT = "inherit"
PRIO_PROTECT = "protect"  # priority ceiling, implemented via SRP

ALL_PROTOCOLS = frozenset({PRIO_NONE, PRIO_INHERIT, PRIO_PROTECT})

# Cancellation (draft-6 "interruptibility") constants.
PTHREAD_INTR_ENABLE = "enable"
PTHREAD_INTR_DISABLE = "disable"
PTHREAD_INTR_CONTROLLED = "controlled"
PTHREAD_INTR_ASYNCHRONOUS = "asynchronous"

#: The value a cancelled thread's exit status carries.
PTHREAD_CANCELED = object()

#: Detach state attribute values.
PTHREAD_CREATE_JOINABLE = "joinable"
PTHREAD_CREATE_DETACHED = "detached"

#: Default thread stack size in bytes.
DEFAULT_STACK_SIZE = 64 * 1024

#: Maximum number of thread-specific-data keys.
PTHREAD_KEYS_MAX = 128

#: Iterations of destructor passes at thread exit (POSIX allows a cap).
PTHREAD_DESTRUCTOR_ITERATIONS = 4


@dataclass
class RuntimeConfig:
    """Tunables for one :class:`~repro.core.runtime.PthreadsRuntime`.

    Attributes
    ----------
    pool_size:
        Pre-cached TCB/stack pairs (0 disables the pool; the ablation
        benchmark uses this to reproduce the paper's "allocation is
        ~70 % of creation time" claim).
    timeslice_us:
        Round-robin quantum in microseconds for ``SCHED_RR`` threads
        (None disables the slicer entirely).
    unboost_placement:
        Where a thread goes in its priority queue when a protocol boost
        is removed: ``"head"`` (the paper's recommendation -- the thread
        is not penalised for a boost it did not choose) or ``"tail"``
        (strict requeue).
    mixed_protocol_unlock:
        How unlocking behaves when inheritance and ceiling mutexes are
        nested (the paper's Table 4 discussion): ``"linear-search"``
        recomputes from all held mutexes (safe, avoids unbounded
        inversion) or ``"stack"`` (pure SRP pop -- exhibits the paper's
        step-4 divergence, kept for the Table 4 reproduction).
    segments:
        Enable the executor's segment cache (see
        :mod:`repro.sim.segments`): hot loops of ops are recorded once
        under a certifier and replayed from a per-segment plan.  Purely
        a host-speed feature -- simulated behaviour is bit-identical
        either way, which the property tests assert and
        ``tests/integration/test_segment_replay_pin.py`` pins.
        ``segments=False`` is the one switch for the interpreter-only
        reference runs.
    """

    pool_size: int = 32
    timeslice_us: float = 20_000.0
    unboost_placement: str = "head"
    mixed_protocol_unlock: str = "linear-search"
    segments: bool = True

    def __post_init__(self) -> None:
        if self.pool_size < 0:
            raise ValueError("pool_size must be >= 0")
        if self.timeslice_us is not None and self.timeslice_us < 500.0:
            # A quantum smaller than the slice-handling cost livelocks:
            # the timer is permanently overdue and no thread progresses
            # (the same thrash a real machine would exhibit).
            raise ValueError(
                "timeslice_us must be >= 500 microseconds or None, got %r"
                % (self.timeslice_us,)
            )
        if self.unboost_placement not in ("head", "tail"):
            raise ValueError(
                "unboost_placement must be 'head' or 'tail', got %r"
                % (self.unboost_placement,)
            )
        if self.mixed_protocol_unlock not in ("linear-search", "stack"):
            raise ValueError(
                "mixed_protocol_unlock must be 'linear-search' or 'stack', "
                "got %r" % (self.mixed_protocol_unlock,)
            )


def check_priority(priority: int) -> int:
    """Validate a priority; returns it or raises ValueError."""
    if not PTHREAD_MIN_PRIORITY <= priority <= PTHREAD_MAX_PRIORITY:
        raise ValueError(
            "priority %r outside [%d, %d]"
            % (priority, PTHREAD_MIN_PRIORITY, PTHREAD_MAX_PRIORITY)
        )
    return priority
