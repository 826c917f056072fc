"""``cleanup-balance`` sees a thread that leaves the table at its exit.

A detached thread is reclaimed inside its own exit, before the kernel
release whose sweep would see it terminated; the reclaim hook runs the
rule on it as it leaves.
"""

import pytest

from repro.check.invariants import CheckContext, InvariantViolation
from repro.core.attr import ThreadAttr
from repro.core.config import PTHREAD_CREATE_DETACHED, RuntimeConfig
from repro.core.runtime import PthreadsRuntime


def _handler(pt, arg):
    yield pt.work(1)


def test_detached_exit_with_cleanup_pushed_fires():
    def child(pt):
        yield pt.cleanup_push(_handler)
        # Terminate without running the exit body that pops handlers.
        yield pt.lib_raw("_finalize_exit", None)

    def main(pt):
        yield pt.create(
            child, attr=ThreadAttr(detach_state=PTHREAD_CREATE_DETACHED)
        )
        yield pt.delay_us(100)

    check = CheckContext()
    runtime = PthreadsRuntime(config=RuntimeConfig(pool_size=16), check=check)
    runtime.main(main, priority=100)
    with pytest.raises(InvariantViolation, match="cleanup-balance"):
        runtime.run()
    assert check.violations_found == 1
