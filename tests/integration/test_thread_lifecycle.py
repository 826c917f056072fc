"""Thread management: create, join, detach, exit, identity."""

import pytest

from repro.core import config as cfg
from repro.core.attr import ThreadAttr
from repro.core.errors import EDEADLK, EINVAL, ESRCH, OK
from repro.core.tcb import ThreadState
from repro.unix.sigset import SIGUSR1
from tests.conftest import make_runtime, run_program


def test_create_and_join_returns_value():
    def child(pt, n):
        yield pt.work(10)
        return n + 1

    out = {}

    def main(pt):
        t = yield pt.create(child, 41)
        err, value = yield pt.join(t)
        out["result"] = (err, value)

    run_program(main)
    assert out["result"] == (OK, 42)


def test_join_self_deadlock():
    out = {}

    def main(pt):
        me = yield pt.self_id()
        err, _ = yield pt.join(me)
        out["err"] = err

    run_program(main)
    assert out["err"] == EDEADLK


def test_join_detached_thread_rejected():
    out = {}

    def child(pt):
        yield pt.work(10)

    def main(pt):
        t = yield pt.create(
            child, attr=ThreadAttr(detach_state=cfg.PTHREAD_CREATE_DETACHED)
        )
        err, _ = yield pt.join(t)
        out["err"] = err

    run_program(main)
    assert out["err"] == EINVAL


def test_second_joiner_rejected():
    out = {}

    def sleeper(pt):
        yield pt.delay_us(500)

    def joiner(pt, target):
        err, _ = yield pt.join(target)
        return err

    def main(pt):
        t = yield pt.create(sleeper, name="sleeper")
        j = yield pt.create(joiner, t, name="joiner")
        yield pt.yield_()  # let the first joiner block
        err, _ = yield pt.join(t)
        out["second"] = err
        out["first"] = (yield pt.join(j))[1]

    run_program(main)
    assert out["second"] == EINVAL
    assert out["first"] == OK


def test_detach_then_terminate_reclaims():
    out = {}

    def child(pt):
        yield pt.work(10)

    def main(pt):
        t = yield pt.create(child, name="kid")
        out["kid"] = t
        err = yield pt.detach(t)
        assert err == OK
        yield pt.delay_us(200)  # let it finish

    run_program(main)
    assert out["kid"].reclaimed


def test_join_already_terminated_thread():
    out = {}

    def child(pt):
        yield pt.work(5)
        return "done-early"

    def main(pt):
        t = yield pt.create(child)
        yield pt.delay_us(200)  # child completes while we sleep
        err, value = yield pt.join(t)
        out["r"] = (err, value)

    run_program(main)
    assert out["r"] == (OK, "done-early")


def test_joined_thread_is_reclaimed_and_stale():
    out = {}

    def child(pt):
        yield pt.work(1)

    def main(pt):
        t = yield pt.create(child)
        yield pt.join(t)
        err, _ = yield pt.join(t)  # stale handle
        out["again"] = err

    run_program(main)
    assert out["again"] == ESRCH


def test_explicit_exit_value():
    out = {}

    def child(pt):
        yield pt.work(1)
        yield pt.exit("early-exit")
        out["after"] = True  # must not run

    def main(pt):
        t = yield pt.create(child)
        err, value = yield pt.join(t)
        out["value"] = value

    run_program(main)
    assert out["value"] == "early-exit"
    assert "after" not in out


def test_self_and_equal():
    out = {}

    def child(pt, box):
        me = yield pt.self_id()
        box.append(me)
        yield pt.work(1)

    def main(pt):
        box = []
        t = yield pt.create(child, box)
        yield pt.join(t)
        me = yield pt.self_id()
        out["child_saw_itself"] = box[0] is t
        out["self_ne_child"] = not (yield pt.equal(me, t))
        out["self_eq_self"] = yield pt.equal(me, me)

    run_program(main)
    assert out == {
        "child_saw_itself": True,
        "self_ne_child": True,
        "self_eq_self": True,
    }


def test_detach_twice_rejected():
    out = {}

    def child(pt):
        yield pt.delay_us(300)

    def main(pt):
        t = yield pt.create(child)
        yield pt.detach(t)
        out["second"] = yield pt.detach(t)
        # Let the child finish so the run terminates cleanly.
        yield pt.delay_us(500)

    run_program(main)
    assert out["second"] == EINVAL


def test_thread_inherits_creator_sched_when_asked():
    out = {}

    def child(pt):
        me = yield pt.self_id()
        out["prio"] = me.base_priority
        yield pt.work(1)

    def main(pt):
        t = yield pt.create(child, attr=ThreadAttr(inherit_sched=True))
        yield pt.join(t)

    run_program(main, priority=99)
    assert out["prio"] == 99


def test_stack_reuse_through_pool():
    def child(pt):
        yield pt.work(1)

    def main(pt):
        for _ in range(10):
            t = yield pt.create(child)
            yield pt.join(t)

    rt = run_program(main, pool_size=2)
    assert rt.pool.hits >= 9  # recycled after the first round


def test_implicit_exit_equivalent_to_explicit():
    """Returning from the start routine behaves as pthread_exit."""
    out = {}

    def returns(pt):
        yield pt.work(1)
        return "r"

    def exits(pt):
        yield pt.work(1)
        yield pt.exit("e")

    def main(pt):
        t1 = yield pt.create(returns)
        t2 = yield pt.create(exits)
        out["r"] = (yield pt.join(t1))[1]
        out["e"] = (yield pt.join(t2))[1]

    run_program(main)
    assert out == {"r": "r", "e": "e"}


#: Every call that takes a thread handle, and what it returns for a
#: handle that names no thread (``getprio`` reports errors negated).
HANDLE_CALLS = {
    "join": (lambda pt, t: pt.join(t), (ESRCH, None)),
    "detach": (lambda pt, t: pt.detach(t), ESRCH),
    "setprio": (lambda pt, t: pt.setprio(t, 50), ESRCH),
    "getprio": (lambda pt, t: pt.getprio(t), -ESRCH),
    "setschedparam": (
        lambda pt, t: pt.setschedparam(t, cfg.SCHED_RR, 50), ESRCH,
    ),
    "getschedparam": (lambda pt, t: pt.getschedparam(t), (ESRCH, "", -1)),
    "activate": (lambda pt, t: pt.activate(t), ESRCH),
    "kill": (lambda pt, t: pt.kill(t, SIGUSR1), ESRCH),
    "cancel": (lambda pt, t: pt.cancel(t), ESRCH),
}


@pytest.mark.parametrize("handle", ["not-a-tcb", "reclaimed"])
@pytest.mark.parametrize("call", sorted(HANDLE_CALLS))
def test_bad_thread_handle_is_esrch(call, handle):
    make_call, expected = HANDLE_CALLS[call]
    out = {}

    def child(pt):
        yield pt.work(5)

    def main(pt):
        if handle == "reclaimed":
            target = yield pt.create(child)
            yield pt.join(target)
        else:
            target = 42
        out["r"] = yield make_call(pt, target)

    run_program(main)
    assert out["r"] == expected
