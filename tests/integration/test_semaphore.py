"""Counting semaphores (the composition from paper ref [17])."""

from repro.core.errors import EAGAIN, OK
from tests.conftest import run_program


def test_initial_value_consumed_without_blocking():
    out = {}

    def main(pt):
        sem = yield pt.sem_init(2)
        yield pt.sem_wait(sem)
        yield pt.sem_wait(sem)
        out["value"] = yield pt.sem_getvalue(sem)

    run_program(main)
    assert out["value"] == 0


def test_wait_blocks_until_post():
    log = []

    def waiter(pt, sem):
        log.append("waiting")
        yield pt.sem_wait(sem)
        log.append("through")

    def main(pt):
        sem = yield pt.sem_init(0)
        t = yield pt.create(waiter, sem)
        yield pt.delay_us(100)
        log.append("posting")
        yield pt.sem_post(sem)
        yield pt.join(t)

    run_program(main)
    assert log == ["waiting", "posting", "through"]


def test_counting_behaviour():
    """N posts release exactly N waits."""
    state = {"through": 0}

    def waiter(pt, sem):
        yield pt.sem_wait(sem)
        state["through"] += 1

    def main(pt):
        sem = yield pt.sem_init(0)
        threads = []
        for _ in range(5):
            threads.append((yield pt.create(waiter, sem)))
        yield pt.delay_us(100)
        for _ in range(3):
            yield pt.sem_post(sem)
        yield pt.delay_us(1000)
        assert state["through"] == 3
        yield pt.sem_post(sem)
        yield pt.sem_post(sem)
        for t in threads:
            yield pt.join(t)

    run_program(main, priority=100)
    assert state["through"] == 5


def test_trywait():
    out = {}

    def main(pt):
        sem = yield pt.sem_init(1)
        out["first"] = yield pt.sem_trywait(sem)
        out["second"] = yield pt.sem_trywait(sem)
        yield pt.sem_post(sem)
        out["third"] = yield pt.sem_trywait(sem)

    run_program(main)
    assert out == {"first": OK, "second": EAGAIN, "third": OK}


def test_trywait_while_another_thread_holds_the_mutex():
    """Regression: ``sem_trywait`` took the semaphore's mutex with a
    blocking lock, so while another thread held it (as ``sem_post`` and
    ``sem_wait`` do between their lock and unlock) the non-blocking P
    blocked until the holder let go, then returned 0 without taking a
    unit, and its thread exited owning the mutex."""
    out = {}
    log = []

    def trier(pt, sem):
        out["err"] = yield pt.sem_trywait(sem)
        log.append("tried")

    def main(pt):
        sem = yield pt.sem_init(0)
        yield pt.mutex_lock(sem.mutex)
        t = yield pt.create(trier, sem)
        yield pt.delay_us(200)
        log.append("unlocking")
        yield pt.mutex_unlock(sem.mutex)
        yield pt.join(t)
        out["count"] = sem.count
        out["owner"] = sem.mutex.owner

    run_program(main)
    assert out["err"] == EAGAIN
    assert log == ["tried", "unlocking"]
    assert out["count"] == 0
    assert out["owner"] is None


def test_producer_consumer_bounded_buffer():
    """The classic bounded buffer: two semaphores plus a mutex."""
    produced, consumed = [], []

    def producer(pt, buf, empty, full, m):
        for i in range(10):
            yield pt.sem_wait(empty)
            yield pt.mutex_lock(m)
            buf.append(i)
            produced.append(i)
            yield pt.mutex_unlock(m)
            yield pt.sem_post(full)

    def consumer(pt, buf, empty, full, m):
        for _ in range(10):
            yield pt.sem_wait(full)
            yield pt.mutex_lock(m)
            consumed.append(buf.pop(0))
            yield pt.mutex_unlock(m)
            yield pt.sem_post(empty)

    def main(pt):
        buf = []
        empty = yield pt.sem_init(3)  # capacity 3
        full = yield pt.sem_init(0)
        m = yield pt.mutex_init()
        p = yield pt.create(producer, buf, empty, full, m)
        c = yield pt.create(consumer, buf, empty, full, m)
        yield pt.join(p)
        yield pt.join(c)
        assert len(buf) == 0

    run_program(main)
    assert consumed == list(range(10))


def test_destroy_reports_waiters_busy():
    out = {}

    def waiter(pt, sem):
        yield pt.sem_wait(sem)

    def main(pt):
        sem = yield pt.sem_init(0)
        yield pt.create(waiter, sem)
        yield pt.delay_us(100)
        out["busy"] = yield pt.sem_destroy(sem)
        yield pt.sem_post(sem)
        yield pt.delay_us(500)
        out["ok"] = yield pt.sem_destroy(sem)

    run_program(main, priority=100)
    assert out["busy"] != OK
    assert out["ok"] == OK
