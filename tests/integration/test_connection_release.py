"""A closed connection is freed when it closes, not by the cycle collector.

The two ends of a connection -- a server :class:`~repro.unix.net.Socket`
and the load generator's :class:`~repro.unix.net.ResidentClient` --
reference each other through ``peer`` only while open.  With the
cyclic collector off, reference counting alone must free both ends of
every closed connection, so when ``PthreadsRuntime.run`` returns from a
one-request churn run no socket and no client record is left alive, on
every server architecture.
"""

import gc

import pytest

from repro.net import scenario
from repro.unix.net import ResidentClient, Socket

CLIENTS = 300


@pytest.mark.parametrize("arch", ["pool", "perconn", "select", "epoll"])
def test_every_closed_connection_is_freed_by_run_end(arch, monkeypatch):
    alive = {}
    run = scenario.PthreadsRuntime.run

    def counted(rt, *args, **kwargs):
        out = run(rt, *args, **kwargs)
        objects = gc.get_objects()
        alive["sockets"] = sum(
            type(o) is Socket and o.stack is rt.net for o in objects
        )
        alive["clients"] = sum(
            type(o) is ResidentClient and o.engine.stack is rt.net
            for o in objects
        )
        return out

    monkeypatch.setattr(scenario.PthreadsRuntime, "run", counted)
    gc.collect()
    gc.disable()
    try:
        report = scenario.run_scenario(
            arch=arch, seed=1, clients=CLIENTS, requests_per_client=1,
            mean_gap_us=600.0, think_us=0.0,
        )
    finally:
        gc.enable()
    assert report.replies == CLIENTS
    assert alive == {"sockets": 0, "clients": 0}
