"""What a kernel-resident client costs in host memory.

The paper's argument is that a client of the library needs only a
small kernel-resident record -- no thread, no stack.  This pins that
for the load generator: the sf10 fixture's shape (perfbench's
``NET_SF10``) at 2,000 clients, seed 1, under ``tracemalloc``.  A
client is one :class:`~repro.unix.net.ResidentClient` record that is
its own end of the connection, plus one server-side socket whose
receive buffer allocates no container.
"""

import tracemalloc

from perfbench.workloads import NET_SF10
from repro.net import scenario
from repro.unix.net import RemoteEndpoint, ResidentClient, Socket

CLIENTS = 2_000
#: Peak traced bytes per client, after a small warm-up run.  A
#: kernel-owned client socket plus a deque per receive buffer read
#: 2,371; the intrusive queue with the client as its own endpoint read
#: 1,120-1,195 with a copied ``meta`` dict per message, and a message
#: that is only a byte count reads 965-1,020 (alone or in the suite).
MAX_BYTES_PER_CLIENT = 1_100


def test_resident_client_peak_memory_per_client(monkeypatch):
    # One-time costs -- compiling lazily imported modules, filling the
    # interpreter's free lists -- are not per-client: pay them first,
    # so the figure is the same whether the file runs alone or in the
    # suite.
    scenario.run_scenario(seed=1, **dict(NET_SF10, clients=20))
    stacks = []
    add_net_stack = scenario.PthreadsRuntime.add_net_stack

    def capture(rt, *args, **kwargs):
        stacks.append(add_net_stack(rt, *args, **kwargs))
        return stacks[-1]

    monkeypatch.setattr(scenario.PthreadsRuntime, "add_net_stack", capture)
    sockets = [0]
    socket_init = Socket.__init__

    def counted(sock, *args, **kwargs):
        sockets[0] += 1
        socket_init(sock, *args, **kwargs)

    monkeypatch.setattr(Socket, "__init__", counted)
    params = dict(NET_SF10, clients=CLIENTS)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = scenario.run_scenario(seed=1, **params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.replies == CLIENTS * params["requests_per_client"]
    assert report.peak_clients == CLIENTS
    per_client = (peak - base) / CLIENTS
    assert per_client <= MAX_BYTES_PER_CLIENT, per_client
    # One socket per connection (the server side) plus the listener:
    # the client record is its own end, so no socket is made for it.
    (stack,) = stacks
    assert sockets[0] == CLIENTS + 1
    assert issubclass(ResidentClient, RemoteEndpoint)
    assert not issubclass(RemoteEndpoint, Socket)
    assert "kernel_owned" not in Socket.__slots__
    # The accept depth is a running maximum, not an O(connections) list.
    assert not hasattr(stack, "accept_depths")
    assert stack.accept_depth_max == report.accept_depth_max > 0
